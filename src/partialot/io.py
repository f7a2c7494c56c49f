"""Self-describing JSON file formats for pairs, measures, diagrams and plans.

* pair:     {"kind": "half_plane"} |
            {"kind": "euclidean_box", "lo": [...], "hi": [...]} |
            {"kind": "finite", "dist": [[...]], "A": [...]}
* measure:  {"pair": <pair description or path>, "atoms": [{"point": ..., "mass": m}, ...]}
* diagram:  {"points": [[b, d], ...], "pair": optional}   (multiplicity by repetition)
* plan:     {"pair": ..., "p": p, "entries": [{"src": ..., "dst": ..., "mass": m}, ...],
             "duals": {"sources": [[point, value], ...], "sinks": [...]}}  (duals optional,
             one potential per point)

A measure's "pair" may be a string path to a pair file, resolved relative to
the measure file.  Floats survive a JSON round trip bit-for-bit.
"""

import json
import math
import os

from .errors import MalformedFileError, PartialOTError, as_number
from .measures import DiscreteMeasure, PersistenceDiagram, new_diagram, new_measure
from .pairs import pair_from_description
from .plans import TransportPlan, new_plan
from .solver import DualPotentials


def _read_json(path):
    """The parsed file, or MalformedFileError naming ``path`` for any read or parse failure.

    Besides bad JSON, ``json.load`` raises ValueError for bad UTF-8 or an int
    past Python's digit limit, and RecursionError for arrays nested too deep.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _point_to_json(pt):
    return pt if isinstance(pt, int) else list(pt)


def _point_from_json(raw, path):
    if isinstance(raw, list):
        return tuple(raw)
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise MalformedFileError(f"{path}: point must be a list or an integer index, got {raw!r}")


def _resolve_pair(raw, path, default_pair):
    if raw is None:
        if default_pair is None:
            raise MalformedFileError(f"{path}: no 'pair' given and no default pair")
        return default_pair
    if isinstance(raw, str):
        ref = raw if os.path.isabs(raw) else os.path.join(os.path.dirname(path), raw)
        return load_pair(ref)
    try:
        return pair_from_description(raw)
    except ValueError as exc:
        raise MalformedFileError(f"{path}: bad pair description: {exc}") from exc


def load_pair(path):
    data = _read_json(path)
    try:
        return pair_from_description(data)
    except ValueError as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


def save_pair(pair, path):
    _write_json(pair.describe(), path)


def load_measure(path) -> DiscreteMeasure:
    data = _read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("atoms"), list):
        raise MalformedFileError(f"{path}: measure file must contain an 'atoms' list")
    pair = _resolve_pair(data.get("pair"), path, None)
    atoms = []
    for k, rec in enumerate(data["atoms"]):
        try:
            atoms.append((_point_from_json(rec["point"], path), as_number(rec["mass"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFileError(f"{path}: atom #{k} malformed: {exc}") from exc
    try:
        return new_measure(pair, atoms)
    except PartialOTError as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


def save_measure(mu: DiscreteMeasure, path):
    _write_json(
        {
            "pair": mu.pair.describe(),
            "atoms": [{"point": _point_to_json(pt), "mass": m} for pt, m in mu.atoms],
        },
        path,
    )


def load_diagram(path, default_pair=None) -> PersistenceDiagram:
    data = _read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise MalformedFileError(f"{path}: diagram file must contain a 'points' list")
    pair = data.get("pair")
    pair = _resolve_pair(pair, path, default_pair) if pair is not None else default_pair
    points = [_point_from_json(raw, path) for raw in data["points"]]
    try:
        return new_diagram(points, pair=pair)
    except PartialOTError as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


def save_diagram(sigma: PersistenceDiagram, path):
    _write_json(
        {
            "pair": sigma.pair.describe(),
            "points": [_point_to_json(pt) for pt in sigma.points],
        },
        path,
    )


def load_plan(path, default_pair=None):
    """Load (plan, duals); duals is None when the file has none."""
    data = _read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list) or "p" not in data:
        raise MalformedFileError(f"{path}: plan file must contain an 'entries' list and 'p'")
    pair = _resolve_pair(data.get("pair"), path, default_pair)
    entries = []
    for k, rec in enumerate(data["entries"]):
        try:
            entries.append(
                (
                    _point_from_json(rec["src"], path),
                    _point_from_json(rec["dst"], path),
                    as_number(rec["mass"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFileError(f"{path}: entry #{k} malformed: {exc}") from exc
    try:
        plan = new_plan(pair, entries, as_number(data["p"]))
    except (ValueError, TypeError) as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc

    duals = None
    if "duals" in data:
        raw = data["duals"]
        try:
            phi = {_point_from_json(pt, path): as_number(val) for pt, val in raw["sources"]}
            psi = {_point_from_json(pt, path): as_number(val) for pt, val in raw["sinks"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFileError(f"{path}: duals malformed: {exc}") from exc
        if len(phi) < len(raw["sources"]) or len(psi) < len(raw["sinks"]):
            raise MalformedFileError(f"{path}: duals malformed: a point has two potentials")
        if not all(map(math.isfinite, [*phi.values(), *psi.values()])):
            raise MalformedFileError(f"{path}: duals malformed: a value is not finite")
        duals = DualPotentials(phi, psi)
    return plan, duals


def save_plan(plan: TransportPlan, path, duals: DualPotentials = None):
    record = {
        "pair": plan.pair.describe(),
        "p": plan.p,
        "entries": [
            {"src": _point_to_json(s), "dst": _point_to_json(d), "mass": m}
            for s, d, m in plan.entries
        ],
    }
    if duals is not None:
        record["duals"] = {
            "sources": [[_point_to_json(pt), val] for pt, val in sorted(duals.phi.items())],
            "sinks": [[_point_to_json(pt), val] for pt, val in sorted(duals.psi.items())],
        }
    _write_json(record, path)
