"""Numbers past the float range and unparseable files end in the documented errors.

A number is an int, float or ``Fraction`` within the float range: an int or
``Fraction`` that ``float`` cannot convert is refused where an out-of-range
value is, never with a bare ``OverflowError``, and an int past Python's
4 300-digit string limit never with the bare ``ValueError`` its repr
raises.  Every way a loader can fail to read its file is a
``MalformedFileError`` that names the file, and the CLI exits 1 on it with
one ``error:`` line.
"""

import json
import re
from fractions import Fraction

import pytest

from partialot import (
    EuclideanBoxPair,
    FinitePair,
    HalfPlanePair,
    InvalidPointError,
    MalformedFileError,
    NonPositiveMassError,
    PartialOTError,
    certify_optimal,
    new_measure,
    new_plan,
    solve,
    truncate,
)
from partialot import io as pot_io
from partialot.cli import main
from partialot.measures import measures_close

HP = HalfPlanePair()
MU = new_measure(HP, [((0, 1), 1.0)])
NU = new_measure(HP, [((0, 2), 1.0)])
RESULT = solve(MU, NU, 2)

FIN = FinitePair(((0, 1), (1, 0)), frozenset({0}))

# Each entry point, the error it documents, a phrase of its own message, and
# how it is handed the value v.
ENTRY_POINTS = {
    "solve p": (PartialOTError, "exponent p", lambda v: solve(MU, NU, v)),
    "new_plan p": (
        PartialOTError, "exponent p", lambda v: new_plan(HP, [((0, 1), (0, 2), 1.0)], v)
    ),
    "truncate radius": (ValueError, "truncation radius", lambda v: truncate(MU, v)),
    "geo_point t": (
        ValueError, "interpolation parameter", lambda v: HP.geo_point((0, 1), (0, 2), v)
    ),
    "certify tol": (
        ValueError,
        "certificate tolerance",
        lambda v: certify_optimal(MU, NU, RESULT.plan, RESULT.duals, 2, v),
    ),
    "measures_close tol": (ValueError, "mass tolerance", lambda v: measures_close(MU, NU, v)),
    "box corner": (ValueError, "box corners", lambda v: EuclideanBoxPair((0, 0), (v, 1))),
    "finite table entry": (
        ValueError,
        "distance table entries",
        lambda v: FinitePair(((0, v), (v, 0)), frozenset({0})),
    ),
    "finite index": (InvalidPointError, "index", lambda v: new_measure(FIN, [(v, 1.0)])),
    "measure mass": (NonPositiveMassError, "mass", lambda v: new_measure(HP, [((0, 1), v)])),
    "plan mass": (NonPositiveMassError, "mass", lambda v: new_plan(HP, [((0, 1), (0, 2), v)], 2)),
    "coordinate": (InvalidPointError, "coordinates", lambda v: new_measure(HP, [((0, v), 1.0)])),
    "half-plane point": (
        InvalidPointError, "coordinate sequence", lambda v: new_measure(HP, [(v, 1.0)])
    ),
}


@pytest.mark.parametrize(
    "value",
    [10**400, -(10**400), Fraction(10**400, 3), 10**5000],
    ids=["1e400", "-1e400", "1e400/3", "1e5000"],
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_numbers_past_the_float_range_raise_the_documented_error(entry, value):
    # Exactly the documented class, with the package's own message: the bare
    # ValueError of an unprintable int would also pass pytest.raises(ValueError).
    error, phrase, call = ENTRY_POINTS[entry]
    with pytest.raises(error, match=phrase) as caught:
        call(value)
    assert type(caught.value) is error


HALF_PLANE = {"kind": "half_plane"}
OK_MEASURE = {"pair": HALF_PLANE, "atoms": [{"point": [0, 1], "mass": 1.0}]}
# The CLI command reading each kind of file last, after files it reads without fault.
COMMANDS = {
    "measure": ("dist", "ok.measure"),
    "diagram": ("diagram-dist", "ok.diagram"),
    "plan": ("certify", "ok.measure", "ok.measure"),
}


def _cli_refuses(tmp_path, capsys, kind, bad):
    """Run the CLI on ``bad``: exit 1 and one ``error:`` line that names the file."""
    (tmp_path / "ok.measure").write_text(json.dumps(OK_MEASURE))
    (tmp_path / "ok.diagram").write_text('{"points": [[0, 1]]}')
    command, *ok = COMMANDS[kind]
    assert main([command, "--p", "2", *(str(tmp_path / name) for name in ok), str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}") and captured.err.count("\n") == 1, captured.err


HUGE = 10**400
BOX = {"kind": "euclidean_box", "lo": [0, 0], "hi": [HUGE, 4]}
FINITE = {"kind": "finite", "dist": [[0, HUGE], [HUGE, 0]], "A": [0]}
ENTRY = {"src": [0, 1], "dst": [0, 2], "mass": HUGE}


@pytest.mark.parametrize(
    "kind, record",
    [
        ("measure", {"pair": HALF_PLANE, "atoms": [{"point": [0, 1], "mass": HUGE}]}),
        ("measure", {"pair": HALF_PLANE, "atoms": [{"point": [0, HUGE], "mass": 1.0}]}),
        ("measure", {"pair": BOX, "atoms": []}),
        ("measure", {"pair": FINITE, "atoms": []}),
        ("plan", {"pair": HALF_PLANE, "p": HUGE, "entries": []}),
        ("plan", {"pair": HALF_PLANE, "p": 2, "entries": [ENTRY]}),
    ],
    ids=["mass", "coordinate", "box-corner", "finite-entry", "plan-p", "plan-mass"],
)
def test_cli_refuses_a_json_number_past_the_float_range(tmp_path, capsys, kind, record):
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(json.dumps(record))
    with pytest.raises(MalformedFileError, match=f"^{re.escape(str(bad))}: "):
        getattr(pot_io, f"load_{kind}")(bad)
    _cli_refuses(tmp_path, capsys, kind, bad)


# Text on which json.load raises something other than JSONDecodeError.
UNPARSEABLE = {
    "nested": b"[" * 100_000,  # RecursionError
    "digits": b"1" * 4301,  # ValueError: past the int digit limit
    "utf8": b'"\xff\xfe"',  # UnicodeDecodeError, a ValueError
}


@pytest.mark.parametrize("content", sorted(UNPARSEABLE))
@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_every_parse_failure_is_a_malformed_file(tmp_path, capsys, kind, content):
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(UNPARSEABLE[content])
    with pytest.raises(MalformedFileError, match=f"^{re.escape(str(bad))}: "):
        getattr(pot_io, f"load_{kind}")(bad)
    _cli_refuses(tmp_path, capsys, kind, bad)


def test_a_plan_entry_on_a_times_a_is_a_malformed_file(tmp_path, capsys):
    bad = tmp_path / "aa.plan"
    entry = {"src": [0, 0], "dst": [1, 1], "mass": 1.0}
    bad.write_text(json.dumps({"pair": HALF_PLANE, "p": 2, "entries": [entry]}))
    with pytest.raises(MalformedFileError, match=f"^{re.escape(str(bad))}: .*A x A"):
        pot_io.load_plan(bad)
    _cli_refuses(tmp_path, capsys, "plan", bad)
