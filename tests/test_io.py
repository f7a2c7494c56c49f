"""Tests for the JSON file formats."""

import json

import pytest

from partialot import (
    EuclideanBoxPair,
    FinitePair,
    HalfPlanePair,
    MalformedFileError,
    new_diagram,
    new_measure,
    new_plan,
    solve,
)
from partialot import io as pot_io

HP = HalfPlanePair()


def test_pair_roundtrip(tmp_path):
    for pair in (
        HP,
        EuclideanBoxPair((0, 0), (4, 4)),
        FinitePair(((0, 2, 3), (2, 0, 1), (3, 1, 0)), frozenset({0, 1})),
    ):
        path = tmp_path / "pair.json"
        pot_io.save_pair(pair, path)
        assert pot_io.load_pair(path) == pair


def test_measure_roundtrip(tmp_path):
    mu = new_measure(HP, [((0, 1), 1.25), ((2, 5.5), 0.3)])
    path = tmp_path / "a.measure"
    pot_io.save_measure(mu, path)
    assert pot_io.load_measure(path) == mu


def test_measure_with_pair_reference(tmp_path):
    pot_io.save_pair(HP, tmp_path / "pair.json")
    (tmp_path / "b.measure").write_text(
        json.dumps({"pair": "pair.json", "atoms": [{"point": [0, 2], "mass": 1.0}]})
    )
    mu = pot_io.load_measure(tmp_path / "b.measure")
    assert mu.pair == HP
    assert mu.atoms == (((0.0, 2.0), 1.0),)


def test_finite_pair_measure_roundtrip(tmp_path):
    fin = FinitePair(((0, 2, 3), (2, 0, 1), (3, 1, 0)), frozenset({0}))
    mu = new_measure(fin, [(2, 1.5)])
    path = tmp_path / "f.measure"
    pot_io.save_measure(mu, path)
    assert pot_io.load_measure(path) == mu


def test_diagram_roundtrip(tmp_path):
    sigma = new_diagram([(0, 4), (0, 4), (1, 2)])
    path = tmp_path / "d.diagram"
    pot_io.save_diagram(sigma, path)
    assert pot_io.load_diagram(path) == sigma


def test_diagram_defaults_to_half_plane(tmp_path):
    (tmp_path / "d.diagram").write_text(json.dumps({"points": [[0, 4]]}))
    sigma = pot_io.load_diagram(tmp_path / "d.diagram")
    assert sigma.pair == HP


def test_plan_roundtrip_with_duals(tmp_path):
    mu = new_measure(HP, [((0, 1), 1.0), ((2, 6), 2.0)])
    nu = new_measure(HP, [((0, 3), 1.5)])
    result = solve(mu, nu, 2)
    path = tmp_path / "p.plan"
    pot_io.save_plan(result.plan, path, duals=result.duals)
    plan, duals = pot_io.load_plan(path)
    assert plan == result.plan  # floats round-trip bit-for-bit through JSON
    assert duals.phi == result.duals.phi
    assert duals.psi == result.duals.psi


def test_plan_without_duals(tmp_path):
    plan = new_plan(HP, [((0, 1), (0, 2), 1.0)], 2)
    path = tmp_path / "bare.plan"
    pot_io.save_plan(plan, path)
    loaded, duals = pot_io.load_plan(path)
    assert loaded == plan and duals is None


def test_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(MalformedFileError, match=r"bad\.json:1:"):
        pot_io.load_measure(bad)

    missing = tmp_path / "missing.measure"
    missing.write_text(json.dumps({"pair": {"kind": "half_plane"}}))
    with pytest.raises(MalformedFileError, match="atoms"):
        pot_io.load_measure(missing)

    bad_atom = tmp_path / "atom.measure"
    bad_atom.write_text(
        json.dumps({"pair": {"kind": "half_plane"}, "atoms": [{"point": [0, 2]}]})
    )
    with pytest.raises(MalformedFileError, match="atom #0"):
        pot_io.load_measure(bad_atom)

    on_boundary = tmp_path / "onA.measure"
    on_boundary.write_text(
        json.dumps(
            {"pair": {"kind": "half_plane"}, "atoms": [{"point": [1, 1], "mass": 1.0}]}
        )
    )
    with pytest.raises(MalformedFileError):
        pot_io.load_measure(on_boundary)

    with pytest.raises(MalformedFileError):
        pot_io.load_pair(tmp_path / "nonexistent.json")

    # A measure file names its own pair: load_measure takes no default.
    no_pair = tmp_path / "nopair.measure"
    no_pair.write_text(json.dumps({"atoms": [{"point": [0, 2], "mass": 1.0}]}))
    with pytest.raises(MalformedFileError, match="no 'pair' given"):
        pot_io.load_measure(no_pair)


FINITE_DESC = {"kind": "finite", "dist": [[0, 2, 3], [2, 0, 1], [3, 1, 0]], "A": [0]}


@pytest.mark.parametrize("point", [2.7, 2.0, True, False])
def test_measure_index_must_be_an_integer(tmp_path, point):
    path = tmp_path / "f.measure"
    path.write_text(json.dumps({"pair": FINITE_DESC, "atoms": [{"point": point, "mass": 1.0}]}))
    with pytest.raises(MalformedFileError, match="integer index"):
        pot_io.load_measure(path)


BOX_DESC = {"kind": "euclidean_box", "lo": [0, 0], "hi": [4, 4]}


@pytest.mark.parametrize(
    "pair, atom",
    [
        ({"kind": "half_plane"}, {"point": [True, 2], "mass": 1.0}),
        ({"kind": "half_plane"}, {"point": ["1", "3"], "mass": 1.0}),
        ({"kind": "half_plane"}, {"point": "13", "mass": 1.0}),
        ({"kind": "half_plane"}, {"point": [0, 2], "mass": "1.5"}),
        ({"kind": "half_plane"}, {"point": [0, 2], "mass": True}),
        ({"kind": "half_plane"}, {"point": [0, 2], "mass": None}),
        ({**BOX_DESC, "lo": [False, "0"]}, {"point": [1, 1], "mass": 1.0}),
        ({**BOX_DESC, "hi": [4, True]}, {"point": [1, 0.5], "mass": 1.0}),
        ({**BOX_DESC, "lo": "00"}, {"point": [1, 1], "mass": 1.0}),
        ({**FINITE_DESC, "A": [True]}, {"point": 2, "mass": 1.0}),
        ({**FINITE_DESC, "A": [0.0]}, {"point": 2, "mass": 1.0}),
        ({**FINITE_DESC, "dist": [[0, 2, 3], [2, 0, "1"], [3, 1, 0]]}, {"point": 2, "mass": 1.0}),
        ({**FINITE_DESC, "dist": [[False, 2, 3], [2, 0, 1], [3, 1, 0]]}, {"point": 2, "mass": 1.0}),
        ({"kind": "half_plane"}, {"point": [0, 2], "mass": float("inf")}),
    ],
)
def test_measure_numbers_must_be_numbers(tmp_path, pair, atom):
    path = tmp_path / "n.measure"
    path.write_text(json.dumps({"pair": pair, "atoms": [atom]}))
    with pytest.raises(MalformedFileError):
        pot_io.load_measure(path)


@pytest.mark.parametrize(
    "patch",
    [
        {"p": "2"},
        {"p": True},
        {"entries": [{"src": [0, 1], "dst": [0, 2], "mass": "1"}]},
        {"entries": [{"src": [0, 1], "dst": [0, True], "mass": 1.0}]},
        {"duals": {"sources": [[[0, 1], "0.5"]], "sinks": []}},
        {"duals": {"sources": [[[0, 1], float("nan")]], "sinks": []}},
        {"duals": {"sources": [], "sinks": [[[0, 2], float("inf")]]}},
        {"duals": {"sources": [[[0, 1], float("-inf")]], "sinks": []}},
    ],
)
def test_plan_numbers_must_be_numbers(tmp_path, patch):
    record = {
        "pair": {"kind": "half_plane"},
        "p": 2,
        "entries": [{"src": [0, 1], "dst": [0, 2], "mass": 1.0}],
        **patch,
    }
    path = tmp_path / "n.plan"
    path.write_text(json.dumps(record))
    with pytest.raises(MalformedFileError):
        pot_io.load_plan(path)


def test_numeric_types_still_load(tmp_path):
    path = tmp_path / "ok.measure"
    path.write_text(
        json.dumps({"pair": BOX_DESC, "atoms": [{"point": [1, 2.5], "mass": 2}]})
    )
    assert pot_io.load_measure(path).atoms == (((1.0, 2.5), 2.0),)


@pytest.mark.parametrize("point", [1.5, True])
def test_plan_index_must_be_an_integer(tmp_path, point):
    path = tmp_path / "f.plan"
    path.write_text(
        json.dumps(
            {"pair": FINITE_DESC, "p": 1, "entries": [{"src": point, "dst": 2, "mass": 1.0}]}
        )
    )
    with pytest.raises(MalformedFileError, match="integer index"):
        pot_io.load_plan(path)


@pytest.mark.parametrize(
    "loader, record",
    [
        ("pair", {**BOX_DESC, "lo": 5}),
        ("measure", {"pair": {**BOX_DESC, "lo": 5}, "atoms": [{"point": [1, 1], "mass": 1.0}]}),
        ("measure", {"pair": {**BOX_DESC, "hi": 4}, "atoms": [{"point": [1, 1], "mass": 1.0}]}),
        ("measure", {"pair": {**FINITE_DESC, "dist": 3}, "atoms": [{"point": 2, "mass": 1.0}]}),
        ("measure", {"pair": {**FINITE_DESC, "dist": [3, 3, 3]}, "atoms": [{"point": 2, "mass": 1.0}]}),
        ("measure", {"pair": {**FINITE_DESC, "A": 0}, "atoms": [{"point": 2, "mass": 1.0}]}),
        ("measure", {"pair": {"kind": "half_plane"}, "atoms": 3}),
        ("measure", {"pair": {"kind": "half_plane"}, "atoms": {"point": [0, 2], "mass": 1.0}}),
        ("plan", {"pair": {"kind": "half_plane"}, "p": 2, "entries": 5}),
        ("diagram", {"points": 3}),
    ],
)
def test_malformed_shapes(tmp_path, loader, record):
    path = tmp_path / f"shape.{loader}"
    path.write_text(json.dumps(record))
    with pytest.raises(MalformedFileError):
        getattr(pot_io, f"load_{loader}")(path)
