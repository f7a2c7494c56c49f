"""Each point is validated once, and every way in from outside still validates."""

import json

import pytest

from partialot import (
    EuclideanBoxPair,
    FinitePair,
    HalfPlanePair,
    InvalidPointError,
    geodesic_path,
    interpolate,
    new_measure,
    new_plan,
    solve,
)
from partialot import io as pot_io
from partialot.cli import main

HP = HalfPlanePair()
BOX = EuclideanBoxPair((0, 0), (4, 4))
FIN = FinitePair(((0, 1, 2), (1, 0, 1), (2, 1, 0)), frozenset({0}))

MU_ATOMS = [((0, 1), 1.0), ((2, 6), 2.0), ((1, 1.5), 0.5)]
NU_ATOMS = [((0, 3), 1.5), ((1, 2), 0.5)]


@pytest.fixture()
def calls(monkeypatch):
    """The number of HalfPlanePair.validate_point calls since the last read."""
    count = [0]
    original = HalfPlanePair.validate_point

    def counted(self, x):
        count[0] += 1
        return original(self, x)

    monkeypatch.setattr(HalfPlanePair, "validate_point", counted)

    def read():
        n, count[0] = count[0], 0
        return n

    return read


def test_new_measure_validates_each_atom_once(calls):
    new_measure(HP, MU_ATOMS)
    assert calls() == len(MU_ATOMS)


def test_new_plan_validates_each_endpoint_once(calls):
    entries = [((0, 1), (0, 3), 1.0), ((2, 6), (4, 4), 2.0), ((1.5, 1.5), (1, 2), 0.5)]
    new_plan(HP, entries, 2)
    assert calls() == 2 * len(entries)


@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
def test_solve_validates_each_atom_once(calls, p):
    mu, nu = new_measure(HP, MU_ATOMS), new_measure(HP, NU_ATOMS)
    calls()
    solve(mu, nu, p)
    assert calls() == len(MU_ATOMS) + len(NU_ATOMS)


def test_interpolate_validates_each_entry_once(calls):
    path = geodesic_path(new_measure(HP, MU_ATOMS), new_measure(HP, NU_ATOMS), 2)
    calls()
    for t in (0.0, 0.25, 0.5, 1.0):
        interpolate(path, t)
        assert calls() == len(path.plan.entries)


def test_public_pair_methods_still_validate():
    below = (1.0, 0.0)
    with pytest.raises(InvalidPointError):
        HP.geo_point(below, (0.0, 1.0), 0.5)
    with pytest.raises(InvalidPointError):
        HP.geo_point((0.0, 1.0), below, 0.5)
    for pair, bad in ((HP, below), (BOX, (5.0, 1.0)), (FIN, 3)):
        with pytest.raises(InvalidPointError):
            pair.project_A(bad)
        with pytest.raises(InvalidPointError):
            pair.in_A(bad)
    with pytest.raises(InvalidPointError):
        BOX.geo_point((1.0, 1.0), (5.0, 1.0), 0.5)
    with pytest.raises(InvalidPointError):
        FIN.geo_point(0, 3, 0.5)


def test_loaders_still_validate(tmp_path, capsys):
    pair = {"kind": "half_plane"}
    good = tmp_path / "good.measure"
    pot_io.save_measure(new_measure(HP, [((0, 1), 1.0)]), good)
    bad = tmp_path / "below.measure"
    bad.write_text(json.dumps({"pair": pair, "atoms": [{"point": [1, 0], "mass": 1.0}]}))
    assert main(["dist", str(bad), str(good)]) == 1
    assert "below the diagonal" in capsys.readouterr().err
    plan = tmp_path / "below.plan"
    entries = [{"src": [0, 1], "dst": [1, 0], "mass": 1.0}]
    plan.write_text(json.dumps({"pair": pair, "p": 2, "entries": entries}))
    assert main(["certify", str(good), str(good), str(plan)]) == 1
    assert "below the diagonal" in capsys.readouterr().err
