"""Each point is validated once, and every way in from outside still validates."""

import json

import pytest

from partialot import (
    EuclideanBoxPair,
    FinitePair,
    HalfPlanePair,
    InvalidPointError,
    certify_optimal,
    diagram_distance,
    geodesic_path,
    interpolate,
    new_diagram,
    new_measure,
    new_plan,
    solve,
    wb_distance,
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
def test_solve_validates_each_atom_once(monkeypatch, p):
    # Each atom is validated once, where it enters; no solve or certificate
    # of the validated measures, diagrams or plans validates it again.
    count = [0]
    for cls in (HalfPlanePair, EuclideanBoxPair, FinitePair):
        original = cls.validate_point

        def counted(self, x, original=original):
            count[0] += 1
            return original(self, x)

        monkeypatch.setattr(cls, "validate_point", counted)
    box_mu = [((1, 1), 1.0), ((2, 3), 2.0), ((0.5, 3.5), 0.5)]
    box_nu = [((3, 3), 1.5), ((1, 2.5), 0.5)]
    cases = [
        (HP, MU_ATOMS, NU_ATOMS),
        (BOX, box_mu, box_nu),
        (FIN, [(1, 1.0), (2, 0.5)], [(2, 2.0)]),
    ]
    for pair, mu_atoms, nu_atoms in cases:
        count[0] = 0
        mu, nu = new_measure(pair, mu_atoms), new_measure(pair, nu_atoms)
        sigma = new_diagram([pt for pt, _ in mu_atoms], pair)
        tau = new_diagram([pt for pt, _ in nu_atoms], pair)
        assert count[0] == 2 * (len(mu_atoms) + len(nu_atoms))
        count[0] = 0
        wb, plan, duals = solve(mu, nu, p)
        wb_distance(mu, nu, p)
        diagram_distance(sigma, tau, p)
        assert certify_optimal(mu, nu, plan, duals, p).all_passed()
        assert count[0] == 0, (pair.kind, p)


def test_interpolate_validates_no_segment_point(calls):
    # A geodesic point of two points of X lies in X (test_scale's property).
    path = geodesic_path(new_measure(HP, MU_ATOMS), new_measure(HP, NU_ATOMS), 2)
    calls()
    for t in (0.0, 0.25, 0.5, 1.0):
        interpolate(path, t)
        assert calls() == 0


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


@pytest.mark.parametrize(
    "pair, bad",
    [
        (HP, (1.0, 0.0)),  # below the diagonal
        (HP, (0.0, 1.0, 2.0)),  # the wrong length
        (HP, (0.0, float("inf"))),  # a non-finite coordinate
        (HP, (float("nan"), 1.0)),
        (BOX, (5.0, 1.0)),  # outside the box
        (BOX, (1.0,)),
        (BOX, (1.0, float("-inf"))),
        (FIN, 3),  # an out-of-range finite index
        (FIN, -1),
    ],
)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_cost_matrix_still_validates(pair, bad, p):
    good = {HP: (0.0, 1.0), BOX: (1.0, 1.0), FIN: 1}[pair]
    for xs, ys in (([bad], [good]), ([good], [bad]), ([good, bad], [])):
        with pytest.raises(InvalidPointError):
            pair.cost_matrix(xs, ys, p)
