"""Tests for discrete measures, diagrams, energies and truncation."""

import math

import pytest

from partialot import (
    AtomOnBoundaryError,
    FloatRangeError,
    HalfPlanePair,
    NonPositiveMassError,
    diagram_to_measure,
    new_diagram,
    new_measure,
    p_energy,
    truncate,
    wb_distance,
    zero_measure,
)
from partialot.measures import measures_close

HP = HalfPlanePair()


def test_new_measure_examples():
    mu = new_measure(HP, [((0, 2), 1.0)])
    assert mu.atoms == (((0.0, 2.0), 1.0),)
    with pytest.raises(AtomOnBoundaryError):
        new_measure(HP, [((1, 1), 1.0)])
    assert new_measure(HP, []).is_zero


def test_new_measure_rejects_bad_mass():
    with pytest.raises(NonPositiveMassError):
        new_measure(HP, [((0, 2), 0.0)])
    with pytest.raises(NonPositiveMassError):
        new_measure(HP, [((0, 2), -1.0)])
    with pytest.raises(NonPositiveMassError, match="infinite"):
        new_measure(HP, [((0, 2), math.inf)])


def test_merged_masses_must_stay_finite():
    # Each atom is finite, but the two merge to 2e308 = inf.
    with pytest.raises(NonPositiveMassError, match="infinite"):
        new_measure(HP, [((0, 1), 1e308)] * 2)
    assert new_measure(HP, [((0, 1), 1e308), ((0, 2), 1e308)]).atoms == (
        ((0.0, 1.0), 1e308),
        ((0.0, 2.0), 1e308),
    )


def test_total_mass_beyond_the_float_range_raises():
    # Two atoms of 1e308 at different points: each is finite, the sum is not.
    mu = new_measure(HP, [((0.0, 0.5), 1e308), ((0.0, 0.25), 1e308)])
    with pytest.raises(FloatRangeError, match="float range"):
        mu.total_mass
    assert repr(mu) == "DiscreteMeasure(half_plane, 2 atoms, mass out of the float range)"
    one = new_measure(HP, [((0.0, 0.5), 1e308), ((0.0, 0.25), 0.5e308)])
    assert one.total_mass == 1.5e308
    assert repr(one) == "DiscreteMeasure(half_plane, 2 atoms, mass 1.5e+308)"
    assert zero_measure(HP).total_mass == 0.0


def test_p_energy_beyond_the_float_range_raises():
    # d ** p overflows; one product overflows; the sum of two finite terms overflows.
    for atoms, p in (
        ([((0, 1e200), 1.0)], 2),
        ([((0, 2e10), 1e300)], 2),
        ([((0, 2), 1e308), ((1, 3), 1e308)], 1),
    ):
        with pytest.raises(FloatRangeError, match="float range"):
            p_energy(new_measure(HP, atoms), p)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-10, True, "1e-10"])
def test_measures_close_tolerance_must_be_finite_and_non_negative(tol):
    one = new_measure(HP, [((0, 2), 1.0)])
    five = new_measure(HP, [((0, 2), 5.0)])
    with pytest.raises(ValueError, match="mass tolerance"):
        measures_close(one, five, mass_tol=tol)
    assert measures_close(one, one, mass_tol=0.0)
    assert not measures_close(one, five, mass_tol=1e-10)


def test_duplicate_atoms_merge():
    mu = new_measure(HP, [((0, 2), 1.0), ((0, 2), 0.5)])
    assert mu.atoms == (((0.0, 2.0), 1.5),)


def test_p_energy_examples():
    mu = new_measure(HP, [((0, 2), 1.0)])
    assert p_energy(mu, 2) == pytest.approx(2.0, rel=1e-14)
    assert p_energy(zero_measure(HP), 2) == 0.0
    nu = new_measure(HP, [((0, 1), 1.0), ((0, 3), 2.0)])
    assert p_energy(nu, 2) == pytest.approx(0.5 + 2 * 4.5, rel=1e-14)
    with pytest.raises(ValueError):
        p_energy(mu, 0.5)


def test_truncate_examples():
    mu = new_measure(HP, [((0, 0.1), 1.0), ((0, 2), 1.0)])
    # 0.1 / sqrt(2) ~ 0.0707 <= 0.2, so the first atom drops
    assert truncate(mu, 0.2).atoms == (((0.0, 2.0), 1.0),)
    assert truncate(mu, 0.01) == mu
    assert truncate(mu, 10.0).is_zero
    assert truncate(truncate(mu, 0.2), 0.2) == truncate(mu, 0.2)
    for r in (0.0, "0.1", True):
        with pytest.raises(ValueError, match="truncation radius"):
            truncate(mu, r)


def test_truncate_drops_exactly_at_radius():
    mu = new_measure(HP, [((0, 2), 1.0)])
    r = HP.dist_to_A((0.0, 2.0))
    assert truncate(mu, r).is_zero  # strict inequality keeps only d > r


def test_diagram_examples():
    sigma = new_diagram([(0, 4)])
    assert diagram_to_measure(sigma).atoms == (((0.0, 4.0), 1.0),)
    assert diagram_to_measure(new_diagram([])).is_zero
    double = new_diagram([(0, 4), (0, 4)])
    assert diagram_to_measure(double).atoms == (((0.0, 4.0), 2.0),)
    with pytest.raises(AtomOnBoundaryError):
        new_diagram([(1, 1)])


def test_truncation_bound_against_solver():
    mu = new_measure(HP, [((0, 0.3), 1.5), ((0, 1), 0.7), ((2, 5), 2.0)])
    for p in (1, 2):
        for r in (1.0, 0.5, 0.25, 0.125):
            w = wb_distance(mu, truncate(mu, r), p)
            tail = sum(
                m * HP.dist_to_A(pt) ** p for pt, m in mu.atoms if HP.dist_to_A(pt) <= r
            )
            assert w ** p <= tail + 1e-9 * (1 + tail)


def test_truncation_vanishes_below_min_gap():
    mu = new_measure(HP, [((0, 1), 1.0), ((2, 5), 2.0)])
    min_gap = min(HP.dist_to_A(pt) for pt, _ in mu.atoms)
    assert wb_distance(mu, truncate(mu, min_gap / 2), 2) == 0.0


def test_p_energy_matches_distance_to_zero():
    mu = new_measure(HP, [((0, 1), 1.3), ((1, 4), 0.4), ((-2, 0), 2.2)])
    for p in (1, 1.5, 2, 3):
        want = p_energy(mu, p) ** (1 / p)
        got = wb_distance(mu, zero_measure(HP), p)
        assert got == pytest.approx(want, rel=1e-10)
