"""Tests for displacement geodesics, curvature margins and the angle at zero."""

import math
import random

import pytest

from partialot import (
    EuclideanBoxPair,
    FinitePair,
    FloatRangeError,
    GeodesicPath,
    HalfPlanePair,
    NonPositiveMassError,
    UnsupportedPairError,
    angle_at_zero,
    check_constant_speed,
    curvature_margins,
    geodesic_path,
    interpolate,
    interpolate_detail,
    new_measure,
    new_plan,
    p_energy,
    wb_distance,
    zero_measure,
)

HP = HalfPlanePair()
BOX = EuclideanBoxPair((0.0, 0.0), (4.0, 4.0))


def test_geodesic_path_examples():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    path = geodesic_path(mu, nu, 2)
    assert path.length == pytest.approx(2.0, rel=1e-12)

    same = geodesic_path(mu, mu, 2)
    assert same.length == 0.0

    to_zero = geodesic_path(new_measure(HP, [((0, 2), 1.0)]), zero_measure(HP), 2)
    assert to_zero.length == pytest.approx(math.sqrt(2), rel=1e-12)


def test_geodesic_rejects_finite_pair():
    fin = FinitePair(((0, 1), (1, 0)), frozenset({0}))
    mu = new_measure(fin, [(1, 1.0)])
    with pytest.raises(UnsupportedPairError):
        geodesic_path(mu, mu, 2)


def test_interpolate_examples():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    path = geodesic_path(mu, nu, 2)
    assert interpolate(path, 0.5).atoms == (((0.0, 2.0), 1.0),)
    assert interpolate(path, 0.0) == mu

    to_zero = geodesic_path(new_measure(HP, [((0, 2), 1.0)]), zero_measure(HP), 2)
    assert interpolate(to_zero, 0.5).atoms == (((0.5, 1.5), 1.0),)
    measure, dropped = interpolate_detail(to_zero, 1.0)
    assert measure.is_zero and dropped == 1.0

    for t in (1.5, "0.5", True):
        with pytest.raises(ValueError, match="interpolation parameter"):
            interpolate(path, t)


def test_constant_speed_examples():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    path = geodesic_path(mu, nu, 2)
    # includes the endpoint pair |Wb(mu0, mu1) - length| = 0
    assert check_constant_speed(path, [0.0, 0.5, 1.0]) <= 1e-12
    mid = interpolate(path, 0.5)
    assert wb_distance(mu, mid, 2) == pytest.approx(1.0, rel=1e-12)

    zero_path = geodesic_path(mu, mu, 2)
    assert check_constant_speed(zero_path, [0.0, 0.3, 1.0]) == 0.0
    for t in (1.5, "0.5", True):
        with pytest.raises(ValueError, match="interpolation parameter"):
            check_constant_speed(path, [0.0, t])
        with pytest.raises(ValueError, match="interpolation parameter"):
            curvature_margins(mu, mu, nu, [0.0, t])


def test_constant_speed_random():
    rng = random.Random(13)
    grid = [i / 5 for i in range(6)]
    for _ in range(5):
        mu = new_measure(
            HP, [((rng.uniform(-2, 2), rng.uniform(3, 5)), rng.uniform(0.1, 3)) for _ in range(3)]
        )
        nu = new_measure(
            HP, [((rng.uniform(-2, 2), rng.uniform(3, 5)), rng.uniform(0.1, 3)) for _ in range(2)]
        )
        path = geodesic_path(mu, nu, 2)
        assert check_constant_speed(path, grid) <= 1e-8 * (1 + path.length)


def test_curvature_trivial_cases():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    grid = [i / 10 for i in range(11)]
    # degenerate triangle: apex equals one endpoint
    assert min(curvature_margins(mu, mu, nu, grid)) >= -1e-9
    assert min(curvature_margins(mu, mu, mu, grid)) == pytest.approx(0.0, abs=1e-12)


def test_curvature_random_margins():
    rng = random.Random(14)
    grid = [i / 10 for i in range(11)]
    for pair in (HP, BOX):
        for _ in range(5):
            def rand_measure():
                n = rng.randint(0, 3)
                if n == 0:
                    return zero_measure(pair)
                if pair is HP:
                    pts = [(rng.uniform(-2, 2), rng.uniform(3, 5)) for _ in range(n)]
                else:
                    pts = [(rng.uniform(0.5, 3.5), rng.uniform(0.5, 3.5)) for _ in range(n)]
                return new_measure(pair, [(pt, rng.uniform(0.1, 3)) for pt in pts])

            margin = min(curvature_margins(rand_measure(), rand_measure(), rand_measure(), grid))
            assert margin >= -1e-8


def test_angle_at_zero_examples():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    # 0.5 + 4.5 - 4 = 1
    assert angle_at_zero(mu, nu) == pytest.approx(1.0, rel=1e-10)
    # against the zero measure the formula telescopes to exactly zero
    z = zero_measure(HP)
    assert angle_at_zero(mu, z) == 0.0
    assert angle_at_zero(mu, mu) == pytest.approx(2 * p_energy(mu, 2), rel=1e-10)


def test_interpolant_masses_must_stay_finite():
    # Two entries of 1e308 leave (0, 1): at t = 0 their atoms merge to inf.
    mu0 = new_measure(HP, [((0, 1), 1e308)])
    mu1 = new_measure(HP, [((0, 2), 1e308), ((0, 3), 1e308)])
    plan = new_plan(HP, [((0, 1), (0, 2), 1e308), ((0, 1), (0, 3), 1e308)], 2)
    path = GeodesicPath(plan, 0.0)
    with pytest.raises(NonPositiveMassError, match="infinite"):
        interpolate_detail(path, 0.0)
    assert len(interpolate(path, 0.5).atoms) == 2


def test_dropped_mass_must_stay_finite():
    # Both atoms reach A at t = 1, and their masses sum past the float range.
    mu = new_measure(HP, [((0.0, 0.5), 1e308), ((0.0, 0.25), 1e308)])
    path = geodesic_path(mu, zero_measure(HP), 2)
    with pytest.raises(FloatRangeError, match="float range"):
        interpolate_detail(path, 1.0)
    measure, dropped = interpolate_detail(path, 0.5)
    assert len(measure.atoms) == 2 and dropped == 0.0


def test_interpolants_restricted_to_omega():
    # mass moving to the boundary is dropped exactly at t = 1, not before
    mu = new_measure(HP, [((0, 4), 1.0)])
    path = geodesic_path(mu, zero_measure(HP), 2)
    for t in (0.1, 0.5, 0.9, 0.999):
        measure, dropped = interpolate_detail(path, t)
        assert not measure.is_zero and dropped == 0.0
    assert interpolate(path, 1.0).is_zero
