"""Tests for the metric-pair catalogue."""

import math
import random

import pytest

from partialot import (
    EuclideanBoxPair,
    FinitePair,
    HalfPlanePair,
    InvalidPointError,
    UnsupportedPairError,
    certify_optimal,
    new_diagram,
    new_measure,
    solve,
    wb_distance,
    zero_measure,
)

HP = HalfPlanePair()
BOX = EuclideanBoxPair((0.0, 0.0), (4.0, 4.0))
# d(0,1)=2, d(0,2)=3, d(1,2)=1: all triangles hold.
FIN = FinitePair(((0, 2, 3), (2, 0, 1), (3, 1, 0)), frozenset({0, 1}))


def test_distance_examples():
    assert HP.distance((0, 1), (0, 3)) == 2.0
    assert HP.distance((0, 2), (0, 2)) == 0.0
    two_point = FinitePair(((0, 5), (5, 0)), frozenset({0}))
    assert two_point.distance(0, 1) == 5.0


def test_distance_symmetry_and_identity():
    rng = random.Random(0)
    for _ in range(50):
        a = rng.uniform(-3, 3)
        x = (a, a + rng.uniform(0, 4))
        b = rng.uniform(-3, 3)
        y = (b, b + rng.uniform(0, 4))
        assert HP.distance(x, y) == HP.distance(y, x)
        assert HP.distance(x, x) == 0.0


def test_dist_to_A_examples():
    assert HP.dist_to_A((0, 2)) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert HP.dist_to_A((1, 1)) == 0.0
    # minimum over the four face distances of the box
    assert BOX.dist_to_A((1, 2)) == 1.0
    assert FIN.dist_to_A(2) == 1.0


def test_project_examples():
    assert HP.project_A((0, 2)) == (1.0, 1.0)
    assert HP.project_A((1, 1)) == (1.0, 1.0)
    # d(2,0)=3, d(2,1)=1: nearest boundary index is 1
    assert FIN.project_A(2) == 1


def test_half_plane_formulas_at_the_float_range_edge():
    # b - a and a + b overflow here, though the distance and the midpoint do not.
    assert HP.dist_to_A((-1e308, 1e308)) == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)
    assert HP.dist_to_A((-1.7e308, 1.7e308)) == math.inf  # truly past the range
    assert HP.project_A((1e308, 1.7e308)) == (1.35e308, 1.35e308)
    assert HP.project_A((-1.7e308, -1e308)) == (-1.35e308, -1.35e308)

    far = new_measure(HP, [((-1e308, 1e308), 1e-10)])
    assert wb_distance(far, zero_measure(HP), 1) == pytest.approx(math.sqrt(2) * 1e298, rel=1e-12)
    high = new_measure(HP, [((1e308, 1.7e308), 1.0)])
    result = solve(high, zero_measure(HP), 1)
    assert result.plan.entries == (((1e308, 1.7e308), (1.35e308, 1.35e308), 1.0),)
    assert certify_optimal(high, zero_measure(HP), result.plan, result.duals, 1).all_passed()


def test_half_plane_formulas_keep_their_floats_inside_the_range():
    rng = random.Random(3)
    checked = 0
    for _ in range(2000):
        # Half the points have coordinates within a factor 16 of the float range's edge.
        low = rng.choice((-1074, 1020))
        a, b = sorted(math.ldexp(rng.uniform(-1, 1), rng.randint(low, 1024)) for _ in range(2))
        if not (math.isfinite(b - a) and math.isfinite(a + b)):
            continue
        checked += 1
        assert HP.dist_to_A((a, b)) == (b - a) / math.sqrt(2)
        assert HP.project_A((a, b)) == (0.5 * (a + b),) * 2
    assert checked > 1000


def test_project_consistency_sampled():
    rng = random.Random(1)
    for pair in (HP, BOX):
        for _ in range(100):
            if pair is HP:
                a = rng.uniform(-3, 3)
                x = (a, a + rng.uniform(0, 4))
            else:
                x = (rng.uniform(0, 4), rng.uniform(0, 4))
            proj = pair.project_A(x)
            assert pair.in_A(proj)
            d = pair.dist_to_A(x)
            assert pair.distance(x, proj) == pytest.approx(d, rel=1e-12, abs=1e-15)


def test_dist_to_A_lower_bounds_any_boundary_point():
    rng = random.Random(2)
    for _ in range(100):
        a = rng.uniform(-3, 3)
        x = (a, a + rng.uniform(0, 4))
        c = rng.uniform(-5, 5)
        assert HP.dist_to_A(x) <= HP.distance(x, (c, c)) + 1e-12
    for i in range(FIN.size):
        for a in FIN.subset:
            assert FIN.dist_to_A(i) <= FIN.distance(i, a)


def test_in_A_examples():
    assert HP.in_A((1, 1))
    assert not HP.in_A((0, 2))
    assert FIN.in_A(0) and FIN.in_A(1) and not FIN.in_A(2)


def test_geo_point_examples():
    assert HP.geo_point((0, 1), (0, 3), 0.5) == (0.0, 2.0)
    assert HP.geo_point((0, 1), (0, 3), 0.0) == (0.0, 1.0)
    assert HP.geo_point((0, 2), HP.project_A((0, 2)), 0.5) == (0.5, 1.5)


def test_geo_point_constant_speed():
    rng = random.Random(3)
    for _ in range(50):
        a = rng.uniform(-3, 3)
        x = (a, a + rng.uniform(0, 4))
        b = rng.uniform(-3, 3)
        y = (b, b + rng.uniform(0, 4))
        d = HP.distance(x, y)
        s, t = sorted((rng.random(), rng.random()))
        ps = HP.geo_point(x, y, s)
        pt = HP.geo_point(x, y, t)
        assert HP.distance(ps, pt) == pytest.approx((t - s) * d, rel=1e-12, abs=1e-12)
        assert HP.distance(x, pt) == pytest.approx(t * d, rel=1e-12, abs=1e-12)


def test_geo_point_requires_geodesic_pair():
    with pytest.raises(UnsupportedPairError):
        FIN.geo_point(0, 1, 0.5)
    assert not FIN.geodesic_capable
    assert HP.geodesic_capable and BOX.geodesic_capable


def test_point_validation():
    with pytest.raises(InvalidPointError):
        HP.validate_point((2, 1))  # below the diagonal
    with pytest.raises(InvalidPointError):
        HP.validate_point((0, 1, 2))
    with pytest.raises(InvalidPointError):
        BOX.validate_point((5, 1))
    with pytest.raises(InvalidPointError):
        FIN.validate_point(7)
    with pytest.raises(InvalidPointError):
        FIN.validate_point((0, 1))


def test_containment_is_exact():
    # No slack below magnitude 1: the point is 7e-14 below the diagonal.
    with pytest.raises(InvalidPointError, match="below the diagonal"):
        HP.validate_point((2e-13, 1e-13))
    with pytest.raises(InvalidPointError, match="below the diagonal"):
        new_diagram([(2e-13, 1e-13)])
    for k in range(2):
        for face in (BOX.lo, BOX.hi):
            outside = list(face)
            outside[k] = math.nextafter(face[k], -math.inf if face is BOX.lo else math.inf)
            with pytest.raises(InvalidPointError, match="outside the box"):
                BOX.validate_point(outside)
            assert BOX.in_A(face)


def test_box_geo_point_stays_in_the_box():
    # 0.7 * 0.1 + 0.3 * 0.1 rounds to 0.09999999999999999, below the face.
    box = EuclideanBoxPair((0.1, 0.1), (4.0, 4.0))
    point = box.geo_point((0.1, 1.0), (0.1, 2.0), 0.3)
    assert point[0] == 0.1 and box.in_A(point)
    assert box.validate_point(point) == point


def test_finite_pair_table_validation():
    with pytest.raises(ValueError, match="triangle"):
        FinitePair(((0, 1, 5), (1, 0, 1), (5, 1, 0)), frozenset({0}))
    with pytest.raises(ValueError, match="symmetric"):
        FinitePair(((0, 1), (2, 0)), frozenset({0}))
    with pytest.raises(ValueError, match="diagonal"):
        FinitePair(((1, 1), (1, 0)), frozenset({0}))
    with pytest.raises(ValueError, match="non-empty"):
        FinitePair(((0, 1), (1, 0)), frozenset())
    with pytest.raises(ValueError, match="out-of-range"):
        FinitePair(((0, 1), (1, 0)), frozenset({5}))


def test_box_validation():
    with pytest.raises(ValueError):
        EuclideanBoxPair((0, 0), (0, 4))  # degenerate side
    with pytest.raises(ValueError):
        EuclideanBoxPair((0,), (4, 4))


def test_box_projection_tie_break():
    # Centre of the square: all four faces tie; lexicographically smallest
    # projected point wins.
    assert BOX.project_A((2, 2)) == (0.0, 2.0)


def test_pair_equality():
    assert HalfPlanePair() == HP
    assert EuclideanBoxPair((0, 0), (4, 4)) == BOX
    assert EuclideanBoxPair((0, 0), (3, 3)) != BOX
