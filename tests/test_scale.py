"""Scale invariance: decisions on points are exact, so every scale gets the same answer.

Scaling X (and A with it) by a power of two ``lam`` scales ``Wb_p`` and
``d_p`` by ``lam``.  Every cost cell scales by ``lam ** p``: exactly at
p in {1, 2}, where the optimum and the matching are then bit-identical up to
the scaling, and up to the rounding of ``d ** p`` and of the p-th root at
p in {1.5, 3}.
"""

import math
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from partialot import (  # noqa: E402
    DualPotentials,
    EuclideanBoxPair,
    HalfPlanePair,
    InvalidPointError,
    diagram_distance,
    geodesic_path,
    interpolate_detail,
    certify_optimal,
    new_diagram,
    new_measure,
    new_plan,
    solve,
)

HP = HalfPlanePair()

# Multiples of 2^-10 up to 2^10: scaled by 2^-200 they stay normal floats.
_coord = st.integers(-(2**20), 2**20).map(lambda n: n / 1024)
_lifetime = st.integers(1, 2**20).map(lambda n: n / 1024)
_half_plane_point = st.builds(lambda a, life: (a, a + life), _coord, _lifetime)
_box_coord = st.integers(1, 4 * 1024 - 1).map(lambda n: n / 1024)
_box_point = st.tuples(_box_coord, _box_coord)
_mass = st.floats(0.1, 3.0)
_k = st.integers(0, 200)
_p = st.sampled_from([1.0, 1.5, 2.0, 3.0])


def _scaled(point, lam):
    return tuple(lam * c for c in point)


def _box(lam):
    return EuclideanBoxPair((0.0, 0.0), (4.0 * lam, 4.0 * lam))


def _assert_scaled(value, base, lam, p):
    if p in (1.0, 2.0):
        assert value == lam * base
    else:
        assert value == pytest.approx(lam * base, rel=1e-12, abs=0.0)


def _assert_entries_scaled(scaled, base, lam):
    assert scaled == tuple((_scaled(s, lam), _scaled(d, lam), m) for s, d, m in base)


def _is_valid(pair, point):
    try:
        pair.validate_point(point)
    except InvalidPointError:
        return False
    return True


_anywhere = st.tuples(_coord, _coord)


@given(_anywhere, _anywhere, _k)
def test_containment_in_X_is_decided_alike_at_every_scale(x, y, k):
    lam = 2.0**-k
    assert _is_valid(HP, _scaled(x, lam)) == _is_valid(HP, x) == (x[0] <= x[1])
    inside = all(0.0 <= c <= 4.0 for c in y)
    assert _is_valid(_box(lam), _scaled(y, lam)) == _is_valid(_box(1.0), y) == inside


_real = st.floats(-1e6, 1e6)


@st.composite
def _segment_in_X(draw):
    """A pair and two points of its X, face points included."""
    if draw(st.booleans()):
        def point():
            a, b = sorted((draw(_real), draw(_real)))
            return (a, a) if draw(st.booleans()) else (a, b)

        return HP, point(), point()
    # 0.7 * 0.1 + 0.3 * 0.1 and 0.9 * -0.3 + 0.1 * -0.3 round below the face.
    lo = [draw(st.one_of(st.sampled_from([0.1, -0.3]), _real)) for _ in range(2)]
    hi = [l + draw(st.floats(1e-6, 1e6)) for l in lo]
    box = EuclideanBoxPair(lo, hi)

    def point():
        return tuple(
            draw(st.one_of(st.sampled_from([l, h]), st.floats(l, h)))
            for l, h in zip(box.lo, box.hi)
        )

    return box, point(), point()


@given(_segment_in_X(), st.one_of(st.sampled_from([0.1, 0.3]), st.floats(0.0, 1.0)))
def test_geodesic_points_stay_in_X(segment, t):
    pair, x, y = segment
    point = pair.geo_point(x, y, t)
    assert pair.validate_point(point) == point


_EDGES = (sys.float_info.max, 1.7e308, sys.float_info.min, 5e-324, 0.0)
# Any finite float, and the ends of the float range, subnormals and signed zeros.
_wide = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([v for e in _EDGES for v in (e, -e)]),
)


@st.composite
def _wide_segment_in_X(draw):
    """A pair and two points of its X, with coordinates anywhere in the float range."""
    if draw(st.booleans()):
        pair = HP

        def point():
            a, b = sorted((draw(_wide), draw(_wide)))
            return (a, a) if draw(st.booleans()) else (a, b)

    else:
        sides = [sorted(draw(st.lists(_wide, min_size=2, max_size=2, unique=True))) for _ in "xy"]
        pair = EuclideanBoxPair(*zip(*sides))

        def point():
            return tuple(
                draw(st.one_of(st.sampled_from([l, h]), st.floats(l, h)))
                for l, h in zip(pair.lo, pair.hi)
            )

    return pair, point(), point()


_any_t = st.one_of(st.sampled_from([5e-324, 0.5, 1 - 2**-53]), st.floats(0.0, 1.0))


@settings(max_examples=500)
@given(_wide_segment_in_X(), _any_t)
def test_geodesic_points_of_validated_points_validate(segment, t):
    # Interpolation relies on this to test its points with _in_A unvalidated.
    pair, x, y = segment
    point = pair._geo_point(pair.validate_point(x), pair.validate_point(y), t)
    assert pair.validate_point(point) == point


@given(st.lists(_half_plane_point, max_size=5), st.lists(_half_plane_point, max_size=5), _k, _p)
def test_diagram_distance_scales_with_the_diagrams(sigma, tau, k, p):
    lam = 2.0**-k
    dp, matching = diagram_distance(new_diagram(sigma), new_diagram(tau), p)
    dp_lam, matching_lam = diagram_distance(
        new_diagram([_scaled(x, lam) for x in sigma]),
        new_diagram([_scaled(x, lam) for x in tau]),
        p,
    )
    _assert_scaled(dp_lam, dp, lam, p)
    _assert_entries_scaled(matching_lam.entries, matching.entries, lam)


def test_d_2_of_halved_diagrams_is_half_to_the_bit():
    # Wb_2^2 = 0x1.b13c197798...p+16 here, where pow(x, 0.5) rounds the root
    # up by one ulp and sqrt does not: halving the diagrams must halve d_2.
    sigma = [(0.0, 2.0**-10), (0.0, 0.09765625), (0.0, 34.6494140625),
             (0.0, 185.0458984375), (0.0, 431.66796875)]
    tau = [(0.0, 2.0**-10), (0.0, 6.0322265625)]
    d, _ = diagram_distance(new_diagram(sigma), new_diagram(tau), 2)
    half, _ = diagram_distance(
        new_diagram([_scaled(x, 0.5) for x in sigma]), new_diagram([_scaled(x, 0.5) for x in tau]), 2
    )
    assert d == 333.0286766647968
    assert half == d / 2


@st.composite
def _measure_atoms(draw):
    point = draw(st.sampled_from([_half_plane_point, _box_point]))
    atoms = st.lists(st.tuples(point, _mass), max_size=4)
    return point is _box_point, draw(atoms), draw(atoms)


@given(_measure_atoms(), _k, _p)
def test_wb_scales_with_the_measures(instance, k, p):
    boxed, mu, nu = instance
    lam = 2.0**-k

    def measures(scale):
        pair = _box(scale) if boxed else HP
        return [new_measure(pair, [(_scaled(x, scale), m) for x, m in atoms]) for atoms in (mu, nu)]

    base = solve(*measures(1.0), p)
    scaled = solve(*measures(lam), p)
    _assert_scaled(scaled.wb, base.wb, lam, p)
    _assert_entries_scaled(scaled.plan.entries, base.plan.entries, lam)


def test_a_diagram_point_near_the_diagonal_is_off_A():
    # 7e-10 from the diagonal is off A: only distance exactly 0 is on it.
    sigma = new_diagram([(0.0, 1e-9)])
    assert sigma.points == ((0.0, 1e-9),)
    assert diagram_distance(sigma, new_diagram([]), 2)[0] == pytest.approx(1e-9 / math.sqrt(2))


def test_a_small_geodesic_keeps_its_mass():
    mu0 = new_measure(HP, [((0.0, 2e-9), 1.0)])
    mu1 = new_measure(HP, [((1.0, 1.0 + 2e-9), 1.0)])
    measure, dropped = interpolate_detail(geodesic_path(mu0, mu1, 2), 0.5)
    assert dropped == 0.0
    assert measure.total_mass == 2.0


def _off_nearest(entries):
    """Each boundary entry moved to the point of A that is d(x, A) * sqrt(2) farther."""
    moved = []
    for x, y, m in entries:
        if HP.in_A(y) and not HP.in_A(x):
            d = x[1] - x[0]
            y = (y[0] - d, y[1] - d)
        elif HP.in_A(x) and not HP.in_A(y):
            d = y[1] - y[0]
            x = (x[0] - d, x[1] - d)
        moved.append((x, y, m))
    return moved


_atoms = st.lists(st.tuples(_half_plane_point, _mass), max_size=4)


@given(_atoms, _atoms, _k, st.sampled_from([1.0, 2.0]))
def test_certify_verdicts_do_not_depend_on_the_scale(mu, nu, k, p):
    # Every check is relative to the cost it measures, so scaling X by lam,
    # the plan with it and the potentials by lam ** p changes no verdict.
    lam = 2.0**-k
    r = solve(new_measure(HP, mu), new_measure(HP, nu), p)
    halved = {x: v / 2 for x, v in r.duals.phi.items()}, {y: v / 2 for y, v in r.duals.psi.items()}
    zeros = {x: 0.0 for x in r.duals.phi}, {y: 0.0 for y in r.duals.psi}
    cases = [
        (r.plan.entries, (r.duals.phi, r.duals.psi)),
        (r.plan.entries, zeros),
        (r.plan.entries, halved),
        (_off_nearest(r.plan.entries), (r.duals.phi, r.duals.psi)),
    ]

    def verdicts(scale, entries, duals):
        phi, psi = ({_scaled(x, scale): scale**p * v for x, v in side.items()} for side in duals)
        report = certify_optimal(
            new_measure(HP, [(_scaled(x, scale), m) for x, m in mu]),
            new_measure(HP, [(_scaled(x, scale), m) for x, m in nu]),
            new_plan(HP, [(_scaled(x, scale), _scaled(y, scale), m) for x, y, m in entries], p),
            DualPotentials(phi, psi),
            p,
        )
        return (
            report.concentrated_on_S,
            report.cyclically_monotone,
            report.potentials_valid,
            report.boundary_shipping,
            report.cost_optimal,
        )

    base = [verdicts(1.0, *case) for case in cases]
    assert all(base[0])
    assert [verdicts(lam, *case) for case in cases] == base
