"""Property tests of the integer path: the int simplex and the solver's scaling.

``solve_transportation`` takes and returns ints, and ``solve_detail`` puts
the masses and the cost cells on integer scales and divides the answers back
once.  On random instances the int simplex must be exactly optimal and agree
with networkx, and ``solve_detail`` must give, bit for bit, the floats of a
recomputation in Fractions.  As every optimum is an exact rational rounded
once, ``Wb_p`` and ``d_p`` are symmetric bit for bit and ``Wb_p(mu, mu)`` is
exactly 0.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from partialot import (  # noqa: E402
    DiscreteMeasure,
    EuclideanBoxPair,
    FinitePair,
    HalfPlanePair,
    diagram_distance,
    new_diagram,
    new_measure,
    solve_detail,
    wb_distance,
)
from partialot._simplex import solve_transportation  # noqa: E402

from exact_reference import (  # noqa: E402
    check_exact_optimality,
    network_simplex_value,
    reference_detail,
)

HALF_PLANE = HalfPlanePair()
BOX = EuclideanBoxPair((0.0, 0.0), (2e8, 2e8))
EXPONENTS = (1.0, 1.5, 2.0, 3.0)


@st.composite
def int_instances(draw):
    """Balanced int instances, 1-5 a side, with zero masses and tied costs."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    mass = st.one_of(st.integers(0, 4), st.integers(0, 2**60))
    supply = draw(st.lists(mass, min_size=m, max_size=m))
    total = sum(supply)
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    demand = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    high = draw(st.sampled_from([2, 10**6, 2**200]))
    cost = draw(st.lists(st.lists(st.integers(-high, high), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return supply, demand, cost


@given(int_instances())
def test_int_simplex_is_exact_and_matches_networkx(instance):
    nx = pytest.importorskip("networkx")
    supply, demand, cost = instance
    flows, u, v, alt = solve_transportation(supply, demand, cost)
    assert all(type(x) is int for x in [*flows.values(), *u, *v, alt])
    check_exact_optimality(supply, demand, cost, flows, u, v)
    value = network_simplex_value(nx, supply, demand, cost)
    assert sum(f * cost[i][j] for (i, j), f in flows.items()) == value


def _magnitude():
    """Positive floats from 1e-8 to 1e8, spread over every decade."""
    return st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(1.0, 9.99), st.integers(-8, 7),
    )


def _wide_magnitude():
    """Positive floats from 2^-200 to 2^200, where the exact cost ints are widest."""
    return st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-199, 200))


def _half_plane_point():
    magnitude = st.one_of(_magnitude(), _wide_magnitude())
    return st.builds(lambda a, sign, d: (sign * a, sign * a + d), magnitude,
                     st.sampled_from([1.0, -1.0]), magnitude)


def _box_point():
    return st.tuples(_magnitude(), _magnitude())


@st.composite
def _finite_pair(draw):
    """Points on a line at mixed scales, with A the first of them."""
    coords = draw(st.lists(_magnitude(), min_size=2, max_size=6, unique=True))
    table = tuple(tuple(abs(a - b) for b in coords) for a in coords)
    try:
        return FinitePair(table, frozenset({0}))
    except ValueError:  # rounding broke a triangle inequality or merged two points
        assume(False)


@st.composite
def measure_pairs(draw):
    """``(mu, nu, p)`` on one of the three pairs, 0-5 atoms a side."""
    kind = draw(st.sampled_from(["half_plane", "box", "finite"]))
    if kind == "half_plane":
        pair, point = HALF_PLANE, _half_plane_point()
    elif kind == "box":
        pair, point = BOX, _box_point()
    else:
        pair = draw(_finite_pair())
        point = st.integers(1, pair.size - 1)
    mass = st.one_of(st.just(1.0), st.floats(1e-3, 1e3))

    def measure():
        atoms = draw(st.lists(st.tuples(point, mass), max_size=5))
        return new_measure(pair, [(x, m) for x, m in atoms if not pair.in_A(x)])

    return measure(), measure(), draw(st.sampled_from(EXPONENTS))


def _check_against_reference(mu, nu, p):
    detail = solve_detail(mu, nu, p)
    wb, flows, phi, psi, degenerate = reference_detail(mu, nu, p)
    assert detail.wb.hex() == wb.hex()
    assert {(x, y): m.hex() for x, y, m in detail.plan.entries} == {
        cell: m.hex() for cell, m in flows.items()
    }
    assert {x: f.hex() for x, f in detail.duals.phi.items()} == {x: f.hex() for x, f in phi.items()}
    assert {y: f.hex() for y, f in detail.duals.psi.items()} == {y: f.hex() for y, f in psi.items()}
    assert detail.degenerate == degenerate


@given(measure_pairs())
def test_solve_detail_matches_a_fraction_recomputation(instance):
    _check_against_reference(*instance)


@given(measure_pairs(), st.data())
def test_fraction_masses_with_odd_denominators(instance, data):
    """Masses from the raw constructor need not be floats; the mass scale is an lcm."""
    mu, nu, p = instance

    def odd(measure):
        masses = data.draw(st.lists(
            st.builds(
                Fraction,
                st.one_of(st.integers(1, 300), st.integers(2**53, 2**70)),
                st.sampled_from([1, 3, 5, 7, 9, 15, 49, 99]),
            ),
            min_size=len(measure.atoms), max_size=len(measure.atoms),
        ))
        return DiscreteMeasure(measure.pair, tuple(
            (x, m) for (x, _), m in zip(measure.atoms, masses)
        ))

    mu, nu = odd(mu), odd(nu)
    assume(math.lcm(*[m.denominator for _, m in (*mu.atoms, *nu.atoms)]) > 1)
    _check_against_reference(mu, nu, p)


@given(measure_pairs())
def test_wb_is_symmetric_and_zero_on_the_diagonal(instance):
    mu, nu, p = instance
    assert wb_distance(mu, nu, p).hex() == wb_distance(nu, mu, p).hex()
    assert wb_distance(mu, mu, p) == 0.0


@given(
    st.lists(_half_plane_point(), max_size=5),
    st.lists(_half_plane_point(), max_size=5),
    st.sampled_from(EXPONENTS),
)
def test_diagram_distance_is_symmetric(sigma, tau, p):
    sigma, tau = (
        new_diagram([x for x in points if not HALF_PLANE.in_A(x)]) for points in (sigma, tau)
    )
    assert diagram_distance(sigma, tau, p)[0].hex() == diagram_distance(tau, sigma, p)[0].hex()
