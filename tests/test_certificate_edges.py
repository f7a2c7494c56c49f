"""Property test: exact certificates stay sound at the edges of their inputs.

Every solver plan must pass ``certify_optimal``, and a swap perturbation of
it must fail cyclical monotonicity exactly when its exact cost exceeds the
exact optimum of its own marginals.  The instances are the ones where
rounding could hide a defect:

* exact ties: half-plane points on a small integer lattice times 2^e,
  |e| <= 400, out to where costs leave the float range;
* the box [0, 4]^2 on its half-integer lattice and the 12-point finite pair
  of ``tests/test_certify.py``, both scaled by 2^e, |e| <= 500: the box
  [0, 4 * 2^e]^2 with its lattice times 2^e, and the finite pair's table
  times 2^e, whose triangle inequalities stay exact;
* atoms shared by both measures, and zero measures;
* p just above 1 as well as 1, 1.5, 2 and 3.

Masses are multiples of 1/8, so every plan marginal sums exactly; with
general float masses a swap's marginals round, and its cost no longer
compares with the optimum of the measures it was built from.  Past the
float range the solver raises its documented ``FloatRangeError``; no other
error is allowed.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from partialot import EuclideanBoxPair, FinitePair, FloatRangeError  # noqa: E402
from partialot import certify_optimal, new_measure, selftest  # noqa: E402
from partialot import solve, solve_detail  # noqa: E402
from partialot.certify import cyclical_monotonicity_violation  # noqa: E402
from partialot.plans import marginals  # noqa: E402
from test_certify import FIN, HP  # noqa: E402


def _scaled_lattice(e):
    """Half-plane points (a, a + gap) on the integer lattice, times 2^e."""
    point = st.tuples(st.integers(-3, 3), st.integers(1, 4))
    return point.map(lambda ag: (math.ldexp(ag[0], e), math.ldexp(ag[0] + ag[1], e)))


def _points(point):
    return st.lists(point, min_size=1, max_size=6, unique=True)


def _box(e):
    """The box [0, 4 * 2^e]^2 and points on its half-integer lattice times 2^e."""
    side, half = math.ldexp(4, e), st.integers(1, 7).map(lambda i: math.ldexp(i, e - 1))
    pair = EuclideanBoxPair((0.0, 0.0), (side, side))
    return st.tuples(st.just(pair), _points(st.tuples(half, half)))


@functools.lru_cache(maxsize=None)
def _finite_pair(e):
    return FinitePair(tuple(tuple(math.ldexp(d, e) for d in row) for row in FIN.table), FIN.subset)


_SCALE = st.integers(-500, 500)
_INSTANCES = {  # (pair, points) strategies
    "half_plane": st.integers(-400, 400).flatmap(
        lambda e: st.tuples(st.just(HP), _points(_scaled_lattice(e)))
    ),
    "box": _SCALE.flatmap(_box),
    # Points 10 and 11 are A.
    "finite": st.tuples(_SCALE.map(_finite_pair), _points(st.integers(0, 9))),
}
_MASSES = st.integers(1, 40).map(lambda k: k / 8)


def _exact_cost(plan, got_mu, got_nu, p) -> Fraction:
    """The plan's exact cost over ``pair.cost_matrix`` of the given marginals."""
    xs = [x for x, _ in got_mu.atoms]
    ys = [y for y, _ in got_nu.atoms]
    cells, scale = plan.pair.cost_matrix(xs, ys, p)
    row_of = {x: i for i, x in enumerate(xs)}
    col_of = {y: j for j, y in enumerate(ys)}
    total = sum(
        Fraction(mass) * cells[row_of.get(x, len(xs))][col_of.get(y, len(ys))]
        for x, y, mass in plan.entries
    )
    return total / scale


@pytest.mark.parametrize("p", [1, 1 + 2**-40, 1.5, 2, 3])
@pytest.mark.parametrize("kind", sorted(_INSTANCES))
@given(data=st.data())
def test_certificates_are_sound_at_the_edges(kind, p, data):
    pair, points = data.draw(_INSTANCES[kind])
    atoms = st.lists(st.tuples(st.sampled_from(points), _MASSES), max_size=5)
    mu, nu = (new_measure(pair, data.draw(atoms)) for _ in range(2))
    try:
        result = solve(mu, nu, p)
    except FloatRangeError:
        return
    assert certify_optimal(mu, nu, result.plan, result.duals, p, tol=1e-9).all_passed()
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for _ in range(3):
        swapped = selftest._perturb_swap(rng, result.plan)
        if swapped is None:
            break
        margins = marginals(swapped)
        optimal = _exact_cost(swapped, *margins, p) == solve_detail(*margins, p).wb_p_exact
        assert (cyclical_monotonicity_violation(swapped, p) == 0.0) == optimal
