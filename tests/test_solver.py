"""Tests for the Wb_p solver: costs, the augmented problem, solve, duals."""

import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from partialot import (
    DiscreteMeasure,
    EuclideanBoxPair,
    FinitePair,
    FloatRangeError,
    HalfPlanePair,
    NonPositiveMassError,
    PairMismatchError,
    PartialOTError,
    build_augmented_problem,
    cost_c,
    cost_ctilde,
    branch_probe,
    diagram_distance,
    geodesic_path,
    in_S,
    interpolate,
    marginals,
    new_diagram,
    new_measure,
    new_plan,
    p_energy,
    solve,
    solve_detail,
    wb_distance,
    zero_measure,
)
from partialot.certify import concentration_violation
from partialot.pairs import _MAX_CELL_BITS, MetricPair
from partialot.plans import cost as plan_cost

HP = HalfPlanePair()
BOX = EuclideanBoxPair((0.0, 0.0), (4.0, 4.0))


def test_cost_functions_examples():
    assert cost_c(HP, (0, 1), (0, 5), 2) == pytest.approx(16.0, rel=1e-14)
    assert cost_ctilde(HP, (0, 1), (0, 5), 2) == pytest.approx(13.0, rel=1e-14)
    assert cost_c(HP, (0, 2), (0, 2), 2) == 0.0
    assert cost_ctilde(HP, (0, 2), (0, 2), 2) == 0.0
    assert cost_ctilde(HP, (1, 1), (3, 3), 2) == 0.0
    with pytest.raises(ValueError):
        cost_c(HP, (0, 1), (0, 5), 0.5)


def test_ctilde_never_exceeds_c():
    rng = random.Random(5)
    for _ in range(100):
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        x = (a, a + rng.uniform(0, 3))
        y = (b, b + rng.uniform(0, 3))
        p = rng.choice((1, 1.5, 2, 3))
        assert cost_ctilde(HP, x, y, p) <= cost_c(HP, x, y, p) + 1e-15


def test_in_S_examples():
    assert in_S(HP, (0, 1), (0, 3), 2)  # 4 <= min(4, 5)
    assert not in_S(HP, (0, 1), (0, 5), 2)  # 16 > 13
    assert in_S(HP, (0, 2), (0, 2), 2)


def test_in_S_is_scale_free():
    # The rule is relative to the detour: a direct cost 200 times the detour
    # is out of S at every scale, not only above magnitude 1.
    for lam in (1.0, 2.0**-20, 2.0**-100):
        assert not in_S(HP, (0.0, lam), (10 * lam, 11 * lam), 2)
        assert in_S(HP, (0.0, lam), (0.0, 3 * lam), 2)
    # Two points of A: the detour is 0, so only a direct cost of 0 is in S.
    assert in_S(HP, (1, 1), (1, 1), 2, tol=0.0)
    assert not in_S(HP, (1, 1), (2, 2), 2)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, "0.5", True])
def test_in_S_tolerance_must_be_finite_and_non_negative(tol):
    # NaN would leave every pair out of S, an infinite tolerance put every pair in.
    with pytest.raises(ValueError, match="tolerance"):
        in_S(HP, (0, 1), (0, 3), 2, tol)


def test_build_augmented_problem_example():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    prob = build_augmented_problem(mu, nu, 2)
    assert prob.cost_exact == ((Fraction(4), Fraction(1, 2)), (Fraction(9, 2), Fraction(0)))
    assert (prob.sources, prob.sinks) == (mu.atoms, nu.atoms)


def test_build_augmented_degenerate():
    z = zero_measure(HP)
    prob = build_augmented_problem(z, z, 2)
    assert prob.cost_exact == ((Fraction(0),),)
    mu = new_measure(HP, [((0, 2), 2.0)])
    prob2 = build_augmented_problem(mu, z, 2)
    assert prob2.cost_exact == ((Fraction(2),), (Fraction(0),))


def _reference_cells(pair, xs, ys, p):
    """The augmented matrix from per-cell Fraction formulas, one cell at a time."""

    def exact_power(d):
        return Fraction(d) ** int(p) if float(p).is_integer() else Fraction(d**p)

    def direct(x, y):
        if isinstance(pair, FinitePair):
            return exact_power(pair.distance(x, y))
        if p == 2:
            return sum(((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, y)), Fraction(0))
        return Fraction(pair.distance(x, y) ** p)

    def boundary(x):
        if isinstance(pair, FinitePair):
            return exact_power(pair.dist_to_A(x))
        if p != 2:
            return Fraction(pair.dist_to_A(x) ** p)
        if isinstance(pair, HalfPlanePair):
            return max(Fraction(0), Fraction(x[1]) - Fraction(x[0])) ** 2 / 2
        gaps = [Fraction(c) - Fraction(l) for c, l in zip(x, pair.lo)]
        gaps += [Fraction(h) - Fraction(c) for c, h in zip(x, pair.hi)]
        return max(Fraction(0), min(gaps)) ** 2

    rows = [tuple(direct(x, y) for y in ys) + (boundary(x),) for x in xs]
    return tuple(rows) + (tuple(boundary(y) for y in ys) + (Fraction(0),),)


#: Points per pair, on coordinates from 1e-8 to 1e150 and one subnormal
#: (5e-324); the largest are used only where d^p stays a finite float.
_WIDE = {
    "half_plane": (
        HP,
        [(0.0, 1e-8 + 1e-7), (5e-324, 1.0), (-3.25, 0.1), (1e-8, 2.5), (7.0, 1e100)],
        [(0.5, 3.0), (5e-324, 0.75), (-1e-8, 1e-3), (1e50, 1e100 + 1e90), (-2.0, 1e150)],
    ),
    "box": (
        EuclideanBoxPair((-1.5, 0.1), (1e150, 7.25)),
        [(5e-324, 1.0), (-1.25, 0.2), (1e-8, 3.5), (1e100, 5.0)],
        [(0.75, 0.3), (-1.0, 7.0), (1e150 / 2, 2.0)],
    ),
    "finite": (
        FinitePair(((0, 1e-8, 2.5), (1e-8, 0, 2.5), (2.5, 2.5, 0)), frozenset({0})),
        [1, 2],
        [2, 1],
    ),
}


def _wide_points(kind, p):
    """The pair and the ``_WIDE`` points of ``kind`` whose costs d^p stay finite floats."""
    pair, xs, ys = _WIDE[kind]
    if p > 2:  # keep d^p below the float range: 1e150^2.5 overflows
        xs = [x for x in xs if isinstance(x, int) or max(x) < 1e120]
        ys = [y for y in ys if isinstance(y, int) or max(y) < 1e120]
    return pair, xs, ys


@pytest.mark.parametrize("p", [1, 1.5, 2, 2.5, 3])
@pytest.mark.parametrize("kind", sorted(_WIDE))
def test_cost_matrix_matches_per_cell_fractions(kind, p):
    pair, xs, ys = _wide_points(kind, p)
    for m, n in ((len(xs), len(ys)), (0, len(ys)), (len(xs), 0), (0, 0)):
        mu = new_measure(pair, [(x, 1.0) for x in xs[:m]])
        nu = new_measure(pair, [(y, 0.5) for y in ys[:n]])
        got = build_augmented_problem(mu, nu, p).cost_exact
        want = _reference_cells(pair, [x for x, _ in mu.atoms], [y for y, _ in nu.atoms], p)
        assert got == want
        assert all(type(c) is Fraction for row in got for c in row)
    x, y = xs[0], ys[-1]
    assert pair.cost_cell(x, y, p) == _reference_cells(pair, [x], [y], p)[0][0]
    assert pair.boundary_cell(x, p) == _reference_cells(pair, [x], [], p)[0][0]


def _check_cost_views(pair, xs, ys, p):
    """The record keeps cost_matrix's ints and scale, and its Fractions are those cells."""
    mu = new_measure(pair, [(x, 1.0) for x in xs])
    nu = new_measure(pair, [(y, 0.5) for y in ys])
    problem = build_augmented_problem(mu, nu, p)
    want = pair.cost_matrix([x for x, _ in mu.atoms], [y for y, _ in nu.atoms], p)
    assert (problem.cells, problem.scale) == want
    assert all(type(c) is int for row in problem.cells for c in row)
    assert problem.scale > 0 and problem.scale & (problem.scale - 1) == 0
    assert problem.cost_exact == tuple(
        tuple(Fraction(c, problem.scale) for c in row) for row in problem.cells
    )


# p = 2 takes the int grid on the half-plane and the box, and integer p the
# exact powers on the finite pair; p = 1.5 (and 1 and 3 off the finite pair)
# read the float d ** p exactly.
@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
@pytest.mark.parametrize("kind", sorted(_WIDE))
def test_augmented_problem_keeps_the_cost_matrix_ints(kind, p):
    _check_cost_views(*_wide_points(kind, p), p)


@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
@pytest.mark.parametrize("kind", sorted(_WIDE))
def test_unvalidated_cost_matrix_is_the_public_one_on_valid_points(kind, p):
    pair, xs, ys = _wide_points(kind, p)
    checked = [pair.validate_point(x) for x in xs], [pair.validate_point(y) for y in ys]
    for m, n in ((len(xs), len(ys)), (0, len(ys)), (len(xs), 0), (0, 0)):
        want = pair.cost_matrix(xs[:m], ys[:n], p)
        assert pair._cost_matrix(checked[0][:m], checked[1][:n], p) == want


def test_augmented_problem_keeps_the_float_fallback_ints():
    # 0.1 is a 56-bit ratio, so its exact 60th power would pass _MAX_CELL_BITS.
    pair = FinitePair(((0, 0.1, 2.5), (0.1, 0, 2.5), (2.5, 2.5, 0)), frozenset({0}))
    xs, ys = [1, 2], [2, 1]
    assert 60 * Fraction(0.1).denominator.bit_length() > _MAX_CELL_BITS
    assert pair.cost_matrix(xs, ys, 60) == MetricPair.cost_matrix(pair, xs, ys, 60)
    assert pair._cost_matrix(xs, ys, 60) == pair.cost_matrix(xs, ys, 60)
    _check_cost_views(pair, xs, ys, 60)


@pytest.mark.parametrize("p", [1, 1.5, 2, 2.5, 3])
@pytest.mark.parametrize("kind", sorted(_WIDE))
def test_cost_c_and_ctilde_are_the_exact_cells_rounded_once(kind, p):
    pair, xs, ys = _wide_points(kind, p)
    for x, y in itertools.product(xs, ys):
        direct = pair.cost_cell(x, y, p)
        detour = pair.boundary_cell(x, p) + pair.boundary_cell(y, p)
        assert cost_c(pair, x, y, p) == float(direct)
        assert cost_ctilde(pair, x, y, p) == float(min(direct, detour))


@pytest.mark.parametrize("p", [1, 1.5, 2, 2.5, 3])
@pytest.mark.parametrize("kind", sorted(_WIDE))
def test_in_S_is_the_certify_concentration_rule(kind, p):
    pair, xs, ys = _wide_points(kind, p)
    points = list(itertools.product(xs, ys))
    if kind == "half_plane":
        points.append(((1.375, 1.625), (1.0, 1.5)))  # an exact tie at p = 2
    for x, y in points:
        violation = concentration_violation(new_plan(pair, [(x, y, 1.0)], p), p)
        for tol in (0.0, 1e-9, 0.5):
            assert in_S(pair, x, y, p, tol) == (violation <= tol), (x, y, tol)


def test_in_S_holds_on_an_exact_tie():
    # Cells [[20, 4], [16, 0]] / 128: d^2 = 0.15625 = c_xA + c_yA exactly.
    x, y = (1.375, 1.625), (1.0, 1.5)
    assert HP.cost_matrix((x,), (y,), 2) == ([[20, 4], [16, 0]], 128)
    assert in_S(HP, x, y, 2, tol=0.0)
    assert cost_c(HP, x, y, 2) == cost_ctilde(HP, x, y, 2) == 0.15625


def test_cost_matrix_overflow_is_reported_as_before():
    mu = new_measure(HP, [((-2.0, 1e150), 1.0)])
    with pytest.raises(OverflowError):
        build_augmented_problem(mu, mu, 2.5)
    # At p = 2 the exact cell is finite as an int; only its rounding overflows.
    for cost in (cost_c, cost_ctilde):
        with pytest.raises(FloatRangeError):
            cost(HP, (-1e200, 1e200), (1e200, 1e200), 2)


@pytest.mark.parametrize(
    "atoms, p",
    [
        ([((0, 1e120), 1.0)], 3),  # the cost d(x, A)^p, in cost_matrix
        ([((0, 1), 1e308), ((0, 2), 1e308)], 2),  # the optimum, in solve_detail
    ],
)
def test_float_range_error_for_library_callers(atoms, p):
    mu = new_measure(HP, atoms)
    with pytest.raises(FloatRangeError, match="value out of the float range") as info:
        solve(mu, zero_measure(HP), p)
    assert isinstance(info.value, PartialOTError) and isinstance(info.value, OverflowError)


def test_only_returned_values_raise_float_range_errors():
    # Matching (0, 2^700) to (1, 2^700) costs 1, but a potential of the
    # optimum is near d(x, A)^2 = 2^1399, beyond the float range.  Only solve
    # and solve_detail return potentials, so only they raise.
    sigma, tau = new_diagram([(0.0, 2.0**700)]), new_diagram([(1.0, 2.0**700)])
    mu, nu = new_measure(HP, [((0.0, 2.0**700), 1.0)]), new_measure(HP, [((1.0, 2.0**700), 1.0)])
    for call in (solve, solve_detail):
        with pytest.raises(FloatRangeError, match="value out of the float range"):
            call(mu, nu, 2)
    assert wb_distance(mu, nu, 2) == 1.0
    dp, plan = diagram_distance(sigma, tau, 2)
    assert dp == 1.0
    assert plan.entries == (((0.0, 2.0**700), (1.0, 2.0**700), 1.0),)
    path = geodesic_path(mu, nu, 2)
    assert path.length == 1.0 and path.plan == plan
    assert interpolate(path, 0.5).atoms == (((0.5, 2.0**700), 1.0),)
    probe = branch_probe(mu, nu, 0.5, 2)
    assert probe.map_induced and probe.endpoint_reproduced and not probe.degenerate


def test_a_flow_that_rounds_to_zero_is_refused():
    # A raw-constructor Fraction mass of 3^-700 puts the masses on a scale
    # past 2^1074, so its flow rounds to 0.0: the plan refuses that entry.
    mu = DiscreteMeasure(HP, (((0.0, 1.0), 1.0), ((0.0, 2.0), Fraction(1, 3**700))))
    with pytest.raises(NonPositiveMassError, match=r"\(0\.0, 2\.0\) -> .* non-positive mass 0\.0"):
        solve(mu, zero_measure(HP), 2)
    assert wb_distance(mu, zero_measure(HP), 2) == 0.5**0.5


def test_cost_underflow_is_a_float_range_error():
    mu = new_measure(HP, [((0.0, 1.0), 1.0)])
    nu = new_measure(HP, [((1e-120, 1.0), 1.0)])
    with pytest.raises(FloatRangeError, match="value out of the float range"):
        wb_distance(mu, nu, 3)
    with pytest.raises(FloatRangeError):
        cost_c(HP, (0.0, 1e-120), (0.0, 1.0), 3)  # d(x, A)^p in the boundary column
    # Equal points and points on A cost exactly 0; nothing underflows there.
    assert wb_distance(mu, mu, 3) == 0.0
    assert cost_c(HP, (1.0, 1.0), (1.0, 1.0), 3) == 0.0


@pytest.mark.parametrize(
    "d, last_exact",
    [
        (1.5, 1612),  # 3 / 2: 2 bits a side, 2 * 1 612 <= 3 225 < 2 * 1 613
        (0.1, 57),  # a full mantissa over 2^55: 56 * 57 <= 3 225 < 56 * 58
    ],
)
def test_finite_pair_exact_powers_stop_at_the_widest_float_cube(d, last_exact):
    # Exact powers while p times the widest numerator or denominator fits in
    # 3 * 1 075 bits; past it the cell is the float d ** p read exactly.
    fin = FinitePair(((0, 1, 1), (1, 0, d), (1, d, 0)), frozenset({0}))
    assert fin.cost_cell(1, 2, last_exact) == Fraction(d) ** last_exact
    assert fin.cost_cell(1, 2, last_exact + 1) == Fraction(d ** (last_exact + 1))
    assert fin.cost_cell(1, 2, last_exact + 1) != Fraction(d) ** (last_exact + 1)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_finite_pair_cells_stay_exact_up_to_p_3(p):
    # (1e-300)^p is far below the float range, yet the exact cell is kept and
    # the used tiny cell is absorbed into a total of 1.
    table = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
    table[1][2] = table[2][1] = 1e-300
    fin = FinitePair(tuple(map(tuple, table)), frozenset({0}))
    assert fin.cost_cell(1, 2, p) == Fraction(1e-300) ** p
    mu = new_measure(fin, [(1, 1.0), (3, 1.0)])
    nu = new_measure(fin, [(2, 1.0), (4, 1.0)])
    assert wb_distance(mu, nu, p) == 1.0


def test_a_large_integer_p_on_a_finite_pair_fails_fast():
    # Exact powers at p = 1e6 would be million-bit ints, taking seconds to
    # fail; the float path overflows on 1.5 ** p at once.
    fin = FinitePair(((0, 1, 2), (1, 0, 1.5), (2, 1.5, 0)), frozenset({0}))
    mu, nu = new_measure(fin, [(1, 1.0)]), new_measure(fin, [(2, 1.0)])
    start = time.perf_counter()
    with pytest.raises(FloatRangeError, match="value out of the float range"):
        wb_distance(mu, nu, 1e6)
    assert time.perf_counter() - start < 1.0


def test_optimum_underflow_is_a_float_range_error():
    # At p = 2 the exact cells (b - a)^2 / 2 are about 5e-341, and so is the
    # positive optimum, which is 0 as a float; at p = 1 it is 7.07e-171.
    mu = new_measure(HP, [((0.0, 1e-170), 1.0)])
    sigma = new_diagram([(0.0, 1e-170)])
    for call in (
        lambda: wb_distance(mu, zero_measure(HP), 2),
        lambda: diagram_distance(sigma, new_diagram([]), 2),
    ):
        with pytest.raises(FloatRangeError, match="^value out of the float range: the optimum"):
            call()
    want = 1e-170 / math.sqrt(2)
    assert wb_distance(mu, zero_measure(HP), 1) == pytest.approx(want, rel=1e-15)
    assert diagram_distance(sigma, new_diagram([]), 1)[0] == pytest.approx(want, rel=1e-15)


def test_solve_direct_vs_boundary_branch():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu3 = new_measure(HP, [((0, 3), 1.0)])
    nu5 = new_measure(HP, [((0, 5), 1.0)])

    r = solve(mu, nu3, 2)
    assert r.wb == pytest.approx(2.0, rel=1e-12)
    assert r.plan.entries == (((0.0, 1.0), (0.0, 3.0), 1.0),)

    r5 = solve(mu, nu5, 2)
    assert r5.wb == pytest.approx(math.sqrt(13), rel=1e-12)
    assert len(r5.plan.entries) == 2  # two boundary edges
    assert all(HP.in_A(s) or HP.in_A(d) for s, d, _ in r5.plan.entries)


def test_solve_identity_and_partial_mass():
    mu = new_measure(HP, [((0, 1), 1.0), ((2, 5), 2.0)])
    assert solve(mu, mu, 2).wb == 0.0

    m2 = new_measure(HP, [((0, 2), 2.0)])
    m1 = new_measure(HP, [((0, 2), 1.0)])
    r = solve(m2, m1, 2)
    assert r.wb == pytest.approx(math.sqrt(2), rel=1e-12)


def test_solve_zero_cases():
    z = zero_measure(HP)
    r = solve(z, z, 2)
    assert r.wb == 0.0 and r.plan.is_empty
    assert r.duals.phi == {} and r.duals.psi == {}

    mu = new_measure(HP, [((0, 2), 2.0)])
    r2 = solve(mu, z, 2)
    assert r2.wb ** 2 == pytest.approx(p_energy(mu, 2), rel=1e-10)
    # pure boundary shipping to the projection
    assert r2.plan.entries == (((0.0, 2.0), (1.0, 1.0), 2.0),)


def test_solve_admissibility():
    rng = random.Random(6)
    for _ in range(30):
        atoms_mu = [
            ((rng.uniform(-2, 2), rng.uniform(3, 5)), rng.uniform(0.1, 3))
            for _ in range(rng.randint(0, 5))
        ]
        atoms_nu = [
            ((rng.uniform(-2, 2), rng.uniform(3, 5)), rng.uniform(0.1, 3))
            for _ in range(rng.randint(0, 5))
        ]
        mu = new_measure(HP, atoms_mu) if atoms_mu else zero_measure(HP)
        nu = new_measure(HP, atoms_nu) if atoms_nu else zero_measure(HP)
        p = rng.choice((1, 1.5, 2, 3))
        r = solve(mu, nu, p)
        got_mu, got_nu = marginals(r.plan)
        for got, want in ((got_mu, mu), (got_nu, nu)):
            gd, wd = got.mass_by_point(), want.mass_by_point()
            assert set(gd) == set(wd)
            for pt in gd:
                assert gd[pt] == pytest.approx(wd[pt], abs=1e-10, rel=1e-10)


def test_solve_dual_certificates():
    mu = new_measure(HP, [((0, 1), 1.2), ((1, 4), 0.8)])
    nu = new_measure(HP, [((0, 3), 0.5), ((2, 6), 1.5)])
    for p in (1, 2, 3):
        detail = solve_detail(mu, nu, p)
        phi, psi = detail.duals.phi, detail.duals.psi
        # feasibility against direct and boundary costs
        for x, _ in mu.atoms:
            assert phi[x] <= HP.dist_to_A(x) ** p + 1e-12
            for y, _ in nu.atoms:
                assert phi[x] + psi[y] <= HP.distance(x, y) ** p + 1e-12
        for y, _ in nu.atoms:
            assert psi[y] <= HP.dist_to_A(y) ** p + 1e-12
        # duality gap: dual objective equals primal cost
        dual_value = sum(m * phi[x] for x, m in mu.atoms) + sum(
            m * psi[y] for y, m in nu.atoms
        )
        primal = plan_cost(detail.plan, p)
        assert dual_value == pytest.approx(primal, rel=1e-9, abs=1e-12)


def test_solve_support_in_S():
    rng = random.Random(7)
    for _ in range(20):
        mu = new_measure(
            HP, [((rng.uniform(-2, 2), rng.uniform(3, 5)), 1.0) for _ in range(3)]
        )
        nu = new_measure(
            HP, [((rng.uniform(-2, 2), rng.uniform(3, 5)), 1.0) for _ in range(3)]
        )
        r = solve(mu, nu, 2)
        for s, d, _ in r.plan.entries:
            if not HP.in_A(s) and not HP.in_A(d):
                assert in_S(HP, s, d, 2, tol=1e-8)


def test_solve_symmetry_exact():
    mu = new_measure(HP, [((0, 1), 1.7), ((2, 5), 0.3)])
    nu = new_measure(HP, [((1, 3), 0.9), ((0, 4), 1.1)])
    for p in (1, 1.5, 2, 3):
        assert solve(mu, nu, p).wb == solve(nu, mu, p).wb


def test_pair_mismatch_and_bad_p():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(BOX, [((1, 1), 1.0)])
    with pytest.raises(PairMismatchError):
        solve(mu, nu, 2)
    with pytest.raises(ValueError):
        solve(mu, mu, 0.5)
    with pytest.raises(ValueError):
        solve(mu, mu, math.inf)
    for p in ("2", True, b"2"):  # never coerced to a number
        with pytest.raises(PartialOTError, match="exponent"):
            solve(mu, mu, p)


def test_diagram_distance_examples():
    s = new_diagram([(0, 4)])
    t = new_diagram([(1, 5)])
    dp, matching = diagram_distance(s, t, 2)
    assert dp == pytest.approx(math.sqrt(2), rel=1e-12)
    assert matching.entries == (((0.0, 4.0), (1.0, 5.0), 1.0),)

    assert diagram_distance(s, s, 2)[0] == 0.0

    dp_del, match_del = diagram_distance(s, new_diagram([]), 2)
    assert dp_del == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert match_del.entries == (((0.0, 4.0), (2.0, 2.0), 1.0),)


def test_diagram_matching_is_partial_bijection():
    rng = random.Random(8)
    for _ in range(20):
        s = new_diagram(
            [(rng.uniform(-2, 2), rng.uniform(3, 5)) for _ in range(rng.randint(0, 4))]
        )
        t = new_diagram(
            [(rng.uniform(-2, 2), rng.uniform(3, 5)) for _ in range(rng.randint(0, 4))]
        )
        _, matching = diagram_distance(s, t, 2)
        # unit masses stay unit: the vertex is a permutation-style matching
        for _, _, m in matching.entries:
            assert m == 1.0


def test_box_pair_solve():
    mu = new_measure(BOX, [((1, 2), 1.0)])
    nu = new_measure(BOX, [((3, 2), 1.0)])
    r = solve(mu, nu, 2)
    # direct cost 4 vs boundary 1 + 1 = 2: boundary wins
    assert r.wb == pytest.approx(math.sqrt(2), rel=1e-12)
    assert wb_distance(mu, zero_measure(BOX), 2) == pytest.approx(1.0, rel=1e-12)


def test_readme_library_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(example, namespace)
    assert namespace["wb"] == 2.0
    assert namespace["report"].all_passed()


# ---------------------------------------------------------------------------
# Independent float cross-check against scipy's HiGHS LP solver.


def _measure_on(rng, pair, points):
    return new_measure(pair, [(pt, rng.uniform(0.1, 3.0)) for pt in points])


@pytest.mark.parametrize("kind, p", [("half_plane", 2), ("box", 1.5), ("finite", 3)])
def test_wb_matches_scipy_linprog_at_n200(kind, p):
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    rng = random.Random(f"linprog/{kind}")
    n = 200
    if kind == "finite":
        # Integer points of the plane under the Manhattan metric, exact in
        # floats; the last one is A.
        grid = sorted({(rng.randrange(1000), rng.randrange(1000)) for _ in range(3 * n)})[: n + 1]
        table = tuple(tuple(float(abs(a - c) + abs(b - d)) for c, d in grid) for a, b in grid)
        pair = FinitePair(table, frozenset({n}))
        xs = ys = range(n)
    elif kind == "half_plane":
        pair = HP
        xs, ys = ([(a, a + rng.uniform(0.1, 5.0)) for a in (rng.uniform(0, 10) for _ in range(n))]
                  for _ in range(2))
    else:
        pair = BOX
        xs, ys = ([(rng.uniform(0.05, 3.95), rng.uniform(0.05, 3.95)) for _ in range(n)]
                  for _ in range(2))
    mu, nu = _measure_on(rng, pair, xs), _measure_on(rng, pair, ys)

    # The boundary-augmented LP in floats: a last row and column for A, the
    # A row supplying nu's mass and the A column taking mu's.
    xs, a = zip(*mu.atoms)
    ys, b = zip(*nu.atoms)
    cost = [[pair.distance(x, y) ** p for y in ys] + [pair.dist_to_A(x) ** p] for x in xs]
    cost.append([pair.dist_to_A(y) ** p for y in ys] + [0.0])
    rows, cols = len(xs) + 1, len(ys) + 1
    var = np.arange(rows * cols)
    constraints = sparse.coo_matrix(
        (np.ones(2 * var.size), (np.concatenate([var // cols, rows + var % cols]), np.tile(var, 2)))
    )
    lp = optimize.linprog(
        np.array(cost).ravel(),
        A_eq=constraints,
        b_eq=[*a, sum(b), *b, sum(a)],
        bounds=(0, None),
        method="highs",
    )
    assert lp.status == 0, lp.message
    assert solve(mu, nu, p).wb ** p == pytest.approx(lp.fun, rel=1e-9)
