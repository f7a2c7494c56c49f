"""Tests for the exact oracle.

The oracle is checked against an exact permutation minimum kept in this
file (a reference for the reference, on a few unit points), and then
against the solver, exactly, on general float masses over the three pairs,
up to 30 atoms a side.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from partialot import (
    EuclideanBoxPair,
    FinitePair,
    FloatRangeError,
    HalfPlanePair,
    OracleSizeError,
    brute_force_diagram,
    brute_force_wb,
    diagram_to_measure,
    new_diagram,
    new_measure,
    solve,
    solve_detail,
    zero_measure,
)
from partialot.oracle import MAX_MATCH_POINTS

HP = HalfPlanePair()
BOX = EuclideanBoxPair((-1.0, -1.0), (4.0, 4.0))
FIN = FinitePair(
    ((0, 1, 2, 2.5), (1, 0, 1.5, 2.5), (2, 1.5, 0, 1.25), (2.5, 2.5, 1.25, 0)), frozenset({0})
)
EXPONENTS = (1.0, 1.5, 2.0, 3.0)


def test_brute_force_diagram_examples():
    s = new_diagram([(0, 4)])
    t = new_diagram([(1, 5)])
    r = brute_force_diagram(s, t, 2)
    assert r.value == pytest.approx(2.0, rel=1e-14)
    assert r.witness == (("match", (0.0, 4.0), (1.0, 5.0)),)

    assert brute_force_diagram(s, s, 2).value == 0.0

    r_del = brute_force_diagram(s, new_diagram([]), 2)
    assert r_del.value == pytest.approx(8.0, rel=1e-14)
    assert r_del.witness == (("delete", (0.0, 4.0), (2.0, 2.0)),)


def test_diagram_witness_lists_one_move_per_unit():
    # The repeated point is one atom of mass 2: one unit matches, one is deleted.
    r = brute_force_diagram(new_diagram([(0, 4), (0, 4)]), new_diagram([(1, 5)]), 2)
    assert r.exact == 2 + 8
    assert r.witness == (
        ("match", (0.0, 4.0), (1.0, 5.0)),
        ("delete", (0.0, 4.0), (2.0, 2.0)),
    )


def test_brute_force_wb_examples():
    mu = new_measure(HP, [((0, 1), 1.0)])
    nu = new_measure(HP, [((0, 3), 1.0)])
    assert brute_force_wb(mu, nu, 2).value == pytest.approx(4.0, rel=1e-14)
    assert brute_force_wb(mu, mu, 2).value == 0.0

    m2 = new_measure(HP, [((0, 2), 2.0)])
    m1 = new_measure(HP, [((0, 2), 1.0)])
    r = brute_force_wb(m2, m1, 2)
    assert r.value == pytest.approx(2.0, rel=1e-14)


def test_brute_force_wb_rational_masses():
    mu = new_measure(HP, [((0, 1), 0.5), ((1, 4), 1.5)])
    nu = new_measure(HP, [((0, 3), 0.25)])
    for p in (1, 2):
        want = solve(mu, nu, p).wb ** p
        got = brute_force_wb(mu, nu, p).value
        assert got == pytest.approx(want, abs=1e-10)


def test_size_bounds():
    # One bound, on the atoms of both sides together; any float mass is accepted.
    big = new_diagram([(0, k + 1) for k in range(5)])
    other = new_diagram([(1, k + 2) for k in range(4)])
    want = solve_detail(diagram_to_measure(big), diagram_to_measure(other), 2).wb_p_exact
    assert brute_force_diagram(big, other, 2).exact == want
    mu = new_measure(HP, [((0, 1), 0.1)])
    assert brute_force_wb(mu, zero_measure(HP), 2).exact == Fraction(0.1) / 2
    half = MAX_MATCH_POINTS // 2
    sigma = new_diagram([(0, k + 1) for k in range(half + 1)])
    tau = new_diagram([(1, k + 2) for k in range(MAX_MATCH_POINTS - half)])
    with pytest.raises(OracleSizeError):
        brute_force_diagram(sigma, tau, 2)
    with pytest.raises(OracleSizeError):
        brute_force_wb(diagram_to_measure(sigma), diagram_to_measure(tau), 2)
    # Repeated points are one atom each, so they count once.
    repeated = new_diagram([(0, 1)] * (MAX_MATCH_POINTS + 1))
    want = (MAX_MATCH_POINTS + 1) * HP.boundary_cell((0, 1), 1)
    assert brute_force_diagram(repeated, new_diagram([]), 1).exact == want


def test_an_optimum_past_the_float_range_is_a_float_range_error():
    mu = new_measure(HP, [((0, 1), 1e308), ((0, 2), 1e308)])
    with pytest.raises(FloatRangeError, match="value out of the float range"):
        brute_force_wb(mu, zero_measure(HP), 2)


def test_empty_instances():
    z = new_diagram([])
    assert brute_force_diagram(z, z, 2).value == 0.0
    assert brute_force_wb(zero_measure(HP), zero_measure(HP), 2).value == 0.0


def test_witness_achieves_value():
    rng = random.Random(9)
    for _ in range(20):
        mu_pts = [(rng.uniform(-2, 2), rng.uniform(3, 5)) for _ in range(rng.randint(0, 3))]
        nu_pts = [(rng.uniform(-2, 2), rng.uniform(3, 5)) for _ in range(rng.randint(0, 3))]
        mu = new_measure(HP, [(pt, 1.0) for pt in mu_pts]) if mu_pts else zero_measure(HP)
        nu = new_measure(HP, [(pt, 1.0) for pt in nu_pts]) if nu_pts else zero_measure(HP)
        r = brute_force_wb(mu, nu, 2)
        recomputed = sum(m * HP.distance(s, d) ** 2 for s, d, m in r.witness)
        assert recomputed == pytest.approx(r.value, abs=1e-12)


def test_oracles_agree_on_unit_masses():
    rng = random.Random(10)
    for _ in range(25):
        s_pts = [(rng.uniform(-2, 2), rng.uniform(3, 5)) for _ in range(rng.randint(0, 4))]
        t_pts = [(rng.uniform(-2, 2), rng.uniform(3, 5)) for _ in range(rng.randint(0, 4))]
        sigma = new_diagram(s_pts)
        tau = new_diagram(t_pts)
        p = rng.choice((1, 2))
        a = brute_force_diagram(sigma, tau, p).value
        b = brute_force_wb(diagram_to_measure(sigma), diagram_to_measure(tau), p).value
        assert a == pytest.approx(b, abs=1e-12)


def _permutation_minimum(pair, xs, ys, p):
    """The least cost of a bijection of the square per-point-copy matrix, in Fractions.

    Rows are the points xs then one copy of A per point of ys; columns are
    ys then one copy of A per point of xs.  Repeated points stay separate.
    """
    m, n = len(xs), len(ys)

    def cell(i, j):
        if i < m and j < n:
            return pair.cost_cell(xs[i], ys[j], p)
        if i < m:
            return pair.boundary_cell(xs[i], p)
        return pair.boundary_cell(ys[j], p) if j < n else Fraction(0)

    c = [[cell(i, j) for j in range(m + n)] for i in range(m + n)]
    return min(
        sum((c[i][j] for i, j in enumerate(perm)), Fraction(0))
        for perm in permutations(range(m + n))
    )


def _point(rng, pair):
    """A point of ``pair`` from a few coordinates, so that points repeat."""
    if pair is FIN:
        return rng.choice((1, 2, 3))
    if pair is HP:
        a = rng.choice((-1.0, 0.0, 0.5, 3.0))
        return (a, a + rng.choice((0.25, 0.5, 2.5)))
    return (rng.choice((0.0, 0.5, 3.0)), rng.choice((0.0, 1.0, 3.75)))


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("pair", [HP, BOX, FIN], ids=lambda pair: pair.kind)
def test_oracle_is_the_permutation_minimum(pair, p):
    rng = random.Random(f"{pair.kind} {p}")
    for _ in range(15):
        xs = [_point(rng, pair) for _ in range(rng.randint(0, 3))]
        ys = [_point(rng, pair) for _ in range(rng.randint(0, 3))]
        want = _permutation_minimum(pair, xs, ys, p)
        mu, nu = (
            new_measure(pair, [(pt, 1.0) for pt in pts]) if pts else zero_measure(pair)
            for pts in (xs, ys)
        )
        assert brute_force_wb(mu, nu, p).exact == want
        if pair is HP:
            assert brute_force_diagram(new_diagram(xs), new_diagram(ys), p).exact == want


def _random_finite_pair(rng, size):
    """Shortest paths over random dyadic edge weights: a metric with exact float sums."""
    d = [[0.0 if i == j else rng.randint(1, 64) / 16 for j in range(size)] for i in range(size)]
    d = [[min(d[i][j], d[j][i]) for j in range(size)] for i in range(size)]
    for k in range(size):
        d = [[min(d[i][j], d[i][k] + d[k][j]) for j in range(size)] for i in range(size)]
    return FinitePair(tuple(map(tuple, d)), frozenset(rng.sample(range(size), 3)))


def _general_measure(rng, pair, points):
    return new_measure(pair, [(pt, rng.uniform(0.01, 3.0)) for pt in points])


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("kind", ["half_plane", "box", "finite"])
def test_oracle_is_the_solver_optimum_at_scale(kind, p):
    rng = random.Random(f"{kind} at scale {p}")
    if kind == "finite":
        pair = _random_finite_pair(rng, 40)
        off_A = [k for k in range(pair.size) if k not in pair.subset]
        mu, nu = (_general_measure(rng, pair, rng.sample(off_A, 15)) for _ in range(2))
    else:
        # Sorted coordinates make a point of the half-plane, or of the box's interior.
        pair = HP if kind == "half_plane" else BOX
        lo, hi = (-2.0, 3.0) if pair is HP else (-0.9, 3.9)
        points = [[sorted(rng.uniform(lo, hi) for _ in range(2)) for _ in range(30)] for _ in "ab"]
        mu, nu = (_general_measure(rng, pair, pts) for pts in points)
    assert brute_force_wb(mu, nu, p).exact == solve_detail(mu, nu, p).wb_p_exact
