"""Tests for the exact transportation simplex.

The pinned answers in ``data/simplex_golden.json`` were written by the
rational (``Fraction``) simplex this module replaced.  To rewrite them after
an intended change of answers, run ``PYTHONPATH=src python tests/test_simplex.py``
from the repository root and say why in CHANGES.md.
"""

import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from partialot import EuclideanBoxPair, HalfPlanePair, new_measure
from partialot._simplex import _entering, _northwest_corner, solve_transportation
from partialot.solver import build_augmented_problem

GOLDEN = Path(__file__).with_name("data") / "simplex_golden.json"
HALF_PLANE = HalfPlanePair()
BOX = EuclideanBoxPair((0.0, 0.0), (4.0, 4.0))


def _check_exact_optimality(supply, demand, cost, flows, u, v):
    m, n = len(supply), len(demand)
    # conservation, exactly
    for i in range(m):
        assert sum(f for (a, _), f in flows.items() if a == i) == supply[i]
    for j in range(n):
        assert sum(f for (_, b), f in flows.items() if b == j) == demand[j]
    # dual feasibility everywhere, complementary slackness on flows, exactly
    for i in range(m):
        for j in range(n):
            assert u[i] + v[j] <= cost[i][j]
    for (i, j), f in flows.items():
        assert f > 0
        assert u[i] + v[j] == cost[i][j]


def _objective(flows, cost):
    return sum(f * cost[i][j] for (i, j), f in flows.items())


def test_single_cell():
    flows, u, v, alt = solve_transportation(
        [Fraction(3)], [Fraction(3)], [[Fraction(7)]]
    )
    assert flows == {(0, 0): Fraction(3)}
    assert u[0] + v[0] == Fraction(7)


def test_two_by_two_diagonal():
    supply = [Fraction(1), Fraction(1)]
    demand = [Fraction(1), Fraction(1)]
    cost = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    flows, u, v, alt = solve_transportation(supply, demand, cost)
    assert _objective(flows, cost) == 0
    assert flows == {(0, 0): Fraction(1), (1, 1): Fraction(1)}
    _check_exact_optimality(supply, demand, cost, flows, u, v)


def test_textbook_instance():
    supply = [Fraction(2), Fraction(3)]
    demand = [Fraction(1), Fraction(4)]
    cost = [[Fraction(4), Fraction(1)], [Fraction(2), Fraction(6)]]
    flows, u, v, alt = solve_transportation(supply, demand, cost)
    # optimum: route supply 0 to column 1 (cost 1), supply 1 covers the rest
    assert _objective(flows, cost) == 2 * 1 + 1 * 2 + 2 * 6
    _check_exact_optimality(supply, demand, cost, flows, u, v)


def test_unbalanced_rejected():
    with pytest.raises(ValueError, match="balanced"):
        solve_transportation([Fraction(1)], [Fraction(2)], [[Fraction(0)]])


def test_zero_problem():
    flows, u, v, alt = solve_transportation([Fraction(0)], [Fraction(0)], [[Fraction(5)]])
    assert flows == {}
    assert u[0] + v[0] <= Fraction(5)


def test_degenerate_supplies():
    supply = [Fraction(0), Fraction(2)]
    demand = [Fraction(1), Fraction(1), Fraction(0)]
    cost = [[Fraction(1)] * 3, [Fraction(2), Fraction(3), Fraction(9)]]
    flows, u, v, alt = solve_transportation(supply, demand, cost)
    assert _objective(flows, cost) == 2 + 3
    _check_exact_optimality(supply, demand, cost, flows, u, v)


def _brute_force_min(supply, demand, cost):
    """Exhaustive integer enumeration (tiny instances, integral data)."""
    m, n = len(supply), len(demand)
    best = None

    def rec(i, rows, cols):
        nonlocal best
        if i == m * n:
            if all(r == 0 for r in rows) and all(c == 0 for c in cols):
                value = sum(
                    grid[a][b] * cost[a][b] for a in range(m) for b in range(n)
                )
                best = value if best is None else min(best, value)
            return
        a, b = divmod(i, n)
        for f in range(min(rows[a], cols[b]) + 1):
            grid[a][b] = f
            rows[a] -= f
            cols[b] -= f
            rec(i + 1, rows, cols)
            rows[a] += f
            cols[b] += f
        grid[a][b] = 0

    grid = [[0] * n for _ in range(m)]
    rec(0, list(supply), list(demand))
    return best


def test_random_integer_instances_match_enumeration():
    rng = random.Random(4)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        supply = [rng.randint(0, 3) for _ in range(m)]
        total = sum(supply)
        # random composition of the total over the demands
        demand = [0] * n
        for _ in range(total):
            demand[rng.randrange(n)] += 1
        cost = [[rng.randint(0, 9) for _ in range(n)] for _ in range(m)]
        flows, u, v, alt = solve_transportation(
            [Fraction(s) for s in supply],
            [Fraction(d) for d in demand],
            [[Fraction(c) for c in row] for row in cost],
        )
        want = _brute_force_min(supply, demand, cost)
        assert _objective(flows, cost) == want
        _check_exact_optimality(
            [Fraction(s) for s in supply],
            [Fraction(d) for d in demand],
            [[Fraction(c) for c in row] for row in cost],
            flows,
            u,
            v,
        )


def test_fractional_masses_exact():
    supply = [Fraction(1, 3), Fraction(2, 3)]
    demand = [Fraction(1, 2), Fraction(1, 2)]
    cost = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]]
    flows, u, v, alt = solve_transportation(supply, demand, cost)
    _check_exact_optimality(supply, demand, cost, flows, u, v)
    # optimum: X00 = 1/3, X10 = 1/6, X11 = 1/2
    assert _objective(flows, cost) == Fraction(1, 3) + Fraction(1, 2) + Fraction(1, 2)


def test_alternate_optimum_flagged():
    # all costs equal: any vertex is optimal, ties everywhere
    supply = [Fraction(1), Fraction(1)]
    demand = [Fraction(1), Fraction(1)]
    cost = [[Fraction(1)] * 2 for _ in range(2)]
    _, _, _, alt = solve_transportation(supply, demand, cost)
    assert alt > 0
    # strictly better diagonal: unique optimum, no ties
    cost2 = [[Fraction(0), Fraction(5)], [Fraction(5), Fraction(0)]]
    _, _, _, alt2 = solve_transportation(supply, demand, cost2)
    assert alt2 == 0


# ---------------------------------------------------------------------------
# Pinned answers: flows (in basis order), potentials and alt counts.


def _augmented(mu, nu, p):
    """The transportation instance ``solve_detail`` hands to the simplex."""
    problem = build_augmented_problem(mu, nu, p)
    supply = [Fraction(m) for _, m in mu.atoms] + [sum(Fraction(m) for _, m in nu.atoms)]
    demand = [Fraction(m) for _, m in nu.atoms] + [sum(Fraction(m) for _, m in mu.atoms)]
    return supply, demand, problem.cost_exact


def _general_measure(rng, pair, k):
    """``k`` random atoms of random mass on the half-plane or the box."""
    if pair is HALF_PLANE:
        pts = [(a, a + rng.uniform(0.1, 5.0)) for a in (rng.uniform(0, 10) for _ in range(k))]
    else:
        pts = [(rng.uniform(0.05, 3.95), rng.uniform(0.05, 3.95)) for _ in range(k)]
    return new_measure(pair, [(pt, rng.uniform(0.1, 3.0)) for pt in pts])


def _pinned_instances():
    """About thirty seeded instances, by name."""
    rng = random.Random(2406)

    def general(pair, k):
        return _general_measure(rng, pair, k)

    def unit_ties(pair, k):
        # integer grid points: many equal distances, hence tied pivots
        if pair is HALF_PLANE:
            pts = [(b, b + rng.randint(1, 3)) for b in (rng.randint(0, 3) for _ in range(k))]
        else:
            pts = [(rng.randint(1, 3) * 1.0, rng.randint(1, 3) * 1.0) for _ in range(k)]
        return new_measure(pair, [(pt, 1.0) for pt in pts])

    out = {}
    for pair_name, pair in (("half_plane", HALF_PLANE), ("box", BOX)):
        for p in (1.0, 1.5, 2.0, 3.0):
            out[f"{pair_name}/p{p}/general"] = _augmented(general(pair, 6), general(pair, 6), p)
            out[f"{pair_name}/p{p}/general_5x8"] = _augmented(general(pair, 5), general(pair, 8), p)
            out[f"{pair_name}/p{p}/unit_ties"] = _augmented(unit_ties(pair, 6), unit_ties(pair, 7), p)

    def wide(k):
        pts = []
        for _ in range(k):
            b = 10 ** rng.uniform(-8, 150)
            pts.append(((b, b * (1 + rng.uniform(0.1, 3.0))), rng.uniform(0.1, 3.0)))
        return new_measure(HALF_PLANE, pts)

    out["half_plane/p2.0/wide_range"] = _augmented(wide(8), wide(8), 2.0)
    for k in range(4):
        m, n = rng.randint(5, 9), rng.randint(5, 9)
        supply = [Fraction(1)] * m + [Fraction(n)]
        demand = [Fraction(1)] * n + [Fraction(m)]
        cost = [[Fraction(rng.randint(0, 2)) for _ in range(n + 1)] for _ in range(m + 1)]
        out[f"integer_costs_012/{k}"] = (supply, demand, cost)
    return out


def _encode(flows, u, v, alt):
    return {
        "flows": [[i, j, str(f)] for (i, j), f in flows.items()],
        "u": [str(x) for x in u],
        "v": [str(x) for x in v],
        "alt": alt,
    }


def test_pinned_answers_are_bit_identical():
    golden = json.loads(GOLDEN.read_text())
    instances = _pinned_instances()
    assert sorted(golden) == sorted(instances)
    # the wide-range case really exercises big integers once scaled
    wide = [c for row in instances["half_plane/p2.0/wide_range"][2] for c in row]
    scale = lcm(*(c.denominator for c in wide))
    assert max((c * scale).numerator.bit_length() for c in wide) > 1000
    for name, (supply, demand, cost) in instances.items():
        flows, u, v, alt = solve_transportation(supply, demand, cost)
        assert all(type(x) is Fraction for x in [*flows.values(), *u, *v]), name
        assert _encode(flows, u, v, alt) == golden[name], name
        _check_exact_optimality(supply, demand, cost, flows, u, v)


# ---------------------------------------------------------------------------
# Entering rules and the incremental basis tree.


def _brute_force_entering(cost, basis, u, v, bland):
    """Entering cell by a scan of the non-basic cells only."""
    best = None
    for i, row in enumerate(cost):
        for j, c in enumerate(row):
            if (i, j) in basis:
                continue
            rc = c - u[i] - v[j]
            if rc < 0 and (best is None or rc < best[2]):
                best = (i, j, rc)
                if bland:
                    return best
    return best


def _check_tree(tree, supply, demand, cost):
    m, n = len(supply), len(demand)
    assert len(tree.flow) == m + n - 1
    assert tree.u[0] == 0 and type(tree.u[0]) is int
    for (i, j), f in tree.flow.items():
        assert f >= 0
        assert tree.u[i] + tree.v[j] == cost[i][j]
        # every basic cell is the edge from a node to its parent
        assert tree.parent[i] == m + j or tree.parent[m + j] == i
    for i in range(m):
        assert sum(f for (a, _), f in tree.flow.items() if a == i) == supply[i]
    for j in range(n):
        assert sum(f for (_, b), f in tree.flow.items() if b == j) == demand[j]
    for x in range(1, m + n):
        assert tree.depth[x] == tree.depth[tree.parent[x]] + 1
        assert x in tree.children[tree.parent[x]]


@pytest.mark.parametrize("bland", [False, True])
def test_entering_rules_match_brute_force(bland):
    rng = random.Random(17 + bland)
    seen_negative = 0
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        supply = [rng.randint(0, 3) for _ in range(m)]
        demand = [0] * n
        for _ in range(sum(supply)):
            demand[rng.randrange(n)] += 1
        cost = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
        tree = _northwest_corner(supply, demand, cost)
        while True:
            _check_tree(tree, supply, demand, cost)
            got = _entering(cost, tree.u, tree.v, bland)
            assert got == _brute_force_entering(cost, tree.flow, tree.u, tree.v, bland)
            if got is None:
                break
            seen_negative += 1
            tree.pivot(*got)
    assert seen_negative > 100


def test_entering_rules_differ():
    # steepest picks the most negative cell, Bland the first negative one
    cost = [[0, 0, 5], [0, 1, 0]]
    u, v = [0, 3], [0, 0, 0]  # reduced costs: row 1 is [-3, -2, -3]
    assert _entering(cost, u, v, bland=False) == (1, 0, -3)
    cost[1][0] = 2  # row 1: [-1, -2, -3]
    assert _entering(cost, u, v, bland=False) == (1, 2, -3)
    assert _entering(cost, u, v, bland=True) == (1, 0, -1)


# ---------------------------------------------------------------------------
# Independent exact cross-check against networkx's network simplex.


@pytest.mark.parametrize("pair_name", ["half_plane", "box"])
@pytest.mark.parametrize("n, p", [(10, 1.0), (30, 2.0), (60, 1.5)])
def test_optimal_value_matches_networkx(pair_name, n, p):
    nx = pytest.importorskip("networkx")

    rng = random.Random(f"{pair_name}/{n}/{p}")
    pair = HALF_PLANE if pair_name == "half_plane" else BOX
    mu, nu = _general_measure(rng, pair, n), _general_measure(rng, pair, n)
    supply, demand, cost = _augmented(mu, nu, p)
    flows, u, v, _ = solve_transportation(supply, demand, cost)

    # the same instance scaled to integers, as a min-cost flow
    mass_scale = lcm(*(x.denominator for x in supply + demand))
    cost_scale = lcm(*(c.denominator for row in cost for c in row))
    graph = nx.DiGraph()
    for i, s in enumerate(supply):
        graph.add_node(("s", i), demand=-int(s * mass_scale))
    for j, d in enumerate(demand):
        graph.add_node(("t", j), demand=int(d * mass_scale))
    for i, row in enumerate(cost):
        for j, c in enumerate(row):
            graph.add_edge(("s", i), ("t", j), weight=int(c * cost_scale))
    nx_value, _ = nx.network_simplex(graph)

    assert _objective(flows, cost) == Fraction(nx_value, mass_scale * cost_scale)
    _check_exact_optimality(supply, demand, cost, flows, u, v)


if __name__ == "__main__":
    pinned = {
        name: _encode(*solve_transportation(*instance))
        for name, instance in _pinned_instances().items()
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} instances to {GOLDEN}")
