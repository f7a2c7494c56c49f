"""Tests for the exact transportation simplex.

``solve_transportation`` works on ints; the tests with rational data go
through ``exact_reference.solve_fractions``, which scales them to ints and
divides the answers back.

The simplex perturbs the masses so that no basic flow is ever 0, and needs
no anti-cycling rule; the tests that drive ``_row_minimum`` and
``_BasisTree.pivot`` directly feed them the masses ``_perturbed`` makes, and
check that every basic flow stays positive.

The pinned answers in ``data/simplex_golden.json`` were rewritten when the
row-minimum start and block-search pricing replaced the north-west corner
and the full most-negative scan, and again when the mass perturbation
replaced the smallest-index leaving rule and Bland's fallback.  Their flows
are listed in row-major cell order, not in the order the basis tree keeps
them.  A pricing, start or leaving rule may change only what exact ties
leave open: every instance keeps its optimal value, flows where the optimum
is unique (``alt == 0``) and duals where the final basis has m + n - 1
positive flows.  To rewrite them after an intended change of answers, run
``PYTHONPATH=src python tests/test_simplex.py`` from the repository root
and say why in CHANGES.md.
"""

import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from partialot import EuclideanBoxPair, HalfPlanePair, new_measure, solve
from partialot._simplex import (
    _BasisTree,
    _entering,
    _perturbed,
    _row_minimum,
    solve_transportation,
)
from partialot.certify import duality_gap_violation

from exact_reference import augmented as _augmented
from exact_reference import check_exact_optimality as _check_exact_optimality
from exact_reference import network_simplex_value, solve_fractions, to_ints

GOLDEN = Path(__file__).with_name("data") / "simplex_golden.json"
HALF_PLANE = HalfPlanePair()
BOX = EuclideanBoxPair((0.0, 0.0), (4.0, 4.0))


def _objective(flows, cost):
    return sum(f * cost[i][j] for (i, j), f in flows.items())


def test_single_cell():
    flows, u, v, alt = solve_transportation([3], [3], [[7]])
    assert flows == {(0, 0): 3}
    assert u[0] + v[0] == 7


def test_two_by_two_diagonal():
    supply = [1, 1]
    demand = [1, 1]
    cost = [[0, 1], [1, 0]]
    flows, u, v, alt = solve_transportation(supply, demand, cost)
    assert _objective(flows, cost) == 0
    assert flows == {(0, 0): 1, (1, 1): 1}
    _check_exact_optimality(supply, demand, cost, flows, u, v)


def test_textbook_instance():
    supply = [2, 3]
    demand = [1, 4]
    cost = [[4, 1], [2, 6]]
    flows, u, v, alt = solve_transportation(supply, demand, cost)
    # optimum: route supply 0 to column 1 (cost 1), supply 1 covers the rest
    assert _objective(flows, cost) == 2 * 1 + 1 * 2 + 2 * 6
    _check_exact_optimality(supply, demand, cost, flows, u, v)


def test_unbalanced_rejected():
    with pytest.raises(ValueError, match="balanced"):
        solve_transportation([1], [2], [[0]])


def test_zero_problem():
    flows, u, v, alt = solve_transportation([0], [0], [[5]])
    assert flows == {}
    assert u[0] + v[0] <= 5


def test_degenerate_supplies():
    supply = [0, 2]
    demand = [1, 1, 0]
    cost = [[1] * 3, [2, 3, 9]]
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
        flows, u, v, alt = solve_transportation(supply, demand, cost)
        want = _brute_force_min(supply, demand, cost)
        assert _objective(flows, cost) == want
        _check_exact_optimality(supply, demand, cost, flows, u, v)


def test_fractional_masses_exact():
    supply = [Fraction(1, 3), Fraction(2, 3)]
    demand = [Fraction(1, 2), Fraction(1, 2)]
    cost = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]]
    flows, u, v, alt = solve_fractions(supply, demand, cost)
    _check_exact_optimality(supply, demand, cost, flows, u, v)
    # optimum: X00 = 1/3, X10 = 1/6, X11 = 1/2
    assert _objective(flows, cost) == Fraction(1, 3) + Fraction(1, 2) + Fraction(1, 2)


def test_alternate_optimum_flagged():
    # all costs equal: any vertex is optimal, ties everywhere
    supply = [1, 1]
    demand = [1, 1]
    cost = [[1] * 2 for _ in range(2)]
    _, _, _, alt = solve_transportation(supply, demand, cost)
    assert alt > 0
    # strictly better diagonal: unique optimum, no ties
    cost2 = [[0, 5], [5, 0]]
    _, _, _, alt2 = solve_transportation(supply, demand, cost2)
    assert alt2 == 0


# ---------------------------------------------------------------------------
# Pinned answers: flows (in row-major order), potentials and alt counts.


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
        flows, u, v, alt = solve_fractions(supply, demand, cost)
        assert _encode(flows, u, v, alt) == golden[name], name
        _check_exact_optimality(supply, demand, cost, flows, u, v)


#: Pivots the pinned instances took from a north-west-corner start with the
#: full most-negative scan; the row-minimum start with block search takes 91
#: on the perturbed masses.
NORTHWEST_STEEPEST_PIVOTS = 279


@pytest.fixture
def pivots(monkeypatch):
    """A one-item list that counts the test's calls of ``_BasisTree.pivot``."""
    count = [0]
    pivot = _BasisTree.pivot

    def counted(tree, *args):
        count[0] += 1
        pivot(tree, *args)

    monkeypatch.setattr(_BasisTree, "pivot", counted)
    return count


def test_pinned_instances_take_fewer_pivots(pivots):
    for supply, demand, cost in _pinned_instances().values():
        solve_fractions(supply, demand, cost)
    assert 0 < pivots[0] < NORTHWEST_STEEPEST_PIVOTS


#: Pivots ``solve`` took on the unit-mass instance below when the leaving
#: cell was the smallest row-major index among the minimum-ratio cells,
#: with Bland's rule after m + n degenerate pivots; the mass perturbation,
#: under which no pivot is degenerate, takes 1 258.
SMALLEST_INDEX_UNIT_PIVOTS = 1652
#: That instance's Wb_2, which both leaving rules reach bit for bit.
UNIT_WB = "0x1.2ac3ad50a5bebp+3"


def test_perturbation_saves_degenerate_pivots(pivots):
    # Unit masses make many sets of atoms balance: the unperturbed
    # simplex moves no mass in most of its pivots here.
    rng = random.Random("unit/200")
    mu, nu = (
        new_measure(HALF_PLANE, [(x, 1.0) for x, _ in _general_measure(rng, HALF_PLANE, 200).atoms])
        for _ in range(2)
    )
    assert solve(mu, nu, 2.0).wb.hex() == UNIT_WB
    assert 0 < pivots[0] < SMALLEST_INDEX_UNIT_PIVOTS


# ---------------------------------------------------------------------------
# Entering rules and the incremental basis tree.


def _brute_force_entering(cost, basis, u, v, start, block):
    """Entering cell and next start row, by a plain scan of the non-basic cells."""
    m = len(cost)
    negative = [
        (i, j, c - u[i] - v[j])
        for i, row in enumerate(cost)
        for j, c in enumerate(row)
        if (i, j) not in basis and c - u[i] - v[j] < 0
    ]
    if not negative:
        return None
    # The cycle from the start row, cut into blocks of `block` rows that
    # also end at the last row.
    blocks, rows = [], []
    for k in range(m):
        rows.append((start + k) % m)
        if len(rows) == block or rows[-1] == m - 1:
            blocks.append(rows)
            rows = []
    blocks += [rows] if rows else []
    for rows in blocks:
        found = [cell for cell in negative if cell[0] in rows]
        if found:
            i, j, rc = min(found, key=lambda cell: (cell[2], cell[0], cell[1]))
            return i, j, rc, (rows[-1] + 1) % m
    raise AssertionError("a negative cell outside every block")


def _basis(tree):
    """The tree's basic cells, each mapped to its flow."""
    return {tree._cell(x): tree.flow[x] for x in range(1, len(tree.parent))}


def _check_tree(tree, supply, demand, cost):
    m, n = len(supply), len(demand)
    basis = _basis(tree)
    assert len(basis) == m + n - 1
    assert tree.u[0] == 0 and type(tree.u[0]) is int
    assert tree.flow[0] == 0  # the root has no cell
    for (i, j), f in basis.items():
        assert f > 0
        assert tree.u[i] + tree.v[j] == cost[i][j]
        # every basic cell is the edge from a node to its parent
        assert tree.parent[i] == m + j or tree.parent[m + j] == i
    for i in range(m):
        assert sum(f for (a, _), f in basis.items() if a == i) == supply[i]
    for j in range(n):
        assert sum(f for (_, b), f in basis.items() if b == j) == demand[j]
    for x in range(1, m + n):
        assert tree.depth[x] == tree.depth[tree.parent[x]] + 1
        assert x in tree.children[tree.parent[x]]


def _random_degenerate(rng, max_side):
    """Integer supplies and demands with zeros, and costs in {0, 1, 2}: many ties."""
    m, n = rng.randint(1, max_side), rng.randint(1, max_side)
    supply = [rng.randint(0, 3) for _ in range(m)]
    demand = [0] * n
    for _ in range(sum(supply)):
        demand[rng.randrange(n)] += 1
    cost = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
    return supply, demand, cost


def _row_minimum_cells(supply, demand, cost):
    """The row-minimum allocation: each row walks its columns by (cost, index)."""
    m, n = len(supply), len(demand)
    s, d = list(supply), list(demand)
    cells, closed = {}, set()
    for i in range(m):
        for j in sorted(range(n), key=lambda j: (cost[i][j], j)):
            if j in closed:
                continue
            theta = min(s[i], d[j])
            cells[(i, j)] = theta
            s[i] -= theta
            d[j] -= theta
            if s[i] == 0:
                break
            closed.add(j)
    return cells


def test_row_minimum_start_is_a_spanning_tree():
    rng = random.Random(29)
    sides = set()
    for _ in range(300):
        supply, demand, cost = _random_degenerate(rng, 6)
        _, _, supply, demand = _perturbed(supply, demand)
        sides.add((len(supply) == 1, len(demand) == 1))
        tree = _row_minimum(supply, demand, cost)
        _check_tree(tree, supply, demand, cost)
        assert _basis(tree) == _row_minimum_cells(supply, demand, cost)
    # m = 1, n = 1 and both occurred
    assert sides == {(False, False), (True, False), (False, True), (True, True)}


def test_entering_rules_match_brute_force():
    rng = random.Random(17)
    seen_negative = 0
    for _ in range(150):
        supply, demand, cost = _random_degenerate(rng, 7)
        _, _, supply, demand = _perturbed(supply, demand)
        m = len(supply)
        tree = _row_minimum(supply, demand, cost)
        start, block = rng.randrange(m), rng.randint(1, m)
        while True:
            _check_tree(tree, supply, demand, cost)
            got = _entering(cost, tree.u, tree.v, start, block)
            want = _brute_force_entering(cost, _basis(tree), tree.u, tree.v, start, block)
            assert got == want
            if got is None:
                break
            seen_negative += 1
            i, j, rc, start = got
            tree.pivot(i, j, rc)
    assert seen_negative > 100


def test_entering_rules_differ():
    cost = [[0, 0, 5], [0, 1, 0], [5, 5, 5]]
    u, v = [1, 3, 0], [0, 0, 0]  # reduced costs: [-1, -1, 4], [-3, -2, -3], [5, 5, 5]
    # the block search takes the first block with a negative cell ...
    assert _entering(cost, u, v, 0, 1) == (0, 0, -1, 1)
    # ... its most negative cell, and the row after the block as next start
    assert _entering(cost, u, v, 0, 2) == (1, 0, -3, 2)
    assert _entering(cost, u, v, 1, 1) == (1, 0, -3, 2)
    # from the last row it wraps to row 0
    assert _entering(cost, u, v, 2, 1) == (0, 0, -1, 1)
    cost[1][0] = 2  # row 1: [-1, -2, -3]
    assert _entering(cost, u, v, 1, 1) == (1, 2, -3, 2)
    u[0] = 0
    assert _entering(cost, u, v, 0, 3) == (1, 2, -3, 0)
    # a full cycle with no negative cell is optimal
    assert _entering(cost, [0, 0, 0], v, 1, 1) is None


def test_every_basic_flow_stays_positive(monkeypatch):
    rng = random.Random(30)
    instances = [_random_degenerate(rng, 8) for _ in range(3000)]
    instances += [
        to_ints(*instance)[:3]
        for name, instance in _pinned_instances().items()
        if name.endswith("unit_ties")
    ]
    pivots = 0
    pivot = _BasisTree.pivot

    def checked(tree, *args):
        nonlocal pivots
        pivots += 1
        pivot(tree, *args)
        _check_tree(tree, *masses, cost)  # every basic flow > 0

    monkeypatch.setattr(_BasisTree, "pivot", checked)
    enumerated = 0
    for supply, demand, cost in instances:
        masses = _perturbed(supply, demand)[2:]
        flows, u, v, _ = solve_transportation(supply, demand, cost)
        _check_exact_optimality(supply, demand, cost, flows, u, v)
        if len(supply) * len(demand) <= 9:
            enumerated += 1
            assert _objective(flows, cost) == _brute_force_min(supply, demand, cost)
    assert pivots > 3000 and enumerated > 900


def test_n500_solve_closes_the_duality_gap_exactly():
    rng = random.Random("n500")
    mu, nu = _general_measure(rng, HALF_PLANE, 500), _general_measure(rng, HALF_PLANE, 500)
    _, plan, duals = solve(mu, nu, 2.0)
    assert duality_gap_violation(plan, duals, 2.0) == 0.0


# ---------------------------------------------------------------------------
# Independent exact cross-check against networkx's network simplex.


@pytest.mark.parametrize("pair_name", ["half_plane", "box"])
@pytest.mark.parametrize("n, p", [(10, 1.0), (30, 2.0), (60, 1.5), (200, 3.0)])
def test_optimal_value_matches_networkx(pair_name, n, p):
    nx = pytest.importorskip("networkx")

    rng = random.Random(f"{pair_name}/{n}/{p}")
    pair = HALF_PLANE if pair_name == "half_plane" else BOX
    mu, nu = _general_measure(rng, pair, n), _general_measure(rng, pair, n)
    supply, demand, cost, _, _ = to_ints(*_augmented(mu, nu, p))
    flows, u, v, _ = solve_transportation(supply, demand, cost)
    assert _objective(flows, cost) == network_simplex_value(nx, supply, demand, cost)
    _check_exact_optimality(supply, demand, cost, flows, u, v)


if __name__ == "__main__":
    pinned = {
        name: _encode(*solve_fractions(*instance))
        for name, instance in _pinned_instances().items()
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} instances to {GOLDEN}")
