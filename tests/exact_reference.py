"""Exact references shared by the simplex, solver and certify tests.

``solve_transportation`` takes and returns ints.  These helpers put a
``Fraction`` instance on two integer scales (the lcm of the masses'
denominators and that of the costs'), run the int simplex and divide its
answers back, so the tests can state and check exact rational answers.
:func:`full_pass_potentials` is certify's potential search done the plain
way, every cell on every pass.
"""

from fractions import Fraction
from math import lcm, sqrt
from operator import ge, le, sub

from partialot._simplex import solve_transportation
from partialot.solver import build_augmented_problem


def to_ints(supply, demand, cost):
    """A Fraction instance as ``(supply, demand, cost, mass_scale, cost_scale)`` of ints."""
    mass_scale = lcm(*[x.denominator for x in [*supply, *demand]])
    cost_scale = lcm(*[c.denominator for row in cost for c in row])
    return (
        [int(x * mass_scale) for x in supply],
        [int(x * mass_scale) for x in demand],
        [[int(c * cost_scale) for c in row] for row in cost],
        mass_scale,
        cost_scale,
    )


def solve_fractions(supply, demand, cost):
    """``solve_transportation`` on Fractions: ``(flows, u, v, alt)`` as exact rationals."""
    supply, demand, cost, mass_scale, cost_scale = to_ints(supply, demand, cost)
    flows, u, v, alt = solve_transportation(supply, demand, cost)
    assert all(type(x) is int for x in [*flows.values(), *u, *v, alt])
    return (
        {cell: Fraction(f, mass_scale) for cell, f in flows.items()},
        [Fraction(x, cost_scale) for x in u],
        [Fraction(x, cost_scale) for x in v],
        alt,
    )


def check_exact_optimality(supply, demand, cost, flows, u, v):
    """Conservation, dual feasibility and complementary slackness, exactly."""
    m, n = len(supply), len(demand)
    for i in range(m):
        assert sum(f for (a, _), f in flows.items() if a == i) == supply[i]
    for j in range(n):
        assert sum(f for (_, b), f in flows.items() if b == j) == demand[j]
    for i in range(m):
        for j in range(n):
            assert u[i] + v[j] <= cost[i][j]
    for (i, j), f in flows.items():
        assert f > 0
        assert u[i] + v[j] == cost[i][j]


def network_simplex_value(nx, supply, demand, cost):
    """The optimum of an int instance, as a min-cost flow solved by networkx."""
    graph = nx.DiGraph()
    for i, s in enumerate(supply):
        graph.add_node(("s", i), demand=-s)
    for j, d in enumerate(demand):
        graph.add_node(("t", j), demand=d)
    for i, row in enumerate(cost):
        for j, c in enumerate(row):
            graph.add_edge(("s", i), ("t", j), weight=c)
    value, _ = nx.network_simplex(graph)
    return value


def augmented(mu, nu, p):
    """The transportation instance of ``solve_detail``, in Fractions."""
    problem = build_augmented_problem(mu, nu, p)
    supply = [Fraction(m) for _, m in mu.atoms] + [sum(Fraction(m) for _, m in nu.atoms)]
    demand = [Fraction(m) for _, m in nu.atoms] + [sum(Fraction(m) for _, m in mu.atoms)]
    return supply, demand, problem.cost_exact


def reference_detail(mu, nu, p):
    """``solve_detail``'s answers recomputed in Fractions and rounded once.

    Returns ``(wb, flows, phi, psi, degenerate)``: ``flows`` maps the plan's
    endpoint pairs to float masses, with boundary cells at the atom's own
    projection onto A, as the solver's plan has them.
    """
    supply, demand, cost = augmented(mu, nu, p)
    flows, u, v, alt = solve_fractions(supply, demand, cost)
    xs, ys = [x for x, _ in mu.atoms], [y for y, _ in nu.atoms]
    m, n = len(xs), len(ys)
    pair = mu.pair
    wb_p = float(sum(f * cost[i][j] for (i, j), f in flows.items()))
    wb = sqrt(wb_p) if p == 2 else wb_p ** (1.0 / p)
    plan = {}
    for (i, j), f in flows.items():
        if i < m or j < n:
            x = xs[i] if i < m else pair.project_A(ys[j])
            y = ys[j] if j < n else pair.project_A(xs[i])
            plan[(x, y)] = float(f)
    phi = {x: float(u[i] + v[n]) for i, x in enumerate(xs)}
    psi = {y: float(v[j] + u[m]) for j, y in enumerate(ys)}
    return wb, plan, phi, psi, alt > 0


def _cycle(pred) -> list:
    """The nodes of a cycle among the predecessor labels, each followed by its label, or []."""
    done = set()
    for start in range(len(pred)):
        path = {}
        node = start
        while node is not None and node not in done and node not in path:
            path[node] = len(path)
            node = pred[node]
        if node in path:
            return list(path)[path[node] :]
        done.update(path)
    return []


def full_pass_potentials(cells, support, phi, psi, lo_phi=None, hi_psi=None) -> tuple:
    """Exact potentials feasible on every cell and tight on support, within bounds.

    The reference for ``certify._tight_potentials``: the same labels from
    the same starts ``phi`` and ``psi``, but every pass raises psi on the
    whole support, lowers phi against every cell and then looks for a cycle
    among all the labels' sources.  ``lo_phi`` and ``hi_psi``, both or
    neither, bound the labels from the other side.

    Returns ``((phi, psi), None)`` when potentials within the bounds exist,
    ``(None, None)`` when they exist only outside, and ``(None, (taken,
    given))`` for a negative cycle, as ``certify._tight_potentials`` does.
    """
    m, n = len(phi) - 1, len(psi) - 1
    phi, psi = list(phi), list(psi)
    support = sorted({*support, (m, n)})
    pred = [None] * (len(phi) + len(psi))  # rows 0..m, then columns
    while True:
        changed = False
        for i, j in support:
            need = cells[i][j] - phi[i]
            if need > psi[j]:
                psi[j], pred[m + 1 + j] = need, i
                changed = True
        for i, row in enumerate(cells):
            low = min(map(sub, row, psi))
            if low < phi[i]:
                phi[i], pred[i] = low, m + 1 + list(map(sub, row, psi)).index(low)
                changed = True
        if not changed:
            break
        cycle = _cycle(pred)
        if cycle:
            taken = [(pred[v], v - m - 1) for v in cycle if v > m]
            given = [(v, pred[v] - m - 1) for v in cycle if v <= m]
            return None, (taken, given)
    if lo_phi is None or (all(map(ge, phi, lo_phi)) and all(map(le, psi, hi_psi))):
        return (phi, psi), None
    return None, None
