"""Rational reference for the integer simplex, shared by the simplex and solver tests.

``solve_transportation`` takes and returns ints.  These helpers put a
``Fraction`` instance on two integer scales (the lcm of the masses'
denominators and that of the costs'), run the int simplex and divide its
answers back, so the tests can state and check exact rational answers.
"""

from fractions import Fraction
from math import lcm

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
    wb = float(sum(f * cost[i][j] for (i, j), f in flows.items())) ** (1.0 / p)
    plan = {}
    for (i, j), f in flows.items():
        if i < m or j < n:
            x = xs[i] if i < m else pair.project_A(ys[j])
            y = ys[j] if j < n else pair.project_A(xs[i])
            plan[(x, y)] = float(f)
    phi = {x: float(u[i] + v[n]) for i, x in enumerate(xs)}
    psi = {y: float(v[j] + u[m]) for j, y in enumerate(ys)}
    return wb, plan, phi, psi, alt > 0
