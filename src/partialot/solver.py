"""Exact computation of the partial transport distance Wb_p.

The solver reduces the partial transport problem between two finitely
supported measures to a balanced transportation problem with one aggregated
boundary node per side:

* direct edges from source atoms to sink atoms carry cost d(x, y)^p,
* edges to/from the boundary node carry d(x, A)^p resp. d(y, A)^p,
* the boundary-to-boundary corner carries cost zero and absorbs the slack.

The boundary source supplies the total mass of the sink measure and the
boundary sink demands the total mass of the source measure, which balances
the problem without changing the optimal value.  The masses go on one
integer scale, the cost cells stay on ``cost_matrix``'s power-of-two scale,
the integer simplex of ``_simplex`` solves it exactly, and one correctly
rounded division per value at the end yields Wb_p^p as the optimal value, an
optimal plan whose boundary flows are re-expanded to per-point projections,
and dual potentials that vanish on A after normalisation.
"""

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from ._simplex import solve_transportation
from .certify import _concentration
from .errors import FloatRangeError, PairMismatchError, check_exponent, check_tol
from .measures import DiscreteMeasure, PersistenceDiagram, diagram_to_measure
# new_plan stays importable here: the benchmark's tracer wraps it by this name.
from .plans import TransportPlan, _plan, new_plan  # noqa: F401


def _rounded(num: int, scale: int) -> float:
    """The exact cell num / scale rounded once to a float."""
    try:
        return num / scale
    except OverflowError as exc:
        raise FloatRangeError(f"value out of the float range: {exc}") from exc


def cost_c(pair, x, y, p) -> float:
    """Direct transport cost c(x, y) = d(x, y)^p: the exact cell of ``cost_matrix``, rounded."""
    p = check_exponent(p)
    cells, scale = pair.cost_matrix((x,), (y,), p)
    return _rounded(cells[0][0], scale)


def cost_ctilde(pair, x, y, p) -> float:
    """Reduced cost: the exact min of the direct cell and the detour through A, rounded."""
    p = check_exponent(p)
    ((direct, to_A), (from_A, _)), scale = pair.cost_matrix((x,), (y,), p)
    return _rounded(min(direct, to_A + from_A), scale)


def in_S(pair, x, y, p, tol: float = 1e-9) -> bool:
    """True iff the direct cost exceeds the detour through A by at most tol * detour.

    This is certify's exact concentration rule on one cell, so it is
    scale-free; with x and y both on A the detour is 0 and only a direct
    cost of 0 is in S.  Optimal plans only charge pairs in this set.
    """
    tol = check_tol(tol, "tolerance")
    p = check_exponent(p)
    cells, _ = pair.cost_matrix((x,), (y,), p)
    return _concentration(cells, [(0, 0)]) <= tol


class AugmentedProblem(NamedTuple):
    """The balanced transportation instance solved for Wb_p.

    ``cost_exact`` has (len(sources) + 1) rows and (len(sinks) + 1) columns
    of Fractions; the last row/column belong to the boundary node.  Each is
    ``Fraction(cells[i][j], scale)``: ``pair.cost_matrix``'s ints over its power-of-two scale.
    """

    sources: tuple  # ((point, supply), ...)
    sinks: tuple
    cost_exact: tuple  # of tuples of Fractions
    cells: list  # of lists of ints
    scale: int


class DualPotentials(NamedTuple):
    """Kantorovich potentials on the atoms, normalised to vanish on A.

    Feasibility: phi[x] + psi[y] <= d(x, y)^p on all atom pairs and
    phi[x] <= d(x, A)^p, psi[y] <= d(y, A)^p, with equality on every edge of
    an optimal plan that carries mass.
    """

    phi: dict  # source point -> value
    psi: dict  # sink point -> value


class SolveResult(NamedTuple):
    wb: float
    plan: TransportPlan
    duals: DualPotentials


class SolveDetail(NamedTuple):
    wb: float
    plan: TransportPlan
    duals: DualPotentials
    # True iff a non-basic cell has reduced cost 0 under the returned duals:
    # other optimal plans may exist.  False proves this plan the only optimum.
    degenerate: bool


def _require_same_pair(mu: DiscreteMeasure, nu: DiscreteMeasure):
    if mu.pair != nu.pair:
        raise PairMismatchError("measures live on different metric pairs")


def build_augmented_problem(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> AugmentedProblem:
    """Assemble the boundary-augmented cost matrix over the two measures' atoms."""
    _require_same_pair(mu, nu)
    p = check_exponent(p)
    cells, scale = mu.pair.cost_matrix([x for x, _ in mu.atoms], [y for y, _ in nu.atoms], p)
    return AugmentedProblem(
        sources=mu.atoms,
        sinks=nu.atoms,
        # Tuples of lists, not of generators: a generator's tuple starts at 10
        # slots and is resized, so CPython's free list of its final size is
        # filled on every free and never drawn from, and peak memory grows.
        cost_exact=tuple([tuple([Fraction(c, scale) for c in row]) for row in cells]),
        cells=cells, scale=scale,
    )


def solve_detail(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> SolveDetail:
    """Solve for Wb_p with full diagnostics (see :func:`solve`).

    Raises :class:`FloatRangeError` when a cost, the optimum or a potential
    lies beyond the float range, or a positive optimum Wb_p^p underflows to 0.
    """
    p = check_exponent(p)
    problem = build_augmented_problem(mu, nu, p)
    pair = mu.pair
    m, n = len(mu.atoms), len(nu.atoms)

    # Masses as ints over one scale (the lcm of their denominators), cost
    # cells over cost_matrix's; each boundary node carries the other side's
    # exact total.  A list, not a generator, in lcm(*...): see build_augmented_problem.
    ratios = [mass.as_integer_ratio() for atoms in (mu.atoms, nu.atoms) for _, mass in atoms]
    mass_scale = lcm(*[d for _, d in ratios])
    masses = [a * (mass_scale // d) for a, d in ratios]
    supply = masses[:m] + [sum(masses[m:])]
    demand = masses[m:] + [sum(masses[:m])]
    cost, cost_scale = problem.cells, problem.scale

    flows, u, v, alt = solve_transportation(supply, demand, cost)

    total = sum(f * cost[i][j] for (i, j), f in flows.items())
    # Shift the raw transportation duals so the boundary potentials vanish:
    # phi = u + v_boundary, psi = v + u_boundary.  Feasibility and
    # complementary slackness carry over exactly (the corner cell has cost 0).
    # Int true division rounds correctly, as float(Fraction) does.
    wb_p = _rounded(total, mass_scale * cost_scale)
    phi = {mu.atoms[i][0]: _rounded(u[i] + v[n], cost_scale) for i in range(m)}
    psi = {nu.atoms[j][0]: _rounded(v[j] + u[m], cost_scale) for j in range(n)}
    if total > 0 and wb_p == 0.0:
        raise FloatRangeError("value out of the float range: the optimum Wb_p^p > 0 underflows")
    wb = wb_p ** (1.0 / p)

    # The atoms were validated when the measures were built, and again by
    # cost_matrix, so the plan is built from them without validating.
    entries = []
    for (i, j), f in flows.items():
        if i < m and j < n:
            entries.append((mu.atoms[i][0], nu.atoms[j][0], f / mass_scale))
        elif i < m:
            x = mu.atoms[i][0]
            entries.append((x, pair._project_A(x), f / mass_scale))
        elif j < n:
            y = nu.atoms[j][0]
            entries.append((pair._project_A(y), y, f / mass_scale))
        # boundary-to-boundary slack is dropped
    plan = _plan(pair, entries, p)
    return SolveDetail(wb, plan, DualPotentials(phi, psi), alt > 0)


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> SolveResult:
    """Compute (Wb_p(mu, nu), an optimal plan, dual potentials).

    The plan is admissible (its Omega-restricted marginals are mu and nu),
    boundary flows appear as explicit entries to/from nearest projections,
    and the duals certify optimality via feasibility plus complementary
    slackness.
    """
    detail = solve_detail(mu, nu, p)
    return SolveResult(detail.wb, detail.plan, detail.duals)


def wb_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> float:
    """Just the distance value."""
    return solve_detail(mu, nu, p).wb


def diagram_distance(sigma: PersistenceDiagram, tau: PersistenceDiagram, p):
    """The diagram distance d_p and its optimal matching.

    Computed by embedding both diagrams as unit-mass measures and solving
    the partial transport problem; with unit masses the exact solver returns
    a vertex of the transportation polytope, i.e. a permutation-style
    matching: direct entries pair diagram points, boundary entries are
    deletions/insertions via diagonal projections.
    """
    if sigma.pair != tau.pair:
        raise PairMismatchError("diagrams live on different metric pairs")
    result = solve(diagram_to_measure(sigma), diagram_to_measure(tau), p)
    return result.wb, result.plan
