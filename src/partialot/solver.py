"""Exact computation of the partial transport distance Wb_p.

The solver reduces the partial transport problem between two finitely
supported measures to a balanced transportation problem with one aggregated
boundary node per side:

* direct edges from source atoms to sink atoms carry cost d(x, y)^p,
* edges to/from the boundary node carry d(x, A)^p resp. d(y, A)^p,
* the boundary-to-boundary corner carries cost zero and absorbs the slack.

The boundary source supplies the total mass of the sink measure and the
boundary sink demands the total mass of the source measure, which balances
the problem without changing the optimal value.  Solving it exactly (see
``_simplex``) yields Wb_p^p as the optimal value, an optimal plan whose
boundary flows are re-expanded to per-point projections, and dual
potentials that vanish on A after normalisation.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ._simplex import solve_transportation
from .errors import FloatRangeError, PairMismatchError, check_exponent
from .measures import DiscreteMeasure, PersistenceDiagram, diagram_to_measure
# new_plan stays importable here: the benchmark's tracer wraps it by this name.
from .plans import TransportPlan, _plan, new_plan  # noqa: F401


def cost_c(pair, x, y, p) -> float:
    """Direct transport cost c(x, y) = d(x, y)^p."""
    p = check_exponent(p)
    return pair.distance(x, y) ** p


def cost_ctilde(pair, x, y, p) -> float:
    """Reduced cost: min of the direct cost and the via-boundary cost."""
    p = check_exponent(p)
    direct = pair.distance(x, y) ** p
    via_boundary = pair.dist_to_A(x) ** p + pair.dist_to_A(y) ** p
    return min(direct, via_boundary)


def in_S(pair, x, y, p, tol: float = 1e-9) -> bool:
    """True iff the direct cost does not exceed the via-boundary cost by tol.

    Optimal plans only charge pairs in this set.
    """
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    return cost_c(pair, x, y, p) - cost_ctilde(pair, x, y, p) <= tol


@dataclass(frozen=True)
class AugmentedProblem:
    """The balanced transportation instance solved for Wb_p.

    ``cost_exact`` has (len(sources) + 1) rows and (len(sinks) + 1) columns
    of Fractions; the last row/column belong to the boundary node.
    """

    sources: tuple  # ((point, supply), ...)
    sinks: tuple
    boundary_source_supply: float
    boundary_sink_demand: float
    cost_exact: tuple  # of tuples of Fractions


@dataclass(frozen=True)
class DualPotentials:
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
    degenerate: bool  # alternate optimal vertices exist (exact ties)


def _require_same_pair(mu: DiscreteMeasure, nu: DiscreteMeasure):
    if mu.pair != nu.pair:
        raise PairMismatchError("measures live on different metric pairs")


def _exact_total(mu: DiscreteMeasure) -> Fraction:
    return sum((Fraction(m) for _, m in mu.atoms), start=Fraction(0))


def build_augmented_problem(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> AugmentedProblem:
    """Assemble the boundary-augmented cost matrix and side masses."""
    _require_same_pair(mu, nu)
    p = check_exponent(p)
    cells, scale = mu.pair.cost_matrix([x for x, _ in mu.atoms], [y for y, _ in nu.atoms], p)
    return AugmentedProblem(
        sources=mu.atoms,
        sinks=nu.atoms,
        boundary_source_supply=nu.total_mass,
        boundary_sink_demand=mu.total_mass,
        # Tuples of lists, not of generators: a generator's tuple starts at 10
        # slots and is resized, so CPython's free list of its final size is
        # filled on every free and never drawn from, and peak memory grows.
        cost_exact=tuple([tuple([Fraction(c, scale) for c in row]) for row in cells]),
    )


def solve_detail(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> SolveDetail:
    """Solve for Wb_p with full diagnostics (see :func:`solve`).

    Raises :class:`FloatRangeError` when a cost, the optimum or a potential
    lies beyond the float range.
    """
    p = check_exponent(p)
    problem = build_augmented_problem(mu, nu, p)
    pair = mu.pair
    m, n = len(mu.atoms), len(nu.atoms)

    supply = [Fraction(mass) for _, mass in mu.atoms]
    supply.append(_exact_total(nu))
    demand = [Fraction(mass) for _, mass in nu.atoms]
    demand.append(_exact_total(mu))

    flows, u, v, alt = solve_transportation(supply, demand, problem.cost_exact)

    total = sum(
        (f * problem.cost_exact[i][j] for (i, j), f in flows.items()),
        start=Fraction(0),
    )
    # Shift the raw transportation duals so the boundary potentials vanish:
    # phi = u + v_boundary, psi = v + u_boundary.  Feasibility and
    # complementary slackness carry over exactly (the corner cell has cost 0).
    v_b = v[n]
    u_b = u[m]
    try:
        wb = float(total) ** (1.0 / p)
        phi = {mu.atoms[i][0]: float(u[i] + v_b) for i in range(m)}
        psi = {nu.atoms[j][0]: float(v[j] + u_b) for j in range(n)}
    except OverflowError as exc:
        raise FloatRangeError(f"value out of the float range: {exc}") from exc

    # The atoms were validated when the measures were built, and again by
    # cost_matrix, so the plan is built from them without validating.
    entries = []
    for (i, j), f in flows.items():
        if i < m and j < n:
            entries.append((mu.atoms[i][0], nu.atoms[j][0], float(f)))
        elif i < m:
            x = mu.atoms[i][0]
            entries.append((x, pair._project_A(x), float(f)))
        elif j < n:
            y = nu.atoms[j][0]
            entries.append((pair._project_A(y), y, float(f)))
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
