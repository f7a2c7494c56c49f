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

One private step finds the exact optimum and Wb_p; each entry point then
reads only what it returns from it.  :func:`wb_distance` reads nothing
more, :func:`diagram_distance` the plan, :func:`solve` the plan and the
duals, and :func:`solve_detail` also whether the optimum is degenerate and
the exact optimum Wb_p^p as a ``Fraction``.
The atoms were validated when the measures were built, so no step here
validates them again.
"""

from fractions import Fraction
from math import lcm, sqrt
from typing import NamedTuple

from ._simplex import solve_transportation
from .certify import _concentration
from .errors import (
    FloatRangeError, NonPositiveMassError, PairMismatchError, check_exponent, check_tol,
)
from .measures import DiscreteMeasure, PersistenceDiagram, diagram_to_measure
# new_plan stays importable here: the benchmark's tracer wraps it by this name.
from .plans import TransportPlan, new_plan  # noqa: F401


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
    wb_p_exact: Fraction  # the optimum Wb_p^p before rounding


def _require_same_pair(mu: DiscreteMeasure, nu: DiscreteMeasure):
    if mu.pair != nu.pair:
        raise PairMismatchError("measures live on different metric pairs")


def build_augmented_problem(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> AugmentedProblem:
    """Assemble the boundary-augmented cost matrix over the two measures' atoms.

    The atoms were validated when the measures were built, so their cells
    come from the pair's unvalidated ``_cost_matrix``.
    """
    _require_same_pair(mu, nu)
    p = check_exponent(p)
    cells, scale = mu.pair._cost_matrix([x for x, _ in mu.atoms], [y for y, _ in nu.atoms], p)
    return AugmentedProblem(
        sources=mu.atoms,
        sinks=nu.atoms,
        # Tuples of lists, not of generators: a generator's tuple starts at 10
        # slots and is resized, so CPython's free list of its final size is
        # filled on every free and never drawn from, and peak memory grows.
        cost_exact=tuple([tuple([Fraction(c, scale) for c in row]) for row in cells]),
        cells=cells, scale=scale,
    )


class _Optimum(NamedTuple):
    """An exact optimum of the augmented problem, with its Wb_p."""

    wb: float
    problem: AugmentedProblem
    flows: dict  # (i, j) -> int flow over mass_scale, on the basis cells
    u: list  # int row potentials over problem.scale
    v: list  # int column potentials over problem.scale
    alt: int  # non-basic cells of reduced cost 0
    mass_scale: int
    total: int  # the optimum Wb_p^p over mass_scale * problem.scale


def _optimum(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> _Optimum:
    """Build the problem, scale the masses, run the simplex and round Wb_p once.

    ``p`` is already checked.  Raises :class:`FloatRangeError` when a cost or
    the optimum lies beyond the float range, or a positive optimum Wb_p^p
    underflows to 0.
    """
    problem = build_augmented_problem(mu, nu, p)
    m = len(mu.atoms)

    # Masses as ints over one scale (the lcm of their denominators), cost
    # cells over cost_matrix's; each boundary node carries the other side's
    # exact total.  A list, not a generator, in lcm(*...): see build_augmented_problem.
    ratios = [mass.as_integer_ratio() for atoms in (mu.atoms, nu.atoms) for _, mass in atoms]
    mass_scale = lcm(*[d for _, d in ratios])
    masses = [a * (mass_scale // d) for a, d in ratios]
    supply = masses[:m] + [sum(masses[m:])]
    demand = masses[m:] + [sum(masses[:m])]
    cost = problem.cells

    flows, u, v, alt = solve_transportation(supply, demand, cost)

    total = sum(f * cost[i][j] for (i, j), f in flows.items())
    # Int true division rounds correctly, as float(Fraction) does.
    wb_p = _rounded(total, mass_scale * problem.scale)
    if total > 0 and wb_p == 0.0:
        raise FloatRangeError("value out of the float range: the optimum Wb_p^p > 0 underflows")
    # sqrt is correctly rounded and pow is not, so at p = 2 a power-of-two
    # scale of the measures scales Wb_2 exactly, as it does Wb_2^2.
    wb = sqrt(wb_p) if p == 2.0 else wb_p ** (1.0 / p)
    return _Optimum(wb, problem, flows, u, v, alt, mass_scale, total)


def _duals(opt: _Optimum) -> DualPotentials:
    """The optimum's potentials, shifted to vanish on A and rounded once each.

    Shifting the raw transportation duals by the boundary potentials,
    phi = u + v_boundary and psi = v + u_boundary, keeps feasibility and
    complementary slackness exactly (the corner cell has cost 0).  A
    potential beyond the float range raises :class:`FloatRangeError`.
    """
    sources, sinks, scale = opt.problem.sources, opt.problem.sinks, opt.problem.scale
    m, n, u, v = len(sources), len(sinks), opt.u, opt.v
    phi = {sources[i][0]: _rounded(u[i] + v[n], scale) for i in range(m)}
    psi = {sinks[j][0]: _rounded(v[j] + u[m], scale) for j in range(n)}
    return DualPotentials(phi, psi)


def _plan_of(pair, opt: _Optimum, p: float) -> TransportPlan:
    """The optimum's flows as a plan, boundary flows sent to nearest points of A.

    The plan is built straight from the basis, without ``new_plan``'s checks,
    because the basis already meets them: its cells are distinct, so no two
    entries share both endpoints; each endpoint is a validated atom or an
    atom's projection onto A; and atoms lie off A, so no entry lies on A x A.
    Only a flow too small for a float is refused.
    """
    sources, sinks, mass_scale = opt.problem.sources, opt.problem.sinks, opt.mass_scale
    m, n = len(sources), len(sinks)
    entries = []
    for (i, j), f in opt.flows.items():
        if i < m and j < n:
            entry = (sources[i][0], sinks[j][0], f / mass_scale)
        elif i < m:
            x = sources[i][0]
            entry = (x, pair._project_A(x), f / mass_scale)
        elif j < n:
            y = sinks[j][0]
            entry = (pair._project_A(y), y, f / mass_scale)
        else:
            continue  # boundary-to-boundary slack is dropped
        if entry[2] == 0.0:
            src, dst, _ = entry
            raise NonPositiveMassError(f"entry {src!r} -> {dst!r} has non-positive mass 0.0")
        entries.append(entry)
    entries.sort()  # by (source, target), which no two entries share
    return TransportPlan(pair, tuple(entries), p)


def solve_detail(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> SolveDetail:
    """Solve for Wb_p with full diagnostics (see :func:`solve`).

    Raises :class:`FloatRangeError` when a cost, the optimum or a potential
    lies beyond the float range, or a positive optimum Wb_p^p underflows to 0.
    """
    p = check_exponent(p)
    opt = _optimum(mu, nu, p)
    duals = _duals(opt)
    exact = Fraction(opt.total, opt.mass_scale * opt.problem.scale)
    return SolveDetail(opt.wb, _plan_of(mu.pair, opt, p), duals, opt.alt > 0, exact)


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
    """Just the distance value: no plan and no potentials are built.

    Raises :class:`FloatRangeError` when a cost or the optimum lies beyond
    the float range, or a positive optimum Wb_p^p underflows to 0.
    """
    return _optimum(mu, nu, check_exponent(p)).wb


def diagram_distance(sigma: PersistenceDiagram, tau: PersistenceDiagram, p):
    """The diagram distance d_p and its optimal matching.

    Computed by embedding both diagrams as unit-mass measures and solving
    the partial transport problem; with unit masses the exact solver returns
    a vertex of the transportation polytope, i.e. a permutation-style
    matching: direct entries pair diagram points, boundary entries are
    deletions/insertions via diagonal projections.  The wb and plan are
    bit for bit those of :func:`solve` on the embedded measures; no
    potentials are built.
    """
    if sigma.pair != tau.pair:
        raise PairMismatchError("diagrams live on different metric pairs")
    p = check_exponent(p)
    opt = _optimum(diagram_to_measure(sigma), diagram_to_measure(tau), p)
    return opt.wb, _plan_of(sigma.pair, opt, p)
