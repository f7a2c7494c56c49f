"""Independent verification that a transport plan is optimal.

The checks mirror the equivalent optimality conditions for partial
transport.  Every check but boundary shipping reads the plan on the cells of
one ``pair.cost_matrix`` call over the plan's own marginals, ints on one
power-of-two scale with a last row and column for A: interior entries sit
on cell (i, j), entries leaving Omega on (i, A), entries entering it on
(A, j).

* Concentration on S: no interior entry costs more than its detour through
  A, c_ij <= c_iA + c_Aj.
* Cyclical monotonicity of the support together with the virtual pair
  A x A, for every cycle length.  It holds exactly when potentials exist
  that are feasible on every cell and tight on the support (Rockafellar
  1966; Villani 2009, Thm 5.10), so one label-correcting search decides it,
  and when none exist the search yields a violating cycle.
* Dual potentials: exact potentials within one ulp of the given floats are
  feasible on every cell, vanish on A and are tight on the support.
* Nearest-point boundary shipping, on the plan's own boundary points.
* The duality gap: the plan's cost against an exact weak-duality bound on
  the optimum; nothing is re-solved.

The cell checks are exact in integer arithmetic and report their violation
rounded up to a float.  Each violation is relative to the cost it is
measured against: an entry's excess over its detour through A, a cell's
over its cost, a cycle's improvement over the cycle's cost, a shipping
distance's over d(x, A) and the gap over the plan's cost.  So scaling X
changes no verdict.  :func:`certify_optimal` gives the verdict: a check
passes when its value is at most ``tol``; cyclical monotonicity, being
exact, passes only at 0.  Each ``*_violation`` function gives one check's value.
"""

import math
from operator import add, ge, le, mul, sub
from typing import NamedTuple

from .errors import (
    InadmissiblePlanError,
    MissingPotentialError,
    PairMismatchError,
    check_exponent,
    check_tol,
)
from .measures import DiscreteMeasure, measures_close
from .pairs import _dyadic
from .plans import TransportPlan, marginals


class CertificateReport(NamedTuple):
    """Aggregated outcome of all optimality checks."""

    concentrated_on_S: bool
    cyclically_monotone: bool
    potentials_valid: bool
    boundary_shipping: bool
    cost_optimal: bool  # plan cost within tol of an exact weak-duality lower bound
    worst_violation: float

    #: The checks a certificate is made of: each field and its label in text output.
    CHECKS = (
        ("concentrated_on_S", "concentrated-on-S"),
        ("cyclically_monotone", "cyclical-monotonicity"),
        ("potentials_valid", "potentials"),
        ("boundary_shipping", "boundary-shipping"),
        ("cost_optimal", "duality-gap"),
    )

    def all_passed(self) -> bool:
        return all(getattr(self, field) for field, _ in self.CHECKS)


def _rounded_up(num: int, den: int) -> float:
    """The least float not below num / den, for den > 0."""
    try:
        q = num / den
    except OverflowError:
        return math.copysign(math.inf, num)
    a, b = q.as_integer_ratio()
    return math.nextafter(q, math.inf) if a * den < num * b else q


def _plan_cells(plan: TransportPlan, margins, p: float) -> tuple:
    """The plan on the cost cells of its marginals: ``(xs, ys, cells, scale, support)``.

    ``cells`` and ``scale`` are ``pair.cost_matrix(xs, ys, p)`` over the
    marginals' atoms, and ``support`` holds the cell of each plan entry, in
    order, with index len(xs) or len(ys) standing for A.  The atoms are the
    plan's endpoints, validated when the plan was built, so the cells come
    from the pair's unvalidated ``_cost_matrix``.
    """
    got_mu, got_nu = margins
    xs = [x for x, _ in got_mu.atoms]
    ys = [y for y, _ in got_nu.atoms]
    cells, scale = plan.pair._cost_matrix(xs, ys, p)
    row_of = {x: i for i, x in enumerate(xs)}
    col_of = {y: j for j, y in enumerate(ys)}
    support = [(row_of.get(x, len(xs)), col_of.get(y, len(ys))) for x, y, _ in plan.entries]
    return xs, ys, cells, scale, support


def concentration_violation(plan: TransportPlan, p) -> float:
    """Worst excess (c_ij - detour) / detour over interior entries (0 when none).

    The detour c_iA + c_Aj is 0 only for two points of A, and there any
    excess is infinite.
    """
    p = check_exponent(p)
    _, _, cells, _, support = _plan_cells(plan, marginals(plan), p)
    return _concentration(cells, support)


def _concentration(cells, support) -> float:
    """:func:`concentration_violation` on the plan's cells."""
    m, n = len(cells) - 1, len(cells[0]) - 1
    worst = 0.0
    for i, j in support:
        if i < m and j < n:
            detour = cells[i][n] + cells[m][j]
            if cells[i][j] > detour:
                excess = cells[i][j] - detour
                worst = max(worst, _rounded_up(excess, detour) if detour else math.inf)
    return worst


def _tight_potentials(cells, support, phi, psi) -> tuple:
    """Exact potentials feasible on every cell and tight on support, or a negative cycle.

    ``cells`` is the augmented matrix, its last row and column for A, and
    ``support`` its cells that carry flow; the virtual pair (A, A) joins
    them.  All values are ints on one scale.  The labels start from ``phi``
    (one per row) and ``psi`` (one per column) and only move towards
    feasibility: psi_j up to c_ij - phi_i on the support, phi_i down to
    c_ij - psi_j.  That is label-correcting shortest paths over the
    difference constraints, with Bellman-Ford-Moore work lists: each pass
    raises psi only on the support of the rows whose phi fell, then lowers
    phi only against the columns whose psi rose (at first every row and
    column).  When no label moves, the labels are feasible and tight, and in
    whatever order they moved they are the greatest phi and least psi within
    their starts.  Each move walks back along the chain of nodes that the
    labels last came from; a chain that returns to the moved node closes a
    cycle of negative length, and one closes whenever no potentials exist.

    Returns ``((phi, psi), None)``, or ``(None, (taken, given))`` for a
    negative cycle: ``taken`` are its support cells and ``given`` the cells
    that reassign their rows to the cycle's other columns, at a lower total cost.
    """
    m, n = len(phi) - 1, len(psi) - 1
    phi, psi = list(phi), list(psi)
    on_row = [[] for _ in phi]
    for i, j in sorted({*support, (m, n)}):
        on_row[i].append(j)
    pred = [None] * (m + n + 2)  # rows 0..m, then columns

    def cycle(node):
        """The cycle that node's chain of label sources closes, as ``(taken, given)``, or None."""
        nodes = [node]
        while pred[nodes[-1]] not in (None, node):
            nodes.append(pred[nodes[-1]])
        if pred[nodes[-1]] is None:
            return None
        taken = [(pred[v], v - m - 1) for v in nodes if v > m]
        given = [(v, pred[v] - m - 1) for v in nodes if v <= m]
        return taken, given

    fell, rose = range(m + 1), set(range(n + 1))
    while fell:
        for i in fell:
            f, row = phi[i], cells[i]
            for j in on_row[i]:
                if row[j] - f > psi[j]:
                    psi[j], pred[m + 1 + j] = row[j] - f, i
                    closed = cycle(m + 1 + j)
                    if closed:
                        return None, closed
                    rose.add(j)
        if not rose:
            break
        fell, rose = [], sorted(rose)
        for i, row in enumerate(cells):
            low = [row[j] - psi[j] for j in rose]
            best = min(low)
            if best < phi[i]:
                phi[i], pred[i] = best, m + 1 + rose[low.index(best)]
                closed = cycle(i)
                if closed:
                    return None, closed
                fell.append(i)
        rose = set()
    return (phi, psi), None


def cyclical_monotonicity_violation(plan: TransportPlan, p) -> float:
    """0.0 when the support with A x A is c-cyclically monotone, else a cycle's scaled improvement.

    Exact for every cycle length: the support together with the virtual pair
    A x A is cyclically monotone exactly when potentials feasible on every
    cell and tight on the support exist.  Otherwise the search for them
    ends on a cycle of support cells whose reassignment lowers their total
    cost; the value is that improvement over their total cost, exact and
    rounded up, so it lies in (0, 1] and does not shrink with the scale of X.
    """
    p = check_exponent(p)
    _, _, cells, _, support = _plan_cells(plan, marginals(plan), p)
    return _monotonicity(cells, support)


def _monotonicity(cells, support) -> float:
    """:func:`cyclical_monotonicity_violation` on the plan's cells."""
    m, n = len(cells) - 1, len(cells[0]) - 1
    # phi starts at its bound c_iA and psi below every c_ij - c_iA (cells are
    # >= 0), so the first pass over the support sets psi to its least value.
    phi = [row[n] for row in cells]
    _, cycle = _tight_potentials(cells, support, phi, [-max(phi)] * (n + 1))
    if cycle is None:
        return 0.0
    taken, given = cycle
    base = sum(cells[i][j] for i, j in taken)
    return _rounded_up(base - sum(cells[i][j] for i, j in given), base)


def _one_ulp_box(cells, scale: int, support, phi, psi):
    """The float potentials on the scale of ``cells``, and exact potentials near them.

    Returns ``(tight, phi, psi)``, ints, or None when a potential is not
    finite; if the potentials need a finer scale, each row of ``cells`` is
    shifted to it in place.  ``tight`` holds exact potentials within one ulp
    of each float, extended by 0 on A, feasible on every cell and tight on
    the support, or None when there are none.  Float rounding moves exact
    potentials by less than an ulp, so a plan they certify has them in the box.
    """
    floats = phi + psi
    if not all(map(math.isfinite, floats)):
        return None
    m, bits = len(phi), scale.bit_length() - 1
    rows = [[float(v).as_integer_ratio() for v in row] for row in (floats, map(math.ulp, floats))]
    (values, ulps), k = _dyadic(rows, bits)
    lo, hi = list(map(sub, values, ulps)), list(map(add, values, ulps))
    for i, row in enumerate(cells if k > bits else ()):
        cells[i] = [c << (k - bits) for c in row]
    tight, _ = _tight_potentials(cells, support, hi[:m] + [0], lo[m:] + [0])
    # The labels are the greatest phi and least psi within these starts, so
    # potentials in the box exist exactly when the labels stay in it.
    inside = tight and all(map(ge, tight[0], lo[:m] + [0])) and all(map(le, tight[1], hi[m:] + [0]))
    return (tight if inside else None), values[:m], values[m:]


def _potential_values(xs, ys, duals) -> tuple:
    """The given potentials of the marginals' atoms, or MissingPotentialError."""
    for pt in xs:
        if pt not in duals.phi:
            raise MissingPotentialError(f"no source potential for atom {pt!r}")
    for pt in ys:
        if pt not in duals.psi:
            raise MissingPotentialError(f"no sink potential for atom {pt!r}")
    return [duals.phi[x] for x in xs], [duals.psi[y] for y in ys]


def potentials_violation(plan: TransportPlan, duals, p) -> float:
    """Worst relative violation of dual feasibility and complementary slackness.

    0.0 when exact potentials within one ulp of the given ones are feasible
    on every cell of the plan's marginals (phi_i + psi_j <= c_ij, and
    phi_i <= c_iA and psi_j <= c_Aj, the vanish-on-A condition moved to the
    edges) and tight on every entry carrying mass.  Otherwise the given
    potentials' own worst violation, each over its cell's cost, exact and
    rounded up; a violation on a cell of cost 0, or a non-finite potential,
    makes it infinite.
    """
    p = check_exponent(p)
    xs, ys, cells, scale, support = _plan_cells(plan, marginals(plan), p)
    box = _one_ulp_box(cells, scale, support, *_potential_values(xs, ys, duals))
    return _potentials(box, cells, support)


def _potentials(box, cells, support) -> float:
    """:func:`potentials_violation` given the one-ulp search on ``cells``."""
    if box is None:
        return math.inf
    tight, phi, psi = box
    if tight is not None:
        return 0.0
    carried = set(support)
    worst = 0.0
    for i, (f, row) in enumerate(zip(phi + [0], cells)):
        for j, (g, c) in enumerate(zip(psi + [0], row)):
            excess = f + g - c
            if (i, j) in carried:
                excess = abs(excess)
            if excess > 0:
                worst = max(worst, _rounded_up(excess, c) if c else math.inf)
    return worst


def boundary_shipping_violation(plan: TransportPlan) -> float:
    """Worst |d(x, y) - d(x, A)| / d(x, A) over boundary entries, x their point of Omega.

    A plan built by the dataclass constructor is not validated, so this
    validates each boundary entry's endpoints once, for the pair's own
    formulas: every float is what ``distance`` and ``dist_to_A`` give.
    """
    validate = plan.pair.validate_point
    return _shipping(plan.pair, [(validate(x), validate(y)) for x, y in _boundary_pairs(plan)])


def _boundary_pairs(plan: TransportPlan) -> list:
    """The endpoints (x, y) of the plan's entries with an endpoint on A."""
    pair = plan.pair
    return [(x, y) for x, y, _ in plan.entries if pair._in_A(x) or pair._in_A(y)]


def _shipping(pair, boundary) -> float:
    """:func:`boundary_shipping_violation` on validated boundary endpoints."""
    worst = 0.0
    for x, y in boundary:
        d = pair._dist_to_A(y if pair._in_A(x) else x)
        worst = max(worst, abs(pair._distance(x, y) - d) / d)
    return worst


def duality_gap_violation(plan: TransportPlan, duals, p) -> float:
    """Relative gap between the plan's cost and a weak-duality bound on its optimum.

    The plan is read as a flow on the boundary-augmented problem of its own
    marginals, over the cells of ``pair.cost_matrix``: interior entries use
    cell (i, j), entries leaving Omega cell (i, A), entries entering it cell
    (A, j).  Its cost is P.  The potentials give the bound D: exact
    potentials within one ulp of the given ones that are feasible and tight
    on the plan's support, when they exist, and then D = P; otherwise the
    given potentials made feasible, each phi_i lowered by the largest
    violation of phi_i + psi_j <= c_ij and phi_i <= c_iA in its row and each
    psi_j capped at c_Aj.  Returns (P - D) / P, exact and rounded up, or 0
    when P = 0, because the optimum is >= 0.  So a value <= tol proves that
    P exceeds the optimum for the plan's marginals by at most tol * P;
    whether those match the prescribed measures is checked apart.  Every float is dyadic, so
    all of this is integer arithmetic over powers of two.  A potential
    missing for an atom raises :class:`MissingPotentialError`; a non-finite
    one makes the gap infinite.
    """
    p = check_exponent(p)
    xs, ys, cells, scale, support = _plan_cells(plan, marginals(plan), p)
    box = _one_ulp_box(cells, scale, support, *_potential_values(xs, ys, duals))
    return _duality_gap(plan, box, cells, support)


def _duality_gap(plan: TransportPlan, box, cells, support) -> float:
    """:func:`duality_gap_violation` given the one-ulp search on ``cells``."""
    if box is None:
        return math.inf
    tight, phi, psi = box
    m, n = len(phi), len(psi)
    (masses,), _ = _dyadic([[float(mass).as_integer_ratio() for _, _, mass in plan.entries]])
    cost = 0
    row_flow, col_flow = [0] * (m + 1), [0] * (n + 1)
    for (i, j), mass in zip(support, masses):
        cost += mass * cells[i][j]
        row_flow[i] += mass
        col_flow[j] += mass

    if tight is not None:
        phi, psi = tight
    else:
        phi = [
            f - max([0, f - row[n]] + [f + g - c for g, c in zip(psi, row)])
            for f, row in zip(phi, cells)
        ]
        psi = [min(g, c) for g, c in zip(psi, cells[m])]
    bound = sum(map(mul, row_flow, phi)) + sum(map(mul, col_flow, psi))
    return _rounded_up(cost - bound, cost) if cost else 0.0


def certify_optimal(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    plan: TransportPlan,
    duals,
    p,
    tol: float = 1e-8,
) -> CertificateReport:
    """Run all optimality checks against the prescribed marginals.

    Raises :class:`InadmissiblePlanError` unless the plan's marginals have
    the atoms of mu and nu, at the same points, with masses equal to a
    relative 1e-10 (:func:`measures.measures_close`); otherwise returns the
    aggregated report, with the exact duality-gap bound on the plan's cost
    (see :func:`duality_gap_violation`).  No solver is called.  A negative
    or non-finite ``tol`` raises ValueError.
    """
    p = check_exponent(p)
    tol = check_tol(tol, "certificate tolerance")
    if plan.pair != mu.pair or plan.pair != nu.pair:
        raise PairMismatchError("plan and measures live on different metric pairs")
    margins = marginals(plan)
    got_mu, got_nu = margins
    if not (
        measures_close(got_mu, mu, mass_tol=1e-10)
        and measures_close(got_nu, nu, mass_tol=1e-10)
    ):
        raise InadmissiblePlanError("plan marginals do not match the prescribed measures")

    # All checks but shipping read these cells; two share one potential search.
    xs, ys, cells, scale, support = _plan_cells(plan, margins, p)
    box = _one_ulp_box(cells, scale, support, *_potential_values(xs, ys, duals))
    conc = _concentration(cells, support)
    # Tight potentials within one ulp also prove cyclical monotonicity.
    mono = 0.0 if box is not None and box[0] is not None else _monotonicity(cells, support)
    pots = _potentials(box, cells, support)
    ship = _shipping(plan.pair, _boundary_pairs(plan))
    gap = _duality_gap(plan, box, cells, support)

    return CertificateReport(
        concentrated_on_S=conc <= tol,
        cyclically_monotone=mono == 0.0,
        potentials_valid=pots <= tol,
        boundary_shipping=ship <= tol,
        cost_optimal=gap <= tol,
        worst_violation=max(conc, mono, pots, ship, gap),
    )
