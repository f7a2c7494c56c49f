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
rounded up to a float.  A violation is scaled as ``raw / (1 + magnitude)``,
and a check passes when that is at most ``tol``; cyclical monotonicity,
being exact, passes only at 0.
"""

import math
from dataclasses import dataclass
from operator import ge, le, mul, sub

from .errors import (
    InadmissiblePlanError,
    MissingPotentialError,
    PairMismatchError,
    check_exponent,
)
from .measures import DiscreteMeasure, measures_close
from .plans import TransportPlan, decompose, marginals


@dataclass
class CertificateReport:
    """Aggregated outcome of all optimality checks."""

    concentrated_on_S: bool
    cyclically_monotone: bool
    potentials_valid: bool
    boundary_shipping: bool
    cost_optimal: bool  # plan cost within tol of an exact weak-duality lower bound
    worst_violation: float

    def all_passed(self) -> bool:
        return (
            self.concentrated_on_S
            and self.cyclically_monotone
            and self.potentials_valid
            and self.boundary_shipping
            and self.cost_optimal
        )


def _check_tol(tol) -> float:
    """``tol`` as a float, or ValueError unless it is finite and >= 0.

    NaN would fail every check and an infinite tolerance pass every one.
    """
    tol = float(tol)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"certificate tolerance must be finite and >= 0, got {tol}")
    return tol


def _scaled(violation: float, magnitude: float) -> float:
    return violation / (1.0 + abs(magnitude))


def _validated(pair, entries) -> list:
    """Plan entries with both endpoints validated once, for the pair's own formulas.

    ``pair._distance`` and ``pair._dist_to_A`` are what ``distance`` and
    ``dist_to_A`` compute after validating, so every float stays the same.
    """
    return [(pair.validate_point(x), pair.validate_point(y), m) for x, y, m in entries]


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
    order, with index len(xs) or len(ys) standing for A.
    """
    got_mu, got_nu = margins
    xs = [x for x, _ in got_mu.atoms]
    ys = [y for y, _ in got_nu.atoms]
    cells, scale = plan.pair.cost_matrix(xs, ys, p)
    row_of = {x: i for i, x in enumerate(xs)}
    col_of = {y: j for j, y in enumerate(ys)}
    support = [(row_of.get(x, len(xs)), col_of.get(y, len(ys))) for x, y, _ in plan.entries]
    return xs, ys, cells, scale, support


def concentration_violation(plan: TransportPlan, p) -> float:
    """Worst scaled excess c_ij - (c_iA + c_Aj) over interior entries (0 when none)."""
    p = check_exponent(p)
    _, _, cells, scale, support = _plan_cells(plan, marginals(plan), p)
    return _concentration(cells, scale, support)


def _concentration(cells, scale: int, support) -> float:
    """:func:`concentration_violation` on the plan's cells."""
    m, n = len(cells) - 1, len(cells[0]) - 1
    worst = 0.0
    for i, j in support:
        if i < m and j < n:
            detour = cells[i][n] + cells[m][j]
            if cells[i][j] > detour:
                worst = max(worst, _rounded_up(cells[i][j] - detour, scale + detour))
    return worst


def check_concentrated_on_S(plan: TransportPlan, p, tol: float = 1e-8) -> bool:
    """True iff every interior entry lies in S within tol; boundary entries pass."""
    tol = _check_tol(tol)
    return concentration_violation(plan, p) <= tol


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


def _tight_potentials(cells, support, phi, psi, lo_phi=None, hi_psi=None) -> tuple:
    """Exact potentials feasible on every cell and tight on support, within bounds.

    ``cells`` is the augmented matrix, its last row and column for A, and
    ``support`` its cells that carry flow; the virtual pair (A, A) joins
    them.  All values are ints on one scale.  ``phi`` (one per row) and ``psi`` (one per column)
    are upper and lower bounds that the labels start from, and ``lo_phi``
    and ``hi_psi`` the opposite bounds, both or neither.  Labels only move towards
    feasibility: phi_i down to min_j c_ij - psi_j, psi_j up to c_ij - phi_i
    on the support.  That is label-correcting shortest paths over the
    difference constraints.  When no label moves, the labels are feasible
    and tight, and they are the greatest phi and least psi within the
    starting bounds, so none within the other bounds exist if they break
    those.  Each label keeps the node it last came from; a cycle among
    those has negative length, and one appears whenever no potentials exist
    at all.

    Returns ``(potentials, cycle)``: ``((phi, psi), None)`` when potentials
    within the bounds exist, ``(None, None)`` when they exist only outside,
    and ``(None, (taken, given))`` for a negative cycle: ``taken`` are its
    support cells and ``given`` the cells that reassign their rows to the
    cycle's other columns, at a lower total cost.
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


def cyclical_monotonicity_violation(plan: TransportPlan, p) -> float:
    """0.0 when the support with A x A is c-cyclically monotone, else a cycle's scaled improvement.

    Exact for every cycle length: the support together with the virtual pair
    A x A is cyclically monotone exactly when potentials feasible on every
    cell and tight on the support exist.  Otherwise the search for them
    ends on a cycle of support cells whose reassignment lowers their total
    cost; the value is that improvement over 1 + their total cost, exact
    and rounded up, so it is positive.
    """
    p = check_exponent(p)
    _, _, cells, scale, support = _plan_cells(plan, marginals(plan), p)
    return _monotonicity(cells, scale, support)


def _monotonicity(cells, scale: int, support) -> float:
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
    return _rounded_up(base - sum(cells[i][j] for i, j in given), scale + base)


def check_cyclical_monotonicity(plan: TransportPlan, p) -> bool:
    """True iff no reassignment of support pairs, with A x A, lowers the cost."""
    return cyclical_monotonicity_violation(plan, p) == 0.0


def _dyadic(values, bits: int = 0) -> tuple:
    """Finite floats as ints over one power of two: (ints, k), value = int / 2^k, k >= bits."""
    ratios = [float(v).as_integer_ratio() for v in values]
    k = max([bits] + [d.bit_length() - 1 for _, d in ratios])
    return [n << (k + 1 - d.bit_length()) for n, d in ratios], k


def _one_ulp_box(cells, scale: int, support, phi, psi):
    """The float potentials and the cells on one int scale, and exact potentials near them.

    Returns ``(tight, cells, phi, psi, unit)``, each value standing for
    int / unit, or None when a potential is not finite.  ``tight`` holds
    exact potentials within one ulp of each float, extended by 0 on A,
    that are feasible on every cell and tight on the support, or None when
    there are none.  Float rounding moves exact potentials by less than an
    ulp, so a plan certified by exact potentials has them in this box.
    """
    if not all(math.isfinite(v) for v in phi + psi):
        return None
    m, n = len(phi), len(psi)
    bits = scale.bit_length() - 1
    values, k = _dyadic(phi + psi + [math.ulp(v) for v in phi + psi], bits)
    phi, psi, ulps = values[:m], values[m : m + n], values[m + n :]
    cells = [[c << (k - bits) for c in row] for row in cells]
    tight, _ = _tight_potentials(
        cells,
        support,
        [f + u for f, u in zip(phi, ulps)] + [0],
        [g - u for g, u in zip(psi, ulps[m:])] + [0],
        [f - u for f, u in zip(phi, ulps)] + [0],
        [g + u for g, u in zip(psi, ulps[m:])] + [0],
    )
    return tight, cells, phi, psi, 1 << k


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
    """Worst scaled violation of dual feasibility and complementary slackness.

    0.0 when exact potentials within one ulp of the given ones are feasible
    on every cell of the plan's marginals (phi_i + psi_j <= c_ij, and
    phi_i <= c_iA and psi_j <= c_Aj, the vanish-on-A condition moved to the
    edges) and tight on every entry carrying mass.  Otherwise the given
    potentials' own worst violation, each over 1 + its cell's cost, exact
    and rounded up.  A non-finite potential makes the violation infinite.
    """
    p = check_exponent(p)
    xs, ys, cells, scale, support = _plan_cells(plan, marginals(plan), p)
    box = _one_ulp_box(cells, scale, support, *_potential_values(xs, ys, duals))
    return _potentials(box, support)


def _potentials(box, support) -> float:
    """:func:`potentials_violation` given the one-ulp search."""
    if box is None:
        return math.inf
    tight, cells, phi, psi, unit = box
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
                worst = max(worst, _rounded_up(excess, unit + c))
    return worst


def check_potentials(plan: TransportPlan, duals, p, tol: float = 1e-9) -> bool:
    """True iff the potentials are feasible and complementarily slack within tol."""
    tol = _check_tol(tol)
    return potentials_violation(plan, duals, p) <= tol


def boundary_shipping_violation(plan: TransportPlan) -> float:
    """Worst scaled |d(x, y) - d(x, A)| over boundary entries."""
    _, outgoing, incoming = decompose(plan)
    return _shipping(plan.pair, outgoing, incoming)


def _shipping(pair, outgoing: TransportPlan, incoming: TransportPlan) -> float:
    """:func:`boundary_shipping_violation` given the plan's boundary parts."""
    worst = 0.0
    for x, a, _ in _validated(pair, outgoing.entries):
        d = pair._dist_to_A(x)
        worst = max(worst, _scaled(abs(pair._distance(x, a) - d), d))
    for a, y, _ in _validated(pair, incoming.entries):
        d = pair._dist_to_A(y)
        worst = max(worst, _scaled(abs(pair._distance(a, y) - d), d))
    return worst


def check_boundary_shipping(plan: TransportPlan, tol: float = 1e-9) -> bool:
    """True iff all boundary entries ship to/from nearest boundary points."""
    tol = _check_tol(tol)
    return boundary_shipping_violation(plan) <= tol


def duality_gap_violation(plan: TransportPlan, duals, p) -> float:
    """Scaled gap between the plan's cost and a weak-duality bound on its optimum.

    The plan is read as a flow on the boundary-augmented problem of its own
    marginals, over the cells of ``pair.cost_matrix``: interior entries use
    cell (i, j), entries leaving Omega cell (i, A), entries entering it cell
    (A, j).  Its cost is P.  The potentials give the bound D: exact
    potentials within one ulp of the given ones that are feasible and tight
    on the plan's support, when they exist, and then D = P; otherwise the
    given potentials made feasible, each phi_i lowered by the largest
    violation of phi_i + psi_j <= c_ij and phi_i <= c_iA in its row and each
    psi_j capped at c_Aj.  Returns (P - D) / (1 + max(D, 0)), exact and
    rounded up, so a value <= tol proves that P exceeds the optimum for the
    plan's marginals by at most tol * (1 + optimum); whether those match
    the prescribed measures is checked apart.  Every float is dyadic, so
    all of this is integer arithmetic over powers of two.  A potential
    missing for an atom counts as 0; a non-finite one makes the gap
    infinite.
    """
    p = check_exponent(p)
    xs, ys, cells, scale, support = _plan_cells(plan, marginals(plan), p)
    phi = [duals.phi.get(x, 0.0) for x in xs]
    psi = [duals.psi.get(y, 0.0) for y in ys]
    return _duality_gap(plan, _one_ulp_box(cells, scale, support, phi, psi), support)


def _duality_gap(plan: TransportPlan, box, support) -> float:
    """:func:`duality_gap_violation` given the one-ulp search."""
    if box is None:
        return math.inf
    tight, cells, phi, psi, unit = box
    m, n = len(phi), len(psi)
    masses, mass_bits = _dyadic([mass for _, _, mass in plan.entries])
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
    return _rounded_up(cost - bound, (unit << mass_bits) + max(bound, 0))


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
    tol = _check_tol(tol)
    if plan.pair != mu.pair or plan.pair != nu.pair:
        raise PairMismatchError("plan and measures live on different metric pairs")
    margins = marginals(plan)
    got_mu, got_nu = margins
    if not (
        measures_close(got_mu, mu, coord_tol=0.0, mass_tol=1e-10)
        and measures_close(got_nu, nu, coord_tol=0.0, mass_tol=1e-10)
    ):
        raise InadmissiblePlanError("plan marginals do not match the prescribed measures")

    # Every check but shipping reads these cells, and the potentials check
    # and the duality gap share one search for exact potentials.
    xs, ys, cells, scale, support = _plan_cells(plan, margins, p)
    box = _one_ulp_box(cells, scale, support, *_potential_values(xs, ys, duals))
    _, outgoing, incoming = decompose(plan)
    conc = _concentration(cells, scale, support)
    # Tight potentials within one ulp also prove cyclical monotonicity.
    mono = 0.0 if box is not None and box[0] is not None else _monotonicity(cells, scale, support)
    pots = _potentials(box, support)
    ship = _shipping(plan.pair, outgoing, incoming)
    gap = _duality_gap(plan, box, support)

    return CertificateReport(
        concentrated_on_S=conc <= tol,
        cyclically_monotone=mono == 0.0,
        potentials_valid=pots <= tol,
        boundary_shipping=ship <= tol,
        cost_optimal=gap <= tol,
        worst_violation=max(conc, mono, pots, ship, gap),
    )
