"""Independent verification that a transport plan is optimal.

The checks mirror the equivalent optimality conditions for partial
transport: support inside the set S where the direct cost equals the
reduced cost, reduced-cost cyclical monotonicity of the support augmented
with a virtual boundary pair, existence of feasible complementary-slack
dual potentials vanishing on A, and nearest-point boundary shipping.  A
final check bounds the optimum from below by weak duality, in exact integer
arithmetic, and compares the plan's cost with that bound; nothing is
re-solved.

All tolerances are applied in absolute-plus-relative form: a comparison
fails when the raw violation exceeds ``tol * (1 + magnitude)``.
"""

import math
import random
from dataclasses import dataclass
from itertools import combinations, permutations
from operator import ge, le, mul, sub

from .errors import (
    InadmissiblePlanError,
    MissingPotentialError,
    PairMismatchError,
    check_exponent,
)
from .measures import DiscreteMeasure
from .plans import TransportPlan, decompose, marginals

#: Plans with at most this many entries get exhaustive subset enumeration in
#: the cyclical-monotonicity check; larger plans are sampled.
EXHAUSTIVE_ENTRY_LIMIT = 8
#: Number of random subsets per cycle length when sampling.
SAMPLED_SUBSETS_PER_SIZE = 500


@dataclass
class CertificateReport:
    """Aggregated outcome of all optimality checks."""

    concentrated_on_S: bool
    cyclically_monotone_up_to: dict  # cycle length k -> bool
    potentials_valid: bool
    boundary_shipping: bool
    cost_optimal: bool  # plan cost within tol of an exact weak-duality lower bound
    worst_violation: float

    def all_passed(self) -> bool:
        return (
            self.concentrated_on_S
            and all(self.cyclically_monotone_up_to.values())
            and self.potentials_valid
            and self.boundary_shipping
            and self.cost_optimal
        )


def _scaled(violation: float, magnitude: float) -> float:
    return violation / (1.0 + abs(magnitude))


def _validated(pair, entries) -> list:
    """Plan entries with both endpoints validated once, for the pair's own formulas.

    ``pair._distance`` and ``pair._dist_to_A`` are what ``distance`` and
    ``dist_to_A`` compute after validating, so every float stays the same.
    """
    return [(pair.validate_point(x), pair.validate_point(y), m) for x, y, m in entries]


def concentration_violation(plan: TransportPlan, p) -> float:
    """Worst scaled gap c - c_tilde over interior entries (0 when empty)."""
    p = check_exponent(p)
    interior, _, _ = decompose(plan)
    return _concentration(plan.pair, interior, p)


def _concentration(pair, interior: TransportPlan, p: float) -> float:
    """:func:`concentration_violation` given the plan's interior part."""
    worst = 0.0
    for x, y, _ in _validated(pair, interior.entries):
        direct = pair._distance(x, y) ** p
        reduced = min(direct, pair._dist_to_A(x) ** p + pair._dist_to_A(y) ** p)
        worst = max(worst, _scaled(direct - reduced, reduced))
    return worst


def check_concentrated_on_S(plan: TransportPlan, p, tol: float = 1e-8) -> bool:
    """True iff every interior entry lies in S within tol; boundary entries pass."""
    return concentration_violation(plan, p) <= tol


def _virtual_cost_matrix(plan: TransportPlan, p):
    """Pairwise reassignment costs over entries plus one virtual A x A pair.

    Diagonal cells carry the actual cost of each support pair, off-diagonal
    cells the reduced cost of reassigning a source to another entry's
    target; interactions with the virtual pair use boundary distances.  For
    plans concentrated on S the diagonal agrees with the reduced cost, so
    the check coincides with reduced-cost cyclical monotonicity of the
    support together with A x A.
    """
    pair = plan.pair
    entries = _validated(pair, plan.entries)
    n = len(entries)
    row_boundary = [pair._dist_to_A(x) ** p for x, _, _ in entries]
    col_boundary = [pair._dist_to_A(y) ** p for _, y, _ in entries]
    size = n + 1
    matrix = [[0.0] * size for _ in range(size)]
    for a, (xa, ya, _) in enumerate(entries):
        for b, (_, yb, _) in enumerate(entries):
            if a == b:
                matrix[a][b] = pair._distance(xa, ya) ** p
            else:
                matrix[a][b] = min(
                    pair._distance(xa, yb) ** p, row_boundary[a] + col_boundary[b]
                )
        matrix[a][n] = row_boundary[a]
        matrix[n][a] = col_boundary[a]
    return matrix


def _lowest_total(matrix, subset) -> float:
    """Lowest total cost over the reassignments of subset that the search tries.

    All permutations for up to 4 pairs, those keeping the first pair's
    target beyond.  Each total is summed left to right over the subset's
    rows; the cells are non-negative, so leaving out the leading 0.0 of a
    running sum changes no bit.
    """
    rows = [matrix[a] for a in subset]
    if len(subset) == 2:
        r0, r1 = rows
        return min([r0[a] + r1[b] for a, b in permutations(subset)])
    if len(subset) == 3:
        r0, r1, r2 = rows
        return min([r0[a] + r1[b] + r2[c] for a, b, c in permutations(subset)])
    if len(subset) == 4:
        r0, r1, r2, r3 = rows
        return min([r0[a] + r1[b] + r2[c] + r3[d] for a, b, c, d in permutations(subset)])
    low = math.inf
    for rest in permutations(subset[1:]):
        total = 0.0
        for row, b in zip(rows, (subset[0],) + rest):
            total += row[b]
        low = min(low, total)
    return low


def cyclical_monotonicity_violation(plan: TransportPlan, p, k_max: int = 4) -> dict:
    """Worst scaled improvement per cycle length k in 2..k_max.

    Enumerates subsets of the support pairs augmented with one virtual
    A x A pair; within each subset all permutations are tried for k <= 4 and
    all cyclic shifts beyond.  Exhaustive over all subsets when the plan has
    at most ``EXHAUSTIVE_ENTRY_LIMIT`` entries, otherwise
    ``SAMPLED_SUBSETS_PER_SIZE`` random subsets per size from one fixed
    seed, so every run checks the same subsets.
    """
    p = check_exponent(p)
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    matrix = _virtual_cost_matrix(plan, p)
    n_items = len(plan.entries) + 1  # + virtual pair
    rng = random.Random(0)
    exhaustive = len(plan.entries) <= EXHAUSTIVE_ENTRY_LIMIT

    worst = {}
    for k in range(2, k_max + 1):
        worst_k = 0.0
        if k > n_items:
            worst[k] = worst_k
            continue
        if exhaustive:
            subsets = combinations(range(n_items), k)
        else:
            pool = range(n_items)
            subsets = (sorted(rng.sample(pool, k)) for _ in range(SAMPLED_SUBSETS_PER_SIZE))
        for subset in subsets:
            base = sum(matrix[a][a] for a in subset)
            # Rounded subtraction and division by 1 + |base| are monotone, so
            # the lowest total gives the worst scaled improvement, bit for bit.
            worst_k = max(worst_k, _scaled(base - _lowest_total(matrix, subset), base))
        worst[k] = worst_k
    return worst


def check_cyclical_monotonicity(plan: TransportPlan, p, k_max: int = 4, tol: float = 1e-8) -> bool:
    """True iff no reassignment of <= k_max support pairs lowers the cost by tol."""
    worst = cyclical_monotonicity_violation(plan, p, k_max)
    return all(w <= tol for w in worst.values())


def potentials_violation(plan: TransportPlan, duals, p) -> float:
    """Worst scaled violation of dual feasibility and complementary slackness.

    Feasibility is checked on all atom pairs of the plan's marginals and
    against the boundary (phi <= d(., A)^p and psi <= d(., A)^p, the
    vanish-on-A condition moved to the edges); slackness on every entry
    carrying mass.  A non-finite potential makes the violation infinite.
    """
    p = check_exponent(p)
    return _potentials(plan.pair, marginals(plan), decompose(plan), duals, p)


def _potentials(pair, margins, parts, duals, p: float) -> float:
    """:func:`potentials_violation` given the plan's marginals and its decomposition."""
    mu, nu = margins
    for pt, _ in mu.atoms:
        if pt not in duals.phi:
            raise MissingPotentialError(f"no source potential for atom {pt!r}")
    for pt, _ in nu.atoms:
        if pt not in duals.psi:
            raise MissingPotentialError(f"no sink potential for atom {pt!r}")
    sources = [(pair.validate_point(x), duals.phi[x]) for x, _ in mu.atoms]
    sinks = [(pair.validate_point(y), duals.psi[y]) for y, _ in nu.atoms]
    if not all(math.isfinite(v) for _, v in sources + sinks):
        return math.inf

    worst = 0.0
    for x, phi in sources:
        bc = pair._dist_to_A(x) ** p
        worst = max(worst, _scaled(phi - bc, bc))
        for y, psi in sinks:
            c = pair._distance(x, y) ** p
            worst = max(worst, _scaled(phi + psi - c, c))
    for y, psi in sinks:
        bc = pair._dist_to_A(y) ** p
        worst = max(worst, _scaled(psi - bc, bc))

    interior, outgoing, incoming = parts
    for x, y, _ in _validated(pair, interior.entries):
        c = pair._distance(x, y) ** p
        worst = max(worst, _scaled(abs(duals.phi[x] + duals.psi[y] - c), c))
    for x, a, _ in _validated(pair, outgoing.entries):
        c = pair._distance(x, a) ** p
        worst = max(worst, _scaled(abs(duals.phi[x] - c), c))
    for a, y, _ in _validated(pair, incoming.entries):
        c = pair._distance(a, y) ** p
        worst = max(worst, _scaled(abs(duals.psi[y] - c), c))
    return worst


def check_potentials(plan: TransportPlan, duals, p, tol: float = 1e-9) -> bool:
    """True iff the potentials are feasible and complementarily slack within tol."""
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
    return boundary_shipping_violation(plan) <= tol


def _dyadic(values, bits: int = 0) -> tuple:
    """Finite floats as ints over one power of two: (ints, k), value = int / 2^k, k >= bits."""
    ratios = [float(v).as_integer_ratio() for v in values]
    k = max([bits] + [d.bit_length() - 1 for _, d in ratios])
    return [n << (k + 1 - d.bit_length()) for n, d in ratios], k


def _rounded_up(num: int, den: int) -> float:
    """The least float not below num / den, for den > 0."""
    try:
        q = num / den
    except OverflowError:
        return math.copysign(math.inf, num)
    a, b = q.as_integer_ratio()
    return math.nextafter(q, math.inf) if a * den < num * b else q


def _tight_potentials(cells, phi, psi, ulps, support):
    """Exact potentials within one ulp of phi and psi, feasible and tight on support, or None.

    ``cells`` is the augmented matrix (last row and column for A, where the
    potentials are 0), ``ulps`` the ulp of each potential, ``support`` the
    cells carrying flow; all are ints on one scale.  Float rounding moves
    exact potentials by less than an ulp, so a plan certified by exact
    potentials has them in this box.  Labels only move towards feasibility
    (phi down from its upper bound, psi up from its lower bound), which
    finds the box's solution if one exists; that is shortest paths over the
    difference constraints, settled within one pass per variable unless
    a negative cycle shows that the plan is not optimal.
    """
    m, n = len(phi), len(psi)
    lo_phi = [f - u for f, u in zip(phi, ulps)]
    hi_psi = [min(g + u, c) for g, u, c in zip(psi, ulps[m:], cells[m])]
    phi = [min(f + u, row[n]) for f, u, row in zip(phi, ulps, cells)]
    psi = [g - u for g, u in zip(psi, ulps[m:])]
    interior = []
    for i, j in support:
        if i < m and j < n:
            interior.append((i, j))
        elif i < m:
            lo_phi[i] = max(lo_phi[i], cells[i][n])
        elif j < n:
            psi[j] = max(psi[j], cells[m][j])
    for _ in range(m + n + 1):
        changed = False
        for i, row in enumerate(cells[:m]):
            low = min(map(sub, row, psi), default=phi[i])
            if low < phi[i]:
                phi[i], changed = low, True
        for i, j in interior:
            need = cells[i][j] - phi[i]
            if need > psi[j]:
                psi[j], changed = need, True
        if not changed:
            break
    else:
        return None
    if all(map(ge, phi, lo_phi)) and all(map(le, psi, hi_psi)):
        return phi, psi
    return None


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
    return _duality_gap(plan, marginals(plan), duals, p)


def _duality_gap(plan: TransportPlan, margins, duals, p: float) -> float:
    """:func:`duality_gap_violation` given the plan's marginals."""
    pair = plan.pair
    got_mu, got_nu = margins
    xs = [x for x, _ in got_mu.atoms]
    ys = [y for y, _ in got_nu.atoms]
    m, n = len(xs), len(ys)
    phi = [duals.phi.get(x, 0.0) for x in xs]
    psi = [duals.psi.get(y, 0.0) for y in ys]
    if not all(math.isfinite(v) for v in phi + psi):
        return math.inf

    cells, scale = pair.cost_matrix(xs, ys, p)
    values, bits = _dyadic(
        phi + psi + [math.ulp(v) for v in phi + psi], scale.bit_length() - 1
    )
    phi, psi, ulps = values[:m], values[m : m + n], values[m + n :]
    shift = bits - (scale.bit_length() - 1)
    cells = [[c << shift for c in row] for row in cells]
    masses, mass_bits = _dyadic([mass for _, _, mass in plan.entries])

    row_of = {x: i for i, x in enumerate(xs)}
    col_of = {y: j for j, y in enumerate(ys)}
    support = [(row_of.get(x, m), col_of.get(y, n)) for x, y, _ in plan.entries]
    cost = 0
    row_flow, col_flow = [0] * (m + 1), [0] * (n + 1)
    for (i, j), mass in zip(support, masses):
        cost += mass * cells[i][j]
        row_flow[i] += mass
        col_flow[j] += mass

    tight = _tight_potentials(cells, phi, psi, ulps, support)
    if tight is not None:
        phi, psi = tight
    else:
        phi = [
            f - max([0, f - row[n]] + [f + g - c for g, c in zip(psi, row)])
            for f, row in zip(phi, cells)
        ]
        psi = [min(g, c) for g, c in zip(psi, cells[m])]
    bound = sum(map(mul, row_flow, phi)) + sum(map(mul, col_flow, psi))
    return _rounded_up(cost - bound, (1 << (bits + mass_bits)) + max(bound, 0))


def _marginals_match(got: DiscreteMeasure, want: DiscreteMeasure) -> bool:
    got_d = got.mass_by_point()
    want_d = want.mass_by_point()
    for pt in set(got_d) | set(want_d):
        a = got_d.get(pt, 0.0)
        b = want_d.get(pt, 0.0)
        if abs(a - b) > 1e-10 * (1.0 + max(abs(a), abs(b))):
            return False
    return True


def certify_optimal(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    plan: TransportPlan,
    duals,
    p,
    tol: float = 1e-8,
) -> CertificateReport:
    """Run all optimality checks against the prescribed marginals.

    Raises :class:`InadmissiblePlanError` when the plan's marginals do not
    match mu and nu (masses to a relative 1e-10); otherwise returns the
    aggregated report, with cycles of up to 4 pairs and the
    exact duality-gap bound on the plan's cost (see
    :func:`duality_gap_violation`).  No solver is called.
    """
    p = check_exponent(p)
    if plan.pair != mu.pair or plan.pair != nu.pair:
        raise PairMismatchError("plan and measures live on different metric pairs")
    margins = marginals(plan)
    got_mu, got_nu = margins
    if not _marginals_match(got_mu, mu) or not _marginals_match(got_nu, nu):
        raise InadmissiblePlanError("plan marginals do not match the prescribed measures")

    # Each check reads the one marginals and decomposition computed here.
    parts = decompose(plan)
    interior, outgoing, incoming = parts
    conc = _concentration(plan.pair, interior, p)
    mono = cyclical_monotonicity_violation(plan, p)
    pots = _potentials(plan.pair, margins, parts, duals, p)
    ship = _shipping(plan.pair, outgoing, incoming)
    gap = _duality_gap(plan, margins, duals, p)

    return CertificateReport(
        concentrated_on_S=conc <= tol,
        cyclically_monotone_up_to={k: w <= tol for k, w in mono.items()},
        potentials_valid=pots <= tol,
        boundary_shipping=ship <= tol,
        cost_optimal=gap <= tol,
        worst_violation=max(conc, max(mono.values(), default=0.0), pots, ship, gap),
    )
