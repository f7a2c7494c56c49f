"""Independent brute-force computation of Wb_p and d_p on tiny instances.

Both oracles use per-point boundary copies: the source side is augmented
with the projections of the sink points and vice versa, giving a square
block cost matrix

    [ d(x_i, y_j)^p          d(x_i, proj(x_k))^p ]
    [ d(proj(y_l), y_j)^p    0                   ]

:func:`brute_force_diagram` minimises over all permutations of this matrix;
:func:`brute_force_wb` enumerates every integral flow matrix after scaling
rational masses to integers.  This is deliberately a different formulation
and a different enumeration than the solver's aggregated-boundary simplex,
so the two validate each other.  Being fast is a non-goal.
"""

import math
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from .errors import OracleSizeError, PairMismatchError, check_exponent
from .measures import DiscreteMeasure, PersistenceDiagram

#: Hard ceiling on points per brute-force matching instance.
MAX_MATCH_POINTS = 8
#: Node budget for the integral-flow enumeration.
MAX_ENUM_NODES = 1_000_000
#: Largest accepted common denominator when scaling masses to integers.
MAX_MASS_DENOMINATOR = 1 << 20


class OracleResult(NamedTuple):
    """Enumerated minimum cost (the p-th power value) and a witness routing.

    The witness is a tuple of (source, target, mass) moves achieving the
    value; zero-cost boundary-to-boundary padding is omitted.
    """

    value: float
    witness: tuple


def _block_matrix(pair, xs, ys, p):
    """The square per-point-copy cost matrix for points xs vs ys."""
    m, n = len(xs), len(ys)
    projs_x = [pair.project_A(x) for x in xs]
    projs_y = [pair.project_A(y) for y in ys]
    size = m + n
    c = [[0.0] * size for _ in range(size)]
    for i in range(m):
        for j in range(n):
            c[i][j] = pair.distance(xs[i], ys[j]) ** p
        for k in range(m):
            c[i][n + k] = pair.distance(xs[i], projs_x[k]) ** p
    for l in range(n):
        for j in range(n):
            c[m + l][j] = pair.distance(projs_y[l], ys[j]) ** p
        # bottom-right block stays 0: moving along A is free
    return c, projs_x, projs_y


def brute_force_diagram(sigma: PersistenceDiagram, tau: PersistenceDiagram, p) -> OracleResult:
    """Minimise the matching cost over all permutations of the augmented multisets.

    Requires |sigma| + |tau| <= 8.  The value is the p-th power cost, so the
    diagram distance is value ** (1/p).
    """
    if sigma.pair != tau.pair:
        raise PairMismatchError("diagrams live on different metric pairs")
    p = check_exponent(p)
    xs, ys = list(sigma.points), list(tau.points)
    m, n = len(xs), len(ys)
    if m + n > MAX_MATCH_POINTS:
        raise OracleSizeError(f"{m}+{n} points exceed the enumeration bound {MAX_MATCH_POINTS}")
    if m + n == 0:
        return OracleResult(0.0, ())

    c, projs_x, projs_y = _block_matrix(sigma.pair, xs, ys, p)
    size = m + n
    best = math.inf
    best_perm = None
    for perm in permutations(range(size)):
        total = 0.0
        for i in range(size):
            total += c[i][perm[i]]
        if total < best:
            best = total
            best_perm = perm

    witness = []
    for i in range(size):
        j = best_perm[i]
        if i < m and j < n:
            witness.append(("match", xs[i], ys[j]))
        elif i < m:
            witness.append(("delete", xs[i], projs_x[j - n]))
        elif j < n:
            witness.append(("insert", projs_y[i - m], ys[j]))
    return OracleResult(best, tuple(witness))


def _scaled_integer_masses(masses):
    fracs = [Fraction(m) for m in masses]
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // math.gcd(scale, f.denominator)
        if scale > MAX_MASS_DENOMINATOR:
            raise OracleSizeError(
                "masses are not small rationals; integral enumeration is infeasible"
            )
    return [int(f * scale) for f in fracs], scale


def brute_force_wb(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> OracleResult:
    """Exact minimum over all integral flows of the per-point-copy problem.

    Masses must be small rationals (after exact scaling the flows are
    integers, and every vertex of the transportation polytope is integral,
    so the integral minimum is the true optimum).  Raises
    :class:`OracleSizeError` when the instance exceeds the point bound or
    the enumeration budget.
    """
    if mu.pair != nu.pair:
        raise PairMismatchError("measures live on different metric pairs")
    p = check_exponent(p)
    pair = mu.pair
    xs = [pt for pt, _ in mu.atoms]
    ys = [pt for pt, _ in nu.atoms]
    m, n = len(xs), len(ys)
    if m + n > MAX_MATCH_POINTS:
        raise OracleSizeError(f"{m}+{n} atoms exceed the enumeration bound {MAX_MATCH_POINTS}")
    if m + n == 0:
        return OracleResult(0.0, ())

    c, projs_x, projs_y = _block_matrix(pair, xs, ys, p)
    masses = [mass for _, mass in mu.atoms] + [mass for _, mass in nu.atoms]
    scaled, scale = _scaled_integer_masses(masses)
    # Row supplies: source atoms then sink projections; column demands:
    # sink atoms then source projections.  Both sides sum to the same total.
    supplies = scaled[:m] + scaled[m:]
    demands = scaled[m:] + scaled[:m]
    size = m + n

    best_cost = [math.inf]
    best_matrix = [None]
    nodes = [0]
    current = [[0] * size for _ in range(size)]
    col_rem = list(demands)

    # Admissible lower bounds: unplaced mass of row i can cost no less than
    # the row's suffix minimum, and later rows no less than their row minima.
    suffix_min = [
        [min(c[i][j:]) for j in range(size)] + [0.0] for i in range(size)
    ]
    tail_min = [0.0] * (size + 1)
    for i in range(size - 1, -1, -1):
        tail_min[i] = tail_min[i + 1] + supplies[i] * suffix_min[i][0]

    def descend(i, j, row_rem, partial):
        nodes[0] += 1
        if nodes[0] > MAX_ENUM_NODES:
            raise OracleSizeError("integral-flow enumeration budget exceeded")
        if i == size:
            if partial < best_cost[0]:
                best_cost[0] = partial
                best_matrix[0] = [row[:] for row in current]
            return
        if partial + row_rem * suffix_min[i][j] + tail_min[i + 1] >= best_cost[0]:
            return
        if j == size - 1:
            if row_rem > col_rem[j]:
                return
            current[i][j] = row_rem
            col_rem[j] -= row_rem
            descend(i + 1, 0, supplies[i + 1] if i + 1 < size else 0, partial + row_rem * c[i][j])
            col_rem[j] += row_rem
            current[i][j] = 0
            return
        for f in range(min(row_rem, col_rem[j]) + 1):
            current[i][j] = f
            col_rem[j] -= f
            descend(i, j + 1, row_rem - f, partial + f * c[i][j])
            col_rem[j] += f
        current[i][j] = 0

    descend(0, 0, supplies[0], 0.0)

    value = best_cost[0] / scale
    witness = []
    for i in range(size):
        for j in range(size):
            f = best_matrix[0][i][j]
            if f == 0 or (i >= m and j >= n):
                continue
            src = xs[i] if i < m else projs_y[i - m]
            dst = ys[j] if j < n else projs_x[j - n]
            witness.append((src, dst, f / scale))
    return OracleResult(value, tuple(witness))
