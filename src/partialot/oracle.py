"""An independent exact reference for Wb_p and d_p.

:func:`brute_force_wb` solves the partial transport problem in its
per-point-copy form: a balanced transportation problem whose rows are the
source atoms and then one copy of A per sink atom, and whose columns are the
sink atoms and then one copy of A per source atom,

    [ d(x_i, y_j)^p    d(x_i, A)^p ]
    [ d(y_l, A)^p      0           ]

where each copy of A carries the mass of the atom it stands for.  Every cell
is read from one ``cost_matrix`` pass over the measures' validated atoms, so
the costs are ints on one power-of-two scale; the masses share no scale and
stay exact Fractions, as do the flows.  Successive shortest paths (Tomizawa 1971; Edmonds and Karp
1972), each found by Dijkstra with a heap on the int reduced costs, give the
exact optimum Wb_p^p: the total of flow times int cost, over that scale.
:func:`brute_force_diagram` runs the same solver on the unit-mass measures
of two diagrams, whose flows are integral, and reads it as a matching.

The oracle shares only each pair's cell formulas with the solver.  Its
formulation (per-point copies, no aggregated boundary node), its algorithm
(shortest paths, not the simplex), its mass handling (no common scale, no
perturbation) and its rounding are its own, so the two check each other.
Being fast is a non-goal: ``MAX_MATCH_POINTS`` bounds the atoms per instance.
"""

from bisect import insort
from fractions import Fraction
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import FloatRangeError, OracleSizeError, PairMismatchError, check_exponent
from .measures import DiscreteMeasure, PersistenceDiagram, diagram_to_measure

#: Hard ceiling on the atoms (or distinct diagram points) of both sides together.
MAX_MATCH_POINTS = 160


class OracleResult(NamedTuple):
    """The exact optimum Wb_p^p (or d_p^p), its float, and a witness routing.

    ``value`` is ``float(exact)``.  The witness is a tuple of moves achieving
    ``exact``; zero-cost moves along A are omitted.
    """

    value: float
    witness: tuple
    exact: Fraction


def _min_cost_flow(supply, demand, cost) -> dict:
    """An optimal flow ``{(row, column): mass}`` of a balanced transportation problem.

    Each round runs Dijkstra on reduced costs from every row with supply
    left, over forward arcs (row to column) and backward arcs (column to
    row, on cells carrying flow), up to the nearest column with demand left,
    and ships along that path the most mass it allows.  Nodes are the rows,
    then the columns; the potentials keep every reduced cost >= 0.
    """
    rows, nodes = len(supply), len(supply) + len(demand)
    supply, demand, flow, pot = list(supply), list(demand), {}, [0] * nodes
    carriers = [[] for _ in demand]  # each column's rows with flow, ascending
    while any(supply):
        dist = [0 if s else None for s in supply] + [None] * len(demand)
        heap = [(0, k) for k, s in enumerate(supply) if s]  # sorted, so a heap
        prev, done = [None] * nodes, [False] * nodes
        while True:
            # The nearest unsettled node, the lowest-numbered on ties; an
            # entry superseded by a shorter one pops after its node settled.
            _, u = heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u >= rows and demand[u - rows]:
                break
            if u < rows:
                arcs = [(rows + j, c) for j, c in enumerate(cost[u])]
            else:
                arcs = [(i, -cost[i][u - rows]) for i in carriers[u - rows]]
            for w, c in arcs:
                d = dist[u] + c + pot[u] - pot[w]
                if not done[w] and (dist[w] is None or d < dist[w]):
                    dist[w], prev[w] = d, u
                    heappush(heap, (d, w))
        # Each node moves by its distance, capped at the target's: reduced costs stay >= 0.
        top = dist[u]
        pot = [q + (top if d is None else min(d, top)) for q, d in zip(pot, dist)]
        path, w = [], u
        while prev[w] is not None:
            a = prev[w]
            path.append(((a, w - rows), 1) if a < rows else ((w, a - rows), -1))
            w = a
        delta = min([supply[w], demand[u - rows]] + [flow[cell] for cell, s in path if s < 0])
        for cell, s in path:
            if cell not in flow:
                insort(carriers[cell[1]], cell[0])
            flow[cell] = flow.get(cell, 0) + s * delta
            if not flow[cell]:
                del flow[cell]
                carriers[cell[1]].remove(cell[0])
        supply[w] -= delta
        demand[u - rows] -= delta
    return flow


def _result(exact: Fraction, witness: tuple) -> OracleResult:
    try:
        return OracleResult(float(exact), witness, exact)
    except OverflowError as exc:
        raise FloatRangeError(f"value out of the float range: {exc}") from exc


def _optimum(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> tuple:
    """``(exact optimum, {(i, j): mass})``, where ``i == m`` or ``j == n`` stands for A."""
    if mu.pair != nu.pair:
        raise PairMismatchError("measures live on different metric pairs")
    p = check_exponent(p)
    pair, xs, ys = mu.pair, [x for x, _ in mu.atoms], [y for y, _ in nu.atoms]
    a, b = [Fraction(w) for _, w in mu.atoms], [Fraction(w) for _, w in nu.atoms]
    m, n = len(xs), len(ys)
    if m + n > MAX_MATCH_POINTS:
        raise OracleSizeError(f"{m}+{n} atoms exceed the oracle bound {MAX_MATCH_POINTS}")
    cells, scale = pair._cost_matrix(xs, ys, p)
    # Rows: sources, then one copy of A per sink; columns: sinks, then one copy per source.
    cost = [row[:n] + [row[n]] * m for row in cells[:m]]
    cost += [cells[m][:n] + [0] * m for _ in ys]
    flow = _min_cost_flow(a + b, b + a, cost)
    moves = {}
    for (i, j), f in flow.items():
        key = (min(i, m), min(j, n))
        if key != (m, n):
            moves[key] = moves.get(key, 0) + f
    return sum((f * cost[i][j] for (i, j), f in flow.items()), Fraction(0)) / scale, moves


def brute_force_wb(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> OracleResult:
    """The exact optimum Wb_p^p and a plan achieving it, as (source, target, mass) moves.

    Any finite positive masses are accepted; boundary moves go to or from
    the atom's nearest point of A.  Raises :class:`OracleSizeError` beyond
    ``MAX_MATCH_POINTS`` atoms, and :class:`FloatRangeError` when the
    optimum lies beyond the float range.
    """
    exact, moves = _optimum(mu, nu, p)
    pair, m, n = mu.pair, len(mu.atoms), len(nu.atoms)
    witness = tuple(
        (
            mu.atoms[i][0] if i < m else pair.project_A(nu.atoms[j][0]),
            nu.atoms[j][0] if j < n else pair.project_A(mu.atoms[i][0]),
            float(f),
        )
        for (i, j), f in sorted(moves.items())
    )
    return _result(exact, witness)


def brute_force_diagram(sigma: PersistenceDiagram, tau: PersistenceDiagram, p) -> OracleResult:
    """The optimal matching of two diagrams: the oracle on their unit-mass measures.

    The flows are integral, so the witness lists one ``("match", x, y)``,
    ``("delete", x, proj x)`` or ``("insert", proj y, y)`` per unit.  The
    value is the p-th power cost, so the diagram distance is value ** (1/p).
    """
    if sigma.pair != tau.pair:
        raise PairMismatchError("diagrams live on different metric pairs")
    mu, nu = diagram_to_measure(sigma), diagram_to_measure(tau)
    exact, moves = _optimum(mu, nu, p)
    pair, m, n = sigma.pair, len(mu.atoms), len(nu.atoms)
    witness = []
    for (i, j), f in sorted(moves.items()):
        if i < m and j < n:
            move = ("match", mu.atoms[i][0], nu.atoms[j][0])
        elif i < m:
            move = ("delete", mu.atoms[i][0], pair.project_A(mu.atoms[i][0]))
        else:
            move = ("insert", pair.project_A(nu.atoms[j][0]), nu.atoms[j][0])
        witness += [move] * int(f)
    return _result(exact, tuple(witness))
