"""Exact primal transportation simplex over integer arithmetic.

Solves the balanced transportation problem

    min  sum_ij cost[i][j] * f[i][j]
    s.t. sum_j f[i][j] = supply[i],  sum_i f[i][j] = demand[j],  f >= 0

with all data given as Python ``int``, so the pivot loop adds, subtracts and
compares ints only, and returns int flows and potentials.  Callers with
rational data scale the costs by one positive constant and the masses by
another: every reduced cost, and every flow, scales alike, so each pivot is
the one the rational simplex would make, and dividing the answers back by
the two scales gives the exact rational ones.

The basis is a spanning tree over the m sources and n sinks, rooted at
source 0 with potential 0 and stored as parent pointers, depths and child
sets, with each basic flow on the child node of its cell.  The cycle of an
entering cell is found by walking its two endpoints up to their common
ancestor; after the pivot only the subtree cut off by the leaving cell is
re-hung, and its potentials shift by the entering reduced cost.

The masses are perturbed once (Orden 1956; in int form, Cunningham's
strongly feasible bases, 1976): with G = m(n + 1) and K = 2G + 1, supply i
becomes K*supply[i] + n + 1, demand j becomes K*demand[j] + 1, and the last
demand gets G - n more.  A proper set of nodes then has net supply K*N + g,
with N its unperturbed net supply and 0 < |g| <= G.  A basic flow is the net
supply of the part of the tree its cell cuts off, so it is never 0: every
pivot moves mass and lowers the objective (no cycling), and one cell has the
minimum ratio.  As 2G < K, perturbing only breaks ties, and a basic flow f is
(f + G) // K = N >= 0 unperturbed: the last basis is optimal for both.

The first basis is the row-minimum one: rows are filled in order, each from
its cheapest open column first (smallest index on ties), and every
allocation but the last closes one line (the row once its supply is used
up, otherwise the column), so the m + n - 1 cells form a spanning tree.

The entering cell comes from a block search, as in LEMON's network simplex
(Grigoriadis 1986; Bonneel et al. 2011): rows are scanned cyclically from
where the previous search stopped, in blocks of max(1, round(sqrt(mn) / n))
rows (about sqrt(mn) cells), and the most negative reduced cost of the first
block that has one enters (smallest row-major index on ties).  Optimality is
declared only after a full cycle finds no negative reduced cost.  Every rule
is deterministic, so the selected optimal vertex is reproducible.
"""

from math import sqrt
from operator import sub


def solve_transportation(supply, demand, cost):
    """Solve the balanced transportation problem exactly.

    Parameters are ints: ``supply`` (length m) and ``demand`` (length n),
    non-negative with equal sums, and ``cost`` an m x n matrix.  Returns a
    tuple ``(flows, u, v, alt)`` of ints where ``flows`` maps ``(i, j)``, in
    row-major order, to the positive flow on that cell, ``u``/``v`` are dual
    potentials satisfying ``u[i] + v[j] <= cost[i][j]`` everywhere with
    equality on every cell of the final basis (hence on every positive
    flow), and ``alt`` counts non-basic cells with zero reduced cost: 0
    proves the optimal flows unique, and a positive count means other optima
    may exist.
    """
    m, n = len(supply), len(demand)
    if m == 0 or n == 0:
        if any(supply) or any(demand):
            raise ValueError("empty side of an unbalanced transportation problem")
        return {}, [0] * m, [0] * n, 0
    if sum(supply) != sum(demand):
        raise ValueError("transportation problem is not balanced")
    if any(s < 0 for s in supply) or any(d < 0 for d in demand):
        raise ValueError("supplies and demands must be non-negative")

    g, k, supply, demand = _perturbed(supply, demand)
    tree = _row_minimum(supply, demand, cost)
    block = max(1, round(sqrt(m * n) / n))
    start = 0
    while (entering := _entering(cost, tree.u, tree.v, start, block)) is not None:
        i, j, rc, start = entering
        tree.pivot(i, j, rc)

    u, v = tree.u, tree.v
    # Basic cells have reduced cost exactly 0; the rest of the zeros are ties.
    zeros = sum(list(map(sub, cost_i, v)).count(ui) for cost_i, ui in zip(cost, u))
    alt = zeros - (m + n - 1)

    # A perturbed flow f is K*N + g' with |g'| <= G, so N > 0 iff f > G.
    # The root's flow is 0: it has no cell.
    cells = sorted((tree._cell(x), f) for x, f in enumerate(tree.flow) if f > g)
    flows = {cell: (f + g) // k for cell, f in cells}
    return flows, u, v, alt


def _perturbed(supply, demand):
    """``(G, K, supply, demand)`` with the masses perturbed as in the module docstring."""
    m, n = len(supply), len(demand)
    g = m * (n + 1)
    k = 2 * g + 1
    demand = [k * d + 1 for d in demand]
    demand[-1] += g - n
    return g, k, [k * s + n + 1 for s in supply], demand


def _entering(cost, u, v, start, block):
    """The entering cell ``(i, j, reduced_cost, next_start)``, or None at optimality.

    Rows ``start``, ``start + 1``, ... are scanned cyclically in blocks of
    ``block`` rows (a block also ends at the last row), and the most
    negative reduced cost of the first block that has a negative one is
    returned, smallest row-major index on ties, with the row after that
    block as ``next_start``.  Basic cells have reduced cost exactly 0, so
    scanning every cell considers only non-basic ones.
    """
    m = len(cost)
    best = 0
    entering = None
    i = start
    end = min(start + block, m)
    for _ in range(m):
        cost_i, ui = cost[i], u[i]
        lowest = min(map(sub, cost_i, v))
        if lowest - ui < best:
            best = lowest - ui
            entering = (i, list(map(sub, cost_i, v)).index(lowest), best)
        i += 1
        if i == end:
            i %= m
            if entering is not None:
                return (*entering, i)
            end = min(i + block, m)
    return None if entering is None else (*entering, i)


class _BasisTree:
    """Flows and potentials of a basis, kept as a spanning tree.

    Nodes are integers: sources 0..m-1 and sinks m..m+n-1.  Source 0 is the
    root and keeps potential 0.  Every other node ``x`` is joined to
    ``parent[x]`` by a basic cell, whose flow is ``flow[x]``.
    """

    def __init__(self, m, n):
        self.m = m
        self.flow = [0] * (m + n)
        self.parent = [-1] * (m + n)
        self.depth = [0] * (m + n)
        self.children = [set() for _ in range(m + n)]
        self.u = [0] * m
        self.v = [0] * n

    def _cell(self, x):
        """The basic cell joining node ``x`` to its parent."""
        m = self.m
        return (x, self.parent[x] - m) if x < m else (self.parent[x], x - m)

    def pivot(self, i0, j0, rc):
        """Pivot cell (i0, j0) of reduced cost ``rc`` in."""
        m, parent, depth, flow = self.m, self.parent, self.depth, self.flow
        # Walk both endpoints up to their common ancestor.  With the entering
        # cell taking +theta, the cycle's minus cells are those whose child
        # node is a source on the i0 side or a sink on the j0 side.
        a, b = i0, m + j0
        side_a, side_b = [], []
        while depth[a] > depth[b]:
            side_a.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            side_b.append(b)
            b = parent[b]
        while a != b:
            side_a.append(a)
            side_b.append(b)
            a, b = parent[a], parent[b]
        minus = [x for x in side_a if x < m] + [x for x in side_b if x >= m]
        plus = [x for x in side_a if x >= m] + [x for x in side_b if x < m]

        # The leaving cell's child node roots the subtree that is cut off; it
        # lies on the i0 side iff that node is a source.
        cut = min(minus, key=flow.__getitem__)
        theta = flow[cut]
        for x in minus:
            flow[x] -= theta
        for x in plus:
            flow[x] += theta
        if cut < m:
            start, anchor, du, dv = i0, m + j0, rc, -rc
        else:
            start, anchor, du, dv = m + j0, i0, -rc, rc
        self._rehang(cut, start, anchor, theta)

        # Shift the subtree's potentials so the entering cell gets reduced
        # cost 0, and renumber its depths.
        u, v, children = self.u, self.v, self.children
        depth[start] = depth[anchor] + 1
        stack = [start]
        while stack:
            x = stack.pop()
            if x < m:
                u[x] += du
            else:
                v[x - m] += dv
            d = depth[x] + 1
            for c in children[x]:
                depth[c] = d
                stack.append(c)

    def _rehang(self, cut, start, anchor, theta):
        """Re-root the subtree under ``cut`` at ``start``, hang it on ``anchor`` by ``theta``."""
        parent, children, flow = self.parent, self.children, self.flow
        children[parent[cut]].discard(cut)
        x, new_parent, f = start, anchor, theta
        while True:
            old_parent = parent[x]
            parent[x] = new_parent
            flow[x], f = f, flow[x]  # a path cell keeps its flow as it turns round
            children[new_parent].add(x)
            if x == cut:
                break
            children[old_parent].discard(x)
            x, new_parent = old_parent, x


def _row_minimum(supply, demand, cost):
    """Initial basis tree of m + n - 1 cells, filled row by row from each row's minimum.

    The masses must be perturbed, so that the cells form a spanning tree
    (module docstring); it is hung from source 0.
    """
    m, n = len(supply), len(demand)
    s = list(supply)
    d = list(demand)
    open_columns = list(range(n))
    adjacent = [[] for _ in range(m + n)]
    for i, cost_i in enumerate(cost):
        while True:
            j = min(open_columns, key=cost_i.__getitem__)
            theta = min(s[i], d[j])
            s[i] -= theta
            d[j] -= theta
            adjacent[i].append((m + j, theta))
            adjacent[m + j].append((i, theta))
            if s[i] == 0:
                break
            open_columns.remove(j)

    # Hang each node's neighbours but its parent below it, each with the
    # potential that gives its cell reduced cost 0.
    tree = _BasisTree(m, n)
    parent, depth, flow, u, v = tree.parent, tree.depth, tree.flow, tree.u, tree.v
    stack = [0]
    while stack:
        x = stack.pop()
        for y, theta in adjacent[x]:
            if y != parent[x]:
                parent[y] = x
                depth[y] = depth[x] + 1
                tree.children[x].add(y)
                flow[y] = theta
                if y < m:
                    u[y] = cost[y][x - m] - v[x - m]
                else:
                    v[y - m] = cost[x][y - m] - u[x]
                stack.append(y)
    return tree
