"""Metric pairs (X, A): ambient spaces with a designated boundary subset.

A metric pair couples a metric space X with a closed non-empty subset A.
Measures live on the open complement of A, and mass may be created or
destroyed on A at the price of transporting it there.  This module ships the
concrete catalogue used by the rest of the package:

* :class:`HalfPlanePair`: X = {(a, b) : a <= b} in the plane with A the
  diagonal (the persistence-diagram setting),
* :class:`EuclideanBoxPair`: an axis-aligned box with its topological
  boundary,
* :class:`FinitePair`: an explicit finite metric space with a designated
  index subset, used for exhaustive oracles.

The Euclidean pairs are convex, hence geodesic; the finite pair is not.
Points are plain tuples of floats for the Euclidean pairs and integer
indices for finite pairs.  A point is only meaningful for the pair it was
validated against; mixing pairs raises :class:`InvalidPointError`.

All pair objects are immutable and hashable; they are safe to share between
threads.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FloatRangeError, InvalidPointError, UnsupportedPairError

Point = "tuple[float, ...] | int"

#: Default tolerance for deciding membership in A.  Interpolated atoms land
#: near A but rarely exactly on it in floating point.
DEFAULT_MEMBERSHIP_TOL = 1e-9

# Slack (relative) admitted when checking that a point lies inside X; covers
# round-off from convex combinations of valid points.
_CONTAINMENT_SLACK = 1e-12

_SQRT2 = math.sqrt(2.0)


class MetricPair:
    """Common interface of the pair catalogue.

    Subclasses provide ``validate_point`` and, on validated points,
    ``_distance``, ``_dist_to_A``, ``_project_A`` and, when
    ``geodesic_capable``, ``_geo_point``.  Each public method validates its
    points, then calls its private twin; the package calls the twins itself
    on points it has already validated.  :meth:`cost_matrix` builds the
    whole boundary-augmented matrix of transport costs in one pass that
    validates each atom once.
    Every cell is a dyadic rational, because every input is a float: the
    float cost read exactly, or genuinely exact arithmetic for p = 2 on the
    Euclidean pairs and integer p on finite pairs.  ``cost_cell`` and
    ``boundary_cell`` are single-cell views of that pass.
    """

    kind = "abstract"
    geodesic_capable = False

    def validate_point(self, x) -> Point:
        raise NotImplementedError

    def _distance(self, x, y) -> float:
        raise NotImplementedError

    def _dist_to_A(self, x) -> float:
        raise NotImplementedError

    def _project_A(self, x) -> Point:
        raise NotImplementedError

    def _in_A(self, x) -> bool:
        return self._dist_to_A(x) <= DEFAULT_MEMBERSHIP_TOL

    def _geo_point(self, x, y, t: float) -> Point:
        raise UnsupportedPairError(
            f"pair kind {self.kind!r} does not support geodesic evaluation"
        )

    def distance(self, x, y) -> float:
        return self._distance(self.validate_point(x), self.validate_point(y))

    def dist_to_A(self, x) -> float:
        return self._dist_to_A(self.validate_point(x))

    def project_A(self, x) -> Point:
        """A nearest point of A to x."""
        return self._project_A(self.validate_point(x))

    def in_A(self, x, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
        """True iff x is within tol of the boundary set A."""
        if tol < 0:
            raise ValueError("membership tolerance must be >= 0")
        return self._dist_to_A(self.validate_point(x)) <= tol

    def geo_point(self, x, y, t: float) -> Point:
        """The point at time t in [0, 1] on the segment from x to y."""
        t = _check_t(t)
        return self._geo_point(self.validate_point(x), self.validate_point(y), t)

    def cost_matrix(self, xs, ys, p) -> tuple:
        """The boundary-augmented cost matrix as ``(cells, scale)``.

        ``cells`` has len(xs) + 1 rows of len(ys) + 1 Python ints; cell
        (i, j) stands for ``cells[i][j] / scale``, and ``scale`` is a power of
        two.  Row i < len(xs) holds d(x_i, y_j)^p, then d(x_i, A)^p; the last
        row holds d(y_j, A)^p, then 0.  Here each cell is the float
        ``d ** p`` read exactly; subclasses override this for exact powers.
        A cost beyond the float range raises :class:`FloatRangeError`.
        """
        xs, ys = self._validated(xs, ys)
        try:
            rows = [
                [(self._distance(x, y) ** p).as_integer_ratio() for y in ys]
                + [(self._dist_to_A(x) ** p).as_integer_ratio()]
                for x in xs
            ]
            rows.append([(self._dist_to_A(y) ** p).as_integer_ratio() for y in ys] + [(0, 1)])
        except OverflowError as exc:
            raise FloatRangeError(f"value out of the float range: {exc}") from exc
        return _on_one_scale(rows)

    def _validated(self, xs, ys) -> tuple:
        return [self.validate_point(x) for x in xs], [self.validate_point(y) for y in ys]

    def cost_cell(self, x, y, p) -> Fraction:
        """Transport cost d(x, y)^p as an exact rational (a view of cost_matrix)."""
        cells, scale = self.cost_matrix((x,), (y,), p)
        return Fraction(cells[0][0], scale)

    def boundary_cell(self, x, p) -> Fraction:
        """Boundary cost d(x, A)^p as an exact rational (a view of cost_matrix)."""
        cells, scale = self.cost_matrix((x,), (), p)
        return Fraction(cells[0][0], scale)

    def describe(self) -> dict:
        raise NotImplementedError


def _on_one_scale(rows) -> tuple:
    """Rows of dyadic ratios (n, 2^e) as ints over their largest denominator."""
    bits = max(d.bit_length() for row in rows for _, d in row)
    return [[n << (bits - d.bit_length()) for n, d in row] for row in rows], 1 << (bits - 1)


def _on_one_grid(groups) -> tuple:
    """Groups of float points as int points on one grid of step 2^-k, and k."""
    ratios = [[[c.as_integer_ratio() for c in pt] for pt in group] for group in groups]
    bits = max((d.bit_length() for group in ratios for pt in group for _, d in pt), default=1)
    grid = [
        [[n << (bits - d.bit_length()) for n, d in pt] for pt in group] for group in ratios
    ]
    return grid, bits - 1


def is_number(value) -> bool:
    """True for int, float and Fraction values; bools and strings are not numbers."""
    return isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)


def as_number(value) -> float:
    """``value`` as a float, or TypeError unless :func:`is_number` holds."""
    if not is_number(value):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _as_coords(x, dim: int, pair: MetricPair) -> tuple:
    if is_number(x):
        raise InvalidPointError(
            f"pair kind {pair.kind!r} expects a coordinate sequence, got {x!r}"
        )
    try:
        coords = tuple(c if type(c) is float else as_number(c) for c in x)
    except (TypeError, OverflowError) as exc:
        raise InvalidPointError(f"not a coordinate sequence: {x!r}") from exc
    if len(coords) != dim:
        raise InvalidPointError(
            f"pair kind {pair.kind!r} expects {dim} coordinates, got {len(coords)}"
        )
    if not all(math.isfinite(c) for c in coords):
        raise InvalidPointError(f"non-finite coordinates: {x!r}")
    return coords


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {t}")
    return t


@dataclass(frozen=True)
class HalfPlanePair(MetricPair):
    """The closed half-plane above the diagonal with A = the diagonal.

    X = {(a, b) in R^2 : a <= b}, A = {(a, a)}.  This is the ambient pair of
    persistence diagrams: the distance to A of a point (a, b) is
    (b - a) / sqrt(2) and its projection is the diagonal midpoint.
    """

    kind = "half_plane"
    geodesic_capable = True

    def validate_point(self, x) -> tuple:
        a, b = _as_coords(x, 2, self)
        if a - b > _CONTAINMENT_SLACK * (1.0 + abs(a) + abs(b)):
            raise InvalidPointError(f"point {x!r} lies below the diagonal")
        return (a, b)

    _distance = staticmethod(math.dist)

    def _dist_to_A(self, x) -> float:
        a, b = x
        return max(0.0, b - a) / _SQRT2

    def _project_A(self, x) -> tuple:
        a, b = x
        mid = 0.5 * (a + b)
        return (mid, mid)

    def _geo_point(self, x, y, t: float) -> tuple:
        xa, xb = x
        ya, yb = y
        s = 1.0 - t
        return (s * xa + t * ya, s * xb + t * yb)

    def cost_matrix(self, xs, ys, p) -> tuple:
        """At p = 2 the exact squares |x - y|^2 and (b - a)^2 / 2 in int arithmetic."""
        if p != 2:
            return super().cost_matrix(xs, ys, p)
        xs, ys = self._validated(xs, ys)
        (xs, ys), k = _on_one_grid((xs, ys))
        # The scale 2^(2k + 1) takes the boundary's / 2, so direct cells double.
        rows = [
            [2 * ((xa - ya) ** 2 + (xb - yb) ** 2) for ya, yb in ys] + [max(0, xb - xa) ** 2]
            for xa, xb in xs
        ]
        rows.append([max(0, b - a) ** 2 for a, b in ys] + [0])
        return rows, 1 << (2 * k + 1)

    def describe(self) -> dict:
        return {"kind": "half_plane"}


def _canon_box_corner(v) -> tuple:
    if not all(is_number(c) for c in v):
        raise ValueError(f"box corner coordinates must be numbers, got {v!r}")
    return tuple(float(c) for c in v)


@dataclass(frozen=True)
class EuclideanBoxPair(MetricPair):
    """An axis-aligned box [lo, hi] with A its topological boundary.

    The bounded-domain setting: X is the closed box, A = boundary faces,
    Omega the open interior.  The box is convex, so straight segments are
    geodesics and stay in X.
    """

    lo: tuple
    hi: tuple

    kind = "euclidean_box"
    geodesic_capable = True

    def __post_init__(self):
        lo = _canon_box_corner(self.lo)
        hi = _canon_box_corner(self.hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("box corners must be non-empty and of equal length")
        if not all(math.isfinite(c) for c in lo + hi):
            raise ValueError("box corners must be finite")
        if not all(l < h for l, h in zip(lo, hi)):
            raise ValueError("box must satisfy lo < hi in every coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def validate_point(self, x) -> tuple:
        coords = _as_coords(x, self.dim, self)
        for c, l, h in zip(coords, self.lo, self.hi):
            slack = _CONTAINMENT_SLACK * (1.0 + abs(l) + abs(h))
            if c < l - slack or c > h + slack:
                raise InvalidPointError(f"point {x!r} lies outside the box")
        return coords

    _distance = staticmethod(math.dist)

    def _dist_to_A(self, x) -> float:
        best = math.inf
        for c, l, h in zip(x, self.lo, self.hi):
            best = min(best, c - l, h - c)
        return max(0.0, best)

    def _project_A(self, coords) -> tuple:
        # Among nearest face projections pick the lexicographically smallest
        # projected point, for determinism under exact ties.
        best = None
        for k, (c, l, h) in enumerate(zip(coords, self.lo, self.hi)):
            for face in (l, h):
                cand = coords[:k] + (face,) + coords[k + 1 :]
                key = (abs(c - face), cand)
                if best is None or key < best:
                    best = key
        return best[1]

    def _geo_point(self, x, y, t: float) -> tuple:
        s = 1.0 - t
        return tuple(s * a + t * b for a, b in zip(x, y))

    def cost_matrix(self, xs, ys, p) -> tuple:
        """At p = 2 the exact squares |x - y|^2 and d(x, A)^2 in int arithmetic."""
        if p != 2:
            return super().cost_matrix(xs, ys, p)
        xs, ys = self._validated(xs, ys)
        (xs, ys, (lo, hi)), k = _on_one_grid((xs, ys, (self.lo, self.hi)))

        def to_A(pt):
            return max(0, min(min(c - l, h - c) for c, l, h in zip(pt, lo, hi))) ** 2

        rows = [
            [sum((a - b) ** 2 for a, b in zip(x, y)) for y in ys] + [to_A(x)] for x in xs
        ]
        rows.append([to_A(y) for y in ys] + [0])
        return rows, 1 << (2 * k)

    def describe(self) -> dict:
        return {"kind": "euclidean_box", "lo": list(self.lo), "hi": list(self.hi)}


@dataclass(frozen=True)
class FinitePair(MetricPair):
    """A finite metric space given by a distance table, with A an index set.

    The table is validated exhaustively at construction: symmetry, zero
    diagonal, positivity off the diagonal and every triangle inequality.
    Finite pairs are not geodesic; geodesic operations reject them.
    """

    table: tuple
    subset: frozenset

    kind = "finite"
    geodesic_capable = False

    def __post_init__(self):
        if not all(is_number(d) for row in self.table for d in row):
            raise ValueError("distance table entries must be numbers")
        table = tuple(tuple(float(d) for d in row) for row in self.table)
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise ValueError("distance table must be square and non-empty")
        for i in range(n):
            if table[i][i] != 0.0:
                raise ValueError(f"diagonal entry ({i},{i}) must be zero")
            for j in range(n):
                d = table[i][j]
                if not math.isfinite(d) or d < 0.0:
                    raise ValueError(f"distance ({i},{j}) must be finite and >= 0")
                if i != j and d == 0.0:
                    raise ValueError(f"distinct points {i},{j} at distance zero")
                if table[j][i] != d:
                    raise ValueError(f"table not symmetric at ({i},{j})")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if table[i][k] > table[i][j] + table[j][k]:
                        raise ValueError(
                            f"triangle inequality fails: d({i},{k}) > d({i},{j}) + d({j},{k})"
                        )
        if not all(isinstance(a, int) and not isinstance(a, bool) for a in self.subset):
            raise ValueError("subset A must hold integer indices")
        subset = frozenset(self.subset)
        if not subset:
            raise ValueError("subset A must be non-empty")
        if not all(0 <= a < n for a in subset):
            raise ValueError("subset A contains out-of-range indices")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "subset", subset)

    @property
    def size(self) -> int:
        return len(self.table)

    def validate_point(self, x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise InvalidPointError(f"finite pair expects an integer index, got {x!r}")
        if not 0 <= x < self.size:
            raise InvalidPointError(f"index {x} out of range for {self.size} points")
        return x

    def _distance(self, x, y) -> float:
        return self.table[x][y]

    def _dist_to_A(self, x) -> float:
        return min(self.table[x][a] for a in self.subset)

    def _project_A(self, x) -> int:
        # Smallest index among nearest boundary points.
        return min(self.subset, key=lambda a: (self.table[x][a], a))

    def cost_matrix(self, xs, ys, p) -> tuple:
        """At integer p the exact powers (n / d)^p = n^p / d^p of the table entries."""
        if not float(p).is_integer():
            return super().cost_matrix(xs, ys, p)
        k = int(p)
        xs, ys = self._validated(xs, ys)

        def power(d):
            n, q = d.as_integer_ratio()
            return n**k, q**k

        rows = [
            [power(self._distance(x, y)) for y in ys] + [power(self._dist_to_A(x))] for x in xs
        ]
        rows.append([power(self._dist_to_A(y)) for y in ys] + [(0, 1)])
        return _on_one_scale(rows)

    def describe(self) -> dict:
        return {
            "kind": "finite",
            "dist": [list(row) for row in self.table],
            "A": sorted(self.subset),
        }


def pair_from_description(desc: dict) -> MetricPair:
    """Build a pair from its description mapping (see ``describe``)."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError(f"pair description must be a mapping with a 'kind' key: {desc!r}")
    kind = desc["kind"]
    if kind == "half_plane":
        return HalfPlanePair()
    if kind == "euclidean_box":
        try:
            return EuclideanBoxPair(tuple(desc["lo"]), tuple(desc["hi"]))
        except KeyError as exc:
            raise ValueError(f"euclidean_box description missing {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"euclidean_box corners must be lists of numbers: {exc}") from exc
    if kind == "finite":
        try:
            return FinitePair(tuple(tuple(r) for r in desc["dist"]), frozenset(desc["A"]))
        except KeyError as exc:
            raise ValueError(f"finite description missing {exc}") from exc
        except TypeError as exc:
            raise ValueError(
                f"finite description needs a list of distance rows and a list of indices: {exc}"
            ) from exc
    raise ValueError(f"unknown pair kind {kind!r}")
