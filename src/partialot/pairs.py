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
  index subset.

The Euclidean pairs are convex, hence geodesic; the finite pair is not.
Points are plain tuples of floats for the Euclidean pairs and integer
indices for finite pairs.  A point is only meaningful for the pair it was
validated against; mixing pairs raises :class:`InvalidPointError`.
Both decisions on a point are exact: it is in X iff its coordinates satisfy
X's inequalities, and on A iff its distance to A is exactly 0.  With no
tolerance, a scaled copy of an input is decided as the input is.  Geodesic
points of X stay in X: on the half-plane because rounding is monotone,
and on the box because each coordinate is clamped to its range.

All pair objects are immutable and hashable; they are safe to share between
threads.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FloatRangeError, InvalidPointError, UnsupportedPairError, as_number, is_number, shown,
)

Point = "tuple[float, ...] | int"

_SQRT2 = math.sqrt(2.0)

#: Bits of the widest exact cube of a float (a least subnormal's denominator
#: 2^1074 is 1 075 bits), so every finite-pair cell at p <= 3 stays exact.
#: Past it, a finite pair at integer p takes the float path rather than build
#: ever wider exact powers.
_MAX_CELL_BITS = 3 * (sys.float_info.mant_dig - sys.float_info.min_exp + 1)


class MetricPair:
    """Common interface of the pair catalogue.

    Subclasses provide ``validate_point`` and, on validated points,
    ``_distance``, ``_dist_to_A``, ``_project_A`` and, when
    ``geodesic_capable``, ``_geo_point``; they may override ``_cost_matrix``
    for exact powers.  Each public method validates its points, then calls
    its private twin; the package calls the twins itself on points it has
    already validated, such as a measure's atoms or a plan's endpoints.
    :meth:`cost_matrix` validates each atom once, then builds the whole
    boundary-augmented matrix of transport costs in one pass.
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
        return self._dist_to_A(x) == 0.0

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

    def in_A(self, x) -> bool:
        """True iff x lies on the boundary set A: its distance to A is exactly 0."""
        return self._in_A(self.validate_point(x))

    def geo_point(self, x, y, t: float) -> Point:
        """The point at time t in [0, 1] on the segment from x to y."""
        t = _check_t(t)
        return self._geo_point(self.validate_point(x), self.validate_point(y), t)

    def cost_matrix(self, xs, ys, p) -> tuple:
        """The boundary-augmented cost matrix as ``(cells, scale)``.

        ``cells`` has len(xs) + 1 rows of len(ys) + 1 Python ints; cell
        (i, j) stands for ``cells[i][j] / scale``, and ``scale`` is a power of
        two.  Row i < len(xs) holds d(x_i, y_j)^p, then d(x_i, A)^p; the last
        row holds d(y_j, A)^p, then 0.  Each cell is the float ``d ** p``
        read exactly, or an exact power where the pair has one.  A cost
        beyond the float range, or a positive distance whose ``d ** p``
        underflows to 0, raises :class:`FloatRangeError`.
        """
        validate = self.validate_point
        return self._cost_matrix([validate(x) for x in xs], [validate(y) for y in ys], p)

    def _cost_matrix(self, xs, ys, p) -> tuple:
        try:
            rows = [
                [(self._distance(x, y) ** p).as_integer_ratio() for y in ys]
                + [(self._dist_to_A(x) ** p).as_integer_ratio()]
                for x in xs
            ]
            rows.append([(self._dist_to_A(y) ** p).as_integer_ratio() for y in ys])
        except OverflowError as exc:
            raise FloatRangeError(f"value out of the float range: {exc}") from exc
        # Zero cells are rare (equal points), so only they are looked at again.
        if any((0, 1) in row for row in rows):
            self._check_underflow(xs, ys, p, rows)
        rows[-1].append((0, 1))
        cells, k = _dyadic(rows)
        return cells, 1 << k

    def _check_underflow(self, xs, ys, p, rows):
        dists = [[self._distance(x, y) for y in ys] + [self._dist_to_A(x)] for x in xs]
        dists.append([self._dist_to_A(y) for y in ys])
        for drow, row in zip(dists, rows):
            for d, cell in zip(drow, row):
                if d > 0.0 and cell == (0, 1):
                    raise FloatRangeError(f"value out of the float range: {d!r} ** {p} is 0")

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


def _dyadic(rows, k: int = 0) -> tuple:
    """Rows of dyadic ratios (n, 2^e) as ints over 2^k, for the least k at or above the given one.

    Each int over 2^k equals its ratio exactly; empty rows keep the given k.
    """
    k = max(k, max((d.bit_length() for row in rows for _, d in row), default=0) - 1)
    return [[n << (k + 1 - d.bit_length()) for n, d in row] for row in rows], k


def _as_coords(x, dim: int, pair: MetricPair) -> tuple:
    if is_number(x):
        raise InvalidPointError(
            f"pair kind {pair.kind!r} expects a coordinate sequence, got {shown(x)}"
        )
    try:
        coords = tuple(c if type(c) is float else as_number(c) for c in x)
    except TypeError as exc:
        raise InvalidPointError(f"not a coordinate sequence: {shown(x)}") from exc
    if len(coords) != dim:
        raise InvalidPointError(
            f"pair kind {pair.kind!r} expects {dim} coordinates, got {len(coords)}"
        )
    if not all(math.isfinite(c) for c in coords):
        raise InvalidPointError(f"non-finite coordinates: {shown(x)}")
    return coords


def _check_t(t) -> float:
    if not (is_number(t) and 0.0 <= float(t) <= 1.0):
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {shown(t)}")
    return float(t)


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
        if a > b:
            raise InvalidPointError(f"point {shown(x)} lies below the diagonal")
        return (a, b)

    _distance = staticmethod(math.dist)

    def _dist_to_A(self, x) -> float:
        a, b = x
        d = (b - a) / _SQRT2  # inf only where b - a overflows; the distance may be finite
        return d if d < math.inf else b / _SQRT2 - a / _SQRT2

    def _project_A(self, x) -> tuple:
        a, b = x
        mid = 0.5 * (a + b)
        if not math.isfinite(mid):  # a + b overflows, yet its half does not
            mid = 0.5 * a + 0.5 * b
        return (mid, mid)

    def _geo_point(self, x, y, t: float) -> tuple:
        xa, xb = x
        ya, yb = y
        s = 1.0 - t
        return (s * xa + t * ya, s * xb + t * yb)

    def _cost_matrix(self, xs, ys, p) -> tuple:
        """At p = 2 the exact squares |x - y|^2 and (b - a)^2 / 2 in int arithmetic."""
        if p != 2:
            return super()._cost_matrix(xs, ys, p)
        m = len(xs)
        grid, k = _dyadic([[c.as_integer_ratio() for c in pt] for pt in (*xs, *ys)])
        xs, ys = grid[:m], grid[m:]
        # The scale 2^(2k + 1) takes the boundary's / 2, so direct cells double.
        rows = [
            [2 * ((xa - ya) ** 2 + (xb - yb) ** 2) for ya, yb in ys] + [(xb - xa) ** 2]
            for xa, xb in xs
        ]
        rows.append([(b - a) ** 2 for a, b in ys] + [0])
        return rows, 1 << (2 * k + 1)

    def describe(self) -> dict:
        return {"kind": "half_plane"}


def _canon_box_corner(v) -> tuple:
    if not all(is_number(c) for c in v):
        raise ValueError(f"box corners must be numbers within the float range, got {shown(v)}")
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
            if not l <= c <= h:
                raise InvalidPointError(f"point {shown(x)} lies outside the box")
        return coords

    _distance = staticmethod(math.dist)

    def _dist_to_A(self, x) -> float:
        return min(min(c - l, h - c) for c, l, h in zip(x, self.lo, self.hi))

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
        # A face coordinate c of both points can round past it (s * c + t * c
        # != c); the clamp keeps the point in X and moves no point inside it.
        s = 1.0 - t
        return tuple(
            min(max(s * a + t * b, l), h) for a, b, l, h in zip(x, y, self.lo, self.hi)
        )

    def _cost_matrix(self, xs, ys, p) -> tuple:
        """At p = 2 the exact squares |x - y|^2 and d(x, A)^2 in int arithmetic."""
        if p != 2:
            return super()._cost_matrix(xs, ys, p)
        m, points = len(xs), (*xs, *ys, self.lo, self.hi)
        grid, k = _dyadic([[c.as_integer_ratio() for c in pt] for pt in points])
        xs, ys, (lo, hi) = grid[:m], grid[m:-2], grid[-2:]

        def to_A(pt):
            return min(min(c - l, h - c) for c, l, h in zip(pt, lo, hi)) ** 2

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
            raise ValueError("distance table entries must be numbers within the float range")
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
            raise InvalidPointError(f"finite pair expects an integer index, got {shown(x)}")
        if not 0 <= x < self.size:
            raise InvalidPointError(f"index {shown(x)} out of range for {self.size} points")
        return x

    def _distance(self, x, y) -> float:
        return self.table[x][y]

    def _dist_to_A(self, x) -> float:
        return min(self.table[x][a] for a in self.subset)

    def _project_A(self, x) -> int:
        # Smallest index among nearest boundary points.
        return min(self.subset, key=lambda a: (self.table[x][a], a))

    def _cost_matrix(self, xs, ys, p) -> tuple:
        """At integer p, exact powers n^p / d^p of the entries up to ``_MAX_CELL_BITS`` bits."""
        if not float(p).is_integer():
            return super()._cost_matrix(xs, ys, p)
        k = int(p)
        rows = [
            [self._distance(x, y).as_integer_ratio() for y in ys]
            + [self._dist_to_A(x).as_integer_ratio()]
            for x in xs
        ]
        rows.append([self._dist_to_A(y).as_integer_ratio() for y in ys] + [(0, 1)])
        if k * max(v.bit_length() for row in rows for cell in row for v in cell) > _MAX_CELL_BITS:
            return super()._cost_matrix(xs, ys, p)
        cells, e = _dyadic([[(n**k, q**k) for n, q in row] for row in rows])
        return cells, 1 << e

    def describe(self) -> dict:
        return {
            "kind": "finite",
            "dist": [list(row) for row in self.table],
            "A": sorted(self.subset),
        }


def pair_from_description(desc: dict) -> MetricPair:
    """Build a pair from its description mapping (see ``describe``)."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError(f"pair description must be a mapping with a 'kind' key: {shown(desc)}")
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
    raise ValueError(f"unknown pair kind {shown(kind)}")
