"""Finitely supported non-negative measures on Omega = X \\ A.

A :class:`DiscreteMeasure` is a finite list of (point, mass) atoms, all
strictly off the boundary set.  Atoms at identical points are merged at
construction, so measures are canonical and structurally comparable.
:class:`PersistenceDiagram` is the unit-mass multiset view used by the
diagram-distance machinery.
"""

import math
from dataclasses import dataclass
from itertools import groupby

from .errors import (
    AtomOnBoundaryError, FloatRangeError, NonPositiveMassError,
    as_number, check_exponent, check_tol, is_number, shown,
)
from .pairs import HalfPlanePair, MetricPair


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported measure on Omega: canonical sorted atom tuple.

    A measure built by :func:`new_measure`, loaded by ``partialot.io`` or
    returned by the package holds points validated against ``pair``, so the
    package reads them with the pair's private twins without validating
    again.  The dataclass constructor itself validates nothing.
    """

    pair: MetricPair
    atoms: tuple  # ((point, mass), ...) merged by point, sorted

    @property
    def total_mass(self) -> float:
        """The sum of the masses, or FloatRangeError beyond the float range."""
        return _finite_sum(m for _, m in self.atoms)

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    def mass_by_point(self) -> dict:
        return {pt: m for pt, m in self.atoms}

    def __repr__(self):
        try:
            mass = f"mass {self.total_mass:g}"
        except FloatRangeError:
            mass = "mass out of the float range"
        return f"DiscreteMeasure({self.pair.kind}, {len(self.atoms)} atoms, {mass})"


def _positive_mass(mass, what: str, *where) -> float:
    """``mass`` if positive and finite, else NonPositiveMassError on what.format(*where)."""
    mass = as_number(mass)
    if 0.0 < mass < math.inf:
        return mass
    what = what.format(*where)
    if mass == math.inf:
        raise NonPositiveMassError(f"{what} has infinite mass")
    raise NonPositiveMassError(f"{what} has non-positive mass {mass}")


def _canonical_atoms(raw) -> tuple:
    """``(key, mass)`` pairs merged by key and sorted; NonPositiveMassError if a sum is inf."""
    merged = {}
    for key, m in raw:
        merged[key] = merged.get(key, 0.0) + m
    if math.inf in merged.values():
        key = min(k for k, m in merged.items() if m == math.inf)
        raise NonPositiveMassError(f"the masses at {key!r} sum to an infinite mass")
    return tuple(sorted(merged.items()))


def _finite_sum(terms) -> float:
    """The sum of non-negative float terms, or FloatRangeError beyond the float range."""
    try:
        total = sum(terms)
    except OverflowError as exc:
        raise FloatRangeError(f"value out of the float range: {exc}") from exc
    if total == math.inf:
        raise FloatRangeError("value out of the float range: the sum is inf")
    return total


def new_measure(pair, atoms) -> DiscreteMeasure:
    """Build a measure from (point, mass) pairs.

    Duplicate points are allowed and merged (multiset semantics).  Each
    point is validated once.  Atoms with a non-positive or infinite mass, or
    on A (at distance exactly 0 from it, ``pair.in_A``), are rejected, and so
    are merged masses that overflow.  An empty atom list yields the zero measure.
    """
    checked = []
    for pt, mass in atoms:
        pt = pair.validate_point(pt)
        mass = _positive_mass(mass, "atom at {!r}", pt)
        if pair._in_A(pt):
            raise AtomOnBoundaryError(f"atom at {pt!r} lies on the boundary set A")
        checked.append((pt, mass))
    return DiscreteMeasure(pair, _canonical_atoms(checked))


def zero_measure(pair) -> DiscreteMeasure:
    return DiscreteMeasure(pair, ())


def p_energy(mu: DiscreteMeasure, p) -> float:
    """The p-th power moment of the distance to A: sum of mass * d(x, A)^p.

    Its p-th root is the distance from mu to the zero measure.  FloatRangeError past floats.
    """
    p = check_exponent(p)
    return _finite_sum(m * mu.pair._dist_to_A(pt) ** p for pt, m in mu.atoms)


def truncate(mu: DiscreteMeasure, r) -> DiscreteMeasure:
    """Restrict mu to the atoms with d(x, A) > r (strict).

    Idempotent for fixed r; the result is atomwise dominated by mu.
    """
    if not (is_number(r) and float(r) > 0.0):
        raise ValueError(f"truncation radius must be positive, got {shown(r)}")
    r = float(r)
    kept = tuple((pt, m) for pt, m in mu.atoms if mu.pair._dist_to_A(pt) > r)
    return DiscreteMeasure(mu.pair, kept)


@dataclass(frozen=True)
class PersistenceDiagram:
    """A finite multiset of off-boundary points, one unit of mass each.

    Built by :func:`new_diagram` or loaded by ``partialot.io``, its points
    are validated against ``pair``, as a :class:`DiscreteMeasure`'s are; the
    dataclass constructor itself validates nothing.
    """

    pair: MetricPair
    points: tuple  # sorted, with multiplicity

    @property
    def size(self) -> int:
        return len(self.points)

    def __repr__(self):
        return f"PersistenceDiagram({self.pair.kind}, {self.size} points)"


def new_diagram(points, pair=None) -> PersistenceDiagram:
    """Build a diagram from a point multiset (half-plane pair by default)."""
    if pair is None:
        pair = HalfPlanePair()
    checked = []
    for pt in points:
        pt = pair.validate_point(pt)
        if pair._in_A(pt):
            raise AtomOnBoundaryError(f"diagram point {pt!r} lies on the boundary set A")
        checked.append(pt)
    return PersistenceDiagram(pair, tuple(sorted(checked)))


def measures_close(a: DiscreteMeasure, b: DiscreteMeasure, mass_tol: float) -> bool:
    """True iff a and b have atoms at the same points, with close masses.

    Atoms are paired in canonical order, which pairs equal points.  Paired
    masses may differ by ``mass_tol`` times the larger one, a purely
    relative rule that gives every mass scale the same answer.  A negative
    or non-finite ``mass_tol`` raises ValueError.
    """
    mass_tol = check_tol(mass_tol, "mass tolerance")
    if len(a.atoms) != len(b.atoms):
        return False
    for (pa, ma), (pb, mb) in zip(a.atoms, b.atoms):
        if pa != pb or abs(ma - mb) > mass_tol * max(ma, mb):
            return False
    return True


def diagram_to_measure(sigma: PersistenceDiagram) -> DiscreteMeasure:
    """Embed a diagram as the sum of unit Dirac masses at its points.

    The points are sorted, so equal points form runs, and each run is one
    atom whose mass is its length.
    """
    atoms = tuple([(pt, float(len(list(run)))) for pt, run in groupby(sigma.points)])
    return DiscreteMeasure(sigma.pair, atoms)
