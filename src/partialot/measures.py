"""Finitely supported non-negative measures on Omega = X \\ A.

A :class:`DiscreteMeasure` is a finite list of (point, mass) atoms, all
strictly off the boundary set.  Atoms at identical points are merged at
construction, so measures are canonical and structurally comparable.
:class:`PersistenceDiagram` is the unit-mass multiset view used by the
diagram-distance machinery.
"""

import math
from dataclasses import dataclass

from .errors import AtomOnBoundaryError, NonPositiveMassError, check_exponent
from .pairs import HalfPlanePair, MetricPair, as_number


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
        return sum(m for _, m in self.atoms)

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    def mass_by_point(self) -> dict:
        return {pt: m for pt, m in self.atoms}

    def __repr__(self):
        return f"DiscreteMeasure({self.pair.kind}, {len(self.atoms)} atoms, mass {self.total_mass:g})"


def _canonical_atoms(raw) -> tuple:
    merged = {}
    for pt, m in raw:
        merged[pt] = merged.get(pt, 0.0) + m
    return tuple(sorted(merged.items()))


def new_measure(pair, atoms) -> DiscreteMeasure:
    """Build a measure from (point, mass) pairs.

    Duplicate points are allowed and merged (multiset semantics).  Each
    point is validated once.  Atoms with a non-positive or infinite mass, or
    in A (``pair.in_A``), are rejected.
    An empty atom list yields the zero measure.
    """
    checked = []
    for pt, mass in atoms:
        pt = pair.validate_point(pt)
        mass = as_number(mass)
        if not mass > 0.0:
            raise NonPositiveMassError(f"atom at {pt!r} has non-positive mass {mass}")
        if mass == math.inf:
            raise NonPositiveMassError(f"atom at {pt!r} has infinite mass")
        if pair._in_A(pt):
            raise AtomOnBoundaryError(f"atom at {pt!r} lies on the boundary set A")
        checked.append((pt, mass))
    return DiscreteMeasure(pair, _canonical_atoms(checked))


def zero_measure(pair) -> DiscreteMeasure:
    return DiscreteMeasure(pair, ())


def p_energy(mu: DiscreteMeasure, p) -> float:
    """The p-th power moment of the distance to A: sum of mass * d(x, A)^p.

    Its p-th root is the distance from mu to the zero measure.
    """
    p = check_exponent(p)
    return sum(m * mu.pair._dist_to_A(pt) ** p for pt, m in mu.atoms)


def truncate(mu: DiscreteMeasure, r) -> DiscreteMeasure:
    """Restrict mu to the atoms with d(x, A) > r (strict).

    Idempotent for fixed r; the result is atomwise dominated by mu.
    """
    r = float(r)
    if not r > 0.0:
        raise ValueError(f"truncation radius must be positive, got {r}")
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


def measures_close(a: DiscreteMeasure, b: DiscreteMeasure, coord_tol: float, mass_tol: float) -> bool:
    """Atom-for-atom comparison in canonical order.

    Paired atoms may lie up to ``coord_tol`` apart (0 asks for equal points)
    and their masses may differ by ``mass_tol`` relative to the larger one.
    Assumes atoms are separated by much more than ``coord_tol`` (generic
    instances), so pairing them in canonical order is the right pairing.
    """
    if len(a.atoms) != len(b.atoms):
        return False
    for (pa, ma), (pb, mb) in zip(a.atoms, b.atoms):
        if pa != pb and a.pair._distance(pa, pb) > coord_tol:
            return False
        if abs(ma - mb) > mass_tol * (1.0 + max(ma, mb)):
            return False
    return True


def diagram_to_measure(sigma: PersistenceDiagram) -> DiscreteMeasure:
    """Embed a diagram as the sum of unit Dirac masses at its points."""
    counts = {}
    for pt in sigma.points:
        counts[pt] = counts.get(pt, 0.0) + 1.0
    return DiscreteMeasure(sigma.pair, tuple(sorted(counts.items())))
