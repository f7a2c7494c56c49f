"""Partial transport plans: measures on X x X minus A x A.

A :class:`TransportPlan` is a finite list of (source, target, mass) entries;
no entry may have both endpoints on A.  The module provides cost and
marginal computations and the discrete gluing/composition used in the
triangle inequality.
"""

from dataclasses import dataclass

from .errors import MarginalMismatchError, PairMismatchError, check_exponent
from .measures import (
    DiscreteMeasure, _canonical_atoms, _finite_sum, _positive_mass, measures_close
)
from .pairs import MetricPair


@dataclass(frozen=True)
class TransportPlan:
    """Finitely supported plan; entries merged by (source, target), sorted.

    ``p`` records the exponent the plan was built for (informational).  A
    plan built by :func:`new_plan`, loaded by ``partialot.io`` or returned
    by the package has endpoints validated against ``pair``, which the
    package then reads with the pair's private twins; the dataclass
    constructor itself validates nothing.
    """

    pair: MetricPair
    entries: tuple  # ((src, dst, mass), ...)
    p: float

    @property
    def total_mass(self) -> float:
        """The sum of the masses, or FloatRangeError beyond the float range."""
        return _finite_sum(m for _, _, m in self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def __repr__(self):
        return f"TransportPlan({self.pair.kind}, {len(self.entries)} entries, p={self.p:g})"


def new_plan(pair, entries, p) -> TransportPlan:
    """Build a plan from (source, target, mass) triples.

    Entries with a non-positive or infinite mass, or with both endpoints in
    A (plans live on X x X minus A x A), are rejected; duplicate (source,
    target) pairs are merged, and a merged mass that overflows to inf is
    rejected.  Each endpoint is validated once.
    """
    p = check_exponent(p)
    validate = pair.validate_point
    checked = []
    for src, dst, mass in entries:
        src, dst = validate(src), validate(dst)
        mass = _positive_mass(mass, "entry {!r} -> {!r}", src, dst)
        if pair._in_A(src) and pair._in_A(dst):
            raise ValueError(f"entry {src!r} -> {dst!r} is supported on A x A")
        checked.append(((src, dst), mass))
    # A tuple of a list, not of a generator: a generator's tuple is resized
    # to fit, so each freed plan fills a CPython tuple free list that nothing
    # draws from, and peak memory grows.
    canon = tuple([(s, d, m) for (s, d), m in _canonical_atoms(checked)])
    return TransportPlan(pair, canon, p)


def cost(plan: TransportPlan, p) -> float:
    """Total transport cost: sum of mass * d(source, target)^p, or FloatRangeError past floats."""
    p = check_exponent(p)
    return _finite_sum(m * plan.pair._distance(s, d) ** p for s, d, m in plan.entries)


def marginals(plan: TransportPlan):
    """The two Omega-restricted marginals of the plan, as measures."""
    pair = plan.pair
    mu_atoms = []
    nu_atoms = []
    for s, d, m in plan.entries:
        if not pair._in_A(s):
            mu_atoms.append((s, m))
        if not pair._in_A(d):
            nu_atoms.append((d, m))
    return (
        DiscreteMeasure(pair, _canonical_atoms(mu_atoms)),
        DiscreteMeasure(pair, _canonical_atoms(nu_atoms)),
    )


@dataclass(frozen=True)
class GluedPlan:
    """A three-point coupling of two plans sharing a middle marginal.

    ``triples`` couple (first, middle, last) points.  The (1,2) and (2,3)
    projections recover the input plans plus a defect on the diagonal of
    A x A, which :func:`projection_12` and :func:`projection_23` return.
    """

    pair: MetricPair
    triples: tuple  # ((a, b, c, mass), ...)
    p: float

    @property
    def total_mass(self) -> float:
        """The sum of the masses, or FloatRangeError beyond the float range."""
        return _finite_sum(m for *_, m in self.triples)


def glue(plan12: TransportPlan, plan23: TransportPlan) -> GluedPlan:
    """Glue two plans along their common middle marginal.

    The middle marginals (mass arriving in Omega under ``plan12``, mass
    leaving Omega under ``plan23``) must have the same atoms, with masses
    equal to a relative 1e-10 (:func:`measures.measures_close`).  At each
    shared middle atom the incoming and outgoing masses are coupled
    proportionally.  Entries of ``plan12`` ending on A and entries of
    ``plan23`` starting on A become constant-middle triples, whose A x A
    projections are the diagonal defects.
    """
    if plan12.pair != plan23.pair:
        raise PairMismatchError("glued plans must live on the same pair")
    pair = plan12.pair

    incoming = {}  # middle point in Omega -> [(first point, mass)]
    outgoing = {}  # middle point in Omega -> [(last point, mass)]
    triples = []

    for s, d, m in plan12.entries:
        if pair._in_A(d):
            triples.append((s, d, d, m))
        else:
            incoming.setdefault(d, []).append((s, m))
    for s, d, m in plan23.entries:
        if pair._in_A(s):
            triples.append((s, s, d, m))
        else:
            outgoing.setdefault(s, []).append((d, m))

    middle_out = marginals(plan23)[0]
    if not measures_close(marginals(plan12)[1], middle_out, mass_tol=1e-10):
        raise MarginalMismatchError("the middle marginals of the glued plans differ")
    m_out = middle_out.mass_by_point()
    for y, srcs in incoming.items():
        for x, m in srcs:
            for z, n in outgoing[y]:
                triples.append((x, y, z, m * n / m_out[y]))

    return GluedPlan(pair, tuple(sorted(triples)), plan12.p)


def _project(glued: GluedPlan, first: int, last: int):
    pair = glued.pair
    kept = []
    diag = []
    for triple in glued.triples:
        a, b = triple[first], triple[last]
        if pair._in_A(a) and pair._in_A(b):
            # Pairs landing in A x A sit on the diagonal by construction.
            diag.append((a, triple[3]))
        else:
            kept.append(((a, b), triple[3]))
    # A tuple of a list, as in new_plan.
    entries = tuple([(s, d, m) for (s, d), m in _canonical_atoms(kept)])
    return TransportPlan(pair, entries, glued.p), _canonical_atoms(diag)


def projection_12(glued: GluedPlan):
    """(1,2)-projection split into a plan part and the A x A diagonal part."""
    return _project(glued, 0, 1)


def projection_23(glued: GluedPlan):
    """(2,3)-projection split into a plan part and the A x A diagonal part."""
    return _project(glued, 1, 2)


def compose(glued: GluedPlan) -> TransportPlan:
    """Project triples to their outer coordinates, dropping A x A pairs.

    The result is admissible between the outer marginals of the glued pair
    of plans, and its cost obeys the triangle bound used in the metric
    proof.
    """
    plan, _ = _project(glued, 0, 2)
    return plan
