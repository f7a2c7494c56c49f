"""Partial transport plans: measures on X x X minus A x A.

A :class:`TransportPlan` is a finite list of (source, target, mass) entries;
no entry may have both endpoints on A.  The module provides cost and
marginal computations, the three-way decomposition by endpoint location,
and the discrete gluing/composition used in the triangle inequality.
"""

import math
from dataclasses import dataclass

from .errors import (
    MarginalMismatchError,
    NonPositiveMassError,
    PairMismatchError,
    check_exponent,
)
from .measures import DiscreteMeasure, _canonical_atoms
from .pairs import MetricPair, as_number


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
        return sum(m for _, _, m in self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def __repr__(self):
        return f"TransportPlan({self.pair.kind}, {len(self.entries)} entries, p={self.p:g})"


def new_plan(pair, entries, p) -> TransportPlan:
    """Build a plan from (source, target, mass) triples.

    Entries with a non-positive or infinite mass, or with both endpoints in
    A (plans live on X x X minus A x A), are rejected; duplicate (source,
    target) pairs are merged.  Each endpoint is validated once.
    """
    p = check_exponent(p)
    validate = pair.validate_point
    return _plan(pair, ((validate(s), validate(d), m) for s, d, m in entries), p)


def _plan(pair, entries, p: float) -> TransportPlan:
    """:func:`new_plan` on validated endpoints and a checked exponent."""
    merged = {}
    for src, dst, mass in entries:
        mass = as_number(mass)
        if not mass > 0.0:
            raise NonPositiveMassError(f"entry {src!r} -> {dst!r} has non-positive mass {mass}")
        if mass == math.inf:
            raise NonPositiveMassError(f"entry {src!r} -> {dst!r} has infinite mass")
        if pair._in_A(src) and pair._in_A(dst):
            raise ValueError(f"entry {src!r} -> {dst!r} is supported on A x A")
        merged[(src, dst)] = merged.get((src, dst), 0.0) + mass
    # A tuple of a list, not of a generator: a generator's tuple is resized
    # to fit, so each freed plan fills a CPython tuple free list that nothing
    # draws from, and peak memory grows.
    canon = tuple([(s, d, m) for (s, d), m in sorted(merged.items())])
    return TransportPlan(pair, canon, p)


def cost(plan: TransportPlan, p) -> float:
    """Total transport cost: sum of mass * d(source, target)^p."""
    p = check_exponent(p)
    return sum(m * plan.pair._distance(s, d) ** p for s, d, m in plan.entries)


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


def decompose(plan: TransportPlan):
    """Split the plan into its interior, outgoing and incoming parts.

    Returns (interior Omega->Omega, outgoing Omega->A, incoming A->Omega);
    the three parts partition the entries and preserve masses exactly.
    """
    pair = plan.pair
    interior, outgoing, incoming = [], [], []
    for entry in plan.entries:
        s, d, _ = entry
        s_in = pair._in_A(s)
        d_in = pair._in_A(d)
        if not s_in and not d_in:
            interior.append(entry)
        elif not s_in:
            outgoing.append(entry)
        else:
            incoming.append(entry)
    return (
        TransportPlan(pair, tuple(interior), plan.p),
        TransportPlan(pair, tuple(outgoing), plan.p),
        TransportPlan(pair, tuple(incoming), plan.p),
    )


@dataclass(frozen=True)
class GluedPlan:
    """A three-point coupling of two plans sharing a middle marginal.

    ``triples`` couple (first, middle, last) points; ``defect12`` and
    ``defect23`` are the masses added on the diagonal of A x A so that the
    (1,2) and (2,3) projections recover the input plans plus these defects.
    """

    pair: MetricPair
    triples: tuple  # ((a, b, c, mass), ...)
    defect12: tuple  # ((boundary point, mass), ...)
    defect23: tuple
    p: float

    @property
    def total_mass(self) -> float:
        return sum(m for *_, m in self.triples)


def glue(plan12: TransportPlan, plan23: TransportPlan) -> GluedPlan:
    """Glue two plans along their common middle marginal.

    The middle marginals (mass arriving in Omega under ``plan12``, mass
    leaving Omega under ``plan23``) must agree atom-for-atom within
    a relative 1e-10; points are compared exactly.  At each shared middle atom
    the incoming and outgoing masses are coupled proportionally.  Entries of
    ``plan12`` ending on A and entries of ``plan23`` starting on A become
    constant-middle triples, with matching diagonal defects.
    """
    if plan12.pair != plan23.pair:
        raise PairMismatchError("glued plans must live on the same pair")
    pair = plan12.pair

    incoming = {}  # middle point in Omega -> [(first point, mass)]
    outgoing = {}  # middle point in Omega -> [(last point, mass)]
    triples = []
    defect12 = {}
    defect23 = {}

    for s, d, m in plan12.entries:
        if pair._in_A(d):
            triples.append((s, d, d, m))
            defect23[d] = defect23.get(d, 0.0) + m
        else:
            incoming.setdefault(d, []).append((s, m))
    for s, d, m in plan23.entries:
        if pair._in_A(s):
            triples.append((s, s, d, m))
            defect12[s] = defect12.get(s, 0.0) + m
        else:
            outgoing.setdefault(s, []).append((d, m))

    if set(incoming) != set(outgoing):
        only12 = set(incoming) - set(outgoing)
        only23 = set(outgoing) - set(incoming)
        raise MarginalMismatchError(
            f"middle marginals differ: {len(only12)} atoms only incoming, {len(only23)} only outgoing"
        )
    for y in incoming:
        m_in = sum(m for _, m in incoming[y])
        m_out = sum(m for _, m in outgoing[y])
        if abs(m_in - m_out) > 1e-10 * (1.0 + max(m_in, m_out)):
            raise MarginalMismatchError(
                f"middle marginal mass mismatch at {y!r}: {m_in} vs {m_out}"
            )
        for x, m in incoming[y]:
            for z, n in outgoing[y]:
                triples.append((x, y, z, m * n / m_out))

    return GluedPlan(
        pair,
        tuple(sorted(triples)),
        tuple(sorted(defect12.items())),
        tuple(sorted(defect23.items())),
        plan12.p,
    )


def _project(glued: GluedPlan, first: int, last: int):
    pair = glued.pair
    kept = {}
    diag = {}
    for triple in glued.triples:
        a, b = triple[first], triple[last]
        m = triple[3]
        if pair._in_A(a) and pair._in_A(b):
            # Pairs landing in A x A sit on the diagonal by construction.
            diag[a] = diag.get(a, 0.0) + m
        else:
            kept[(a, b)] = kept.get((a, b), 0.0) + m
    # A tuple of a list, as in new_plan.
    plan = TransportPlan(
        pair, tuple([(s, d, m) for (s, d), m in sorted(kept.items())]), glued.p
    )
    return plan, tuple(sorted(diag.items()))


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
