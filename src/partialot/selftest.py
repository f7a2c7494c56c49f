"""Property-based acceptance suite at desk scale.

Each criterion draws seeded random instances, exercises the full pipeline
and reports a pass/fail with the worst observed violation.  The pytest
acceptance module runs these functions at their default (full) counts; the
CLI ``self-test`` command runs the same functions, optionally scaled down.

All randomness is derived from an explicit seed, so runs are reproducible.
"""

import functools
import math
import random
import time
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from . import certify
from .errors import InadmissiblePlanError
from .geodesic import (
    angle_at_zero,
    check_constant_speed,
    curvature_margins,
    geodesic_path,
    interpolate,
)
from .measures import (
    diagram_to_measure,
    measures_close,
    new_diagram,
    new_measure,
    p_energy,
    truncate,
    zero_measure,
)
from .oracle import brute_force_diagram, brute_force_wb
from .pairs import EuclideanBoxPair, HalfPlanePair
from .plans import compose, cost as plan_cost, glue, new_plan, projection_12, projection_23
from .solver import solve, solve_detail, wb_distance

DEFAULT_SEED = 20260811

_HALF_PLANE = HalfPlanePair()
_BOX = EuclideanBoxPair((0.0, 0.0), (4.0, 4.0))


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    worst: float
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} criterion {self.number:2d} {self.name:<22s} "
            f"worst={self.worst:.3e} ({self.seconds:.1f}s) {self.detail}"
        )


def _random_point(rng, pair):
    if pair.kind == "half_plane":
        a = rng.uniform(-3.0, 3.0)
        return (a, a + rng.uniform(0.08, 4.0))
    lo, hi = pair.lo, pair.hi
    return tuple(rng.uniform(l + 0.08 * (h - l), h - 0.08 * (h - l)) for l, h in zip(lo, hi))


def _random_measure(rng, pair, max_atoms, unit_mass=False, min_atoms=0):
    n = rng.randint(min_atoms, max_atoms)
    atoms = [
        (_random_point(rng, pair), 1.0 if unit_mass else rng.uniform(0.1, 3.0))
        for _ in range(n)
    ]
    return new_measure(pair, atoms) if atoms else zero_measure(pair)


def _draws(stream, count, size, max_atoms, pairs=(_HALF_PLANE, _BOX), exponents=(1, 1.5, 2, 3),
           **measure_options):
    """Yield ``count`` draws ``(pair, p, measures)`` from ``random.Random(stream)``.

    Draw k takes the pair and the exponent at k, cyclically, and ``size``
    measures of at most ``max_atoms`` atoms from :func:`_random_measure`.
    """
    rng = random.Random(stream)
    for k in range(count):
        pair = pairs[k % len(pairs)]
        measures = tuple(
            _random_measure(rng, pair, max_atoms, **measure_options) for _ in range(size)
        )
        yield pair, exponents[k % len(exponents)], measures


# Instance streams shared between criteria (criterion 5 re-certifies the
# plans produced by criteria 1-3, so the streams must be deterministic).

def _oracle_instances(seed, count):
    return _draws(seed * 1000 + 1, count, 2, 4, pairs=(_HALF_PLANE,), unit_mass=True)


def _diagram_instances(seed, count):
    """Pairs of unit-mass half-plane measures: embedded diagrams."""
    return _draws(
        seed * 1000 + 2, count, 2, 4, pairs=(_HALF_PLANE,), exponents=(1, 2), unit_mass=True
    )


def _triple_instances(seed, count, max_atoms=6):
    return _draws(seed * 1000 + 3, count, 3, max_atoms)


CRITERIA = ()  # in order, each added by _criterion


def _criterion(number, name, **quick):
    """Make a body returning ``(worst, passed, detail)`` into a timed criterion.

    It joins :data:`CRITERIA` with its ``number`` and the counts ``quick`` of ``--quick``.
    """

    def decorate(body):
        @functools.wraps(body)
        def criterion(*args, **kwargs):
            start = time.perf_counter()
            worst, passed, detail = body(*args, **kwargs)
            return CriterionResult(
                number, name, passed, worst, detail, time.perf_counter() - start
            )

        global CRITERIA
        criterion.number, criterion.quick = number, quick
        CRITERIA += (criterion,)
        return criterion

    return decorate


@_criterion(1, "oracle-equivalence", count=50)
def criterion_oracle_equivalence(seed=DEFAULT_SEED, count=500):
    """The solver's exact Wb_p^p equals the oracle's on small unit-mass instances."""
    worst = Fraction(0)
    for _, p, (mu, nu) in _oracle_instances(seed, count):
        got = solve_detail(mu, nu, p).wb_p_exact
        worst = max(worst, abs(got - brute_force_wb(mu, nu, p).exact))
    return float(worst), worst == 0, f"{count} instances"


@_criterion(2, "diagram-embedding", count=20)
def criterion_embedding(seed=DEFAULT_SEED, count=200):
    """The exact d_p^p of the embedded diagrams equals the oracle's optimal matching cost."""
    worst = Fraction(0)
    for _, p, measures in _diagram_instances(seed, count):
        # The diagram holds each atom's point as many times as its mass counts.
        sigma, tau = (new_diagram(x for x, m in mu.atoms for _ in range(int(m))) for mu in measures)
        got = solve_detail(diagram_to_measure(sigma), diagram_to_measure(tau), p).wb_p_exact
        worst = max(worst, abs(got - brute_force_diagram(sigma, tau, p).exact))
    return float(worst), worst == 0, f"{count} diagram pairs"


@_criterion(3, "metric-axioms", count=20)
def criterion_metric_axioms(seed=DEFAULT_SEED, count=200):
    """Symmetry, vanishing self-distance, triangle inequality.

    Each axiom has its own tolerance (1e-10, 1e-10 and 1e-9 * (1 + scale));
    the reported worst value is the largest violation measured in units of
    its tolerance, so passing means worst <= 1.
    """
    worst = 0.0
    for _, p, (mu1, mu2, mu3) in _triple_instances(seed, count):
        d12 = wb_distance(mu1, mu2, p)
        d21 = wb_distance(mu2, mu1, p)
        d23 = wb_distance(mu2, mu3, p)
        d13 = wb_distance(mu1, mu3, p)
        d11 = wb_distance(mu1, mu1, p)
        scale = 1.0 + max(d12, d23, d13)
        worst = max(worst, abs(d12 - d21) / 1e-10)
        worst = max(worst, d11 / 1e-10)
        worst = max(worst, (d13 - d12 - d23) / (1e-9 * scale))
    return worst, worst <= 1.0, f"{count} triples (worst in tolerance units)"


@_criterion(4, "distance-to-zero", count=20)
def criterion_distance_to_zero(seed=DEFAULT_SEED, count=100):
    """Wb_p(mu, 0)^p equals the p-energy of mu."""
    worst = 0.0
    for pair, p, (mu,) in _draws(seed * 1000 + 4, count, 1, 6):
        got = wb_distance(mu, zero_measure(pair), p) ** p
        want = p_energy(mu, p)
        worst = max(worst, abs(got - want) / (1.0 + want))
    return worst, worst <= 1e-10, f"{count} measures"


def _perturb_swap(rng, plan):
    """Mass-preserving target swap between two interior entries, or None."""
    interior = [e for e in plan.entries if not plan.pair.in_A(e[0]) and not plan.pair.in_A(e[1])]
    distinct = [
        (a, b)
        for i, a in enumerate(interior)
        for b in interior[i + 1 :]
        if a[1] != b[1]
    ]
    if not distinct:
        return None
    (x1, y1, m1), (x2, y2, m2) = rng.choice(distinct)
    m = min(m1, m2)
    entries = [e for e in plan.entries if e not in ((x1, y1, m1), (x2, y2, m2))]
    entries.append((x1, y2, m))
    entries.append((x2, y1, m))
    if m1 > m:
        entries.append((x1, y1, m1 - m))
    if m2 > m:
        entries.append((x2, y2, m2 - m))
    return new_plan(plan.pair, entries, plan.p)


@_criterion(5, "optimality-certificates", count1=50, count2=20, count3=20)
def criterion_certificates(seed=DEFAULT_SEED, count1=500, count2=200, count3=200):
    """Optimality certificates hold for every solver plan from criteria 1-3,
    and mass-preserving single-edge perturbations are rejected.

    Each solver plan is certified as ``partialot certify`` does, by
    :func:`certify.certify_optimal`, at ``tol = 1e-9``."""
    worst, failed, plans = 0.0, 0, []
    draws = chain(
        _oracle_instances(seed, count1),
        _diagram_instances(seed, count2),
        _triple_instances(seed, count3),
    )
    for _, p, measures in draws:
        for mu, nu in zip(measures, measures[1:]):  # a triple (mu1, mu2, mu3) gives two plans
            _, plan, duals = solve(mu, nu, p)
            try:
                report = certify.certify_optimal(mu, nu, plan, duals, p, tol=1e-9)
            except InadmissiblePlanError:
                failed += 1
            else:
                worst = max(worst, report.worst_violation)
                failed += not report.all_passed()
            plans.append((mu, nu, p, plan, duals))

    # Perturbation sensitivity.
    rng = random.Random(seed * 1000 + 5)
    tried = rejected = 0
    for mu, nu, p, plan, duals in plans:
        perturbed = _perturb_swap(rng, plan)
        if perturbed is None:
            continue
        increase = plan_cost(perturbed, p) - plan_cost(plan, p)
        if increase <= 1e-6:
            continue
        tried += 1
        report = certify.certify_optimal(mu, nu, perturbed, duals, p, tol=1e-8)
        if not report.all_passed():
            rejected += 1
    sensitivity_ok = tried == 0 or rejected >= 0.95 * tried
    detail = f"{len(plans)} plans, {failed} cert failures; {rejected}/{tried} perturbations rejected"
    return worst, (not failed) and sensitivity_ok, detail


@_criterion(6, "geodesics", count=5)
def criterion_geodesics(seed=DEFAULT_SEED, count=50):
    """Constant speed, endpoint recovery and interior atoms off A."""
    grid = [i / 10 for i in range(11)]
    worst = 0.0
    recovery_ok = True
    interior_ok = True
    for pair, p, (mu0, mu1) in _draws(seed * 1000 + 6, count, 2, 4):
        path = geodesic_path(mu0, mu1, p)
        violation = check_constant_speed(path, grid)
        worst = max(worst, violation / (1.0 + path.length))
        # Exact atom points; masses to about an ulp, because plan masses
        # are rounded exact flows.
        for t, want in ((0.0, mu0), (1.0, mu1)):
            if not measures_close(interpolate(path, t), want, mass_tol=1e-12):
                recovery_ok = False
        for t in grid[1:-1]:
            for x, y, _ in path.plan.entries:
                if pair.in_A(x) or pair.in_A(y):
                    continue
                if pair.in_A(pair.geo_point(x, y, t)):
                    interior_ok = False
    ok = worst <= 1e-8 and recovery_ok and interior_ok
    return worst, ok, f"{count} paths, recovery={recovery_ok}, interior={interior_ok}"


@_criterion(7, "non-negative-curvature", count=10)
def criterion_curvature(seed=DEFAULT_SEED, count=100):
    """Non-negative curvature comparison margin at p = 2."""
    grid = [i / 10 for i in range(11)]
    min_margin = math.inf
    for _, _, (mu_p, mu_q, mu_r) in _draws(seed * 1000 + 7, count, 3, 3):
        min_margin = min(min_margin, min(curvature_margins(mu_p, mu_q, mu_r, grid)))
    return min_margin, min_margin >= -1e-8, f"{count} triples"


@_criterion(8, "angle-at-zero", count=20)
def criterion_angle_at_zero(seed=DEFAULT_SEED, count=200):
    """No obtuse angles at the zero measure."""
    min_value = math.inf
    for _, _, (mu, nu) in _draws(seed * 1000 + 8, count, 2, 5):
        min_value = min(min_value, angle_at_zero(mu, nu))
    return min_value, min_value >= -1e-10, f"{count} pairs"


@_criterion(9, "truncation", count=10)
def criterion_truncation(seed=DEFAULT_SEED, count=50):
    """Truncation distance is monotone, tail-bounded and eventually zero."""
    radii = [2.0 ** (-k) for k in range(9)]  # 1, 0.5, ..., 2^-8
    worst = 0.0
    ok = True
    for pair, p, (mu,) in _draws(seed * 1000 + 9, count, 1, 6, exponents=(1, 2), min_atoms=1):
        min_gap = min(pair.dist_to_A(pt) for pt, _ in mu.atoms)
        previous = math.inf
        for r in radii:
            w = wb_distance(mu, truncate(mu, r), p)
            if w > previous + 1e-10:
                ok = False
            worst = max(worst, w - previous)
            previous = w
            tail = sum(
                m * pair.dist_to_A(pt) ** p for pt, m in mu.atoms if pair.dist_to_A(pt) <= r
            )
            if w ** p > tail + 1e-9 * (1.0 + tail):
                ok = False
            if r < min_gap and w != 0.0:
                ok = False
    return max(worst, 0.0), ok, f"{count} measures, 9 radii"


@_criterion(10, "gluing-composition", count=10)
def criterion_gluing(seed=DEFAULT_SEED, count=100):
    """Glued projections recover the inputs; composition obeys the triangle bound."""
    worst = 0.0
    ok = True
    for _, p, (mu1, mu2, mu3) in _triple_instances(seed + 1, count, max_atoms=4):
        r12 = solve(mu1, mu2, p)
        r23 = solve(mu2, mu3, p)
        glued = glue(r12.plan, r23.plan)

        back12, _ = projection_12(glued)
        back23, _ = projection_23(glued)
        for got, want in ((back12, r12.plan), (back23, r23.plan)):
            got_d = {(s, d): m for s, d, m in got.entries}
            want_d = {(s, d): m for s, d, m in want.entries}
            for key in set(got_d) | set(want_d):
                a, b = got_d.get(key, 0.0), want_d.get(key, 0.0)
                if abs(a - b) > 1e-10 * (1.0 + max(a, b)):
                    ok = False

        lhs = plan_cost(compose(glued), p) ** (1.0 / p)
        rhs = r12.wb + r23.wb
        worst = max(worst, lhs - rhs)
    return worst, ok and worst <= 1e-9, f"{count} triples"


def run_all(seed=DEFAULT_SEED, quick=False):
    return [fn(seed=seed, **(fn.quick if quick else {})) for fn in CRITERIA]
