"""Displacement interpolation and comparison-geometry probes.

A geodesic between two measures is induced by an optimal plan: each entry
moves its mass along the straight segment between its endpoints, and the
interpolant at time t is the resulting atom cloud restricted to Omega
(atoms that land on A are dropped).  On top of interpolation this module
provides the constant-speed check, the non-negative-curvature comparison
margin (p = 2), the obtuse-angle test at the zero measure, and a probe for
the non-branching property.
"""

import math
from typing import NamedTuple

from .errors import UnsupportedPairError, check_exponent, is_number
from .measures import DiscreteMeasure, _canonical_atoms, _finite_sum, measures_close
from .pairs import _check_t
from .solver import solve, solve_detail, wb_distance


class GeodesicPath(NamedTuple):
    """An optimal plan together with its interpolation rule."""

    plan: object  # TransportPlan between mu0 and mu1
    pair: object
    p: float
    length: float  # Wb_p(mu0, mu1)
    mu0: DiscreteMeasure
    mu1: DiscreteMeasure


def _geodesic_pair(mu: DiscreteMeasure):
    """The pair of mu, or UnsupportedPairError unless it is geodesic."""
    if not mu.pair.geodesic_capable:
        raise UnsupportedPairError(
            f"pair kind {mu.pair.kind!r} is not geodesic; cannot interpolate"
        )
    return mu.pair


def geodesic_path(mu0: DiscreteMeasure, mu1: DiscreteMeasure, p) -> GeodesicPath:
    """Solve for an optimal plan and wrap it as a displacement geodesic."""
    p = check_exponent(p)
    pair = _geodesic_pair(mu0)
    wb, plan, _ = solve(mu0, mu1, p)
    return GeodesicPath(plan, pair, p, wb, mu0, mu1)


def interpolate_detail(path: GeodesicPath, t):
    """Interpolant at time t plus the mass dropped onto A.

    Every plan entry contributes an atom at the segment point; atoms on A
    are removed (the restriction to Omega), which only happens for boundary
    edges at their endpoints.  The plan's endpoints are already validated,
    and a geodesic point of two points of X lies in X, so no segment point
    is validated again.  A dropped mass beyond the float range raises
    :class:`FloatRangeError`.
    """
    t = _check_t(t)
    pair = path.pair
    kept = []
    dropped = []
    for x, y, m in path.plan.entries:
        pt = pair._geo_point(x, y, t)
        if pair._in_A(pt):
            dropped.append(m)
        else:
            kept.append((pt, m))
    return DiscreteMeasure(pair, _canonical_atoms(kept)), float(_finite_sum(dropped))


def interpolate(path: GeodesicPath, t) -> DiscreteMeasure:
    """The measure at time t along the path."""
    measure, _ = interpolate_detail(path, t)
    return measure


def check_constant_speed(path: GeodesicPath, t_grid) -> float:
    """Max over grid pairs of | Wb_p(mu_s, mu_t) - |s - t| * length |.

    Every pairwise distance is recomputed with a fresh solve.
    """
    grid = sorted(set(map(_check_t, t_grid)))
    interpolants = {t: interpolate(path, t) for t in grid}
    worst = 0.0
    for i, s in enumerate(grid):
        for t in grid[i + 1 :]:
            d = wb_distance(interpolants[s], interpolants[t], path.p)
            worst = max(worst, abs(d - (t - s) * path.length))
    return worst


def curvature_margins(mu_p: DiscreteMeasure, mu_q: DiscreteMeasure, mu_r: DiscreteMeasure, t_grid) -> list:
    """Non-negative-curvature comparison margins along a geodesic, one per t.

    Builds the displacement geodesic (p = 2) from mu_q to mu_r and returns,
    for each t of ``t_grid`` in order,

        Wb_2(mu_p, mu_t)^2 - [(1-t) Wb_2(mu_p, mu_q)^2
                              + t Wb_2(mu_p, mu_r)^2
                              - (1-t) t Wb_2(mu_q, mu_r)^2].

    Non-negative margins witness the comparison inequality for curv >= 0.
    All distances are fresh solves, independent of the path internals.
    """
    path = geodesic_path(mu_q, mu_r, 2)
    d_pq = wb_distance(mu_p, mu_q, 2) ** 2
    d_pr = wb_distance(mu_p, mu_r, 2) ** 2
    d_qr = wb_distance(mu_q, mu_r, 2) ** 2
    margins = []
    for t in t_grid:
        t = _check_t(t)
        d_pt = wb_distance(mu_p, interpolate(path, t), 2) ** 2
        comparison = (1.0 - t) * d_pq + t * d_pr - (1.0 - t) * t * d_qr
        margins.append(d_pt - comparison)
    return margins


def curvature_comparison(mu_p: DiscreteMeasure, mu_q: DiscreteMeasure, mu_r: DiscreteMeasure, t_grid) -> float:
    """Minimum of :func:`curvature_margins` over ``t_grid`` (inf when it is empty)."""
    return min(curvature_margins(mu_p, mu_q, mu_r, t_grid), default=math.inf)


def angle_at_zero(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Wb_2(mu, 0)^2 + Wb_2(nu, 0)^2 - Wb_2(mu, nu)^2.

    Non-negativity witnesses that geodesics emanating from the zero measure
    never make an obtuse angle.
    """
    zero = DiscreteMeasure(mu.pair, ())
    return (
        wb_distance(mu, zero, 2) ** 2
        + wb_distance(nu, zero, 2) ** 2
        - wb_distance(mu, nu, 2) ** 2
    )


# The non-branching probe's relative tolerance on lengths and masses.
_PROBE_TOL = 1e-8


class BranchProbeReport(NamedTuple):
    """Outcome of the non-branching probe at an interior time."""

    t0: float
    map_induced: bool  # each Omega target of the re-solved plan has one source
    endpoint_reproduced: bool  # extending the re-solved plan past t0 hits mu1
    degenerate: bool  # either solve may have other optimal plans (SolveDetail)
    dropped_mass: float


def branch_probe(mu0: DiscreteMeasure, mu1: DiscreteMeasure, t0, p) -> BranchProbeReport:
    """Probe the non-branching property of displacement geodesics.

    Interpolates to mu_t0, re-solves the transport from mu0 to the
    interpolant, and reports whether the re-solved plan's Omega-target part
    is induced by a map and whether extending its segments to t = 1
    reproduces mu1.  When either solve may have other optimal plans the report
    is flagged degenerate and the two booleans carry no pass/fail meaning.

    Entries into A, and entries carrying at most 1e-8 of their target's
    mass at t0 (rounding-level flow), are left out.  Every other entry
    (x, w) of the re-solve extends exactly as the first plan's entry from x
    (from any point of A when x is on A) whose point at t0 is w; an entry
    with no such match is not reproduced.  One whose match ends on A has
    left Omega by t = 1, and every other one puts its mass at its match's
    end.  The masses so collected must equal mu1's to a relative 1e-8, so
    every scale gets the same report.
    """
    p = check_exponent(p)
    if p <= 1.0:
        raise ValueError("the non-branching probe requires p > 1")
    if not (is_number(t0) and 0.0 < float(t0) < 1.0):
        raise ValueError(f"probe time must lie strictly inside (0, 1), got {t0!r}")
    t0 = float(t0)

    pair = _geodesic_pair(mu0)
    first = solve_detail(mu0, mu1, p)
    path = GeodesicPath(first.plan, pair, p, first.wb, mu0, mu1)
    mu_t, dropped = interpolate_detail(path, t0)
    detail = solve_detail(mu0, mu_t, p)

    at_t0 = mu_t.mass_by_point()
    moves = [
        (x, w, m)
        for x, w, m in detail.plan.entries
        if not pair._in_A(w) and m > _PROBE_TOL * at_t0[w]
    ]
    receivers = {}
    for x, w, _ in moves:
        receivers.setdefault(w, set()).add(x)
    map_induced = all(len(srcs) == 1 for srcs in receivers.values())

    def key(x, w):
        return None if pair._in_A(x) else x, w

    # Each entry of the first plan put its mass at its point at t0 in mu_t0.
    end = {key(x, pair._geo_point(x, y, t0)): y for x, y, _ in first.plan.entries}
    endpoint_reproduced = all(key(x, w) in end for x, w, _ in moves)
    if endpoint_reproduced:
        got = {}
        for x, w, m in moves:
            y = end[key(x, w)]
            if not pair._in_A(y):  # else the segment has left Omega by t = 1
                got[y] = got.get(y, 0.0) + m
        endpoint_reproduced = measures_close(
            DiscreteMeasure(pair, tuple(sorted(got.items()))), mu1, mass_tol=_PROBE_TOL
        )

    return BranchProbeReport(
        t0=t0,
        map_induced=map_induced,
        endpoint_reproduced=endpoint_reproduced,
        degenerate=first.degenerate or detail.degenerate,
        dropped_mass=dropped,
    )
