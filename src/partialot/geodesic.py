"""Displacement interpolation and comparison-geometry probes.

A geodesic between two measures is induced by an optimal plan: each entry
moves its mass along the straight segment between its endpoints, and the
interpolant at time t is the resulting atom cloud restricted to Omega
(atoms that land on A are dropped).  On top of interpolation this module
provides the constant-speed check, the non-negative-curvature comparison
margin (p = 2) and the obtuse-angle test at the zero measure.
"""

from typing import NamedTuple

from .errors import UnsupportedPairError, check_exponent
from .measures import DiscreteMeasure, _canonical_atoms, _finite_sum
from .pairs import _check_t
from .solver import _optimum, _plan_of, wb_distance
# solve stays importable here: the benchmark's tracer wraps it by this name.
from .solver import solve  # noqa: F401


class GeodesicPath(NamedTuple):
    """An optimal plan together with its interpolation rule."""

    plan: object  # TransportPlan between mu0 and mu1; its pair and p are the path's
    length: float  # Wb_p(mu0, mu1)


def geodesic_path(mu0: DiscreteMeasure, mu1: DiscreteMeasure, p) -> GeodesicPath:
    """Solve for an optimal plan and wrap it as a displacement geodesic.

    The plan and length are those of :func:`solver.solve`; no potentials are built.
    Raises :class:`UnsupportedPairError` unless the pair is geodesic.
    """
    p = check_exponent(p)
    pair = mu0.pair
    if not pair.geodesic_capable:
        raise UnsupportedPairError(f"pair kind {pair.kind!r} is not geodesic; cannot interpolate")
    opt = _optimum(mu0, mu1, p)
    return GeodesicPath(_plan_of(pair, opt, p), opt.wb)


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
    pair = path.plan.pair
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
            d = wb_distance(interpolants[s], interpolants[t], path.plan.p)
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

