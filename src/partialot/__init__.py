"""Optimal partial transport on metric pairs.

Exact Wb_p distances between finitely supported measures on a metric pair
(X, A), optimal plans with dual certificates, displacement geodesics,
curvature comparison checks, and the persistence-diagram distance d_p.
"""

from .errors import (
    AtomOnBoundaryError,
    FloatRangeError,
    InadmissiblePlanError,
    InvalidPointError,
    MalformedFileError,
    MarginalMismatchError,
    MissingPotentialError,
    NonPositiveMassError,
    OracleSizeError,
    PairMismatchError,
    PartialOTError,
    UnsupportedPairError,
)
from .pairs import (
    EuclideanBoxPair,
    FinitePair,
    HalfPlanePair,
    MetricPair,
    pair_from_description,
)
from .measures import (
    DiscreteMeasure,
    PersistenceDiagram,
    diagram_to_measure,
    new_diagram,
    new_measure,
    p_energy,
    truncate,
    zero_measure,
)
from .plans import (
    GluedPlan,
    TransportPlan,
    compose,
    cost,
    glue,
    marginals,
    new_plan,
    projection_12,
    projection_23,
)
from .solver import (
    AugmentedProblem,
    DualPotentials,
    SolveResult,
    build_augmented_problem,
    cost_c,
    cost_ctilde,
    diagram_distance,
    in_S,
    solve,
    solve_detail,
    wb_distance,
)
from .certify import CertificateReport, certify_optimal
from .geodesic import (
    GeodesicPath,
    angle_at_zero,
    check_constant_speed,
    curvature_margins,
    geodesic_path,
    interpolate,
    interpolate_detail,
)
from .oracle import OracleResult, brute_force_diagram, brute_force_wb

__version__ = "0.1.0"
