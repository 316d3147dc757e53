"""Exact enumeration, realization and embedding certification of the
triangulations of the torus (K_{2,2,2,2}), projective plane (K_6) and
Moebius band (K_5)."""

from .numeric import (
    FieldContext,
    LinearSolution,
    QuadExt,
    parse_rational,
    solve_linear,
)
from .surfaces import (
    LabeledGraph,
    SurfaceClass,
    Triangulation,
    build_graph,
    classify_surface,
    enumerate_cliques3,
)
from .enumeration import (
    Catalog,
    EnumerationTask,
    brute_force_catalog,
    complement_pairing,
    enumerate_triangulations,
)
from .geometry import (
    GeometricComplex,
    MetricReport,
    Point,
    RealizationParams,
    construction_coords,
    metric_report,
    orthogonal_project,
    schlegel_project,
    tetra_containment,
)
from .verify import (
    EmbeddingReport,
    PairVerdict,
    orientation_sign,
    pair_intersection_check,
    verify_catalog,
)

__version__ = "0.1.0"
