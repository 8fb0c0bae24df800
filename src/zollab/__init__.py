"""Numerical laboratory for manifolds whose boundary-orthogonal geodesics
return orthogonally to the boundary (Zoll manifolds with boundary)."""

from .geometry import (
    BoundaryChart,
    BoundaryPatch,
    DeckMap,
    ManifoldSpec,
    MetricField,
    inward_unit_normal,
    second_fundamental_form,
)
from .engine import (
    GeodesicPath,
    LaunchSet,
    NoReturnError,
    arrival_orthogonality,
    first_return_map,
    sample_boundary,
    shoot,
)
from .catalog import (
    Isometry,
    catalog_names,
    identity_isometry,
    index_ladder,
    make_example,
    mapping_torus,
    rotation_isometry,
)
from .jacobi import (
    FocalRecord,
    JacobiFrame,
    arrival_degeneracy_form,
    assemble_index_form,
    focal_instants,
    integrate_jacobi_frame,
    morse_index_focal,
    morse_index_quadratic,
)
from .verifier import (
    SoulCloud,
    Tolerances,
    ZollReport,
    boundary_components,
    build_soul,
    certify,
    fiber_analysis,
    slice_distance_check,
    soul_dimension_check,
    splitting_residual,
)
from .manifest import RunManifest, load_manifold

__version__ = "0.1.0"
