"""polyface: exact-arithmetic analysis of convex polytopes.

Face lattices, f-vectors and their proved lower bounds, Monte Carlo solid
angles, and shadow diagrams, all at desk scale with rational arithmetic
for every combinatorial decision.  A shadow is the parallel projection
along v onto x_j = 0 (j the last index with v_j != 0); it has the same
combinatorial type as any other projection along v.
"""
from .angles import (
    AngleEstimate,
    AngleSumReport,
    angle_sum,
    angle_sum_lower_check,
    angle_sums,
    curvature_check,
    facet_angle,
    projection_angle_check,
    solid_angle,
    solid_angle_exact,
    tangent_cone,
)
from .bounds import (
    BoundReport,
    few_vertex_bound,
    few_vertex_check,
    min_face_check,
    ratio_bound,
    unimodality_check,
    verify_main_bounds,
)
from .errors import PolyfaceError
from .exact import Hyperplane, Scalar, Vector, affine_dim, rank
from .generators import (
    FamilySpec,
    cross_polytope,
    cube,
    cyclic,
    generate,
    prism,
    pyramid,
    random_sphere,
    simplex,
)
from .lattice import Face, FaceLattice, FVector, dual, quotient
from .polytope import (
    Polytope,
    hull_from_points,
    load_polytope,
    polytope_from_json,
    polytope_to_json,
)
from .projection import (
    Direction,
    ShadowDiagram,
    ShadowPolytope,
    build_shadow_diagram,
    diagram_vertices,
    gap_check,
    sample_direction,
    shadow,
    shadow_boundary_check,
    upper_lower,
)

__version__ = "0.1.0"
