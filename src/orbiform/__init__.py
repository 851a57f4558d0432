"""orbiform: spectral toolkit for constant-width bodies.

Support functions of constant-width planar bodies live in harmonic coefficient
space; curvature radii, areas, and perimeters are exact quadratic or linear
forms there. The package builds Reuleaux polygons in closed form, evaluates the
reduced-resolvent area functional, and minimizes it over the admissible set of
curvature deviations, reproducing the bang-bang structure of the minimizers
(the Blaschke-Lebesgue theorem in the plane).
"""

from .harmonic_core import (
    ClosednessError,
    GreenMultipliers,
    GridFn,
    SpectralCoeffs,
    SphereGrid,
    analyze,
    apply_green,
    apply_laplacian,
    default_max_degree,
    degree_one_residual,
    differentiate,
    green_multipliers,
    laplace_eigenvalue,
    make_grid,
    project_linear_H,
    quadratic_form_green,
    synthesize,
    zero_coeffs,
)
from .body2d import (
    BoundaryCurve,
    SupportBody,
    ValidationReport,
    area_quadrature,
    area_spectral,
    body_from_deviation,
    boundary,
    boundary_point,
    curvature_coeffs,
    disk,
    eval_curvature_radius,
    eval_support,
    perimeter,
    random_body,
    validate,
)
from .reuleaux import (
    ReuleauxSpec,
    area_table,
    closed_area,
    curvature_square_wave,
    format_area_table_csv,
    make_spec,
    support_piecewise,
    to_body,
)
from .variational import (
    AdmissibleR,
    BangBangReport,
    MinimizeConfig,
    NumericalFailure,
    OptimizationResult,
    SolveStats,
    bang_bang_report,
    best_restart,
    box_bound,
    canonical_align,
    minimize,
    minimize_restarts,
    phi,
    phi_gradient,
    project_admissible,
    result_to_json,
    support_deviation,
)
from .spheroform3d import (
    ball_curvature_sum,
    blaschke_volume,
    explore_minimize3d,
    phi1,
    width_residual,
)

__version__ = "0.1.0"
