"""orbiform: spectral toolkit for constant-width bodies.

Support functions of constant-width planar bodies live in harmonic coefficient
space; curvature radii, areas, and perimeters are exact quadratic or linear
forms there. The package builds Reuleaux polygons in closed form, evaluates the
reduced-resolvent area functional, and minimizes it over the admissible set of
curvature deviations, reproducing the bang-bang structure of the minimizers
(the Blaschke-Lebesgue theorem in the plane).

The names below are loaded lazily (PEP 562): ``import orbiform`` imports no
submodule and no numpy, and ``orbiform.make_grid`` imports ``harmonic_core``
on first access.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "harmonic_core": (
        "ClosednessError", "GridFn", "SpectralCoeffs", "SphereGrid", "analyze",
        "apply_green", "apply_laplacian", "degree_one_residual", "green_multipliers",
        "make_grid", "project_linear_H", "quadratic_form_green", "synthesize", "zero_coeffs",
    ),
    "body2d": (
        "SupportBody", "ValidationReport", "area_quadrature", "area_spectral",
        "body_from_deviation", "curvature_coeffs", "disk", "eval_curvature_radius",
        "eval_support", "perimeter", "random_body", "validate",
    ),
    "reuleaux": (
        "ReuleauxSpec", "area_table", "closed_area", "format_area_table_csv", "to_body",
    ),
    "variational": (
        "AdmissibleR", "BangBangReport", "NumericalFailure",
        "OptimizationResult", "bang_bang_report", "best_restart",
        "box_bound", "canonical_align", "minimize_restarts", "phi", "phi_gradient",
        "polish_switches", "project_admissible", "result_to_json", "support_deviation",
    ),
    "switches": ("SwitchPolish", "switch_window"),
    "spheroform3d": (
        "ball_curvature_sum", "blaschke_volume", "phi1", "width_residual",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
