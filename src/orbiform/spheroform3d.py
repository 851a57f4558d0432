"""Constant-width bodies in three dimensions: curvature sums and the Blaschke relation.

The quadratic functional generalizes: with R the sum of principal curvature
radii (mean B(d-1) for width B), Phi1[R] = (1/d) <G R, R> is proportional to the
surface area and shares its minimizers among admissible candidates. Volume
itself follows from surface area through the Blaschke relation
Vol = B S / 2 - pi B^3 / 3, so surface-area minimization and volume
minimization coincide for genuine constant-width bodies. ball_curvature_sum
is the ball's R in dim 3; phi1 takes a curvature sum in either dimension.

The caveat, and it is structural: an admissible deviation on the sphere need
not be realizable as the curvature sum of an actual convex body, so dim-3
minimization results are candidates, not certified bodies.
variational.minimize_restarts runs on a dim-3 grid as on a dim-2 one, and
every dim-3 OptimizationResult carries equivalence_warning=True for that
reason. phi1 refuses a degree-1 part through
harmonic_core.require_translation_free.
"""

from __future__ import annotations

import numpy as np

from .harmonic_core import (
    GridFn,
    SPHERE_AREA,
    SpectralCoeffs,
    SphereGrid,
    quadratic_form_green,
    require_translation_free,
)

__all__ = [
    "ball_curvature_sum",
    "phi1",
    "blaschke_volume",
    "width_residual",
]


def ball_curvature_sum(width: float) -> SpectralCoeffs:
    """Curvature-radius sum of the ball of the given width in R^3: the
    constant width (two principal radii of width/2), degree 0 only."""
    # the constant mode has value 1/sqrt(area of the sphere)
    return SpectralCoeffs(3, 0, [width * np.sqrt(SPHERE_AREA)])


def phi1(coeffs: SpectralCoeffs) -> float:
    """(1/dim) <G R, R> for a full curvature-sum expansion (mean included).

    Equals the enclosed area at dim 2; at dim 3 it is proportional to surface
    area (2/3 of it), which is what makes it the right minimization surrogate.
    Degree-1 content means the expansion is not the curvature sum of a closed
    boundary, hence ClosednessError.
    """
    require_translation_free(coeffs, "curvature sum")
    return quadratic_form_green(coeffs) / coeffs.dim


def blaschke_volume(surface_area: float, width: float) -> float:
    """Volume of a constant-width body from its surface area: B*S/2 - pi*B^3/3."""
    if not np.isfinite(width) or width <= 0:
        raise ValueError(f"width must be finite and > 0, got {width}")
    if not np.isfinite(surface_area) or surface_area < 0:
        raise ValueError(f"surface_area must be finite and >= 0, got {surface_area}")
    return 0.5 * width * surface_area - np.pi * width**3 / 3.0


def width_residual(r_values: GridFn, grid: SphereGrid, width: float) -> float:
    """Max over nodes of |R(w) + R(antipode) - (dim-1)*width|; 0 for constant width."""
    if grid.dim != 3:
        raise ValueError("width_residual expects a dim-3 grid")
    vals = np.asarray(r_values, dtype=float)
    if vals.shape != (grid.size,):
        raise ValueError("values shape does not match the grid")
    target = (grid.dim - 1) * width
    return float(np.max(np.abs(vals + vals[grid.antipode_index] - target)))

