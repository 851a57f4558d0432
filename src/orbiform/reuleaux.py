"""Reuleaux polygons with an odd number of sides, in closed form.

An n-sided Reuleaux polygon of width B (n odd) alternates, as the normal angle
sweeps the circle, between corner windows where the curvature radius vanishes
and arc windows where it equals B. Each window spans pi/n; with the support
maximum placed at angle 0 the switch angles (ReuleauxSpec.switches) sit at
odd multiples of alpha = pi/(2n), so the polygon is the regular case of
body2d's bang-bang bodies and body2d.switch_support gives its support at any
angle. That support peaks at the corner amplitude m, where
cos(alpha) = B / (2m + B).

The curvature radius is therefore an exact square wave taking {0, B}, whose
Fourier series is known in closed form; the support coefficients follow by the
resolvent multipliers 1/(1 - k^2). That makes spectral truncation here exact
truncation of the square wave, with no smoothing filter.

Importing this module loads no numpy: the spec, closed_area and the area
table use math only, so `orbiform table` is a standard-library path, and the
functions that compute on arrays import numpy when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .body2d import SupportBody
    from .harmonic_core import SpectralCoeffs

__all__ = [
    "ReuleauxSpec",
    "curvature_square_wave",
    "to_body",
    "closed_area",
    "area_table",
    "format_area_table_csv",
]


@dataclass(frozen=True)
class ReuleauxSpec:
    """Geometry of an odd Reuleaux polygon: the side count (odd, >= 3) and the
    width B, checked at construction. The switch angle alpha = pi/(2*sides) and
    the corner support amplitude m, where cos(alpha) = B / (2m + B), derive from them."""

    sides: int
    width: float

    def __post_init__(self):
        if self.sides < 3 or self.sides % 2 == 0:
            raise ValueError(f"sides must be odd and >= 3, got {self.sides}")
        if not math.isfinite(self.width) or self.width <= 0:
            raise ValueError(f"width must be finite and > 0, got {self.width}")

    @property
    def switch_angle(self) -> float:
        return math.pi / (2 * self.sides)

    @property
    def amplitude(self) -> float:
        return 0.5 * self.width * (1.0 / math.cos(self.switch_angle) - 1.0)

    @property
    def switches(self) -> tuple[float, ...]:
        """(2j - 1) alpha for j = 1..sides, in body2d's switch convention."""
        return tuple((2 * j - 1) * self.switch_angle for j in range(1, self.sides + 1))


def curvature_square_wave(spec: ReuleauxSpec, omega) -> np.ndarray | float:
    """Curvature radius: exactly 0 on the corner windows [(2k-1) alpha,
    (2k+1) alpha) of even k, exactly width on the arc windows of odd k."""
    import numpy as np

    k = np.floor((np.asarray(omega, dtype=float) + spec.switch_angle) / (2.0 * spec.switch_angle))
    vals = np.where(k % 2 != 0, spec.width, 0.0)
    return float(vals) if vals.ndim == 0 else vals


def deviation_coeffs(spec: ReuleauxSpec, max_degree: int) -> SpectralCoeffs:
    """Exact harmonic coefficients of R - width/2 up to max_degree.

    The square wave has cosine harmonics only at odd multiples j of the side
    count, with amplitude -(2 B / pi) (-1)^((j-1)/2) / j; all are odd degrees,
    so the wave is antipodally antisymmetric.
    """
    from .harmonic_core import SpectralCoeffs, index2, zero_coeffs

    n, B = spec.sides, spec.width
    out = zero_coeffs(2, max_degree).values.copy()
    sqrt_pi = math.sqrt(math.pi)
    j = 1
    while j * n <= max_degree:
        sign = -1.0 if (j - 1) // 2 % 2 else 1.0
        amp = -(2.0 * B / math.pi) * sign / j
        out[index2(j * n, "cos")] = amp * sqrt_pi
        j += 2
    return SpectralCoeffs(2, max_degree, out)


def to_body(spec: ReuleauxSpec, max_degree: int) -> SupportBody:
    """Spectrally truncated body: plain Fourier truncation of the square wave."""
    from .body2d import body_from_deviation
    from .harmonic_core import apply_green

    if max_degree < 4 * spec.sides:
        raise ValueError(
            f"max_degree {max_degree} too small for {spec.sides} sides; need >= {4 * spec.sides}"
        )
    p_dev = apply_green(deviation_coeffs(spec, max_degree))
    return body_from_deviation(spec.width, p_dev)


def closed_area(spec: ReuleauxSpec) -> float:
    """Exact area: (B^2 / 2) (pi - n tan(pi / (2n))), with libm's tan."""
    n, B = spec.sides, spec.width
    return 0.5 * B * B * (math.pi - n * math.tan(math.pi / (2 * n)))


def area_table(max_sides: int, width: float = 1.0) -> list[tuple[int, float]]:
    """Closed-form areas for odd side counts 3..max_sides, ascending."""
    if max_sides < 3:
        raise ValueError("max_sides must be >= 3")
    return [(n, closed_area(ReuleauxSpec(n, width))) for n in range(3, max_sides + 1, 2)]


def format_area_table_csv(rows: list[tuple[int, float]]) -> str:
    lines = ["n,area"]
    for n, area in rows:
        lines.append(f"{n},{float(area)!r}")
    return "\n".join(lines) + "\n"
