"""Reuleaux polygons with an odd number of sides, in closed form.

An n-sided Reuleaux polygon of width B (n odd) alternates, as the normal angle
sweeps the circle, between corner windows where the curvature radius vanishes
and arc windows where it equals B. Each window spans pi/n; with the support
maximum placed at angle 0 the switch angles (ReuleauxSpec.switches) sit at
odd multiples of alpha = pi/(2n), so the polygon is the regular case of
the bang-bang bodies of orbiform.switches.

The curvature radius is therefore an exact square wave taking {0, B}, whose
Fourier series is known in closed form; the support coefficients follow by the
resolvent multipliers 1/(1 - k^2). That makes spectral truncation here exact
truncation of the square wave, with no smoothing filter.

Importing this module loads no numpy: the spec, support_values, closed_area
and the area table use math only, so `orbiform reuleaux` and `orbiform table`
are standard-library paths; to_body, which wraps support_values in a
SupportBody, imports numpy when it runs.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .body2d import SupportBody

__all__ = [
    "ReuleauxSpec",
    "support_values",
    "to_body",
    "closed_area",
    "area_table",
    "format_area_table_csv",
]


class ReuleauxSpec(namedtuple("ReuleauxSpec", ("sides", "width"))):
    """Geometry of an odd Reuleaux polygon: the side count (an odd integer >= 3)
    and the width B, checked at construction. The switch angle alpha =
    pi/(2*sides) and the switch angles derive from them. A named tuple, as
    body2d.SupportBody is, so that `orbiform reuleaux` does not import
    dataclasses."""

    __slots__ = ()

    def __new__(cls, sides: int, width: float):
        try:
            sides = operator.index(sides)
        except TypeError:
            raise ValueError(f"sides must be an integer, got {sides!r}") from None
        if sides < 3 or sides % 2 == 0:
            raise ValueError(f"sides must be odd and >= 3, got {sides}")
        if not math.isfinite(width) or width <= 0:
            raise ValueError(f"width must be finite and > 0, got {width}")
        return super().__new__(cls, sides, width)

    @property
    def switch_angle(self) -> float:
        return math.pi / (2 * self.sides)

    @property
    def switches(self) -> tuple[float, ...]:
        """(2j - 1) alpha for j = 1..sides, in the convention of orbiform.switches."""
        return tuple((2 * j - 1) * self.switch_angle for j in range(1, self.sides + 1))


def support_values(spec: ReuleauxSpec, max_degree: int) -> list[float]:
    """Support coefficients of the truncated body in the flat dim-2 layout, as
    floats: p = B/2 + G (R - B/2), plain Fourier truncation of the square wave.

    R - B/2 has cosine harmonics only at the odd multiples k = j n of the side
    count, with amplitude -(2 B / pi) (-1)^((j-1)/2) / j; all are odd degrees,
    so the wave is antipodally antisymmetric. Each value is that amplitude
    times sqrt(pi) (the orthonormal cos-k coefficient), times the resolvent
    multiplier 1 / (1 - k^2), in that order: the doubles that apply_green and
    body_from_deviation give for the wave's coefficients, with +0.0 where
    they leave -0.0. The mean is B/2 over the constant mode's value.
    """
    if max_degree < 4 * spec.sides:
        raise ValueError(
            f"band limit {max_degree} is too small for {spec.sides} sides; need >= {4 * spec.sides}"
        )
    from .body2d import MEAN_BASIS, SQRT_PI

    n, B = spec.sides, spec.width
    values = [0.0] * (2 * max_degree + 1)
    values[0] = 0.5 * B / MEAN_BASIS
    for j in range(1, max_degree // n + 1, 2):
        sign = -1.0 if (j - 1) // 2 % 2 else 1.0
        amp = -(2.0 * B / math.pi) * sign / j
        k = float(j * n)
        values[2 * j * n - 1] = amp * SQRT_PI * (1.0 / (1.0 - k * k))
    return values


def to_body(spec: ReuleauxSpec, max_degree: int) -> SupportBody:
    """Spectrally truncated body: support_values as a SupportBody."""
    from .body2d import SupportBody
    from .harmonic_core import SpectralCoeffs

    return SupportBody(spec.width, SpectralCoeffs(2, max_degree, support_values(spec, max_degree)))


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
