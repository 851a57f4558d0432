"""Planar constant-width bodies represented by their support function.

A convex body of constant width B has support function p with p(w) + p(w+pi) = B.
In harmonic coefficients that means the mean of p is B/2, every even degree >= 2
vanishes, and the odd degrees are free (degree 1 is a translation). The
curvature radius of the boundary is R = p'' + p, a diagonal operation in
coefficient space: degree k scales by (1 - k^2). Convexity is R >= 0 and the
constant-width relation forces 0 <= R <= B. validate reports these invariants
as CheckResults with width-scaled tolerances, for a body or a file: it is
`orbiform validate` of every file, and gates a result file's window the same
way in dims 2 and 3 (a dim-3 file's box check comes from variational).
area_spectral is the Parseval sum of the support, (1/2) sum (1 - k^2) c_k^2,
and _green_form that of a curvature window, sum_{k != 1} c_k^2 / (1 - k^2):
in dims 2 and 3 the one fsum that every phi and validate take.

Importing this module loads no numpy, and functions that compute on arrays
import it when they run; the fsum forms, and validate of a file with switches
(orbiform.switches), use math alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

    from .harmonic_core import SpectralCoeffs, SphereGrid
    from .shapeio import ShapeFile

__all__ = [
    "SupportBody",
    "CheckResult",
    "ValidationReport",
    "disk",
    "body_from_deviation",
    "curvature_coeffs",
    "eval_support",
    "eval_curvature_radius",
    "area_quadrature",
    "area_spectral",
    "perimeter",
    "validate",
    "random_body",
]

MEAN_BASIS = 1.0 / math.sqrt(2.0 * math.pi)  # value of the orthonormal constant mode on S^1
SQRT_PI = math.sqrt(math.pi)
RESULT_RTOL = 1e-12  # closed-form window, and a result file's phi and area, relative


class SupportBody(namedtuple("SupportBody", ("width", "support_coeffs"))):
    """Constant-width planar body: width plus support-function coefficients,
    checked at construction. Records here are named tuples, not dataclasses,
    so that a validate process does not import the dataclasses module."""

    __slots__ = ()

    def __new__(cls, width: float, support_coeffs: SpectralCoeffs):
        if not math.isfinite(width) or width <= 0:
            raise ValueError(f"width must be finite and > 0, got {width}")
        if support_coeffs.dim != 2:
            raise ValueError("SupportBody requires dim-2 coefficients")
        return super().__new__(cls, width, support_coeffs)


def disk(width: float) -> SupportBody:
    """The disk of the given width (radius width/2)."""
    from .harmonic_core import SpectralCoeffs

    return SupportBody(width, SpectralCoeffs(2, 0, [0.5 * width / MEAN_BASIS]))


def body_from_deviation(width: float, deviation: SpectralCoeffs) -> SupportBody:
    """Assemble p = width/2 + deviation from a mean-free deviation expansion."""
    if deviation.dim != 2:
        raise ValueError("deviation must be dim-2 coefficients")
    vals = deviation.values.copy()
    vals[0] += 0.5 * width / MEAN_BASIS
    return SupportBody(width, deviation.with_values(vals))


def curvature_coeffs(body: SupportBody) -> SpectralCoeffs:
    """Coefficients of the curvature radius R = p'' + p: degree k scales by 1 - k^2."""
    c = body.support_coeffs
    return c.with_values((1.0 - c.degrees() ** 2.0) * c.values)


def _eval2(coeffs: SpectralCoeffs, omega) -> np.ndarray | float:
    """Evaluate a dim-2 expansion at arbitrary angles."""
    import numpy as np

    om = np.asarray(omega, dtype=float)
    scalar = om.ndim == 0
    om = np.atleast_1d(om)
    out = np.full(om.shape, coeffs.values[0] * MEAN_BASIS)
    inv_sqrt_pi = 1.0 / np.sqrt(np.pi)
    for k in range(1, coeffs.max_degree + 1):
        a, b = coeffs.values[2 * k - 1], coeffs.values[2 * k]
        if a != 0.0 or b != 0.0:
            out += (a * np.cos(k * om) + b * np.sin(k * om)) * inv_sqrt_pi
    return float(out[0]) if scalar else out


def eval_support(body: SupportBody, omega) -> np.ndarray | float:
    """Support function p at the given outward-normal angles."""
    return _eval2(body.support_coeffs, omega)


def eval_curvature_radius(body: SupportBody, omega) -> np.ndarray | float:
    """Curvature radius R = p'' + p at the given angles."""
    return _eval2(curvature_coeffs(body), omega)


def area_quadrature(body: SupportBody, grid: SphereGrid) -> float:
    """Area as the quadrature of (1/2) p R over normal directions."""
    from .harmonic_core import synthesize

    p = synthesize(body.support_coeffs, grid)
    r = synthesize(curvature_coeffs(body), grid)
    return 0.5 * grid.inner(p, r)


def _area_parseval(values: list[float]) -> float:
    """area_quadrature of the support in the flat dim-2 layout, with math: by
    Parseval, (1/2) sum_k (1 - k^2) c_k^2 over its coefficients c_k, summed
    with fsum. The trapezoid rule on 2L + 2 nodes integrates p R, of degree
    2L, exactly, so that quadrature gives this sum up to rounding."""
    return 0.5 * math.fsum((1 - ((i + 1) // 2) ** 2) * c * c for i, c in enumerate(values) if c)


def green_denominator(dim: int, degree):
    """(dim - 1) - l (l + dim - 2) at degree l, an int or an integer array: the
    exact eigenvalue of Laplacian + (dim - 1) on S^(dim-1), the inverse of the
    Green operator; 0 at degree 1, the translations, where no inverse exists."""
    return (dim - 1) - degree * (degree + dim - 2)


def area_from_phi(width: float, phi: float) -> float:
    """The area pi B^2 / 4 + phi / 2 of a width-B body whose Green form is phi."""
    return 0.25 * math.pi * width * width + 0.5 * phi


def _green_form(values: list[float], dim: int = 2) -> float:
    """Green form of flat values in dim 2 or 3, with math: c^2 over
    green_denominator per nonzero c at degree k != 1 ((i + 1) // 2 at index i
    in dim 2, isqrt(i) in dim 3), all in one fsum, which rounds the exact sum
    once: the same double in any order of the terms, on any CPU. Where that
    overflows, or its terms overflow to both inf and -inf, it is inf."""
    degree = (lambda i: (i + 1) // 2) if dim == 2 else math.isqrt
    try:
        return math.fsum(c * c / green_denominator(dim, k) for i, c in enumerate(values)
                         if c and (k := degree(i)) != 1)
    except (OverflowError, ValueError):
        return math.inf


def area_spectral(body: SupportBody) -> float:
    """Area as the Green quadratic form (1/2) <G R, R> in coefficient space,
    which is _area_parseval of the support: G undoes the 1 - k^2 of R, and
    degree 1, where R vanishes, adds nothing."""
    return _area_parseval(body.support_coeffs.values.tolist())


def perimeter(body: SupportBody, grid: SphereGrid) -> float:
    """Perimeter as the quadrature of R; equals pi * width for constant width."""
    import numpy as np

    from .harmonic_core import synthesize

    r = synthesize(curvature_coeffs(body), grid)
    return float(np.dot(grid.weights, r))


class CheckResult(NamedTuple):
    """One invariant check; it passes when the residual is finite and within
    the tolerance, so an infinite residual fails even an infinite tolerance."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance and self.residual < math.inf


class ValidationReport(NamedTuple):
    """Gating checks, plus residuals printed as information that decide nothing."""

    checks: tuple[CheckResult, ...]
    info: tuple[CheckResult, ...] = ()

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}: residual={c.residual:.3e} tol={c.tolerance:.3e}")
        lines += [f"INFO {c.name}: residual={c.residual:.3e} (not gated)" for c in self.info]
        return "\n".join(lines)


def validate(body: SupportBody | ShapeFile, convexity_tol: float | None = None) -> ValidationReport:
    """Check the invariants of a body or of a file (shapeio.ShapeFile) in dim
    2 or 3, and report per-check residuals: `orbiform validate` of any file.

    A result file (phi set, as `orbiform optimize --out` writes it) holds a
    curvature window, gated on its flat values in either dim: odd-degrees and
    translation-orthogonality (no even-degree or degree-1 entry, at the
    degrees _green_form reads), and phi (its _green_form; inf where that
    overflows) to relative RESULT_RTOL. In dim 2 area (area_from_phi) follows
    to the same tolerance, and constant-width of the support it implies:
    degree 0 plus B/2 / MEAN_BASIS, degree k >= 2 times 1 / (1 - k^2).
    In dim 3 the window truncates a grid state, whose samples overshoot the
    box wherever the state switches, by an amount that depends on where the
    samples fall: the box-bound of variational.deviation_report is printed as
    information, not gated. A dim-3 shape file holds a curvature-sum
    deviation and gets AdmissibleR's checks, deviation_report. Dim 3 loads
    numpy.

    A file that lists switches, a result or a shape file (`orbiform reuleaux
    --out`), adds switches.switch_checks on its curvature window and is certified with
    math alone; convexity_tol is not used. A shape file's window is each
    support coefficient times 1 - k^2, so the rounding stays relative to the
    window: at 255 switches and degree 4096 closed-form reads 2.1e-14 of its
    largest value, where comparing supports reads 1.2e-11, above RESULT_RTOL.

    Otherwise convexity and curvature-bound sample R on max(64, 4L + 4) nodes
    for band limit L, two per half-period of the highest mode, so the
    residual does not hinge on where the nodes fall on a Gibbs peak: Reuleaux
    3-, 5- and 7-gons at L = 512 to 4096 all read 0.0895 B within 3e-5 B,
    where 2L + 2 nodes give the triangle 0.077 B at L = 1024 and 0.0895 B at
    L = 1023. On a result file they are information: its window truncates a
    grid state, which overshoots the box where it switches (by 0.137 B).
    convexity_tol bounds both (R >= 0 and R <= width), absolute, in
    units of length; it defaults to 1e-9 * width. Where R overflows a double
    its samples are inf or NaN, and both fail with residual inf, with no numpy
    warning. Truncated Reuleaux polygons without their switches need about
    0.12 * width: their truncated square-wave curvature dips 0.0895 * width
    below zero next to each switch angle at every band limit (the Gibbs
    overshoot of a jump of size B), a property of the truncation, not of the
    body.

    Closedness is not checked: R = p'' + p scales degree 1 by 1 - 1^2 = 0, so
    every support expansion gives a closed boundary.
    """
    B, checks, window = body.width, [], None
    if isinstance(body, SupportBody):
        support, switches = body.support_coeffs.values.tolist(), None
    elif body.phi is None:  # a shape file holds the support
        if body.dim == 3:  # or, in dim 3, a curvature-sum deviation: AdmissibleR's checks
            from .variational import deviation_report

            return deviation_report(B, body.coeffs)
        support, switches = body.values, body.switches
    else:  # a result file holds the curvature window
        v = window = body.values
        dim, switches = body.dim, body.switches
        # even degrees: 0, then 4j - 1 and 4j in dim 2; isqrt(i) even in dim 3
        even = v[:1] + v[3::4] + v[4::4] if dim == 2 else [
            c for i, c in enumerate(v) if not math.isqrt(i) % 2]
        green = _green_form(v, dim)
        checks = [
            CheckResult("odd-degrees", max(map(abs, even)), 0.0),
            CheckResult("translation-orthogonality", max(map(abs, v[1:dim + 1]), default=0.0), 0.0),
            CheckResult("phi", abs(body.phi - green), RESULT_RTOL * abs(green)),
        ]
        if dim == 3:  # the box overshoot of a grid state's window: information
            from .variational import deviation_report

            return ValidationReport(tuple(checks),
                                    info=(deviation_report(B, body.coeffs).check("box-bound"),))
        area = area_from_phi(B, body.phi)
        checks.append(CheckResult("area", abs(body.area - area), RESULT_RTOL * abs(area)))
        support = [c * (1.0 / (1 - ((i + 1) // 2) ** 2)) if i > 2 else 0.0 for i, c in enumerate(v)]
        support[0] = v[0] + 0.5 * B / MEAN_BASIS
    # constant width: mean B/2 and no even degree >= 2 (at 4j - 1 and 4j) in the support
    even = max(map(abs, support[3::4] + support[4::4]), default=0.0)
    mean = abs(support[0] * MEAN_BASIS - 0.5 * B)
    checks.append(CheckResult("constant-width", max(even, mean), 1e-10 * B))
    if switches is not None:
        if window is None:  # the curvature form of a shape file's support
            window = [(1.0 - ((i + 1) // 2) ** 2) * c if i else 0.0 for i, c in enumerate(support)]
        from .switches import switch_checks

        return ValidationReport(tuple(checks + switch_checks(switches, B, window)))

    import numpy as np

    from .harmonic_core import _synthesize2, coeff_degrees

    if convexity_tol is None:
        convexity_tol = 1e-9 * B
    p = np.array(support, dtype=float)
    L = p.size // 2
    with np.errstate(over="ignore", invalid="ignore"):
        r_vals = _synthesize2((1.0 - coeff_degrees(2, L) ** 2.0) * p, max(64, 4 * L + 4))
    lo, hi = (r_vals.min(), r_vals.max()) if np.isfinite(r_vals).all() else (-math.inf, math.inf)
    sampled = (
        CheckResult("convexity", max(0.0, -float(lo)), convexity_tol),
        CheckResult("curvature-bound", max(0.0, float(hi) - B), convexity_tol),
    )
    if window is not None:  # a result file's truncated window: information
        return ValidationReport(tuple(checks), info=sampled)
    return ValidationReport((*checks, *sampled))


def random_body(rng: np.random.Generator, width: float = 1.0) -> SupportBody:
    """Random valid constant-width body.

    Draws odd-degree (3 to 15) curvature-deviation coefficients with a 1/k^2
    decay, rescales so |R - width/2| <= 0.4 * width on a fine grid, and
    integrates back to the support function through the resolvent multipliers.
    """
    import numpy as np

    from .harmonic_core import SpectralCoeffs, _synthesize2, apply_green

    L = 15
    r_dev = np.zeros(2 * L + 1)
    for k in range(3, L + 1, 2):
        scale = 1.0 / (k * k)
        r_dev[2 * k - 1] = rng.normal(0.0, scale)
        r_dev[2 * k] = rng.normal(0.0, scale)
    rc = SpectralCoeffs(2, L, r_dev)
    vals = _synthesize2(rc.values, 256)  # synthesize on make_grid(2, 256)
    peak = float(np.max(np.abs(vals)))
    if peak > 0:
        rc = rc.with_values(rc.values * (0.4 * width / peak))
    return body_from_deviation(width, apply_green(rc))
