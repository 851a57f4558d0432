"""Planar constant-width bodies represented by their support function.

A convex body of constant width B has support function p with p(w) + p(w+pi) = B.
In harmonic coefficients that means the mean of p is B/2, every even degree >= 2
vanishes, and the odd degrees are free (degree 1 is a translation). The
curvature radius of the boundary is R = p'' + p, a diagonal operation in
coefficient space: degree k scales by (1 - k^2). Convexity is R >= 0 and the
constant-width relation forces 0 <= R <= B. validate reports these
invariants as CheckResults with width-scaled tolerances; area_spectral refuses
a curvature radius with a degree-1 part (harmonic_core.require_translation_free).
switch_window is the closed form of a bang-bang curvature, R in {0, B} with
finitely many switches, which is what the minimizers of the area are;
switch_support is that body's support with no band limit (switch_kernel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonic_core import (
    SQRT_PI,
    SpectralCoeffs,
    SphereGrid,
    TWO_PI,
    apply_green,
    coeff_degrees,
    differentiate,
    index2,
    make_grid,
    num_coeffs,
    quadratic_form_green,
    require_translation_free,
    synthesize,
    zero_coeffs,
)

__all__ = [
    "SupportBody",
    "CheckResult",
    "ValidationReport",
    "disk",
    "body_from_deviation",
    "curvature_coeffs",
    "eval_support",
    "eval_support_derivative",
    "eval_curvature_radius",
    "boundary_point",
    "boundary",
    "area_quadrature",
    "area_spectral",
    "perimeter",
    "switch_jumps",
    "switch_window",
    "switch_kernel",
    "switch_support",
    "validate",
    "random_body",
]

MEAN_BASIS = 1.0 / np.sqrt(TWO_PI)  # value of the orthonormal constant mode on S^1


@dataclass(frozen=True)
class SupportBody:
    """Constant-width planar body: width plus support-function coefficients."""

    width: float
    support_coeffs: SpectralCoeffs

    def __post_init__(self):
        if not np.isfinite(self.width) or self.width <= 0:
            raise ValueError(f"width must be finite and > 0, got {self.width}")
        if self.support_coeffs.dim != 2:
            raise ValueError("SupportBody requires dim-2 coefficients")

    @property
    def max_degree(self) -> int:
        return self.support_coeffs.max_degree


def disk(width: float) -> SupportBody:
    """The disk of the given width (radius width/2)."""
    c = zero_coeffs(2, 0).values.copy()
    c[0] = 0.5 * width / MEAN_BASIS
    return SupportBody(width, SpectralCoeffs(2, 0, c))


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
    degs = coeff_degrees(2, c.max_degree)
    return c.with_values((1.0 - degs.astype(float) ** 2) * c.values)


def switch_jumps(count: int, width: float) -> np.ndarray:
    """The jumps of R at listed switch angles: +B, -B, +B, ..., count of them."""
    return width * (-1.0) ** np.arange(count)


def switch_window(switches, width: float, max_degree: int) -> tuple[SpectralCoeffs, np.ndarray]:
    """Closed form of a bang-bang curvature deviation, from its switch angles.

    The deviation R - B/2 is -B/2 on [0, theta_1) and jumps by J_j = +B, -B,
    +B, ... at the switch angles 0 <= theta_1 < ... < theta_n < pi, n odd;
    antipodal antisymmetry gives the jumps -J_j at theta_j + pi, so R takes
    only the values 0 and B. Integrating by parts, its (cos, sin) coefficient
    pair at odd degree k is (2 / (k sqrt(pi))) sum_j J_j (-sin k theta_j,
    cos k theta_j), and zero at even k. Returns (coeffs, closure):

    - coeffs: that window at odd degrees 3..max_degree, exact zeros elsewhere;
    - closure: sum_j J_j (sin theta_j, cos theta_j), which is sqrt(pi) / 2
      times the degree-1 pair up to sign: zero exactly when the boundary closes.

    The sums are taken for any count and order of the angles; validate_result
    in variational checks both.
    """
    theta = np.asarray(switches, dtype=float)
    jumps = switch_jumps(theta.size, width)
    k = np.arange(3, max_degree + 1, 2)
    kt = np.multiply.outer(k, theta)
    scale = 2.0 / SQRT_PI
    values = np.zeros(num_coeffs(2, max_degree))
    values[2 * k - 1] = -scale * (np.sin(kt) @ jumps) / k
    values[2 * k] = scale * (np.cos(kt) @ jumps) / k
    closure = np.array([jumps @ np.sin(theta), jumps @ np.cos(theta)])
    return SpectralCoeffs(2, max_degree, values), closure


def switch_kernel(x):
    """(S'(x), S''(x)) for |x| <= pi. S(x) = sum over odd k >= 3 of cos(k x) /
    (k^2 (1 - k^2)) = (pi/8)(pi - 2|x|) - cos x - (cos x + (2|x| - pi) sin|x|)/4,
    by 1/(k^2 (1 - k^2)) = 1/k^2 - 1/(k^2 - 1) and the two odd-k cosine series.
    The Green form of a switch list is (4/pi) sum_ij J_i J_j S(theta_i - theta_j)."""
    a = np.abs(x)
    cos, sin = np.cos(a), np.sin(a)
    u = 2.0 * a - np.pi
    return np.sign(x) * (0.75 * sin - 0.25 * u * cos - 0.25 * np.pi), 0.25 * (cos + u * sin)


def switch_support(switches, width: float, omega) -> np.ndarray | float:
    """Band-free mean-free support of a closed switch body at any real angles:
    pbar(w) = -(2/pi) sum_k J_k S'(w - theta_k) for w mod 2 pi in [0, pi), and
    pbar(w + pi) = -pbar(w). S has no degree 1, so a list that does not close
    gives the support of its window's degrees >= 3."""
    theta = np.asarray(switches, dtype=float)
    om = np.mod(omega, TWO_PI)
    upper = om >= np.pi
    ds, _ = switch_kernel(np.subtract.outer(np.where(upper, om - np.pi, om), theta))
    p = np.where(upper, 2.0, -2.0) / np.pi * (ds @ switch_jumps(theta.size, width))
    return float(p) if p.ndim == 0 else p


def _eval2(coeffs: SpectralCoeffs, omega) -> np.ndarray | float:
    """Evaluate a dim-2 expansion at arbitrary angles."""
    om = np.asarray(omega, dtype=float)
    scalar = om.ndim == 0
    om = np.atleast_1d(om)
    out = np.full(om.shape, coeffs.values[0] * MEAN_BASIS)
    inv_sqrt_pi = 1.0 / np.sqrt(np.pi)
    for k in range(1, coeffs.max_degree + 1):
        a = coeffs.values[index2(k, "cos")]
        b = coeffs.values[index2(k, "sin")]
        if a != 0.0 or b != 0.0:
            out += (a * np.cos(k * om) + b * np.sin(k * om)) * inv_sqrt_pi
    return float(out[0]) if scalar else out


def eval_support(body: SupportBody, omega) -> np.ndarray | float:
    """Support function p at the given outward-normal angles."""
    return _eval2(body.support_coeffs, omega)


def eval_support_derivative(body: SupportBody, omega) -> np.ndarray | float:
    return _eval2(differentiate(body.support_coeffs), omega)


def eval_curvature_radius(body: SupportBody, omega) -> np.ndarray | float:
    """Curvature radius R = p'' + p at the given angles."""
    return _eval2(curvature_coeffs(body), omega)


def _boundary_map(p: np.ndarray, dp: np.ndarray, om: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x(w) = p(w) (cos w, sin w) + p'(w) (-sin w, cos w), as (x, y)."""
    c, s = np.cos(om), np.sin(om)
    return p * c - dp * s, p * s + dp * c


def boundary_point(body: SupportBody, omega) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Boundary point with outward normal at angle omega."""
    om = np.asarray(omega, dtype=float)
    return _boundary_map(eval_support(body, om), eval_support_derivative(body, om), om)


def boundary(body: SupportBody, grid: SphereGrid) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points (x, y) at the normal angles of any dim-2 grid.

    p and p' are synthesized on the grid refined by the least power of two
    that carries the band limit, and every step-th node is kept: 2 pi i / n
    scales by powers of two without rounding, so those are the grid's angles.
    """
    if grid.dim != 2:
        raise ValueError("boundary requires a dim-2 grid")
    step = 1
    while grid.resolution * step < 2 * body.max_degree + 2:
        step *= 2
    fine = make_grid(2, grid.resolution * step)
    p = synthesize(body.support_coeffs, fine)[::step]
    dp = synthesize(differentiate(body.support_coeffs), fine)[::step]
    return _boundary_map(p, dp, grid.angles)


def area_quadrature(body: SupportBody, grid: SphereGrid) -> float:
    """Area as the quadrature of (1/2) p R over normal directions."""
    p = synthesize(body.support_coeffs, grid)
    r = synthesize(curvature_coeffs(body), grid)
    return 0.5 * grid.inner(p, r)


def area_spectral(body: SupportBody) -> float:
    """Area as the Green quadratic form (1/2) <G R, R> in coefficient space.

    R never carries degree 1 for a closed boundary (the factor 1 - k^2 kills it),
    so the reduced resolvent applies; a degree-1 residue raises ClosednessError.
    """
    r = curvature_coeffs(body)
    require_translation_free(r, "curvature radius")
    return 0.5 * quadratic_form_green(r)


def perimeter(body: SupportBody, grid: SphereGrid) -> float:
    """Perimeter as the quadrature of R; equals pi * width for constant width."""
    r = synthesize(curvature_coeffs(body), grid)
    return float(np.dot(grid.weights, r))


@dataclass(frozen=True)
class CheckResult:
    """One invariant check; it passes when the residual is within the tolerance."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class ValidationReport:
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


def validate(body: SupportBody, convexity_tol: float | None = None) -> ValidationReport:
    """Check the constant-width invariants and report per-check residuals.

    The curvature checks sample R on max(64, 4L + 4) nodes for band limit L,
    two per half-period of the highest mode, so the residual does not hinge on
    where the nodes fall on a Gibbs peak: Reuleaux 3-, 5- and 7-gons at
    L = 512 to 4096 all read 0.0895 * width within 3e-5 * width, where 2L + 2
    nodes give the triangle 0.077 * width at L = 1024 and 0.0895 at L = 1023.

    convexity_tol bounds both curvature checks (R >= 0 and R <= width) and
    is absolute, in units of length; it defaults to 1e-9 * width.
    Spectrally truncated Reuleaux polygons need a relaxed value that scales
    with the width, about 0.12 * width: plain Fourier truncation of their
    square-wave curvature dips 0.0895 * width below zero next to each switch
    angle, at every band limit (the Gibbs overshoot of a jump of size B),
    which is a property of the truncation, not a defect of the body. A bare
    0.12 therefore only fits width 1.

    Closedness is not checked: R = p'' + p scales degree 1 by 1 - 1^2 = 0, so
    every support expansion gives a closed boundary.
    """
    B = body.width
    c = body.support_coeffs
    L = c.max_degree
    grid = make_grid(2, max(64, 4 * L + 4))
    if convexity_tol is None:
        convexity_tol = 1e-9 * B

    degs = coeff_degrees(2, L)
    even_mask = (degs % 2 == 0) & (degs >= 2)
    even_resid = float(np.max(np.abs(c.values[even_mask]))) if even_mask.any() else 0.0
    mean_resid = abs(c.values[0] * MEAN_BASIS - 0.5 * B)
    r_vals = synthesize(curvature_coeffs(body), grid)
    checks = [
        CheckResult("constant-width", max(even_resid, mean_resid), 1e-10 * B),
        CheckResult("convexity", max(0.0, -float(np.min(r_vals))), convexity_tol),
        CheckResult("curvature-bound", max(0.0, float(np.max(r_vals)) - B), convexity_tol),
    ]
    return ValidationReport(tuple(checks))


def random_body(
    rng: np.random.Generator,
    width: float = 1.0,
    max_degree: int = 15,
    margin: float = 0.1,
) -> SupportBody:
    """Random valid constant-width body.

    Draws odd-degree (>= 3) curvature-deviation coefficients with a 1/k^2 decay,
    rescales so |R - width/2| <= (0.5 - margin) * width on a fine grid, and
    integrates back to the support function through the resolvent multipliers.
    """
    if not 0.0 < margin < 0.5:
        raise ValueError("margin must be in (0, 0.5)")
    L = max_degree
    r_dev = zero_coeffs(2, L).values.copy()
    for k in range(3, L + 1, 2):
        scale = 1.0 / (k * k)
        r_dev[index2(k, "cos")] = rng.normal(0.0, scale)
        r_dev[index2(k, "sin")] = rng.normal(0.0, scale)
    rc = SpectralCoeffs(2, L, r_dev)
    fine = make_grid(2, max(256, 4 * L + 4))
    vals = synthesize(rc, fine)
    peak = float(np.max(np.abs(vals)))
    if peak > 0:
        rc = rc.with_values(rc.values * ((0.5 - margin) * width / peak))
    return body_from_deviation(width, apply_green(rc))
