"""Spectral machinery on the circle and the 2-sphere.

Everything downstream works with real orthonormal harmonic expansions: Fourier
modes on S^1, real spherical harmonics on S^2. Coefficients are plain L2 inner
products against the orthonormal basis functions, so Parseval holds with no
extra weights. Grids are antipodally closed quadrature rules. One band rule
holds for analyze and synthesize in both dims: resolution >= 2L + 2 for band
limit L, which makes the pair exact on band-limited functions. Both dims
transform by real FFTs along the azimuth; on the sphere each order then sums
the Gauss-Legendre rings against a Legendre table (the separation of variables
of Driscoll & Healy 1994). SphereGrid.derived holds it, like every table built
from a grid, so a grid's tables are freed with the grid.

The Green operator implemented here is the reduced resolvent of the spherical
Laplacian at its second eigenvalue d-1: diagonal in the harmonic basis, with
the degree-1 eigenspace excluded (that subspace is the kernel of translations
and the resolvent is undefined on it). require_translation_free is the one
degree-1 check: apply_green, spheroform3d.phi1 and variational.AdmissibleR
call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .body2d import SQRT_PI, _green_form, green_denominator

__all__ = [
    "GridFn",
    "SphereGrid",
    "SpectralCoeffs",
    "ClosednessError",
    "make_grid",
    "num_coeffs",
    "coeff_degrees",
    "zero_coeffs",
    "analyze",
    "synthesize",
    "apply_laplacian",
    "apply_green",
    "quadratic_form_green",
    "project_linear_H",
    "translation_residual",
    "require_translation_free",
]

# Values of a function sampled at the nodes of a SphereGrid, shape (grid.size,).
GridFn = np.ndarray

TWO_PI = 2.0 * np.pi
SPHERE_AREA = 4.0 * np.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)
TINY = 2.2250738585072014e-308  # np.finfo(float).tiny, the least normal float

DEGREE_ONE_RTOL = 1e-12  # degree-1 residual over the norm that still counts as translation-free


class ClosednessError(ValueError):
    """A degree-1 harmonic component blocks an operation that needs a closed boundary."""


@dataclass(frozen=True, eq=False)  # compares by identity: the fields are arrays
class SphereGrid:
    """Antipodally closed quadrature grid on S^1 (dim 2) or S^2 (dim 3).

    Attributes
    ----------
    dim : ambient dimension, 2 or 3.
    resolution : grid parameter; node count on S^1, azimuthal count on S^2
        (polar count is resolution // 2).
    nodes : (N, dim) unit vectors.
    weights : (N,) positive quadrature weights summing to the sphere measure.
    antipode_index : (N,) permutation with node[a[i]] == -node[i]; an involution.
    angles : (N,) polar angle omega for dim 2; (N, 2) columns (theta, phi) for dim 3.
    """

    dim: int
    resolution: int
    nodes: np.ndarray
    weights: np.ndarray
    antipode_index: np.ndarray
    angles: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def derived(self, key: tuple, build: Callable[[], object]):
        """The table stored under key, made by build() on first use; freed with the grid."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    @property
    def size(self) -> int:
        return self.weights.size

    def inner(self, f: GridFn, g: GridFn) -> float:
        """Quadrature L2 inner product of two grid functions."""
        return float(np.dot(self.weights, np.asarray(f) * np.asarray(g)))


def make_grid(dim: int, resolution: int) -> SphereGrid:
    """Build the quadrature grid.

    dim 2: uniform nodes omega_i = 2*pi*i/N with trapezoid weights (spectrally
    exact). dim 3: Gauss-Legendre polar nodes crossed with a uniform azimuth;
    antipodally closed because the Legendre nodes are symmetric in cos(theta)
    and the azimuth count is even.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if resolution % 2 != 0 or resolution < 8:
        raise ValueError(f"resolution must be even and >= 8, got {resolution}")

    if dim == 2:
        n = resolution
        idx = np.arange(n)
        angles = TWO_PI * idx / n
        nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        weights = np.full(n, TWO_PI / n)
        antipode = (idx + n // 2) % n
        return SphereGrid(2, resolution, nodes, weights, antipode, angles)

    n_az = resolution
    n_pol = resolution // 2
    mu, w_mu = np.polynomial.legendre.leggauss(n_pol)  # ascending, symmetric
    theta = np.arccos(mu)
    phi = TWO_PI * np.arange(n_az) / n_az
    # flat layout: node (j, i) -> j * n_az + i
    tt = np.repeat(theta, n_az)
    pp = np.tile(phi, n_pol)
    ct = np.repeat(mu, n_az)
    st = np.repeat(np.sqrt(np.maximum(0.0, 1.0 - mu * mu)), n_az)
    nodes = np.stack([st * np.cos(pp), st * np.sin(pp), ct], axis=1)
    weights = np.repeat(w_mu, n_az) * (TWO_PI / n_az)
    j = np.repeat(np.arange(n_pol), n_az)
    i = np.tile(np.arange(n_az), n_pol)
    antipode = (n_pol - 1 - j) * n_az + (i + n_az // 2) % n_az
    angles = np.stack([tt, pp], axis=1)
    return SphereGrid(3, resolution, nodes, weights, antipode, angles)


def num_coeffs(dim: int, max_degree: int) -> int:
    return 2 * max_degree + 1 if dim == 2 else (max_degree + 1) ** 2


def coeff_degrees(dim: int, max_degree: int) -> np.ndarray:
    """Per-coefficient degree labels for the flat coefficient layout."""
    if dim == 2:
        return np.concatenate(([0], np.repeat(np.arange(1, max_degree + 1), 2)))
    ell = np.arange(max_degree + 1)
    return np.repeat(ell, 2 * ell + 1)


@dataclass(frozen=True)
class SpectralCoeffs:
    """Real orthonormal harmonic coefficients up to max_degree.

    Layout: dim 2 -> [ (0,cos), (1,cos), (1,sin), (2,cos), (2,sin), ... ];
    dim 3 -> degree blocks of size 2*degree+1, orders -degree..degree.
    """

    dim: int
    max_degree: int
    values: np.ndarray

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        vals = np.asarray(self.values, dtype=float)
        expected = num_coeffs(self.dim, self.max_degree)
        if vals.shape != (expected,):
            raise ValueError(
                f"coefficient vector has shape {vals.shape}, expected ({expected},)"
            )
        if not np.isfinite(vals).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "values", vals)

    def degrees(self) -> np.ndarray:
        return coeff_degrees(self.dim, self.max_degree)

    def degree_slice(self, degree: int) -> slice:
        if degree > self.max_degree or degree < 0:
            return slice(0, 0)
        if self.dim == 2:
            return slice(0, 1) if degree == 0 else slice(2 * degree - 1, 2 * degree + 1)
        return slice(degree * degree, (degree + 1) ** 2)

    def with_values(self, values: np.ndarray) -> "SpectralCoeffs":
        return SpectralCoeffs(self.dim, self.max_degree, values)

    def norm(self) -> float:
        v = self.values
        squares = np.vdot(v, v)  # as v @ v, but an overflow to inf raises no warning
        if squares == math.inf:  # past about 1.3e154: scale by the largest magnitude
            top = np.abs(v).max()
            return float(top) * math.sqrt(np.vdot(v / top, v / top))  # float product: inf, no warning
        return math.sqrt(squares)


def zero_coeffs(dim: int, max_degree: int) -> SpectralCoeffs:
    return SpectralCoeffs(dim, max_degree, np.zeros(num_coeffs(dim, max_degree)))


def _normalized_legendre(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal associated Legendre values P[m, i, l] at abscissae x[i].

    Normalized so that the real spherical harmonics built as P[0, :, l]
    (m = 0) and sqrt(2) * P[m, :, l] * cos/sin(m*phi) (m > 0) are an
    orthonormal family on S^2; zero for l < m. Standard stable recursion, one
    step per degree for all orders at once; no factorials.
    """
    L = max_degree
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    P = np.zeros((L + 1, x.size, L + 1))
    P[0, :, 0] = np.sqrt(1.0 / SPHERE_AREA)
    for m in range(1, L + 1):
        P[m, :, m] = np.sqrt((2 * m + 1) / (2.0 * m)) * s * P[m - 1, :, m - 1]
    for m in range(0, L):
        P[m, :, m + 1] = np.sqrt(2 * m + 3.0) * x * P[m, :, m]
    for ell in range(2, L + 1):
        m = np.arange(ell - 1)[:, None]
        a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
        b = np.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
        P[: ell - 1, :, ell] = a * (x * P[: ell - 1, :, ell - 1] - b * P[: ell - 1, :, ell - 2])
    return P


def _legendre_table(grid: SphereGrid, max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, gather) of the dim-3 transform, held by the grid per band limit.

    table[m, ring, l] is P at that ring's mu, times sqrt(2) for m > 0.
    gather[k] is where flat coefficient k sits in the (L+1, L+1, 2) array of
    [m, l, (cos, sin)] amplitudes that the transforms contract against it.
    """
    def build():
        L = max_degree
        table = _normalized_legendre(L, grid.nodes[:: grid.resolution, 2])
        table[1:] *= np.sqrt(2.0)
        ell = coeff_degrees(3, L)
        order = np.arange(ell.size) - ell * (ell + 1)
        return table, 2 * (np.abs(order) * (L + 1) + ell) + (order < 0)
    return grid.derived(("legendre", max_degree), build)


def _analyze2(f: np.ndarray, max_degree: int) -> np.ndarray:
    """Trapezoid inner products with 1/sqrt(2 pi), cos(k w)/sqrt(pi), sin(k w)/sqrt(pi).

    The rfft bin F_k is sum_j f_j exp(-i k w_j), so with the uniform weight
    2 pi / N the cos and sin sums are Re F_k and -Im F_k. Needs
    max_degree <= N / 2 - 1.
    """
    spec = np.fft.rfft(f)[: max_degree + 1] * (TWO_PI / f.size)
    # spec as floats is re_0, im_0, re_1, im_1, ...: drop im_0, then scale
    # and turn the sign of each im_k, which is exact
    out = spec.view(float)[1:] / SQRT_PI
    out[0] = spec[0].real / SQRT_TWO_PI
    out[2::2] *= -1.0
    return out


def _synthesize2(values: np.ndarray, n: int) -> np.ndarray:
    """The dim-2 expansion at the n uniform nodes, by one inverse rfft.

    a cos(k w) + b sin(k w) is the real part of (a - i b) exp(i k w); irfft
    pads the bins past the band limit with zeros.
    """
    spec = np.empty((values.size + 1) // 2, dtype=complex)
    spec[0] = values[0] * n / SQRT_TWO_PI
    spec[1:] = (values[1::2] - 1j * values[2::2]) * (0.5 * n / SQRT_PI)
    return np.fft.irfft(spec, n)


def _require_resolution(grid: SphereGrid, max_degree: int) -> None:
    if grid.resolution < 2 * max_degree + 2:
        raise ValueError(
            f"grid resolution {grid.resolution} cannot transform degree {max_degree}; "
            f"need resolution >= {2 * max_degree + 2}"
        )


def analyze(grid: SphereGrid, f: GridFn, max_degree: int) -> SpectralCoeffs:
    """Forward transform: quadrature inner products against the orthonormal basis,
    up to band limit max_degree.

    Exact for band-limited f when resolution >= 2 * max_degree + 2, and raises
    ValueError below it. Dim 2 is one real FFT; dim 3 is a real FFT along each
    polar ring followed by a per-order sum over the rings.
    """
    _require_resolution(grid, max_degree)
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.size,):
        raise ValueError(f"grid function has shape {f.shape}, expected ({grid.size},)")
    if grid.dim == 2:
        return SpectralCoeffs(2, max_degree, _analyze2(f, max_degree))
    table, gather = _legendre_table(grid, max_degree)
    # unscaled ihfft: per ring, sum w f cos(m phi) + i sum w f sin(m phi)
    rings = np.fft.ihfft((grid.weights * f).reshape(-1, grid.resolution), norm="forward")
    parts = np.ascontiguousarray(rings[:, : max_degree + 1].T).view(float)
    parts = parts.reshape(max_degree + 1, -1, 2)  # [m, ring, (cos, sin)]
    return SpectralCoeffs(3, max_degree, (table.transpose(0, 2, 1) @ parts).ravel()[gather])


def synthesize(coeffs: SpectralCoeffs, grid: SphereGrid) -> GridFn:
    """Evaluate the expansion at the grid nodes.

    Needs resolution >= 2 * max_degree + 2 in both dims, as analyze does. Dim
    2 is one inverse real FFT; dim 3 is a per-order sum over the rings
    followed by an inverse real FFT along each ring.
    """
    if coeffs.dim != grid.dim:
        raise ValueError(f"dimension mismatch: coeffs dim {coeffs.dim}, grid dim {grid.dim}")
    L = coeffs.max_degree
    _require_resolution(grid, L)
    if grid.dim == 2:
        return _synthesize2(coeffs.values, grid.size)
    table, gather = _legendre_table(grid, L)
    amps = np.zeros(2 * (L + 1) ** 2)
    amps[gather] = coeffs.values
    rings = (table @ amps.reshape(L + 1, L + 1, 2)).view(complex)[..., 0]  # [m, ring]
    rings[1:] *= 0.5
    # hfft of (a_m + i b_m) / 2, a_0 at m = 0, is sum a_m cos(m phi) + b_m sin(m phi)
    return np.fft.hfft(rings.T, grid.resolution).ravel()


def apply_laplacian(coeffs: SpectralCoeffs) -> SpectralCoeffs:
    """Spectral Laplace-Beltrami on S^(dim-1): multiply each degree-l
    coefficient by -l (l + dim - 2), the eigenvalue of the Laplacian there."""
    degs = coeffs.degrees()
    lam = degs * (degs + coeffs.dim - 2)
    return coeffs.with_values(-lam * coeffs.values)


def translation_residual(coeffs: SpectralCoeffs) -> tuple[float, float]:
    """(largest |degree-1 coefficient|, 0.0 at band limit 0; DEGREE_ONE_RTOL *
    norm): the expansion is free of the degree-1 harmonics, the translations,
    when the first does not exceed the second."""
    block = coeffs.values[coeffs.degree_slice(1)]
    tol = DEGREE_ONE_RTOL * max(coeffs.norm(), TINY)
    if tol == math.inf:  # the norm overflows: (RTOL top) |c / top|, top the largest |c|
        top = float(np.abs(coeffs.values).max())
        tol = DEGREE_ONE_RTOL * top * coeffs.with_values(coeffs.values / top).norm()
    return (float(np.abs(block).max()) if block.size else 0.0), tol


def require_translation_free(coeffs: SpectralCoeffs, what: str) -> None:
    """Raise ClosednessError naming the largest degree-1 coefficient if any."""
    resid, tol = translation_residual(coeffs)
    if resid <= tol:
        return
    # the degree-1 block is (cos, sin) in dim 2 and orders -1, 0, 1 in dim 3
    idx = int(np.argmax(np.abs(coeffs.values[coeffs.degree_slice(1)])))
    label = ("part=cos", "part=sin")[idx] if coeffs.dim == 2 else f"order={idx - 1}"
    raise ClosednessError(
        f"{what} has a degree-1 component: coefficient (degree=1, {label}) "
        f"has magnitude {resid:.3e}, tolerance {tol:.3e}"
    )


def apply_green(coeffs: SpectralCoeffs) -> SpectralCoeffs:
    """Apply the reduced resolvent: solve laplacian(p) + (dim-1) p = input on H1.

    The input must pass require_translation_free; the output has exact zeros
    at degree 1.
    """
    require_translation_free(coeffs, "resolvent input")
    ell = coeffs.degrees()
    mult = 1.0 / np.where(ell == 1, np.inf, green_denominator(coeffs.dim, ell))  # 0 at degree 1
    return coeffs.with_values(coeffs.values * mult)


def quadratic_form_green(coeffs: SpectralCoeffs) -> float:
    """<G f, f> = sum over degrees l != 1 of coeff^2 / body2d.green_denominator,
    degree 1 ignored: body2d._green_form of the values, one fsum, inf where it overflows."""
    return _green_form(coeffs.values.tolist(), coeffs.dim)


def project_linear_H(coeffs: SpectralCoeffs) -> SpectralCoeffs:
    """Orthogonal projection onto the odd-degree (>= 3) harmonic subspace.

    That subspace is exactly the antipodally antisymmetric functions orthogonal
    to the degree-1 harmonics: odd degrees flip sign under the antipodal map,
    and dropping degree 1 removes the translation modes.
    """
    degs = coeffs.degrees()
    keep = (degs % 2 == 1) & (degs >= 3)
    out = np.where(keep, coeffs.values, 0.0)
    return coeffs.with_values(out)
