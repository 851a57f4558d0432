"""Reference values the benchmark checks orbiform's outputs against.

Everything here is derived from closed forms and numpy alone; nothing imports
orbiform, so a fault in the program cannot leak into its own reference.

Conventions match the shape files: dim-2 coefficients are on the orthonormal
basis 1/sqrt(2 pi), cos(k w)/sqrt(pi), sin(k w)/sqrt(pi); dim-3 coefficients
are on real orthonormal spherical harmonics (total measure 4 pi).
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def green_multiplier(dim: int, degree) -> np.ndarray:
    """Resolvent multiplier g_l = 1 / ((d - 1) - l (l + d - 2)) of degree l."""
    ell = np.asarray(degree, dtype=float)
    return 1.0 / ((dim - 1) - ell * (ell + dim - 2))


def blaschke_lebesgue_area(width: float) -> float:
    """Least area of a planar body of constant width: (pi - sqrt(3)) / 2 * B^2."""
    return 0.5 * (np.pi - np.sqrt(3.0)) * width * width


def reuleaux_area_segments(n: int, width: float) -> float:
    """Area of the Reuleaux n-gon as its vertex polygon plus n circular segments.

    Each arc has radius B and spans pi/n, so its chord is 2 B sin(pi/(2n));
    the vertex polygon is the regular n-gon on those chords (apothem
    chord / (2 tan(pi/n))) and each segment is B^2 (theta - sin theta) / 2.
    """
    chord = 2.0 * width * np.sin(np.pi / (2 * n))
    polygon = n * chord * chord / (4.0 * np.tan(np.pi / n))
    theta = np.pi / n
    segment = 0.5 * width * width * (theta - np.sin(theta))
    return float(polygon + n * segment)


def reuleaux_area_closed(n: int, width: float) -> float:
    """Textbook closed form (pi - n tan(pi/(2n))) B^2 / 2, for the self-check."""
    return float(0.5 * width * width * (np.pi - n * np.tan(np.pi / (2 * n))))


def reuleaux_support_coeff(n: int, width: float, k: int) -> float:
    """Orthonormal cos-k support coefficient of the Reuleaux n-gon, k >= 2.

    The curvature radius is a square wave: 0 on the 2n corner windows (even j)
    and B on the arc windows (odd j), window j spanning angle pi/n around
    j pi/n, so the first corner window is centred at 0. Its deviation from
    B/2 is integrated against cos(k w)/sqrt(pi) window by window with exact
    antiderivatives; the support coefficient is that divided by 1 - k^2.
    """
    alpha = np.pi / (2 * n)
    j = np.arange(2 * n)
    lo = (2 * j - 1) * alpha
    hi = (2 * j + 1) * alpha
    level = np.where(j % 2 == 1, 0.5 * width, -0.5 * width)
    r_k = float(np.sum(level * (np.sin(k * hi) - np.sin(k * lo)))) / (k * np.sqrt(np.pi))
    return r_k / (1.0 - k * k)


def area_from_support(degrees: np.ndarray, values: np.ndarray) -> float:
    """Area (1/2) int (p^2 - p'^2) of a dim-2 support expansion: (1/2) sum (1 - k^2) c^2."""
    k = np.asarray(degrees, dtype=float)
    c = np.asarray(values, dtype=float)
    return float(0.5 * np.sum((1.0 - k * k) * c * c))


def phi_from_deviation(dim: int, degrees: np.ndarray, values: np.ndarray) -> float:
    """phi = sum g_l c^2 over a mean-free curvature-deviation expansion."""
    c = np.asarray(values, dtype=float)
    return float(np.sum(green_multiplier(dim, degrees) * c * c))


def area_from_phi(phi: float, width: float) -> float:
    """Planar area of the body whose deviation has functional value phi: pi B^2/4 + phi/2."""
    return np.pi * width * width / 4.0 + 0.5 * phi


def phi1_from_phi(phi: float, width: float) -> float:
    """phi_1 = (1/3) <G R, R> in dim 3: the ball's 2 pi B^2/3 plus phi/3."""
    return TWO_PI * width * width / 3.0 + phi / 3.0


def surface_area_from_phi(phi: float, width: float) -> float:
    """Dim-3 candidate surface area S = (3/2) phi_1 = pi B^2 + phi/2."""
    return 1.5 * phi1_from_phi(phi, width)


def phi3_floor(width: float) -> float:
    """Lowest dim-3 phi the box bound allows: |g_l| <= 1/10 for l >= 3 and
    sum c^2 <= B^2 * 4 pi, so phi >= -(4 pi / 10) B^2."""
    return -0.4 * np.pi * width * width


def ball_phi1(width: float) -> float:
    """phi_1 of the width-B ball from its expansion: R = B is the constant mode
    B sqrt(4 pi), and G scales degree 0 by g_0 = 1/2."""
    c0 = width * np.sqrt(4.0 * np.pi)
    return float(green_multiplier(3, 0) * c0 * c0 / 3.0)


def self_check() -> list[str]:
    """Check the oracles against independent closed forms; returns the failures."""
    errors = []
    for n in range(3, 23, 2):
        for width in (0.5, 1.0, 1.7):
            seg = reuleaux_area_segments(n, width)
            closed = reuleaux_area_closed(n, width)
            if abs(seg - closed) > 1e-14 * width * width:
                errors.append(f"segment area n={n} B={width}: {seg!r} != {closed!r}")
    if abs(reuleaux_area_segments(3, 1.0) - blaschke_lebesgue_area(1.0)) > 1e-15:
        errors.append("Reuleaux triangle area differs from the Blaschke-Lebesgue value")
    for width in (0.5, 1.0, 1.7):
        if abs(ball_phi1(width) - TWO_PI * width * width / 3.0) > 1e-14 * width * width:
            errors.append(f"ball phi1 at B={width}: {ball_phi1(width)!r}")
        disk = area_from_support(np.array([0]), np.array([0.5 * width * np.sqrt(TWO_PI)]))
        if abs(disk - np.pi * width * width / 4.0) > 1e-14 * width * width:
            errors.append(f"disk area from its support expansion at B={width}: {disk!r}")
    if float(green_multiplier(2, 3)) != -1.0 / 8.0:
        errors.append(f"dim-2 g_3 = {float(green_multiplier(2, 3))!r}, expected -1/8")
    if float(green_multiplier(3, 3)) != -1.0 / 10.0:
        errors.append(f"dim-3 g_3 = {float(green_multiplier(3, 3))!r}, expected -1/10")
    # the square-wave coefficients reproduce the polygon's area when summed
    # far enough: the tail after degree K is O(1/K^3)
    for n in (3, 5):
        ks = np.arange(n, 20001, 2 * n)
        c = np.array([reuleaux_support_coeff(n, 1.0, int(k)) for k in ks])
        c0 = 0.5 * np.sqrt(TWO_PI)
        area = area_from_support(np.concatenate(([0], ks)), np.concatenate(([c0], c)))
        if abs(area - reuleaux_area_segments(n, 1.0)) > 1e-9:
            errors.append(f"square-wave series area n={n}: {area!r}")
    return errors


if __name__ == "__main__":
    failures = self_check()
    for line in failures:
        print("FAIL", line)
    print("oracle self-check:", "FAIL" if failures else "ok")
    raise SystemExit(1 if failures else 0)
