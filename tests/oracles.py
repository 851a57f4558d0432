"""Closed-form oracles, derived independently of the library code they check.

Every constant frozen here was computed from the formulas in this file (or by
direct arithmetic on them), never by running the code under test.
"""

import json
import math

import numpy as np
from numpy.polynomial import legendre

TWO_PI = 2.0 * np.pi

# Frozen expected values.
TRIANGLE_AREA = 0.704770923010458  # (pi - sqrt(3)) / 2, width 1
PENTAGON_AREA = 0.7584970862126308  # (pi - 5 tan(pi/10)) / 2, width 1
TRIANGLE_PHI = -0.16125448077398064  # pi/2 - sqrt(3): 2*(A - pi/4) at width 1
BALL3_PHI1 = 2.0943951023931953  # 2 pi / 3, width 1 ball in R^3
CORNER_AMPLITUDE_3 = 0.07735026918962573  # (sec(pi/6) - 1) / 2
CORNER_AMPLITUDE_5 = 0.025731112119133592  # (sec(pi/10) - 1) / 2
TRIANGLE_VERTEX_RADIUS = 0.5773502691896258  # 1/sqrt(3): centroid to vertex, width 1


def index2(degree: int, part: str) -> int:
    """Flat index of the dim-2 coefficient (degree, part), part in {cos, sin}:
    the constant first, then a (cos, sin) pair per degree."""
    if part not in ("cos", "sin"):
        raise ValueError(f"part must be 'cos' or 'sin', got {part!r}")
    if degree == 0:
        if part == "sin":
            raise ValueError("degree 0 has no sin part")
        return 0
    return 2 * degree - 1 + (part == "sin")


def index3(degree: int, order: int) -> int:
    """Flat index of the dim-3 coefficient (degree, order), order in
    [-degree, degree]: degree blocks of size 2 degree + 1, orders ascending.
    Negative orders are the sin-type harmonics, non-negative the cos-type."""
    if abs(order) > degree:
        raise ValueError(f"|order| <= degree required, got ({degree}, {order})")
    return degree * degree + degree + order


def corner_amplitude(n: int, width: float) -> float:
    """Support of the Reuleaux n-gon at a corner, over the mean B/2: the corner
    sits at distance B / (2 cos(pi / (2n))) from the centre, so the amplitude
    m solves cos(pi / (2n)) = B / (2m + B)."""
    return 0.5 * width * (1.0 / math.cos(math.pi / (2 * n)) - 1.0)


def reuleaux_area_segments(n: int, width: float) -> float:
    """Area by decomposition: regular vertex polygon plus n circular segments.

    Each arc spans angle pi/n at radius equal to the width, so its chord is
    2 width sin(pi/(2n)); the vertex polygon is the regular n-gon on those
    chords. Independent of the closed form (pi - n tan(pi/(2n))) width^2 / 2.
    """
    chord = 2.0 * width * np.sin(np.pi / (2 * n))
    polygon = 0.25 * n * chord * chord / np.tan(np.pi / n)
    segment = 0.5 * width * width * (np.pi / n - np.sin(np.pi / n))
    return polygon + n * segment


def square_wave_cos_coeff(n: int, width: float, k: int) -> float:
    """Orthonormal cos-k coefficient of the centered curvature square wave.

    Integrates window by window: the wave is 0 on corner windows and width on
    arc windows, each window spanning pi/n, the first corner window centered
    at angle 0. Exact per-window antiderivatives, no sampling involved.
    """
    alpha = np.pi / (2 * n)
    total = 0.0
    for j in range(2 * n):
        a = (2 * j - 1) * alpha
        b = (2 * j + 1) * alpha
        value = (width if j % 2 == 1 else 0.0) - 0.5 * width
        total += value * (np.sin(k * b) - np.sin(k * a)) / k
    return total / np.sqrt(np.pi)


def reuleaux_curvature(n: int, width: float, omega: np.ndarray) -> np.ndarray:
    """Curvature radius of the Reuleaux n-gon at the angles omega: 0 on the
    corner windows [(2k - 1) alpha, (2k + 1) alpha) of even k, width on the
    arc windows of odd k, alpha = pi / (2n); the first corner window is
    centered at angle 0."""
    alpha = math.pi / (2 * n)
    k = np.floor((omega + alpha) / (2.0 * alpha))
    return np.where(k % 2 != 0, width, 0.0)


def reuleaux_deviation_coeffs(n: int, width: float, max_degree: int) -> np.ndarray:
    """Flat dim-2 coefficients of the Reuleaux n-gon's R - width/2 up to max_degree.

    R - width/2 is -(width/2) sgn(cos(n w)), and sgn(cos x) = (4/pi) sum over
    odd j of (-1)^((j-1)/2) cos(j x) / j, so the wave has cosine harmonics only
    at k = j n, with amplitude -(2 width / pi) (-1)^((j-1)/2) / j; the
    orthonormal cos-k coefficient is that amplitude times sqrt(pi).
    """
    out = np.zeros(2 * max_degree + 1)
    for j in range(1, max_degree // n + 1, 2):
        sign = -1.0 if (j - 1) // 2 % 2 else 1.0
        out[2 * j * n - 1] = -(2.0 * width / math.pi) * sign / j * math.sqrt(math.pi)
    return out


def boundary_points(values, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points (x, y) at the normal angles w_j = 2 pi j / n of the
    support with flat dim-2 coefficients values: x(w) = p(w) (cos w, sin w) +
    p'(w) (-sin w, cos w), with p and p' summed mode by mode from the basis
    1/sqrt(2 pi), cos(k w)/sqrt(pi), sin(k w)/sqrt(pi). The angle k w_j is
    taken as 2 pi ((k j) mod n) / n, so no mode loses digits to its size.
    """
    j = np.arange(n)
    p = np.full(n, values[0] / np.sqrt(TWO_PI))
    dp = np.zeros(n)
    for k in range(1, (len(values) - 1) // 2 + 1):
        a, b = values[2 * k - 1], values[2 * k]
        if a or b:
            kw = TWO_PI * (k * j % n) / n
            c, s = np.cos(kw), np.sin(kw)
            p += (a * c + b * s) / np.sqrt(np.pi)
            dp += k * (b * c - a * s) / np.sqrt(np.pi)
    w = TWO_PI * j / n
    return p * np.cos(w) - dp * np.sin(w), p * np.sin(w) + dp * np.cos(w)


def switch_kernel_s(x):
    """S(x) = sum over odd k >= 3 of cos(k x) / (k^2 (1 - k^2)), for |x| <= pi.

    Partial fractions give 1 / (k^2 (1 - k^2)) = 1 / k^2 - 1 / (k^2 - 1), and
    the two odd-k cosine series have closed forms on |x| <= pi:
    sum_{k odd >= 1} cos(k x) / k^2 = (pi / 8)(pi - 2|x|) (the triangle wave),
    from which the k = 1 term cos x is taken out, and
    sum_{k odd >= 3} cos(k x) / (k^2 - 1) = (cos x + (2|x| - pi) sin|x|) / 4
    (integrating the right side against cos(k x) over [-pi, pi] by parts gives
    pi / (k^2 - 1) at odd k >= 3 and 0 at k = 1 and at even k).
    """
    a = np.abs(x)
    triangle = 0.125 * np.pi * (np.pi - 2.0 * a) - np.cos(x)
    resolvent = 0.25 * (np.cos(a) + (2.0 * a - np.pi) * np.sin(a))
    return triangle - resolvent


def switch_kernel(x):
    """(S'(x), S''(x)) for |x| <= pi. S(x) = sum over odd k >= 3 of cos(k x) /
    (k^2 (1 - k^2)) = (pi/8)(pi - 2|x|) - cos x - (cos x + (2|x| - pi) sin|x|)/4,
    by 1/(k^2 (1 - k^2)) = 1/k^2 - 1/(k^2 - 1) and the two odd-k cosine series.
    The Green form of a switch list is (4/pi) sum_ij J_i J_j S(theta_i - theta_j)."""
    a = np.abs(x)
    cos, sin = np.cos(a), np.sin(a)
    u = 2.0 * a - np.pi
    return np.sign(x) * (0.75 * sin - 0.25 * u * cos - 0.25 * np.pi), 0.25 * (cos + u * sin)


def switch_phi(theta, width: float) -> float:
    """Green form of the bang-bang curvature with switch angles theta in [0, pi).

    The curvature deviation is -B/2 on [0, theta_1) and jumps by +B, -B, ...
    at the listed angles (and by the opposite jumps at theta_j + pi). Its
    orthonormal (cos, sin) pair at odd k is (2 / (k sqrt(pi))) sum_j J_j
    (-sin k theta_j, cos k theta_j), so sum_k |c_k|^2 / (1 - k^2) over odd
    k >= 3 is (4 / pi) sum_ij J_i J_j S(theta_i - theta_j).
    """
    theta = np.asarray(theta, dtype=float)
    jumps = width * (-1.0) ** np.arange(theta.size)
    return float(4.0 / np.pi * jumps @ switch_kernel_s(theta[:, None] - theta[None, :]) @ jumps)


def switch_support(switches, width: float, omega):
    """Band-free mean-free support of a closed switch body at any real angles:
    pbar(w) = -(2/pi) sum_k J_k S'(w - theta_k) for w mod 2 pi in [0, pi), and
    pbar(w + pi) = -pbar(w). S has no degree 1, so a list that does not close
    gives the support of its window's degrees >= 3, summed pair by pair with
    switch_kernel's S' in numpy: the reference for the support, and for the
    residuals of switches.switch_system, which the switch polish solves."""
    theta = np.asarray(switches, dtype=float)
    jumps = width * (-1.0) ** np.arange(theta.size)
    om = np.mod(omega, 2.0 * np.pi)
    upper = om >= np.pi
    ds, _ = switch_kernel(np.subtract.outer(np.where(upper, om - np.pi, om), theta))
    p = np.where(upper, 2.0, -2.0) / np.pi * (ds @ jumps)
    return float(p) if p.ndim == 0 else p


def switch_phi_pairwise(theta, width: float) -> float:
    """switch_phi summed pair by pair with math, in the listed order: n S(0)
    plus each pair i > j once, doubled, S being even; J_i J_j = B^2 when i
    and j have the same parity and -B^2 otherwise. The sum over n^2 / 2
    kernel values is taken with fsum."""
    theta = [float(t) for t in theta]

    def kernel(x: float) -> float:
        a = abs(x)
        c, u = math.cos(a), 2.0 * a - math.pi
        return 0.125 * math.pi * (math.pi - 2.0 * a) - c - 0.25 * (c + u * math.sin(a))

    terms = [len(theta) * kernel(0.0)]
    for i, t in enumerate(theta):
        terms += [(-2.0 if (i + j) % 2 else 2.0) * kernel(t - u) for j, u in enumerate(theta[:i])]
    return 4.0 / math.pi * width * width * math.fsum(terms)


def json_text(payload) -> str:
    """A file's text as the standard library's encoder writes it."""
    return json.dumps(payload, indent=2) + "\n"


def ball3_phi1(width: float) -> float:
    """(1/3) <G[R], R> for the width-B ball: R is the constant (d-1) B/2 = B.

    G multiplies the constant mode by 1/(d-1) = 1/2 and the sphere carries
    measure 4 pi, so the value is (1/3)(1/2) B^2 (4 pi) = 2 pi B^2 / 3.
    """
    return 2.0 * np.pi * width * width / 3.0


def fourier_matrix(n: int, max_degree: int) -> np.ndarray:
    """Orthonormal cos/sin basis at the n uniform nodes, one column per mode.

    Columns follow the flat dim-2 layout: 1/sqrt(2 pi), then cos(k w)/sqrt(pi)
    and sin(k w)/sqrt(pi) for k = 1..max_degree, at w_j = 2 pi j / n. Built
    column by column from the definitions; modes at or past n/2 are evaluated
    as they are, with no folding.
    """
    omega = TWO_PI * np.arange(n) / n
    cols = [np.full(n, 1.0 / np.sqrt(TWO_PI))]
    for k in range(1, max_degree + 1):
        cols.append(np.cos(k * omega) / np.sqrt(np.pi))
        cols.append(np.sin(k * omega) / np.sqrt(np.pi))
    return np.stack(cols, axis=1)


def real_sph_harm_matrix(max_degree: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Orthonormal real spherical harmonics at (theta, phi), one column per (l, m).

    Columns follow the flat dim-3 layout: column l*l + l + m for m = -l..l.
    P_l^m(x) = (1 - x^2)^(m/2) d^m/dx^m P_l(x) is the Rodrigues derivative
    form with no Condon-Shortley phase, the derivative of the Legendre
    polynomial P_l taken by numpy.polynomial.legendre, and
    N_lm = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!). Order 0 is N_l0 P_l(cos theta),
    order m > 0 is sqrt(2) N_lm P_l^m(cos theta) cos(m phi), and order -m the
    same with sin(m phi). Built column by column from these definitions.
    """
    x = np.cos(theta)
    out = np.empty((x.size, (max_degree + 1) ** 2))
    for ell in range(max_degree + 1):
        p_ell = np.zeros(ell + 1)
        p_ell[ell] = 1.0
        for m in range(ell + 1):
            plm = (1.0 - x * x) ** (m / 2) * legendre.legval(x, legendre.legder(p_ell, m))
            ratio = math.factorial(ell - m) / math.factorial(ell + m)
            norm = np.sqrt((2 * ell + 1) / (4.0 * np.pi) * ratio)
            if m == 0:
                out[:, ell * ell + ell] = norm * plm
            else:
                out[:, ell * ell + ell + m] = np.sqrt(2.0) * norm * plm * np.cos(m * phi)
                out[:, ell * ell + ell - m] = np.sqrt(2.0) * norm * plm * np.sin(m * phi)
    return out
