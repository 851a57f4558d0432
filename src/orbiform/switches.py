"""Switch space: the bang-bang bodies that minimize the area, by their angles.

Their curvature radius R takes only the values 0 and B. The convention: R = 0
just after angle 0, jumps J_j = +B, -B, +B, ... at the switch angles 0 <=
theta_1 < ... < theta_n < pi, n odd, and by antipodal antisymmetry -J_j at
theta_j + pi. switch_window is the closed-form window of such a body,
switch_checks the gates of a file that holds one, switch_phi its band-free
Green form, and switch_system the first-order conditions of that form over
the angles, which polish solves from angles read off a grid. Importing this
module loads no numpy; polish imports numpy.linalg when it runs.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import NamedTuple

from .body2d import RESULT_RTOL, SQRT_PI, CheckResult, _green_form

__all__ = ["SwitchPolish", "switch_jumps", "switch_window", "switch_checks", "switch_phi",
           "switch_system", "polish"]

CLOSURE_RTOL = 1e-12  # closure of a switch list, over the width
POLISH_RTOL = 1e-14  # polish stops here: residuals over B; rounding leaves ~1e-16
POLISH_MAX_STEPS = 20  # Newton steps of polish; 3 or 4 suffice from a grid minimizer


def switch_jumps(count: int, width: float) -> list[float]:
    """The jumps of R at listed switch angles: +B, -B, +B, ..., count of them."""
    return [width if j % 2 == 0 else -width for j in range(count)]


def switch_window(switches, width: float, max_degree: int) -> tuple[list[float], list[float]]:
    """Closed form of a bang-bang curvature deviation, from its switch angles.

    The deviation R - B/2 is -B/2 on [0, theta_1) and jumps by J_j at
    theta_j. Integrating by parts, its (cos, sin) coefficient pair at odd
    degree k is (2 / (k sqrt(pi))) sum_j J_j (-sin k theta_j, cos k theta_j),
    and zero at even k. Returns (values, closure) as lists:

    - values: that window in the flat dim-2 layout up to max_degree, at odd
      degrees 3..max_degree, exact zeros elsewhere;
    - closure: sum_j J_j (sin theta_j, cos theta_j), which is sqrt(pi) / 2
      times the degree-1 pair up to sign: zero exactly when the boundary closes.

    math only, for any count and order of the angles, each sum taken in their
    listed order; switch_checks gates both.
    """
    theta, width = [float(t) for t in switches], float(width)
    jumps = switch_jumps(len(theta), width)
    ks = range(3, max_degree + 1, 2)
    sin_sums, cos_sums = [0.0] * len(ks), [0.0] * len(ks)
    for t, jump in zip(theta, jumps):
        kt = [k * t for k in ks]
        sin_sums = [a + s * jump for a, s in zip(sin_sums, map(math.sin, kt))]
        cos_sums = [a + c * jump for a, c in zip(cos_sums, map(math.cos, kt))]
    scale = 2.0 / SQRT_PI
    values = [0.0] * (2 * max_degree + 1)
    for k, s, c in zip(ks, sin_sums, cos_sums):
        values[2 * k - 1] = -scale * s / k
        values[2 * k] = scale * c / k
    sin_closure = cos_closure = 0.0
    for t, jump in zip(theta, jumps):
        sin_closure += jump * math.sin(t)
        cos_closure += jump * math.cos(t)
    return values, [sin_closure, cos_closure]


def switch_checks(switches, width: float, curvature) -> list[CheckResult]:
    """The exact gates of a bang-bang body with these switch angles, whose
    curvature deviation R - B/2 a file holds as curvature, in the flat dim-2
    layout up to its band limit. No tolerance goes beyond rounding:

    - switches: an odd count of angles in [0, pi) (residual: faults found);
    - closure: the closure of switch_window, to CLOSURE_RTOL * B;
    - closed-form: curvature equals switch_window's window at the same band
      limit to RESULT_RTOL of the window's largest value;
    - convexity and curvature-bound: R read off the switches in their listed
      order, from R = 0 on [0, theta_1) by jumps of +B, -B, ..., stays in
      {0, B}; angles out of order push a piece to -B or 2B.

    math only, at a cost of the switch count times the band limit in sin and
    cos calls.
    """
    theta = [float(t) for t in switches]
    n = len(theta)
    window, closure = switch_window(theta, width, (len(curvature) - 1) // 2)
    faults = (n % 2 == 0) + sum(not 0.0 <= t < math.pi for t in theta)
    jumps, levels = switch_jumps(n, width), [0.0]
    for j in sorted(range(n), key=theta.__getitem__):
        levels.append(levels[-1] + jumps[j])
    return [
        CheckResult("switches", float(faults), 0.0),
        CheckResult("closure", max(map(abs, closure)), CLOSURE_RTOL * width),
        CheckResult("closed-form", max(abs(c - w) for c, w in zip(curvature, window)),
                    RESULT_RTOL * max(map(abs, window))),
        CheckResult("convexity", max(0.0, -min(levels)), 0.0),
        CheckResult("curvature-bound", max(0.0, max(levels) - width), 0.0),
    ]


def switch_phi(switches, width: float) -> float:
    """Band-free Green form of a switch list: phi = (4/pi) sum_ij J_i J_j
    S(theta_i - theta_j), with the jumps J of switch_jumps and the kernel S(x)
    = sum over odd k >= 3 of cos(k x) / (k^2 (1 - k^2)). The body of a closed
    list has area pi B^2 / 4 + phi / 2.

    On |x| <= pi, S(x) = pi^2/8 - (5/4) cos x - (1/2) x sin x - (pi/4)|x| +
    (pi/4) sin|x|. The first three terms are smooth and separable, so their
    double sums are products of totals over j of J_j {1, cos, sin, theta cos,
    theta sin}(theta_j). The last two depend on |x|: over the angles in
    increasing order they take each pair i > j once, doubled, through running
    sums over j < i of J_j {1, theta_j, cos theta_j, sin theta_j}. The totals
    and the per-angle terms are summed with fsum; math only, O(n) elementary
    functions after one sort, and the area of a regular list is within n eps
    B^2 of reuleaux.closed_area."""
    theta = [float(t) for t in switches]
    jumps = switch_jumps(len(theta), 1.0)
    cos, sin = [math.cos(t) for t in theta], [math.sin(t) for t in theta]
    c = math.fsum(j * x for j, x in zip(jumps, cos))
    s = math.fsum(j * x for j, x in zip(jumps, sin))
    tc = math.fsum(j * t * x for j, t, x in zip(jumps, theta, cos))
    ts = math.fsum(j * t * x for j, t, x in zip(jumps, theta, sin))
    # J_i sum_{j<i} J_j (theta_i - theta_j), and the same of sin(theta_i - theta_j)
    lin, sines = [], []
    a0 = at = ac = as_ = 0.0
    for i in sorted(range(len(theta)), key=theta.__getitem__):
        jump, t = jumps[i], theta[i]
        lin.append(jump * (t * a0 - at))
        sines.append(jump * (sin[i] * ac - cos[i] * as_))
        a0, at, ac, as_ = a0 + jump, at + jump * t, ac + jump * cos[i], as_ + jump * sin[i]
    smooth = 0.125 * math.pi**2 * sum(jumps) ** 2 - 1.25 * (c * c + s * s) - (ts * c - tc * s)
    kink = 0.5 * math.pi * (math.fsum(sines) - math.fsum(lin))
    return 4.0 / math.pi * width * width * (smooth + kink)


def switch_system(switches, lam) -> tuple[list[float], list[list[float]]]:
    """(residuals, Jacobian) of the switch polish's first-order system, in
    units of B (jumps J_k = +-1, lam the closure's multipliers over B).

    Residuals: pbar(theta_j) + lam[0] cos theta_j + lam[1] sin theta_j at
    each switch, pbar(w) = -(2/pi) sum_k J_k S'(w - theta_k) the band-free
    support, then the closure of switch_window; columns theta_1..theta_n,
    lam[0], lam[1]. With u = 2|x| - pi, on |x| <= pi: S'(x) = sign(x) (3/4
    sin|x| - u cos|x| / 4 - pi/4) and S''(x) = (cos|x| + u sin|x|) / 4, S
    being switch_phi's kernel. Off the diagonal d pbar(theta_j) / d theta_k =
    (2/pi) J_k S''(theta_j - theta_k); a rotation moves no pbar(theta_j), so
    the diagonal is minus the rest of its row, plus the multipliers' term.
    math only: one pass over the pairs, each row summed in listed order.
    """
    theta = [float(t) for t in switches]
    lam0, lam1 = map(float, lam)
    n = len(theta)
    jumps = switch_jumps(n, 1.0)
    cos, sin = [math.cos(t) for t in theta], [math.sin(t) for t in theta]
    sums = [0.0] * n  # sum_k J_k S'(theta_j - theta_k)
    jac = [[0.0] * (n + 2) for _ in range(n + 2)]
    for j in range(n):
        for k in range(j + 1, n):
            x = theta[j] - theta[k]
            a = abs(x)
            c, s, u = math.cos(a), math.sin(a), 2.0 * a - math.pi
            ds = math.copysign(1.0, x) * (0.75 * s - 0.25 * u * c - 0.25 * math.pi)
            dds = 2.0 / math.pi * (0.25 * (c + u * s))
            jac[j][k], jac[k][j] = jumps[k] * dds, jumps[j] * dds
            sums[j], jac[j][j] = sums[j] + jumps[k] * ds, jac[j][j] - jac[j][k]  # row j
            sums[k], jac[k][k] = sums[k] - jumps[j] * ds, jac[k][k] - jac[k][j]  # row k
        jac[j][j] = jac[j][j] - lam0 * sin[j] + lam1 * cos[j]  # row j has all its pairs
        jac[j][n:] = cos[j], sin[j]
        jac[n][j], jac[n + 1][j] = jumps[j] * cos[j], -jumps[j] * sin[j]
    resid = [-2.0 / math.pi * t + lam0 * c + lam1 * s for t, c, s in zip(sums, cos, sin)]
    return resid + switch_window(theta, 1.0, 0)[1], jac


class SwitchPolish(NamedTuple):
    """A dim-2 minimizer's switch angles solved off the grid, or why not.

    declined is None when the solve converged. Then switches are the angles
    in this module's convention (of the minimizer's body or of that body
    turned by pi, whichever has R = 0 just after angle 0), window their
    closed-form window at the minimizer's band limit in the flat dim-2
    layout, phi its Green form and area pi B^2 / 4 + phi / 2. closure and
    stationarity are the certificate, both over B: the largest closure
    component, and max_j |pbar(theta_j) + l(theta_j)| with l the degree-1
    multiplier of the closure. Otherwise declined says why, and the fields
    after steps are None: no declined polish reports switches.
    """

    steps: int
    declined: str | None = None
    switches: tuple[float, ...] | None = None
    window: list[float] | None = None
    phi: float | None = None
    area: float | None = None
    closure: float | None = None
    stationarity: float | None = None


def _half_turn_list(theta: list[float]) -> tuple[list[float], bool]:
    """(angles, turned): an end angle past 0 or pi replaced by its antipode
    at the other end of the list.

    Ordered angles a little outside [0, pi) arise when a fit moves an end
    angle over the edge. The antipode carries the opposite jump, so in
    switch_window's convention the new list is the body turned by pi (its
    window negated); turned says whether that happened.
    """
    if theta[0] < 0.0:
        return theta[1:] + [theta[0] + math.pi], True
    if theta[-1] >= math.pi:
        return [theta[-1] - math.pi] + theta[:-1], True
    return theta, False


def polish(read: list[float], width: float, max_degree: int) -> SwitchPolish:
    """Newton's method on switch_system from an odd count of ordered angles
    read off a grid, to the body's switch angles and its window at max_degree.

    Moving switch j moves phi by -4 J_j pbar(theta_j) (the L2 gradient of
    phi is 2 pbar, and each switch has an antipodal twin). So a minimum of
    phi over the angles with a closed boundary solves pbar(theta_j) +
    l(theta_j) = 0 at every switch, l the degree-1 harmonic of the closure's
    multipliers, together with the closure. A rotation moves neither phi nor
    the closure (rank n + 1), so the gauge, the mean of the angles summed in
    listed order, is held at that of read, in place of stationarity at
    theta_1: sum_j J_j (pbar + l)(theta_j) is B lam . closure (S' is odd).
    It stops once all n + 3 residuals over B are at most POLISH_RTOL, and
    declines, saying why, on a singular Newton system, at POLISH_MAX_STEPS
    steps, or when the angles, an end angle past 0 or pi turned by pi
    (_half_turn_list), leave their order in [0, pi).
    """
    from numpy.linalg import LinAlgError, solve

    n = len(read)
    gauge = reduce(add, read) / n
    theta, lam = list(read), [0.0, 0.0]
    for steps in range(POLISH_MAX_STEPS + 1):
        resid, jac = switch_system(theta, lam)
        resid.append(reduce(add, theta) / n - gauge)
        worst = math.nan if any(map(math.isnan, resid)) else max(map(abs, resid))
        if worst <= POLISH_RTOL or not math.isfinite(worst) or steps == POLISH_MAX_STEPS:
            break
        jac[0] = [1.0 / n] * n + [0.0, 0.0]  # the gauge: the mean of the angles
        try:
            step = solve(jac, [resid[-1], *resid[1:-1]]).tolist()
        except LinAlgError:
            return SwitchPolish(steps, f"a singular Newton system at step {steps}")
        theta = [t - d for t, d in zip(theta, step)]
        lam = [m - d for m, d in zip(lam, step[n:])]
    if not worst <= POLISH_RTOL:
        return SwitchPolish(
            steps, f"no convergence in {steps} Newton steps (largest residual {worst:.3e} of B)")
    theta, turned = _half_turn_list(theta)
    if turned:
        resid = switch_system(theta, [-m for m in lam])[0]
    if not (theta[0] >= 0.0 and all(a < b for a, b in zip(theta, theta[1:])) and theta[-1] < math.pi):
        return SwitchPolish(steps, "the switch angles left their order in [0, pi)")
    window = switch_window(theta, width, max_degree)[0]
    phi = _green_form(window)  # as body2d.validate reads it back
    return SwitchPolish(
        steps,
        switches=tuple(theta),
        window=window,
        phi=phi,
        area=0.25 * math.pi * width * width + 0.5 * phi,
        closure=max(map(abs, resid[n : n + 2])),
        stationarity=max(map(abs, resid[:n])),
    )
