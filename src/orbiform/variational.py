"""The constrained quadratic functional whose minimizers are bang-bang.

State is the curvature-radius deviation from its constant-width mean, sampled
on a grid. The admissible set combines a linear subspace (odd harmonics of
degree >= 3: antipodally antisymmetric, orthogonal to the translation modes)
with a pointwise box |value| <= (dim-1) * width / 2. The functional is the
Green quadratic form, strictly negative definite on the subspace, so its
minimum over the box sits at extreme points: a.e. on the boundary of the box
wherever the gradient (twice the mean-free support function) is nonzero.
admissibility_residuals computes the three checks (box, antisymmetry,
degree 1) once; AdmissibleR enforces them and deviation_report samples them
for body2d.validate, which `orbiform validate` runs on every file: all three
on a dim-3 shape file, and the box as information on a dim-3 result file,
whose exact invariants it checks in math as it does those of dim 2.

Projection onto the intersection is solved exactly: the box is odd and
separable, so only the degree-1 constraints couple the nodes, and their 2
(dim 2) or 3 (dim 3) Lagrange multipliers solve a small concave dual (a
continuous quadratic knapsack with 2-3 constraints). The solve runs on one
node per antipodal pair. Each step solves the Newton system once (with a
Levenberg shift only where the dual Hessian is singular) and keeps the full
step while the dual still rises at it; otherwise it moves to the exact
maximizer along the same direction by a breakpoint line search.
Minimization is projected gradient descent with a doubling step, stopped
by DESCENT_RTOL or, unconverged, at DESCENT_MAX_ITERATIONS; each restart
reports its projection work in its OptimizationResult.

On a grid a switch of the bang-bang minimizer can sit only at a node, so in
dim 2 the descent's answer approaches the truth only as N^-2.
polish_switches reads the winning restart's switch angles off the grid and
takes them off it with switches.polish: Newton's method on the band-free
first-order conditions of phi over the angles, with the closure of the
boundary as a constraint (switching-time optimization in bang-bang
control). The result then carries the exact body it certifies,
OptimizationResult.polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import shapeio, switches
from .body2d import CheckResult, ValidationReport
from .harmonic_core import (
    GridFn,
    SpectralCoeffs,
    SPHERE_AREA,
    SphereGrid,
    TWO_PI,
    analyze,
    coeff_degrees,
    make_grid,
    project_linear_H,
    require_translation_free,
    synthesize,
    translation_residual,
)

__all__ = [
    "AdmissibleR",
    "BangBangReport",
    "NumericalFailure",
    "OptimizationResult",
    "admissibility_residuals",
    "box_bound",
    "project_admissible",
    "phi",
    "phi_gradient",
    "support_deviation",
    "minimize_restarts",
    "polish_switches",
    "best_restart",
    "bang_bang_report",
    "canonical_align",
    "result_to_json",
    "deviation_report",
]

ADMISSIBLE_ATOL = 1e-12  # slack of the box and antisymmetry checks, per unit width
PROJECTION_RTOL = 1e-13  # degree-1 residual, as the box excess it can cause, over the bound
PROJECTION_MAX_STEPS = 100  # Newton steps of the dual solve; a few suffice in practice
DESCENT_RTOL = 1e-12  # the descent stops once a step moves phi by less than this share of it
DESCENT_MAX_ITERATIONS = 50000  # caps a descent that never stops; a few dozen suffice
SINGULAR_RTOL = 1e-10  # |det| over Hadamard's bound below which a small solve is singular
STEP_GROWTH_CAP = 2.0**10  # line-search eta never exceeds this multiple of eta0
BANG_RTOL = 1e-9  # a node within this share of the box bound sits on the box face
BANG_EPSILON = 1e-3  # bang_bang_report's threshold on both fields, per unit width
ALIGN_RTOL = 1e-12  # canonical_align: support maxima this close, over max |pbar|, tie


class NumericalFailure(RuntimeError):
    """An iterative scheme failed to converge within its step budget."""


def box_bound(dim: int, width: float) -> float:
    """Pointwise bound on the curvature deviation: (dim - 1) * width / 2."""
    return 0.5 * (dim - 1) * width


def admissibility_residuals(
    values: GridFn, grid: SphereGrid, width: float, coeffs: SpectralCoeffs
) -> tuple[CheckResult, ...]:
    """The box-bound, antipodal-antisymmetry and translation-orthogonality
    checks. The first two use ADMISSIBLE_ATOL * width, the last
    harmonic_core.translation_residual, so every check is scale-free.
    """
    peak = float(np.abs(values).max())  # a NaN sample is as far out as inf
    box = max(0.0, peak - box_bound(grid.dim, width)) if math.isfinite(peak) else math.inf
    # the first half of the nodes holds one node of each antipodal pair
    h = grid.size // 2
    anti = float(np.abs(values[:h] + values[grid.antipode_index[:h]]).max())  # inf - inf: NaN
    tol = ADMISSIBLE_ATOL * width
    return (
        CheckResult("box-bound", box, tol),
        CheckResult("antipodal-antisymmetry", anti if math.isfinite(anti) else math.inf, tol),
        CheckResult("translation-orthogonality", *translation_residual(coeffs)),
    )


@dataclass(frozen=True)
class AdmissibleR:
    """Admissible curvature deviation: grid samples plus their spectral form.

    Invariants, enforced at construction by admissibility_residuals: box,
    antipodal antisymmetry, and no degree-1 component; a degree-1 failure
    raises ClosednessError. The samples themselves are unrestricted beyond
    that; clipped and other rough states are first-class members. coeffs is
    not an input: it is always analyze(grid, values, max_degree), the
    samples' analysis window at the stated band limit, not a reconstruction.
    max_degree is at least 3, the lowest degree of the window phi reads.
    """

    width: float
    grid: SphereGrid
    max_degree: int
    values: np.ndarray
    coeffs: SpectralCoeffs = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.width) or self.width <= 0:
            raise ValueError(f"width must be finite and > 0, got {self.width}")
        if self.max_degree < 3:
            raise ValueError("the admissible subspace needs max_degree >= 3")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise ValueError("values shape does not match the grid")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "coeffs", analyze(self.grid, vals, self.max_degree))
        for check in admissibility_residuals(vals, self.grid, self.width, self.coeffs):
            if not check.passed:
                if check.name == "translation-orthogonality":
                    require_translation_free(self.coeffs, "curvature deviation")
                raise ValueError(f"{check.name} violated by {check.residual:.3e}")

    @property
    def dim(self) -> int:
        return self.grid.dim


class _Workspace:
    """Window mask and degree-1 columns for one (grid, max_degree) pair.

    Two different linear objects live here. The functional only sees the
    analysis window: coefficients at odd degrees >= 3 up to max_degree give
    phi (phi_of: body2d._green_form's terms and fsum, as validate reads it)
    and, with their Green multipliers, its gradient. The constraint
    subspace for the projection is much bigger: all antipodally antisymmetric
    sample vectors orthogonal to the degree-1 harmonics. Samples are not
    forced to be band-limited; a clipped square wave is a perfectly good
    admissible point whose high harmonics simply fall outside the window.
    """

    def __init__(self, grid: SphereGrid, max_degree: int):
        if max_degree < 3:
            raise ValueError("the admissible subspace needs max_degree >= 3")
        self.grid = grid
        self.max_degree = max_degree
        degs = coeff_degrees(grid.dim, max_degree)
        self.window = (degs % 2 == 1) & (degs >= 3)
        ell = degs[self.window]
        self.denom = (grid.dim - 1.0) - ell * (ell + grid.dim - 2.0)  # of body2d._green_form
        self.green = 1.0 / self.denom
        # the projection works on odd vectors: one node per antipodal pair,
        # the one with the smaller index, carrying the weight of both; in
        # both dims (make_grid's layout) those are the first half of the nodes
        self.half = grid.size // 2
        self.pair = grid.antipode_index[: self.half]
        self.weights = 2.0 * grid.weights[: self.half]
        # the degree-1 harmonics are the coordinates, in flat-index order:
        # (cos, sin) in dim 2, orders -1, 0, 1 = (y, z, x) in dim 3
        nodes = grid.nodes[: self.half]
        if grid.dim == 2:
            self.basis_1 = nodes / np.sqrt(np.pi)
        else:
            self.basis_1 = np.sqrt(3.0 / SPHERE_AREA) * nodes[:, [1, 2, 0]]
        self.basis_1_w = self.basis_1 * self.weights[:, None]
        self.basis_1_sup = float(np.max(np.linalg.norm(self.basis_1, axis=1)))

    def from_subspace(self, coeffs_h: np.ndarray) -> GridFn:
        full = np.zeros(self.window.size)
        full[self.window] = coeffs_h
        return synthesize(SpectralCoeffs(self.grid.dim, self.max_degree, full), self.grid)

    def phi_of(self, coeffs_h: np.ndarray) -> float:
        """body2d._green_form of the window, bitwise: its terms in one fsum."""
        return math.fsum((coeffs_h * coeffs_h / self.denom).tolist())


def _line_max(
    u: np.ndarray, s: np.ndarray, w: np.ndarray, bound: float, slope0: float
) -> float:
    """Maximizer over t > 0 of the dual along lam + t*d, by breakpoint search.

    With u = a - B1 lam and s = B1 d, node i is free while u_i - t*s_i lies
    inside the box, which is one interval of t. The dual's slope along the
    ray is slope0 minus the integral of sum(w_i s_i^2) over the free nodes:
    continuous, nonincreasing, linear between the interval ends, positive at
    0 (an ascent direction) and negative once every node has left the box.
    Sorting the interval ends gives the slope at each of them by cumulative
    sums, and the root is exact inside the linear piece where the sign flips.
    """
    if not s.all():
        moving = s != 0.0
        u, s, w = u[moving], s[moving], w[moving]
    t_a, t_b = (u - bound) / s, (u + bound) / s
    enter = np.maximum(np.minimum(t_a, t_b), 0.0)
    leave = np.maximum(t_a, t_b)
    keep = leave > enter
    curv = (w * s**2)[keep]
    times = np.concatenate((enter[keep], leave[keep]))
    # ndarray methods and ufunc.accumulate: the same sort and sums as the
    # np.argsort and np.cumsum wrappers, without their dispatch cost
    order = times.argsort()
    times = times[order]
    rate = np.add.accumulate(np.concatenate((curv, -curv))[order])  # on [times[j], times[j+1])
    # the slope at breakpoint j is slope0 - drop[j]
    drop = np.zeros(times.size)
    np.add.accumulate(rate[:-1] * (times[1:] - times[:-1]), out=drop[1:])
    j = int(drop.searchsorted(slope0))  # first breakpoint with slope <= 0
    # the slope at 0 is slope0 > 0 and the last one is negative: only rounding
    # reaches either guard
    if j == 0:
        return 0.0
    if j == drop.size:
        return float(times[-1])
    return float(times[j - 1] + (slope0 - drop[j - 1]) / rate[j - 1])


def _solve_small(h: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """h^-1 g for a 2 x 2 or 3 x 3 system, by the adjugate.

    Returns None when |det h| is at most SINGULAR_RTOL times the product of
    the row norms (Hadamard's bound on |det h|): the matrix is then singular
    to working precision and the closed form is not to be trusted.
    """
    if h.shape[0] == 2:
        (a, b), (c, d) = h.tolist()
        det = a * d - b * c
        scale = math.hypot(a, b) * math.hypot(c, d)
        if not abs(det) > SINGULAR_RTOL * scale:
            return None
        g0, g1 = g.tolist()
        return np.array([(d * g0 - b * g1) / det, (a * g1 - c * g0) / det])
    (a, b, c), (d, e, f), (p, q, r) = h.tolist()
    c0, c1, c2 = e * r - f * q, f * p - d * r, d * q - e * p  # cofactors of row 0
    det = a * c0 + b * c1 + c * c2
    scale = math.hypot(a, b, c) * math.hypot(d, e, f) * math.hypot(p, q, r)
    if not abs(det) > SINGULAR_RTOL * scale:
        return None
    g0, g1, g2 = g.tolist()
    return np.array([
        (c0 * g0 + (c * q - b * r) * g1 + (b * f - c * e) * g2) / det,
        (c1 * g0 + (a * r - c * p) * g1 + (c * d - a * f) * g2) / det,
        (c2 * g0 + (b * p - a * q) * g1 + (a * e - b * d) * g2) / det,
    ])


def _project_exact(
    ws: _Workspace, values: GridFn, bound: float
) -> tuple[GridFn, int, int]:
    """Exact metric projection onto the admissible set through its small dual.

    Antisymmetrizing is the projection onto the antisymmetric samples, and the
    odd box commutes with it, so the nearest admissible point is
    x(lam) = clip(a - B1 lam, +-bound) with a the antisymmetric part and lam
    one multiplier per degree-1 harmonic (2 in dim 2, 3 in dim 3) chosen so
    that B1_w^T x(lam) = 0. Everything here is odd, so the solve runs on one
    node per antipodal pair with twice its weight, and the full vector is
    written as x and -x. The multipliers maximize a concave piecewise
    quadratic dual whose gradient is B1_w^T x(lam) and whose generalized
    Hessian is -B1_w^T diag(free) B1. Each step solves the Newton system
    once, adding a Levenberg shift only when that system is singular (fewer
    free antipodal pairs than multipliers, for one). The full step is kept when the dual's
    slope along the direction, d . B1_w^T x_new, is still >= 0 there, or when
    x_new already meets the stopping rule; otherwise the step moves to the
    exact maximizer of the dual along that same direction, a breakpoint line
    search, so the dual rises monotonically. A final subspace step
    x - B1 (B1_w^T x) removes the residual degree-1 part; the stopping rule
    caps the box excess it can add at PROJECTION_RTOL * bound, and a last clip
    takes that excess back. Returns (values, Newton steps taken, steps that
    took the line search); more than PROJECTION_MAX_STEPS Newton steps raise
    NumericalFailure.
    """
    B1, B1_w = ws.basis_1, ws.basis_1_w
    h = ws.half
    u = 0.5 * (values[:h] - values[ws.pair])
    u = u - B1 @ (B1_w.T @ u)  # exact when nothing clips
    gtol = PROJECTION_RTOL * bound / ws.basis_1_sup
    dual_scale = bound * math.sqrt(ws.grid.total_measure)  # bounds |B1_w^T x|
    x = np.minimum(np.maximum(u, -bound), bound)
    g = B1_w.T @ x
    line_searches = 0
    for steps in range(PROJECTION_MAX_STEPS + 1):
        gnorm = math.hypot(*g.tolist())
        if gnorm <= gtol:
            # the subspace step moves no node by more than PROJECTION_RTOL *
            # bound; the clip takes that back, keeping the box exact at any width
            x = np.minimum(np.maximum(x - B1 @ g, -bound), bound)
            full = np.empty(ws.grid.size)
            full[:h] = x
            full[ws.pair] = -x
            return full, steps, line_searches
        if steps == PROJECTION_MAX_STEPS:
            break
        hess = (B1_w.T * (np.abs(u) < bound)) @ B1
        d = _solve_small(hess, g)
        if d is None:
            hess.flat[:: hess.shape[0] + 1] += 1e-2 * gnorm / dual_scale
            d = _solve_small(hess, g)
            if d is None:
                d = np.linalg.solve(hess, g)
        s = B1 @ d
        u_new = u - s
        x_new = np.minimum(np.maximum(u_new, -bound), bound)
        g_new = B1_w.T @ x_new
        if g_new @ d >= 0.0 or math.hypot(*g_new.tolist()) <= gtol:
            # the dual still rises at the full step, or the step already
            # meets the stopping rule, where rounding can tip that slope
            u, x, g = u_new, x_new, g_new
            continue
        line_searches += 1
        u = u - _line_max(u, s, ws.weights, bound, float(g @ d)) * s
        x = np.minimum(np.maximum(u, -bound), bound)
        g = B1_w.T @ x
    raise NumericalFailure(
        f"admissible projection did not converge in {PROJECTION_MAX_STEPS} Newton steps "
        f"(degree-1 residual {gnorm:.3e}, tolerance {gtol:.3e})"
    )


def project_admissible(
    values: GridFn, width: float, grid: SphereGrid, max_degree: int
) -> AdmissibleR:
    """Nearest admissible point in the (weighted) L2 sense, solved exactly.

    The dual solve stops once its degree-1 residual can move no node by more
    than PROJECTION_RTOL times the box bound; PROJECTION_MAX_STEPS caps its
    Newton steps, and running into it raises NumericalFailure.
    """
    ws = _workspace_for(grid, max_degree)
    bound = box_bound(grid.dim, width)
    projected, _, _ = _project_exact(ws, np.asarray(values, dtype=float), bound)
    return AdmissibleR(width, grid, max_degree, projected)


def _workspace_for(grid: SphereGrid, max_degree: int) -> _Workspace:
    return grid.derived(("workspace", max_degree), lambda: _Workspace(grid, max_degree))


def phi(r: AdmissibleR) -> float:
    """The Green quadratic form of the deviation's window (odd degrees 3 to
    max_degree), as the descent takes it; <= 0, and 0 only at zero."""
    ws = _workspace_for(r.grid, r.max_degree)
    return ws.phi_of(r.coeffs.values[ws.window])


def support_deviation(r: AdmissibleR) -> GridFn:
    """Mean-free support function generated by the deviation (Green applied)."""
    ws = _workspace_for(r.grid, r.max_degree)
    return ws.from_subspace(ws.green * r.coeffs.values[ws.window])


def phi_gradient(r: AdmissibleR) -> GridFn:
    """L2 gradient of phi at r: twice the mean-free support function."""
    return 2.0 * support_deviation(r)


@dataclass(frozen=True)
class BangBangReport:
    """Measure fractions describing how bang-bang a deviation is.

    violation: mass where the support deviation is decisively nonzero yet the
    state is strictly inside the box. sign_consistency: mass where the sign
    pairing (positive support <-> lower box face, negative <-> upper) holds,
    counting the undecided band as consistent.
    """

    violation: float
    sign_consistency: float


def bang_bang_report(r: AdmissibleR) -> BangBangReport:
    """Classify nodes with thresholds BANG_EPSILON * width on both fields."""
    B = r.width
    eps = BANG_EPSILON * B
    bound = box_bound(r.dim, B)
    pbar = support_deviation(r)
    w = r.grid.weights
    total = float(np.sum(w))

    decided_pos = pbar > eps
    decided_neg = pbar < -eps
    interior = np.abs(r.values) < bound - eps

    violation = float(np.sum(w[(decided_pos | decided_neg) & interior])) / total

    ok_pos = decided_pos & (np.abs(r.values + bound) <= eps)
    ok_neg = decided_neg & (np.abs(r.values - bound) <= eps)
    consistent = (~decided_pos & ~decided_neg) | ok_pos | ok_neg
    sign_consistency = float(np.sum(w[consistent])) / total
    return BangBangReport(violation, sign_consistency)


def canonical_align(r: AdmissibleR) -> AdmissibleR:
    """Shift the angular origin so the support-deviation maximum sits at node 0.

    Implemented as an exact circular node shift (a grid-aligned rotation): the
    box and antisymmetry invariants are preserved exactly and the operation is
    idempotent. Alignment accuracy is one grid step. Dim 2 only; a zero
    deviation, one whose support deviation stays within 1e-14 * width, is
    returned unchanged. Nodes within ALIGN_RTOL * max|pbar| of the maximum
    tie, and ties break toward the smallest nonnegative rotation: the maxima
    of a symmetric body differ only by rounding.
    """
    if r.dim != 2:
        raise ValueError("canonical_align is defined for dim 2 only")
    pbar = support_deviation(r)
    scale = float(np.max(np.abs(pbar)))
    if scale <= 1e-14 * r.width:
        return r
    shift = int(np.argmax(pbar >= np.max(pbar) - ALIGN_RTOL * scale))
    if shift == 0:
        return r
    rolled = np.roll(r.values, -shift)
    return AdmissibleR(r.width, r.grid, r.max_degree, rolled)


def polish_switches(r: AdmissibleR) -> switches.SwitchPolish:
    """Solve a dim-2 bang-bang minimizer's switch angles off the grid.

    The start is read off the sign changes of the samples over [0, pi], each
    placed by linear interpolation between its two nodes, so each angle is
    off by up to half a node; samples that are positive at angle 0 are turned
    by pi first (an exact symmetry that keeps the switch angles), so that R =
    0 just after 0 as the switches module has it. Every sample off the box
    faces (BANG_RTOL) must sit next to a switch. It declines, saying why, on
    an even switch count or on samples that are not bang-bang; otherwise it
    is switches.polish of the angles read, at the width and band limit of r.
    The solve is the answer even where the grid's window reads a lower phi,
    as it can with nodes on the switches.
    """
    if r.dim != 2:
        raise ValueError("polish_switches is defined for dim 2 only")
    B, L, n_nodes = r.width, r.max_degree, r.grid.size
    x = r.values if r.values[0] <= 0.0 else -r.values
    half = x[: n_nodes // 2 + 1]
    above = half > 0.0
    change = np.flatnonzero(above[1:] != above[:-1])
    n = change.size
    if n % 2 == 0:
        return switches.SwitchPolish(0, f"an even count of switches ({n}) in [0, pi)")
    near = np.zeros(half.size, dtype=bool)
    near[change] = near[change + 1] = True
    near[0] = near[-1] = near[0] | near[-1]  # nodes 0 and N/2 are antipodes
    stray = int(np.sum((np.abs(half) < box_bound(2, B) * (1.0 - BANG_RTOL)) & ~near))
    if stray:
        return switches.SwitchPolish(
            0, f"not bang-bang: {stray} samples off the box faces away from a switch")
    read = (change + half[change] / (half[change] - half[change + 1])) * (TWO_PI / n_nodes)
    return switches.polish(read.tolist(), B, L)


@dataclass(frozen=True)
class OptimizationResult:
    """One restart's record; phi, area, the bang-bang fractions and the switch
    polish derive from the minimizer, each when first read.

    The projection work counters, which result_to_json leaves out:
    projections, the calls of the admissible projection, the start included;
    newton_steps, the Newton steps of the dual solve summed over those calls,
    and max_newton_steps, the most any single call took; line_searches, the
    Newton steps that fell back to the exact breakpoint line search.
    """

    minimizer: AdmissibleR
    iterations: int
    seed: int
    restart_index: int
    converged: bool
    projections: int = 0
    newton_steps: int = 0
    max_newton_steps: int = 0
    line_searches: int = 0

    @cached_property
    def phi_value(self) -> float:
        """phi of the minimizer: the Green form of its window, so <= 0."""
        return phi(self.minimizer)

    @cached_property
    def polish(self) -> switches.SwitchPolish | None:
        """polish_switches of the minimizer in dim 2; None in dim 3."""
        return polish_switches(self.minimizer) if self.minimizer.dim == 2 else None

    @cached_property
    def area(self) -> float | None:
        """Area of the dim-2 body the minimizer generates, pi B^2 / 4 +
        phi_value / 2 as the polish and body2d.validate take it; None in dim 3."""
        B = self.minimizer.width
        return 0.25 * np.pi * B * B + 0.5 * self.phi_value if self.minimizer.dim == 2 else None

    @cached_property
    def bang_bang(self) -> BangBangReport:
        """bang_bang_report of the minimizer."""
        return bang_bang_report(self.minimizer)

    @property
    def equivalence_warning(self) -> bool:
        """True in dim 3, where no convex body is certified to realize the candidate."""
        return self.minimizer.dim == 3


def _initial_values(ws: _Workspace, width: float, rng: np.random.Generator) -> GridFn:
    """Uniform random coefficients on odd degrees 3..15, synthesized."""
    sub_degs = coeff_degrees(ws.grid.dim, ws.max_degree)[ws.window]
    cap = min(15, ws.max_degree)
    c = np.zeros(sub_degs.size)
    active = sub_degs <= cap
    c[active] = rng.uniform(-0.5 * width, 0.5 * width, size=int(np.sum(active)))
    return ws.from_subspace(c)


def _descend(ws: _Workspace, width: float, seed: int, restart_index: int) -> OptimizationResult:
    """Restart restart_index: projected gradient descent with a doubling step
    from _initial_values drawn by default_rng([seed, restart_index]).

    phi is concave and the projection exact, so every projected step lowers
    phi by at least |step|^2 / eta: no step is ever too long, and the descent
    stops once a step moves phi by less than DESCENT_RTOL of its value. The
    rule is dimensionless, so the iteration count does not depend on the width.
    At DESCENT_MAX_ITERATIONS iterations it stops unconverged.
    """
    bound = box_bound(ws.grid.dim, width)
    g3 = abs(ws.green[0])  # first kept degree is 3: the flattest multiplier
    eta0 = 1.0 / (2.0 * g3)
    eta = eta0
    eta_max = STEP_GROWTH_CAP * eta0

    start = _initial_values(ws, width, np.random.default_rng([seed, restart_index]))
    x, steps, line_searches = _project_exact(ws, start, bound)
    newton_steps = [steps]
    c = analyze(ws.grid, x, ws.max_degree).values[ws.window]
    phi_cur = ws.phi_of(c)
    iterations = 0
    converged = False

    while iterations < DESCENT_MAX_ITERATIONS:
        iterations += 1
        grad = 2.0 * ws.from_subspace(ws.green * c)  # phi's gradient in the grid L2 metric
        candidate, steps, searches = _project_exact(ws, x - eta * grad, bound)
        newton_steps.append(steps)
        line_searches += searches
        c_new = analyze(ws.grid, candidate, ws.max_degree).values[ws.window]
        phi_new = ws.phi_of(c_new)
        decrease = phi_cur - phi_new
        scale = max(abs(phi_cur), np.finfo(float).tiny)
        if decrease > 0:
            x, c, phi_cur = candidate, c_new, phi_new
        if abs(decrease) <= DESCENT_RTOL * scale:
            converged = True
            break
        if decrease < 0:
            raise NumericalFailure(
                f"a projected step raised phi by {-decrease / scale:.3e} of its value"
            )
        eta = min(eta * 2.0, eta_max)
    r = AdmissibleR(width, ws.grid, ws.max_degree, x)
    return OptimizationResult(r, iterations, seed, restart_index, converged, len(newton_steps),
                              sum(newton_steps), max(newton_steps), line_searches)


def minimize_restarts(
    width: float,
    grid: SphereGrid,
    max_degree: int,
    seed: int,
    restarts: int = 16,
) -> list[OptimizationResult]:
    """Run every restart and return the per-restart results, index order.

    Restart i draws from default_rng([seed, i]), so a restart's result does
    not depend on how many restarts run.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    ws = _workspace_for(grid, max_degree)
    return [_descend(ws, width, seed, i) for i in range(restarts)]


def best_restart(results: list[OptimizationResult]) -> OptimizationResult:
    """Best restart by phi; ties break toward the smallest restart index.

    Restarts whose phi lies within DESCENT_RTOL * |phi_min| of the minimum tie:
    the descent stops at that relative precision, so a smaller difference
    only reflects rounding, and which rotated copy of the same body wins
    must not hinge on the last bits.
    """
    phi_min = min(r.phi_value for r in results)
    cutoff = phi_min + DESCENT_RTOL * abs(phi_min)
    return next(r for r in results if r.phi_value <= cutoff)


def result_to_json(result: OptimizationResult, timestamp: str | None = None) -> str:
    """Serialize a result; key order and float reprs are deterministic.

    When the switch polish converged, the file holds the polished body:
    "switches", its closed-form window as "coeffs", and that window's phi and
    area. Otherwise "coeffs" is the minimizer's own window.
    """
    r = result.minimizer
    polish = result.polish
    exact = polish is not None and polish.declined is None
    payload: dict = {
        "dim": r.dim,
        "width": float(r.width),
        "phi": polish.phi if exact else result.phi_value,
        "area": polish.area if exact else result.area,
        "iterations": result.iterations,
        "seed": result.seed,
        "violation": result.bang_bang.violation,
        "sign_consistency": result.bang_bang.sign_consistency,
    }
    if exact:
        payload["switches"] = list(polish.switches)
    payload["coeffs"] = (shapeio._entries(2, polish.window) if exact
                         else shapeio.coeffs_to_entries(project_linear_H(r.coeffs)))
    if result.equivalence_warning:
        payload["equivalence_warning"] = True
    if timestamp is not None:
        payload["timestamp"] = timestamp
    return shapeio._dumps(payload)


def deviation_report(width: float, coeffs: SpectralCoeffs) -> ValidationReport:
    """admissibility_residuals of a dim-3 deviation, sampled on the least
    grid of resolution >= 16 that carries its band limit. Where the samples
    overflow a double they are inf or NaN and box-bound reads inf, with no
    numpy warning."""
    grid = make_grid(3, max(16, 2 * coeffs.max_degree + 2))
    with np.errstate(over="ignore", invalid="ignore"):
        values = synthesize(coeffs, grid)
        return ValidationReport(admissibility_residuals(values, grid, width, coeffs))

