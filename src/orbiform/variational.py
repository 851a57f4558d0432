"""The constrained quadratic functional whose minimizers are bang-bang.

State is the curvature-radius deviation from its constant-width mean, sampled
on a grid. The admissible set combines a linear subspace (odd harmonics of
degree >= 3: antipodally antisymmetric, orthogonal to the translation modes)
with a pointwise box |value| <= (dim-1) * width / 2. The functional is the
Green quadratic form, strictly negative definite on the subspace, so its
minimum over the box sits at extreme points: a.e. on the boundary of the box
wherever the gradient (twice the mean-free support function) is nonzero.

Projection onto the intersection is solved exactly: the box is odd and
separable, so only the degree-1 constraints couple the nodes, and their 2
(dim 2) or 3 (dim 3) Lagrange multipliers solve a small concave dual by
safeguarded Newton steps (a continuous quadratic knapsack with 2-3
constraints). Minimization is projected gradient descent with a doubling
step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import shapeio
from .body2d import area_spectral, body_from_deviation
from .harmonic_core import (
    GridFn,
    SpectralCoeffs,
    SphereGrid,
    _basis_matrix,
    analyze,
    apply_green,
    coeff_degrees,
    green_multipliers,
    project_linear_H,
    quadratic_form_green,
    synthesize,
)

__all__ = [
    "AdmissibleR",
    "BangBangReport",
    "MinimizeConfig",
    "NumericalFailure",
    "OptimizationResult",
    "box_bound",
    "project_admissible",
    "phi",
    "phi_gradient",
    "support_deviation",
    "minimize",
    "minimize_restarts",
    "bang_bang_report",
    "canonical_align",
    "result_to_json",
]

PROJECTION_RTOL = 1e-13  # degree-1 residual, as the box excess it can cause, over the bound
PROJECTION_MAX_STEPS = 100  # Newton steps of the dual solve; a few suffice in practice
STEP_GROWTH_CAP = 2.0**10  # line-search eta never exceeds this multiple of eta0


class NumericalFailure(RuntimeError):
    """An iterative scheme failed to converge within its step budget."""


def box_bound(dim: int, width: float) -> float:
    """Pointwise bound on the curvature deviation: (dim - 1) * width / 2."""
    return 0.5 * (dim - 1) * width


@dataclass(frozen=True)
class AdmissibleR:
    """Admissible curvature deviation: grid samples plus their spectral form.

    Invariants, enforced at construction: |values| within 1e-12 of the box
    bound, antipodal antisymmetry within 1e-12, degree-1 coefficients below
    1e-12 of the norm. The samples themselves are unrestricted beyond that;
    clipped and other rough states are first-class members, and coeffs is
    their analysis window at the stated band limit, not a reconstruction.
    """

    width: float
    grid: SphereGrid
    max_degree: int
    values: np.ndarray
    coeffs: SpectralCoeffs

    def __post_init__(self):
        if not np.isfinite(self.width) or self.width <= 0:
            raise ValueError(f"width must be finite and > 0, got {self.width}")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise ValueError("values shape does not match the grid")
        bound = box_bound(self.grid.dim, self.width)
        excess = float(np.max(np.abs(vals))) - bound
        if excess > 1e-12:
            raise ValueError(f"box bound violated by {excess:.3e}")
        anti = float(np.max(np.abs(vals + vals[self.grid.antipode_index])))
        if anti > 1e-12:
            raise ValueError(f"antipodal antisymmetry violated by {anti:.3e}")
        sl = self.coeffs.degree_slice(1)
        block = self.coeffs.values[sl]
        if block.size:
            lim = 1e-12 * max(self.coeffs.norm(), np.finfo(float).tiny)
            if float(np.max(np.abs(block))) > lim:
                raise ValueError("degree-1 component violates orthogonality to translations")

    @property
    def dim(self) -> int:
        return self.grid.dim


def admissible_from_values(
    width: float, grid: SphereGrid, max_degree: int, values: GridFn
) -> AdmissibleR:
    """Wrap grid samples as an AdmissibleR, computing the cached transform."""
    vals = np.asarray(values, dtype=float)
    return AdmissibleR(width, grid, max_degree, vals, analyze(grid, vals, max_degree))


class _Workspace:
    """Cached matrices for one (grid, max_degree) pair.

    Two different linear objects live here. The functional only sees the
    analysis window: basis columns at odd degrees >= 3 up to max_degree, with
    their Green multipliers, give phi and its gradient. The constraint
    subspace for the projection is much bigger: all antipodally antisymmetric
    sample vectors orthogonal to the degree-1 harmonics. Samples are not
    forced to be band-limited; a clipped square wave is a perfectly good
    admissible point whose high harmonics simply fall outside the window.
    """

    def __init__(self, grid: SphereGrid, max_degree: int):
        if max_degree < 3:
            raise ValueError("the admissible subspace needs max_degree >= 3")
        if grid.resolution < 2 * max_degree + 2:
            raise ValueError(
                f"grid resolution {grid.resolution} cannot carry degree {max_degree}"
            )
        self.grid = grid
        self.max_degree = max_degree
        basis = _basis_matrix(grid.dim, grid.resolution, max_degree)
        degs = coeff_degrees(grid.dim, max_degree)
        mask = (degs % 2 == 1) & (degs >= 3)
        self.basis_h = np.ascontiguousarray(basis[:, mask])
        self.basis_h_w = np.ascontiguousarray(basis[:, mask] * grid.weights[:, None])
        self.green = green_multipliers(grid.dim, max_degree).values[degs[mask]]
        mask1 = degs == 1
        self.basis_1 = np.ascontiguousarray(basis[:, mask1])
        self.basis_1_w = np.ascontiguousarray(basis[:, mask1] * grid.weights[:, None])
        self.basis_1_sup = float(np.max(np.linalg.norm(self.basis_1, axis=1)))
        self.antipode = grid.antipode_index

    def to_subspace(self, values: GridFn) -> np.ndarray:
        return self.basis_h_w.T @ values

    def from_subspace(self, coeffs_h: np.ndarray) -> GridFn:
        return self.basis_h @ coeffs_h

    def phi_of(self, coeffs_h: np.ndarray) -> float:
        return float(np.dot(self.green * coeffs_h, coeffs_h))

    def gradient_values(self, coeffs_h: np.ndarray) -> GridFn:
        # gradient of phi in the grid L2 metric: 2 * (Green applied to the state)
        return 2.0 * self.from_subspace(self.green * coeffs_h)


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
    with np.errstate(divide="ignore", invalid="ignore"):
        t_a, t_b = (u - bound) / s, (u + bound) / s
    enter = np.maximum(np.minimum(t_a, t_b), 0.0)
    leave = np.maximum(t_a, t_b)
    keep = (s != 0.0) & (leave > enter)
    curv = w[keep] * s[keep] ** 2
    times = np.concatenate((enter[keep], leave[keep]))
    order = np.argsort(times)
    times = times[order]
    rate = np.cumsum(np.concatenate((curv, -curv))[order])  # on [times[j], times[j+1])
    slopes = slope0 - np.concatenate(([0.0], np.cumsum(rate[:-1] * np.diff(times))))
    j = int(np.searchsorted(-slopes, 0.0))  # first breakpoint with slope <= 0
    # slopes[0] = slope0 > 0 and the last slope is negative: only rounding
    # reaches either guard
    if j == 0:
        return 0.0
    if j == slopes.size:
        return float(times[-1])
    return float(times[j - 1] + slopes[j - 1] / rate[j - 1])


def _project_exact(
    ws: _Workspace,
    values: GridFn,
    bound: float,
    rtol: float = PROJECTION_RTOL,
    max_iter: int = PROJECTION_MAX_STEPS,
) -> tuple[GridFn, np.ndarray]:
    """Exact metric projection onto the admissible set through its small dual.

    Antisymmetrizing is the projection onto the antisymmetric samples, and the
    odd box commutes with it, so the nearest admissible point is
    x(lam) = clip(a - B1 lam, +-bound) with a the antisymmetric part and lam
    one multiplier per degree-1 harmonic (2 in dim 2, 3 in dim 3) chosen so
    that B1_w^T x(lam) = 0. Those multipliers maximize a concave piecewise
    quadratic dual whose gradient is B1_w^T x(lam) and whose generalized
    Hessian is -B1_w^T diag(free) B1. Each step takes the Levenberg-regularized
    Newton direction and the exact maximizer of the dual along it, so the
    dual rises monotonically even where only one antipodal pair is free and
    the Hessian is singular. A final subspace step x - B1 (B1_w^T x) removes
    the residual degree-1 part; the stopping rule caps the box excess it can
    add at rtol * bound, and a last antisymmetrize-and-clip takes that excess
    and any rounding back. Returns (values, window coefficients).
    """
    a = 0.5 * (values - values[ws.antipode])
    lam = ws.basis_1_w.T @ a  # exact when nothing clips
    gtol = rtol * bound / ws.basis_1_sup
    dual_scale = bound * np.sqrt(ws.grid.total_measure)  # bounds |B1_w^T x|
    for steps in range(max_iter + 1):
        u = a - ws.basis_1 @ lam
        x = np.clip(u, -bound, bound)
        g = ws.basis_1_w.T @ x
        gnorm = float(np.linalg.norm(g))
        if gnorm <= gtol:
            # B1 is odd only up to rounding, which at large widths exceeds
            # the absolute antisymmetry check; the clip moves no node by more
            # than rtol * bound, which keeps the box exact at any width and
            # the degree-1 part far below the relative check
            x = x - ws.basis_1 @ g
            x = np.clip(0.5 * (x - x[ws.antipode]), -bound, bound)
            return x, ws.to_subspace(x)
        if steps == max_iter:
            break
        free = np.abs(u) < bound
        hess = ws.basis_1_w[free].T @ ws.basis_1[free]
        hess[np.diag_indices_from(hess)] += 1e-2 * gnorm / dual_scale
        d = np.linalg.solve(hess, g)
        s = ws.basis_1 @ d
        lam = lam + _line_max(u, s, ws.grid.weights, bound, float(g @ d)) * d
    raise NumericalFailure(
        f"admissible projection did not converge in {max_iter} Newton steps "
        f"(degree-1 residual {gnorm:.3e}, tolerance {gtol:.3e})"
    )


def project_admissible(
    values: GridFn,
    width: float,
    grid: SphereGrid,
    max_degree: int,
    tol: float = PROJECTION_RTOL,
    max_sweeps: int = PROJECTION_MAX_STEPS,
) -> AdmissibleR:
    """Nearest admissible point in the (weighted) L2 sense, solved exactly.

    tol is relative to the box bound; max_sweeps caps the Newton steps of the
    dual solve, and running into it raises NumericalFailure.
    """
    ws = _workspace_for(grid, max_degree)
    projected, _ = _project_exact(
        ws, np.asarray(values, dtype=float), box_bound(grid.dim, width), tol, max_sweeps
    )
    return admissible_from_values(width, grid, max_degree, projected)


_WORKSPACES: dict[tuple[int, int, int], _Workspace] = {}


def _workspace_for(grid: SphereGrid, max_degree: int) -> _Workspace:
    key = (grid.dim, grid.resolution, max_degree)
    ws = _WORKSPACES.get(key)
    if ws is None or ws.grid is not grid:
        ws = _Workspace(grid, max_degree)
        if len(_WORKSPACES) > 8:
            _WORKSPACES.clear()
        _WORKSPACES[key] = ws
    return ws


def phi(r: AdmissibleR) -> float:
    """The Green quadratic form of the deviation; <= 0, and 0 only at zero."""
    return quadratic_form_green(project_linear_H(r.coeffs))


def support_deviation(r: AdmissibleR) -> GridFn:
    """Mean-free support function generated by the deviation (Green applied)."""
    return synthesize(apply_green(project_linear_H(r.coeffs)), r.grid)


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

    epsilon: float
    violation: float
    sign_consistency: float


def bang_bang_report(r: AdmissibleR, epsilon: float = 1e-3) -> BangBangReport:
    """Classify nodes with thresholds epsilon * width on both fields."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    B = r.width
    eps = epsilon * B
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
    return BangBangReport(epsilon, violation, sign_consistency)


def canonical_align(r: AdmissibleR) -> AdmissibleR:
    """Shift the angular origin so the support-deviation maximum sits at node 0.

    Implemented as an exact circular node shift (a grid-aligned rotation): the
    box and antisymmetry invariants are preserved exactly and the operation is
    idempotent. Alignment accuracy is one grid step. Dim 2 only; a zero
    deviation is returned unchanged. Ties break toward the smallest
    nonnegative rotation.
    """
    if r.dim != 2:
        raise ValueError("canonical_align is defined for dim 2 only")
    pbar = support_deviation(r)
    if float(np.max(np.abs(pbar))) <= 1e-14 * max(1.0, r.width):
        return r
    shift = int(np.argmax(pbar))
    if shift == 0:
        return r
    rolled = np.roll(r.values, -shift)
    return admissible_from_values(r.width, r.grid, r.max_degree, rolled)


@dataclass(frozen=True)
class MinimizeConfig:
    """Knobs for the multi-restart projected descent."""

    restarts: int = 16
    max_iterations: int = 50000
    rel_tol: float = 1e-12


@dataclass(frozen=True)
class OptimizationResult:
    minimizer: AdmissibleR
    phi_value: float
    area: float | None
    iterations: int
    seed: int
    restart_index: int
    bangbang_violation: float
    sign_consistency: float
    converged: bool
    equivalence_warning: bool = False

    def __post_init__(self):
        if self.phi_value > 1e-12:
            raise ValueError(f"phi must be <= 0, got {self.phi_value}")


def _initial_values(ws: _Workspace, width: float, rng: np.random.Generator) -> GridFn:
    """Uniform random coefficients on odd degrees 3..15, synthesized."""
    degs = coeff_degrees(ws.grid.dim, ws.max_degree)
    mask = (degs % 2 == 1) & (degs >= 3)
    sub_degs = degs[mask]
    cap = min(15, ws.max_degree)
    c = np.zeros(sub_degs.size)
    active = sub_degs <= cap
    c[active] = rng.uniform(-0.5 * width, 0.5 * width, size=int(np.sum(active)))
    return ws.from_subspace(c)


def _descend(
    ws: _Workspace,
    width: float,
    start_values: GridFn,
    cfg: MinimizeConfig,
) -> tuple[GridFn, float, int, bool]:
    """Projected gradient descent with a doubling step.

    phi is concave and the projection exact, so every projected step lowers
    phi by at least |step|^2 / eta: no step is ever too long, and the descent
    stops once a step moves phi by less than rel_tol of its value. The rule is
    dimensionless, so the iteration count does not depend on the width.
    """
    bound = box_bound(ws.grid.dim, width)
    g3 = abs(ws.green[0])  # first kept degree is 3: the flattest multiplier
    eta0 = 1.0 / (2.0 * g3)
    eta = eta0
    eta_max = STEP_GROWTH_CAP * eta0

    x, c = _project_exact(ws, start_values, bound)
    phi_cur = ws.phi_of(c)
    iterations = 0
    converged = False

    while iterations < cfg.max_iterations:
        iterations += 1
        grad = ws.gradient_values(c)
        candidate, c_new = _project_exact(ws, x - eta * grad, bound)
        phi_new = ws.phi_of(c_new)
        decrease = phi_cur - phi_new
        scale = max(abs(phi_cur), np.finfo(float).tiny)
        if decrease > 0:
            x, c, phi_cur = candidate, c_new, phi_new
        if abs(decrease) <= cfg.rel_tol * scale:
            converged = True
            break
        if decrease < 0:
            raise NumericalFailure(
                f"a projected step raised phi by {-decrease / scale:.3e} of its value"
            )
        eta = min(eta * 2.0, eta_max)
    return x, phi_cur, iterations, converged


def _finish_result(
    ws: _Workspace,
    width: float,
    values: GridFn,
    phi_value: float,
    iterations: int,
    converged: bool,
    seed: int,
    index: int,
    equivalence_warning: bool,
) -> OptimizationResult:
    r = admissible_from_values(width, ws.grid, ws.max_degree, values)
    report = bang_bang_report(r)
    area = None
    if ws.grid.dim == 2:
        body = body_from_deviation(width, apply_green(project_linear_H(r.coeffs)))
        area = area_spectral(body)
    return OptimizationResult(
        minimizer=r,
        phi_value=phi_value,
        area=area,
        iterations=iterations,
        seed=seed,
        restart_index=index,
        bangbang_violation=report.violation,
        sign_consistency=report.sign_consistency,
        converged=converged,
        equivalence_warning=equivalence_warning,
    )


def minimize_restarts(
    width: float,
    grid: SphereGrid,
    max_degree: int,
    seed: int,
    config: MinimizeConfig | None = None,
    equivalence_warning: bool = False,
) -> list[OptimizationResult]:
    """Run every restart and return the per-restart results, index order.

    Restart i draws from default_rng([seed, i]), so a restart's result does
    not depend on how many restarts run.
    """
    cfg = config or MinimizeConfig()
    if cfg.restarts < 1:
        raise ValueError("restarts must be >= 1")
    ws = _workspace_for(grid, max_degree)

    results = []
    for i in range(cfg.restarts):
        start = _initial_values(ws, width, np.random.default_rng([seed, i]))
        vals, ph, its, conv = _descend(ws, width, start, cfg)
        results.append(
            _finish_result(ws, width, vals, ph, its, conv, seed, i, equivalence_warning)
        )
    return results


def minimize(
    width: float,
    grid: SphereGrid,
    max_degree: int,
    seed: int,
    config: MinimizeConfig | None = None,
    equivalence_warning: bool = False,
) -> OptimizationResult:
    """Best restart by phi; ties break toward the smallest restart index."""
    results = minimize_restarts(width, grid, max_degree, seed, config, equivalence_warning)
    best = results[0]
    for r in results[1:]:
        if r.phi_value < best.phi_value:
            best = r
    return best


def result_to_json(result: OptimizationResult, timestamp: str | None = None) -> str:
    """Serialize a result; key order and float reprs are deterministic."""
    coeffs = project_linear_H(result.minimizer.coeffs)
    payload: dict = {
        "phi": result.phi_value,
        "area": result.area,
        "iterations": result.iterations,
        "seed": result.seed,
        "violation": result.bangbang_violation,
        "sign_consistency": result.sign_consistency,
        "coeffs": shapeio.coeffs_to_entries(coeffs),
    }
    if result.equivalence_warning:
        payload["equivalence_warning"] = True
    if timestamp is not None:
        payload["timestamp"] = timestamp
    return json.dumps(payload, indent=2) + "\n"
