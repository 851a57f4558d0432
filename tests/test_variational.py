"""Admissible states, metric projection, functional, and the optimizer."""

import gc
import inspect
import json
import math
import tracemalloc
import weakref
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbiform.harmonic_core import (
    ClosednessError,
    SpectralCoeffs,
    analyze,
    apply_green,
    make_grid,
    num_coeffs,
    project_linear_H,
    quadratic_form_green,
    synthesize,
    zero_coeffs,
)
from orbiform import body2d, cli, harmonic_core, switches, variational
from orbiform.body2d import area_spectral, body_from_deviation
from orbiform.variational import (
    AdmissibleR,
    NumericalFailure,
    OptimizationResult,
    bang_bang_report,
    best_restart,
    box_bound,
    canonical_align,
    minimize_restarts,
    phi,
    phi_gradient,
    polish_switches,
    project_admissible,
    result_to_json,
    support_deviation,
)
from orbiform.shapeio import ShapeFile, ShapeFormatError, loads_shape
from orbiform.switches import polish, switch_window

from oracles import (
    TRIANGLE_AREA, TRIANGLE_PHI, index2, json_text, reuleaux_curvature, square_wave_cos_coeff,
)


@pytest.fixture(scope="module")
def grid240():
    # divisible by 4 * 3: square-wave samples of the 3-gon are exactly admissible
    return make_grid(2, 240)


@pytest.fixture(scope="module")
def grid480():
    return make_grid(2, 480)


def triangle_values(grid, scale=1.0):
    """Exact square-wave deviation samples: admissible without any projection.

    The analyzed degree-1 component cancels exactly only when the node count
    is a multiple of the sign pattern's period, so pair this with grids whose
    resolution is divisible by 12.
    """
    return reuleaux_curvature(3, scale, grid.angles) - 0.5 * scale


# ---------------------------------------------------------------- admissibility


def test_box_bound_values():
    assert box_bound(2, 1.0) == 0.5
    assert box_bound(3, 1.0) == 1.0
    assert box_bound(2, 3.0) == 1.5


def test_admissible_accepts_square_wave(grid240):
    r = AdmissibleR(1.0, grid240, 60, triangle_values(grid240))
    assert isinstance(r, AdmissibleR)
    assert r.dim == 2


def test_admissible_rejects_box_violation(grid240):
    vals = triangle_values(grid240) * 1.01
    with pytest.raises(ValueError, match="box"):
        AdmissibleR(1.0, grid240, 60, vals)


def test_admissible_rejects_asymmetry(grid240):
    vals = triangle_values(grid240).copy()
    vals[3] -= np.sign(vals[3]) * 1e-6  # move inward so only antisymmetry breaks
    with pytest.raises(ValueError, match="antisym"):
        AdmissibleR(1.0, grid240, 60, vals)


def test_admissible_rejects_translation_component(grid240):
    vals = 0.2 * np.sin(grid240.angles)
    with pytest.raises(ClosednessError, match=r"degree-1.*\(degree=1, part=sin\)"):
        AdmissibleR(1.0, grid240, 60, vals)


@pytest.mark.parametrize("max_degree", [0, 1, 2])
def test_admissible_rejects_a_band_below_the_window(grid240, max_degree):
    # phi reads odd degrees 3 and up, so a lower band limit has no phi
    with pytest.raises(ValueError, match="max_degree >= 3"):
        AdmissibleR(1.0, grid240, max_degree, np.zeros(grid240.size))
    with pytest.raises(ValueError, match="max_degree >= 3"):
        minimize_restarts(1.0, grid240, max_degree, seed=0, restarts=1)


@pytest.mark.parametrize(
    "width, size, match",
    [(0.0, 240, "width must be finite and > 0"), (1.0, 239, "values shape does not match")],
    ids=["width-0", "shape"],
)
def test_admissible_rejects_a_bad_width_or_shape(grid240, width, size, match):
    with pytest.raises(ValueError, match=match):
        AdmissibleR(width, grid240, 7, np.zeros(size))


def test_minimize_refuses_zero_restarts(grid240):
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        minimize_restarts(1.0, grid240, 7, seed=0, restarts=0)


def test_admissible_r_analyzes_its_own_values(grid240):
    # coeffs is not an input, so it cannot disagree with the values
    vals = triangle_values(grid240)
    assert "coeffs" not in inspect.signature(AdmissibleR).parameters
    with pytest.raises(TypeError):
        AdmissibleR(1.0, grid240, 60, vals, analyze(grid240, 0.5 * vals, 60))
    r = AdmissibleR(1.0, grid240, 60, vals)
    assert np.array_equal(r.coeffs.values, analyze(grid240, vals, 60).values)
    p = project_admissible(vals + 0.3 * np.cos(3.0 * grid240.angles), 1.0, grid240, 60)
    assert np.array_equal(p.coeffs.values, analyze(grid240, p.values, 60).values)
    with pytest.raises(ValueError, match="coeffs"):
        replace(r, coeffs=r.coeffs)


def test_admissibility_residuals_names_and_order(grid240):
    vals = triangle_values(grid240)
    r = AdmissibleR(1.0, grid240, 60, vals)
    checks = variational.admissibility_residuals(vals, grid240, 1.0, r.coeffs)
    assert [name for name, _, _ in checks] == [
        "box-bound", "antipodal-antisymmetry", "translation-orthogonality",
    ]
    assert all(resid <= tol for _, resid, tol in checks)
    box, anti, _ = variational.admissibility_residuals(2.0 * vals, grid240, 1.0, r.coeffs)
    assert box[1] == pytest.approx(0.5) and anti[1] == 0.0
    vals[7] = np.nan  # as an inf - inf in a synthesis that overflows: as far out as inf
    assert variational.admissibility_residuals(vals, grid240, 1.0, r.coeffs)[0][1] == np.inf
    # an antipodal pair of inf and -inf: antisymmetric in sign, and its sum is NaN
    vals[7], vals[grid240.antipode_index[7]] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        box, anti, _ = variational.admissibility_residuals(vals, grid240, 1.0, r.coeffs)
    assert box[1] == anti[1] == np.inf


# ---------------------------------------------------------------- projection


def test_project_clips_oversized_harmonic(grid480):
    f = 10.0 * np.sin(3.0 * grid480.angles)
    r = project_admissible(f, 1.0, grid480, 128)
    # metric projection here is a plain clip: the clipped wave is already
    # antisymmetric with no translation component, so only the box is active
    clip = np.clip(f, -0.5, 0.5)
    assert np.max(np.abs(r.values - clip)) <= 1e-12
    assert np.max(np.abs(r.values)) <= 0.5 + 1e-12


def test_project_clip_shape_on_generic_grid(grid2_512):
    # on grids without the wave's symmetry the output is still a clipped
    # square-ish wave saturating the box on most of the circle
    f = 10.0 * np.sin(3.0 * grid2_512.angles)
    r = project_admissible(f, 1.0, grid2_512, 128)
    assert np.max(np.abs(r.values)) == pytest.approx(0.5, abs=1e-12)
    saturated = np.mean(np.abs(np.abs(r.values) - 0.5) < 1e-3)
    assert saturated > 0.9


def test_project_kills_pure_translation(grid2_512):
    r = project_admissible(np.cos(grid2_512.angles), 1.0, grid2_512, 128)
    assert np.max(np.abs(r.values)) <= 1e-12


def test_project_is_idempotent(grid240):
    vals = triangle_values(grid240)
    r = project_admissible(vals, 1.0, grid240, 60)
    assert np.max(np.abs(r.values - vals)) <= 1e-12


def test_project_handles_messy_input(grid2_256, rng):
    f = rng.normal(0.0, 2.0, grid2_256.size)
    r = project_admissible(f, 1.0, grid2_256, 60)
    # all three invariants hold on the output
    assert np.max(np.abs(r.values)) <= 0.5 + 1e-12
    assert np.max(np.abs(r.values + r.values[grid2_256.antipode_index])) <= 1e-12
    deg1 = r.coeffs.values[r.coeffs.degree_slice(1)]
    assert np.max(np.abs(deg1)) <= 1e-11


@pytest.mark.parametrize("width", [1e-6, 1e-2, 1e2, 1e4, 1e8])
def test_project_is_scale_covariant(width, grid2_256, grid3_16, rng):
    # the admissible set at width B is B times the one at width 1
    for grid, L in ((grid2_256, 60), (grid3_16, 7)):
        f = rng.normal(0.0, 2.0, grid.size)
        unit = project_admissible(f, 1.0, grid, L).values
        scaled = project_admissible(width * f, width, grid, L).values
        assert np.max(np.abs(scaled / width - unit)) <= 1e-12


def test_project_reports_nonconvergence(grid2_256, rng, monkeypatch):
    monkeypatch.setattr(variational, "PROJECTION_MAX_STEPS", 1)
    f = rng.normal(0.0, 2.0, grid2_256.size)
    with pytest.raises(NumericalFailure):
        project_admissible(f, 1.0, grid2_256, 60)


def test_project_satisfies_variational_inequality(rng):
    # P(v) is the nearest admissible point iff <v - P(v), y - P(v)>_W <= 0
    # for every admissible y; the exact 3-gon wave on a grid divisible by 12,
    # its rotations by a node and other projections are admissible points
    grid = make_grid(2, 96)
    tri = triangle_values(grid)
    for scale in (0.05, 0.5, 2.0, 20.0):
        v = rng.normal(0.0, scale, grid.size) + scale * np.cos(grid.angles)
        p = project_admissible(v, 1.0, grid, 20).values
        others = [np.zeros(grid.size), -p, tri, np.roll(tri, 8), -np.roll(tri, 5)]
        others += [
            project_admissible(rng.normal(0.0, 1.0, grid.size), 1.0, grid, 20).values
            for _ in range(3)
        ]
        for y in others:
            assert grid.inner(v - p, y - p) <= 1e-12 * max(1.0, scale)


def test_project_one_free_antipodal_pair_converges(grid240):
    # a bang-bang 3-gon pushed far outside the box with one transition pair
    # moved inside it: the answer is the 3-gon itself, where that pair sits on
    # the box at a kink of the dual; only that pair can be free, so the dual
    # Hessian has rank at most 1 and plain Newton steps stall
    tri = triangle_values(grid240)
    for i in (19, 20, 59):
        for p in (-0.45, 0.0, 0.3):
            v = 3.0 * tri
            v[i], v[grid240.antipode_index[i]] = p, -p
            r = project_admissible(v, 1.0, grid240, 60)
            assert np.max(np.abs(r.values - tri)) <= 1e-12


def test_project_large_dim3_steps_stay_admissible(grid3_16):
    # the descent's step-size ladder eta0 * 2**k from a converged dim-3 state;
    # the longest steps once ran an alternating-projection solver into its cap
    r = best_restart(minimize_restarts(1.0, grid3_16, 7, seed=7, restarts=1)).minimizer
    grad = phi_gradient(r)
    phi0 = phi(r)
    for k in range(11):
        step = project_admissible(r.values - 5.0 * 2.0**k * grad, 1.0, grid3_16, 7)
        assert isinstance(step, AdmissibleR)
        # phi is concave: a projected gradient step never raises it
        assert phi(step) <= phi0 + 1e-12


def test_project_output_is_exactly_antisymmetric(grid2_256, grid3_16, rng):
    # the solve runs on one node per antipodal pair and writes the other as -x
    for grid, L in ((grid2_256, 60), (grid3_16, 7), (make_grid(3, 10), 3)):
        for width in (1.0, 1e8):
            v = project_admissible(rng.normal(0.0, 2.0 * width, grid.size), width, grid, L).values
            assert np.array_equal(v[grid.antipode_index], -v)


def test_project_pairs_cover_odd_polar_grid(rng):
    # 5 polar rows of 10 nodes: the middle row is the equator, and its
    # antipodal pairs lie within the row. The projection keeps the first half
    # of the nodes, a slice; each must be the smaller index of its pair
    for other in (make_grid(2, 64), make_grid(3, 16)):
        ws = variational._workspace_for(other, 3)
        assert np.array_equal(ws.pair, other.antipode_index[: ws.half])
        assert np.all(np.arange(ws.half) < ws.pair)
    grid = make_grid(3, 10)
    ws = variational._workspace_for(grid, 3)
    half = np.arange(ws.half)
    assert ws.half == grid.size // 2
    assert np.array_equal(ws.pair, grid.antipode_index[half])
    assert np.array_equal(np.sort(np.concatenate((half, ws.pair))), np.arange(grid.size))
    assert np.all(half < ws.pair)
    equator = 20 + np.arange(10)
    assert np.array_equal(np.intersect1d(half, equator), equator[:5])
    r = project_admissible(rng.normal(0.0, 2.0, grid.size), 1.0, grid, 3)
    assert isinstance(r, AdmissibleR)
    assert np.max(np.abs(r.values)) == pytest.approx(1.0, abs=1e-12)


# three nodes along the ray lam + t*d: node 0 is free for t in [0, 1], node 1
# for t in [0, 0.25], node 2 does not move; so the slope is slope0 - 5t up to
# 0.25, then slope0 - 1.25 - (t - 0.25) up to the last breakpoint, 1, where it
# has dropped by 2 in all
LINE = (np.array([0.0, 0.5, 0.3]), np.array([1.0, -2.0, 0.0]), np.ones(3), 1.0)


def test_line_max_finds_the_root_inside_a_linear_piece():
    assert variational._line_max(*LINE, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert variational._line_max(*LINE, 1.75) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("slope0", [0.0, -1.0])
def test_line_max_of_a_slope_that_is_not_positive_at_zero_is_zero(slope0):
    assert variational._line_max(*LINE, slope0) == 0.0


@pytest.mark.parametrize("slope0", [2.5, 1e300])
def test_line_max_of_a_slope_that_never_turns_is_the_last_breakpoint(slope0):
    assert variational._line_max(*LINE, slope0) == 1.0


@pytest.mark.parametrize("k", [2, 3])
def test_solve_small_matches_linalg_solve(k, rng):
    for _ in range(20):
        m = rng.normal(size=(k, k))
        for h in (m, m @ m.T + 1e-3 * np.eye(k)):
            g = rng.normal(size=k)
            d = variational._solve_small(h, g)
            assert np.allclose(d, np.linalg.solve(h, g), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_solve_small_returns_none_when_singular(k, rng):
    # with fewer free antipodal pairs than multipliers the dual Hessian is
    # a sum of fewer than k outer products
    b = rng.normal(size=(k - 1, k))
    assert variational._solve_small(b.T @ b, rng.normal(size=k)) is None
    assert variational._solve_small(np.zeros((k, k)), rng.normal(size=k)) is None


@pytest.mark.parametrize("dim,res,L", [(2, 64, 15), (3, 10, 3), (3, 32, 15)])
def test_project_converges_in_few_newton_steps(dim, res, L, rng):
    # full Newton steps are kept only while the dual still rises at them;
    # kept blindly they cycle on some of these inputs and hit the step cap
    grid = make_grid(dim, res)
    ws = variational._workspace_for(grid, L)
    for _ in range(100):
        f = rng.normal(0.0, 10.0 ** rng.uniform(-2, 2), grid.size)
        assert variational._project_exact(ws, f, 1.0)[1] <= 8


def test_project_newton_steps_on_dim3_ladder(grid3_16):
    # the ladder of test_project_large_dim3_steps_stay_admissible: a solver
    # taking only Levenberg steps with a line search needed 63 Newton steps
    # on it; full Newton steps kept while the dual still rises take 46
    r = best_restart(minimize_restarts(1.0, grid3_16, 7, seed=7, restarts=1)).minimizer
    grad = phi_gradient(r)
    ws = variational._workspace_for(grid3_16, 7)
    steps = [
        variational._project_exact(ws, r.values - 5.0 * 2.0**k * grad, 1.0)[1]
        for k in range(11)
    ]
    assert sum(steps) < 63


def test_project_line_searches_on_dim3_ladder(grid3_32):
    # the descent's step-size ladder eta0 * 2**k at the spheroform3d size:
    # trying the plain Newton step only when no node changed side of the box
    # took the breakpoint line search on 46 of the ladder's Newton steps;
    # keeping the full step while the dual still rises at it, or once it
    # meets the stopping rule, takes it on 24
    r = best_restart(minimize_restarts(1.0, grid3_32, 15, seed=7, restarts=4)).minimizer
    grad = phi_gradient(r)
    ws = variational._workspace_for(grid3_32, 15)
    searches = [
        variational._project_exact(ws, r.values - 5.0 * 2.0**k * grad, 1.0)[2]
        for k in range(11)
    ]
    assert sum(searches) < 46


def test_project_satisfies_variational_inequality_on_dim3_ladder(grid3_16, rng):
    # the longest steps of the dim-3 ladder, where almost every node clips
    # and the dual Hessian is singular, then random inputs with many free
    # nodes. Zero, -P(v), the minimizer the ladder starts from and every
    # other projection are admissible points y
    r = best_restart(minimize_restarts(1.0, grid3_16, 7, seed=7, restarts=1)).minimizer
    grad = phi_gradient(r)
    inputs = [r.values - 5.0 * 2.0**k * grad for k in range(6, 11)]
    inputs += [rng.normal(0.0, scale, grid3_16.size) for scale in (0.5, 2.0, 20.0)]
    projections = [project_admissible(v, 1.0, grid3_16, 7).values for v in inputs]
    for v, p in zip(inputs, projections):
        scale = float(np.max(np.abs(v)))
        for y in [np.zeros(grid3_16.size), -p, r.values] + projections:
            assert grid3_16.inner(v - p, y - p) <= 1e-12 * max(1.0, scale)
        # y = p +- e * delta is admissible for small e when delta is odd,
        # zero where p clips and W-orthogonal to degree 1, so the inequality
        # for both signs says <v - p, delta>_W = 0: this checks the metric,
        # which the far-away points above cannot
        free = np.abs(p) < 1.0 - 1e-9
        delta = np.where(free, rng.normal(size=grid3_16.size), 0.0)
        delta = 0.5 * (delta - delta[grid3_16.antipode_index])
        nodes, w = grid3_16.nodes[free], grid3_16.weights[free]
        coef = np.linalg.lstsq((nodes.T * w) @ nodes, (nodes.T * w) @ delta[free], rcond=None)[0]
        delta[free] -= nodes @ coef
        assert abs(grid3_16.inner(v - p, delta)) <= 1e-12 * max(1.0, scale)


# ---------------------------------------------------------------- functional


def test_phi_of_triangle_partial_sums(grid480):
    # analytic window sum at L=128: exact per-window cos coefficients fed
    # through the quadratic form land a tail-length away from the closed form
    co = zero_coeffs(2, 128)
    for k in range(3, 129, 2):
        if k % 3 == 0:
            co.values[index2(k, "cos")] = square_wave_cos_coeff(3, 1.0, k)
    window_phi = quadratic_form_green(co)
    assert window_phi == pytest.approx(TRIANGLE_PHI, abs=5e-7)

    # grid-sampled route: analysis of the raw wave aliases the tail above the
    # Nyquist band, an O(1/N^2) effect, well separated from the window value
    r = AdmissibleR(1.0, grid480, 128, triangle_values(grid480))
    assert phi(r) == pytest.approx(window_phi, abs=5e-5)
    assert phi(r) == pytest.approx(TRIANGLE_PHI, abs=5e-5)


def test_phi_nonpositive_and_zero_at_ball(grid240):
    z = AdmissibleR(1.0, grid240, 60, np.zeros(grid240.size))
    assert phi(z) == 0.0
    r = AdmissibleR(1.0, grid240, 60, triangle_values(grid240))
    assert phi(r) < 0


def test_phi_scale_covariance(grid240):
    r1 = AdmissibleR(1.0, grid240, 60, triangle_values(grid240))
    r2 = AdmissibleR(2.0, grid240, 60, triangle_values(grid240, 2.0))
    assert phi(r2) == pytest.approx(4.0 * phi(r1), rel=1e-12)


def test_gradient_matches_finite_differences(grid240, rng):
    L = 40
    vals = 0.8 * triangle_values(grid240)
    r = AdmissibleR(1.0, grid240, L, vals)
    grad = phi_gradient(r)

    c0 = analyze(grid240, vals, L)
    for _ in range(5):
        z = zero_coeffs(2, L).values.copy()
        degs = zero_coeffs(2, L).degrees()
        pick = (degs % 2 == 1) & (degs >= 3)
        z[pick] = rng.normal(size=int(pick.sum()))
        zeta = SpectralCoeffs(2, L, z)
        zeta_vals = synthesize(zeta, grid240)
        t = 1e-5
        plus = quadratic_form_green(c0.with_values(c0.values + t * zeta.values))
        minus = quadratic_form_green(c0.with_values(c0.values - t * zeta.values))
        fd = (plus - minus) / (2 * t)
        pairing = grid240.inner(grad, zeta_vals)
        assert fd == pytest.approx(pairing, rel=1e-8)


# ---------------------------------------------------------------- diagnostics


def test_bang_bang_report_on_exact_wave(grid240):
    r = AdmissibleR(1.0, grid240, 60, triangle_values(grid240))
    rep = bang_bang_report(r)
    assert variational.BANG_EPSILON == 1e-3
    assert rep.violation <= 1e-12
    assert rep.sign_consistency == pytest.approx(1.0, abs=1e-12)


def test_bang_bang_report_flags_interior_mass(grid240):
    r = AdmissibleR(1.0, grid240, 60, 0.5 * triangle_values(grid240))
    rep = bang_bang_report(r)
    assert rep.violation > 0.5


def test_canonical_align_refuses_dim3_and_keeps_a_zero_deviation(grid240, grid3_16):
    with pytest.raises(ValueError, match="dim 2 only"):
        canonical_align(AdmissibleR(1.0, grid3_16, 3, np.zeros(grid3_16.size)))
    zero = AdmissibleR(1.0, grid240, 7, np.zeros(grid240.size))
    assert canonical_align(zero) is zero


def test_canonical_align_idempotent_and_rotation_invariant():
    # 234 = 3 * 78 keeps every switch point strictly between nodes, so any
    # rotation by a third of a turn permutes the sampled wave exactly; 240
    # would park nodes on the switches and break bitwise roll equality
    grid = make_grid(2, 234)
    vals = triangle_values(grid)
    r = AdmissibleR(1.0, grid, 60, vals)
    a = canonical_align(r)
    assert np.array_equal(canonical_align(a).values, a.values)
    rolled = AdmissibleR(1.0, grid, 60, np.roll(vals, 39))
    b = canonical_align(rolled)
    assert np.array_equal(a.values, b.values)


def test_canonical_align_ties_go_to_the_smallest_rotation():
    # the rolled triangle's three support maxima, at nodes 39, 117 and 195,
    # differ by rounding (2.8e-17 with numpy 2.4); np.argmax took node 195,
    # and the aligned state then had its first maximum at node 156, not 0
    grid = make_grid(2, 234)
    rolled = AdmissibleR(1.0, grid, 60, np.roll(triangle_values(grid), 39))
    a = canonical_align(rolled)
    pbar = support_deviation(a)
    tie = variational.ALIGN_RTOL * np.max(np.abs(pbar))
    assert pbar[0] >= np.max(pbar) - tie
    assert canonical_align(a) is a


def test_canonical_align_is_idempotent_on_minimizers():
    for res in minimize_restarts(1.0, make_grid(2, 128), 32, 4, restarts=3):
        a = canonical_align(res.minimizer)
        assert canonical_align(a) is a


def test_canonical_align_shift_does_not_depend_on_the_width():
    # the zero-deviation cutoff scales with the width, so a width-1e-20
    # triangle is aligned like a width-1 one instead of coming back as is
    grid = make_grid(2, 234)
    aligned = []
    for width in (1e-20, 1.0, 1e20):
        rolled = AdmissibleR(width, grid, 60, np.roll(triangle_values(grid, width), 39))
        a = canonical_align(rolled)
        assert a is not rolled
        aligned.append(np.sign(a.values))  # the same shift rolls the same signs
    assert np.array_equal(aligned[0], aligned[1])
    assert np.array_equal(aligned[2], aligned[1])


# ---------------------------------------------------------------- optimizer


SMALL = 3


def test_minimize_small_run_finds_triangle():
    grid = make_grid(2, 128)
    res = best_restart(minimize_restarts(1.0, grid, 32, seed=11, restarts=SMALL))
    assert res.converged
    assert res.phi_value < 0
    assert res.area == pytest.approx(0.70477, abs=5e-3)
    assert res.bang_bang.violation < 0.05
    assert res.bang_bang.sign_consistency > 0.95


def test_minimize_is_deterministic():
    grid = make_grid(2, 128)
    a = best_restart(minimize_restarts(1.0, grid, 32, seed=4, restarts=SMALL))
    b = best_restart(minimize_restarts(1.0, grid, 32, seed=4, restarts=SMALL))
    assert result_to_json(a) == result_to_json(b)
    assert np.array_equal(a.minimizer.values, b.minimizer.values)


def test_minimize_restart_count_does_not_change_result():
    # restart i draws as default_rng([seed, i]) would, whatever the restart count
    grid = make_grid(2, 128)
    one = minimize_restarts(1.0, grid, 32, seed=4, restarts=1)
    three = minimize_restarts(1.0, grid, 32, seed=4, restarts=3)
    assert result_to_json(one[0]) == result_to_json(three[0])


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3])
def test_start_draws_are_numpys_generator_draws_bit_for_bit(seed):
    # with the restart's word, 2**64 + 5 fills SeedSequence's pool of 4 words
    # and 2**128 + 3 runs past it, so its last words are mixed in afterwards
    for i in [*range(16), 2**40]:
        for width in (1e-100, 1.0, 1e100):
            for n in (0, 1, 14, 133):
                want = np.random.default_rng([seed, i]).uniform(-width / 2, width / 2, n)
                assert variational._start_draws(seed, i, width, n) == want.tolist()


def test_start_draws_are_pinned():
    # the contract holds even if numpy's Generator ever moves its stream
    got = [x.hex() for x in variational._start_draws(7, 0, 1.0, 3)]
    assert got == ["0x1.00320d4f8f2a4p-3", "0x1.96bf36f2bc99ap-2", "0x1.1a4d597e502bep-2"]


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (1.5, TypeError)])
def test_minimize_refuses_a_seed_numpy_would_refuse(seed, error):
    with pytest.raises(error):
        minimize_restarts(1.0, make_grid(2, 16), 7, seed=seed, restarts=1)
    with pytest.raises(error):
        np.random.default_rng([seed, 0])
    with pytest.raises(error):  # as a restart index
        variational._start_draws(0, seed, 1.0, 1)


def test_minimize_iterations_do_not_depend_on_width(grid2_512):
    # the problem is scale-invariant, and so is every stopping rule
    counts = [
        [r.iterations for r in minimize_restarts(B, grid2_512, 255, 7, restarts=4)]
        for B in (0.75, 1.0, 1.36)
    ]
    assert counts[0] == counts[1] == counts[2]


def test_minimize_scale_covariance():
    grid = make_grid(2, 128)
    a = best_restart(minimize_restarts(1.0, grid, 32, seed=2, restarts=SMALL))
    b = best_restart(minimize_restarts(2.0, grid, 32, seed=2, restarts=SMALL))
    assert b.phi_value == pytest.approx(4.0 * a.phi_value, rel=1e-12)
    assert b.area == pytest.approx(4.0 * a.area, rel=1e-12)


@pytest.mark.parametrize(
    "phis,best",
    [
        ([-1.0, -1.0 - 5e-13, -1.0 - 9e-13], 0),  # all within DESCENT_RTOL of the minimum
        ([-1.0, -1.0 - 3e-12, -1.0 - 3.5e-12], 1),
        ([-0.5, -1.0, -2.0], 2),
        ([0.0, 0.0], 0),
    ],
)
def test_minimize_best_restart_is_lowest_index_within_rel_tol(phis, best):
    fake = [SimpleNamespace(phi_value=p, restart_index=i) for i, p in enumerate(phis)]
    assert best_restart(fake).restart_index == best


def test_result_derives_area_and_bang_bang_from_its_minimizer(grid240, monkeypatch):
    init = {f.name for f in fields(OptimizationResult) if f.init}
    assert not init & {"area", "bang_bang"}
    reports = []

    def counting(r, *args):
        reports.append(r)
        return bang_bang_report(r, *args)

    monkeypatch.setattr(variational, "bang_bang_report", counting)
    polished = []
    monkeypatch.setattr(variational, "polish_switches",
                        lambda r, real=polish_switches: polished.append(r) or real(r))
    results = minimize_restarts(1.0, make_grid(2, 128), 32, seed=4, restarts=SMALL)
    assert reports == [] and polished == []  # nothing is computed for the restarts that lose
    best = best_restart(results)
    assert best.bang_bang.violation < 0.05 and best.bang_bang.sign_consistency > 0.95
    assert best.bang_bang is best.bang_bang
    assert reports == [best.minimizer]  # one report gives both fractions
    assert best.polish is best.polish and polished == [best.minimizer]

    half = AdmissibleR(1.0, grid240, 60, 0.5 * triangle_values(grid240))
    other = replace(best, minimizer=half)
    body = body_from_deviation(1.0, apply_green(project_linear_H(half.coeffs)))
    assert other.area == 0.25 * np.pi + 0.5 * phi(half) != best.area
    assert other.area == pytest.approx(area_spectral(body), rel=4 * np.finfo(float).eps, abs=0.0)
    assert other.bang_bang == bang_bang_report(half) and other.bang_bang.violation > 0.5


@pytest.mark.parametrize("width", [1.0, 1.3])
def test_each_restart_has_one_phi_and_one_area(width):
    # phi is the Green form of the descent's own window, and the area is
    # pi B^2 / 4 + phi / 2 of that phi, bit for bit, on every restart
    grid = make_grid(2, 512)
    ws = variational._workspace_for(grid, 255)
    for r in minimize_restarts(width, grid, 255, seed=0, restarts=16):
        window = analyze(grid, r.minimizer.values, 255).values[ws.window]
        assert r.phi_value == phi(r.minimizer) == ws.phi_of(window)
        assert r.area == 0.25 * np.pi * width * width + 0.5 * r.phi_value


@pytest.mark.parametrize("dim, resolution, L", [(2, 512, 255), (3, 32, 15)])
def test_the_descent_phi_is_the_green_form_of_its_window(dim, resolution, L, rng):
    # phi_of sums the window's terms in its own fsum, bit for bit the Green
    # form of the flat list that holds the window and zeros elsewhere
    ws = variational._workspace_for(make_grid(dim, resolution), L)
    for scale in (1e-3, 1.0, 1e5):
        window = scale * rng.normal(size=int(ws.window.sum()))
        full = np.zeros(ws.window.size)
        full[ws.window] = window
        assert ws.phi_of(window) == body2d._green_form(full.tolist(), dim)
    assert ws.phi_of(np.zeros(int(ws.window.sum()))) == 0.0


def test_minimize_restarts_provenance():
    grid = make_grid(2, 128)
    results = minimize_restarts(1.0, grid, 32, seed=9, restarts=SMALL)
    assert [r.restart_index for r in results] == [0, 1, 2]
    assert all(r.seed == 9 for r in results)
    best = best_restart(minimize_restarts(1.0, grid, 32, seed=9, restarts=SMALL))
    assert best.phi_value == min(r.phi_value for r in results)


def test_result_json_schema():
    grid = make_grid(2, 128)
    res = best_restart(minimize_restarts(1.0, grid, 32, seed=1, restarts=SMALL))
    payload = json.loads(result_to_json(res))
    assert list(payload.keys()) == [
        "dim",
        "width",
        "phi",
        "area",
        "iterations",
        "seed",
        "violation",
        "sign_consistency",
        "switches",
        "coeffs",
    ]
    assert payload["seed"] == 1
    assert payload["area"] is not None
    again = json.loads(result_to_json(res, timestamp="2024-01-01T00:00:00+00:00"))
    assert again["timestamp"] == "2024-01-01T00:00:00+00:00"


def test_result_file_text_is_the_json_encoders(grid3_16):
    # written without json, and still json.dumps of what the file holds:
    # every float by repr, "area": null and "equivalence_warning": true in dim 3
    planar = best_restart(minimize_restarts(1.0, make_grid(2, 128), 32, seed=1, restarts=SMALL))
    spatial = best_restart(minimize_restarts(1.0, grid3_16, 7, seed=2, restarts=1))
    for res in (planar, spatial):
        for stamp in (None, "2024-01-01T00:00:00+00:00"):
            text = result_to_json(res, stamp)
            assert text == json_text(json.loads(text))
    # a NaN that validate would refuse is not written
    broken = replace(spatial)
    vars(broken)["phi_value"] = float("nan")
    with pytest.raises(ShapeFormatError, match="non-finite number nan"):
        result_to_json(broken)


def test_minimize_labels_dim3_results_as_candidates(grid3_16):
    res = best_restart(minimize_restarts(1.0, grid3_16, 7, seed=2, restarts=1))
    assert res.equivalence_warning is True
    assert '"equivalence_warning": true' in result_to_json(res)
    planar = best_restart(minimize_restarts(1.0, make_grid(2, 64), 15, seed=2, restarts=1))
    assert planar.equivalence_warning is False
    assert "equivalence_warning" not in result_to_json(planar)


def test_workspace_is_cached_per_grid_object():
    grid = make_grid(3, 16)
    ws = variational._workspace_for(grid, 7)
    assert variational._workspace_for(grid, 7) is ws
    twin = make_grid(3, 16)
    ws_twin = variational._workspace_for(twin, 7)
    assert ws_twin is not ws
    assert ws_twin.grid is twin


def test_grid_frees_its_tables_with_it():
    grid = make_grid(3, 16)
    synthesize(zero_coeffs(3, 7), grid)
    table, _ = harmonic_core._legendre_table(grid, 7)
    refs = [weakref.ref(o) for o in (grid, table, variational._workspace_for(grid, 7))]
    del grid, table
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_minimize_reports_projection_stats_outside_the_json():
    grid = make_grid(2, 128)
    results = minimize_restarts(1.0, grid, 32, seed=4, restarts=SMALL)
    counters = ("projections", "newton_steps", "max_newton_steps", "line_searches")
    for res in results:
        # one projection of the start point, then one per descent iteration
        assert res.projections == res.iterations + 1
        assert res.max_newton_steps <= res.newton_steps
        assert res.newton_steps <= res.projections * res.max_newton_steps
        assert res.max_newton_steps <= variational.PROJECTION_MAX_STEPS
        assert res.line_searches <= res.newton_steps
        bare = replace(res, **dict.fromkeys(counters, 0))
        assert bare == OptimizationResult(res.minimizer, res.iterations, res.seed,
                                          res.restart_index, res.converged)
        assert result_to_json(res) == result_to_json(bare)
        assert not set(counters) & set(json.loads(result_to_json(res)))
    assert sum(r.newton_steps for r in results) > 0


def test_result_derives_phi_from_its_minimizer(grid240):
    init = {f.name for f in fields(OptimizationResult) if f.init}
    assert not init & {"phi_value", "polish"}
    best = best_restart(minimize_restarts(1.0, make_grid(2, 128), 32, seed=4, restarts=SMALL))
    assert best.phi_value == phi(best.minimizer) < 0.0
    half = AdmissibleR(1.0, grid240, 60, 0.5 * triangle_values(grid240))
    other = replace(best, minimizer=half)
    assert other.phi_value == phi(half) > best.phi_value  # no stale phi


# ---------------------------------------------------------------- switch polish


def test_polish_reaches_the_truncated_triangle(grid2_512):
    # the exact triangle truncated at L = 255, from the oracle's square-wave
    # integrals: the floor that no grid size reaches
    ks = np.arange(3, 256, 2)
    floor_phi = sum(square_wave_cos_coeff(3, 1.0, int(k)) ** 2 / (1.0 - k * k) for k in ks)
    floor = (np.pi / 4 + 0.5 * floor_phi - TRIANGLE_AREA) / TRIANGLE_AREA
    assert floor == pytest.approx(2.629e-8, rel=1e-3)
    res = best_restart(minimize_restarts(1.0, grid2_512, 255, seed=7, restarts=16))
    p = res.polish
    assert p.declined is None and len(p.switches) == 3 and p.steps <= 5
    excess = (p.area - TRIANGLE_AREA) / TRIANGLE_AREA
    assert excess == pytest.approx(floor, rel=0.01)
    assert 0.0 < excess < (res.area - TRIANGLE_AREA) / TRIANGLE_AREA / 400
    assert np.allclose(np.diff(p.switches), np.pi / 3, rtol=0.0, atol=1e-12)
    assert p.closure <= 1e-14 and p.stationarity <= 1e-14
    # the Green form validate reads back
    assert p.phi == body2d._green_form(p.window) < res.phi_value
    assert p.phi == quadratic_form_green(SpectralCoeffs(2, 255, np.array(p.window)))
    # oriented by the mean of the angles read off the samples' sign changes
    x = res.minimizer.values[:257]
    assert x[0] < 0.0  # no turn by pi
    c = np.flatnonzero((x[1:] > 0.0) != (x[:-1] > 0.0))
    read = (c + x[c] / (x[c] - x[c + 1])) * (2.0 * np.pi / 512)
    assert np.mean(p.switches) == pytest.approx(np.mean(read), rel=0.0, abs=1e-13)


@pytest.mark.parametrize("width", [1e-100, 1e-20, 1e20, 1e100])
def test_polish_is_the_same_at_every_width(width):
    # the closure multipliers are carried in units of B, so no width makes
    # lstsq drop the angle directions
    grid = make_grid(2, 16)
    unit = best_restart(minimize_restarts(1.0, grid, 7, seed=0, restarts=2)).polish
    p = best_restart(minimize_restarts(width, grid, 7, seed=0, restarts=2)).polish
    assert unit.declined is None and p.declined is None and len(p.switches) == 3
    assert np.allclose(p.switches, unit.switches, rtol=0.0, atol=1e-14)
    assert p.closure <= 1e-14 and p.stationarity <= 1e-14
    assert p.area == pytest.approx(unit.area * width * width, rel=1e-13, abs=0.0)


def test_polish_solves_a_square_system(monkeypatch):
    # no least squares: restart 0 of seed 33 at (16, 7) is a pentagon and
    # restart 1 the triangle, and both polish with lstsq gone
    def refuse(*args, **kwargs):
        raise AssertionError("lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    results = minimize_restarts(1.0, make_grid(2, 16), 7, seed=33, restarts=2)
    for res, n in zip(results, (5, 3)):
        p = polish_switches(res.minimizer)
        assert p.declined is None and len(p.switches) == n
        assert p.closure <= 1e-14 and p.stationarity <= 1e-14
        assert body2d.validate(loads_shape(result_to_json(res))).valid


def test_polish_declines_a_singular_newton_system(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    res = best_restart(minimize_restarts(1.0, make_grid(2, 16), 7, seed=33, restarts=2))
    monkeypatch.setattr(np.linalg, "solve", singular)
    p = polish_switches(res.minimizer)
    assert p.declined == "a singular Newton system at step 0" and p.switches is None


def test_polish_declines_at_its_step_cap(monkeypatch):
    # one Newton step from the grid's reading leaves residuals above POLISH_RTOL
    res = best_restart(minimize_restarts(1.0, make_grid(2, 16), 7, seed=33, restarts=2))
    monkeypatch.setattr(switches, "POLISH_MAX_STEPS", 1)
    p = polish_switches(res.minimizer)
    assert p.declined.startswith("no convergence in 1 Newton steps (largest residual ")
    assert p.steps == 1 and p.switches is None


def test_polish_declines_a_state_that_is_not_bang_bang(grid240):
    half = AdmissibleR(1.0, grid240, 60, 0.5 * triangle_values(grid240))
    p = polish_switches(half)
    assert p.declined.startswith("not bang-bang")
    assert p.switches is None and p.window is None
    res = best_restart(minimize_restarts(1.0, make_grid(2, 128), 32, seed=4, restarts=SMALL))
    other = replace(res, minimizer=half)
    assert other.polish.declined == p.declined
    # no switches without a converged polish: the file holds the window, and
    # its sampled convexity is information
    assert "switches" not in json.loads(result_to_json(other))
    report = body2d.validate(loads_shape(result_to_json(other)))
    assert report.valid and "INFO convexity" in report.summary()


def test_validate_of_a_declined_polish_gates_the_window_and_samples_as_information(
        grid240, tmp_path, capsys):
    # the file of the declined polish above, through the CLI: the window's
    # exact checks gate, its sampled convexity and curvature-bound do not
    half = AdmissibleR(1.0, grid240, 60, 0.5 * triangle_values(grid240))
    res = best_restart(minimize_restarts(1.0, make_grid(2, 128), 32, seed=4, restarts=SMALL))
    path = tmp_path / "declined.json"
    path.write_text(result_to_json(replace(res, minimizer=half)))
    assert cli.main(["validate", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS odd-degrees", "PASS translation-orthogonality", "PASS phi", "PASS area",
        "PASS constant-width", "INFO convexity", "INFO curvature-bound",
    ]
    assert lines[5:] == ["INFO convexity: residual=0.000e+00 (not gated)",
                         "INFO curvature-bound: residual=0.000e+00 (not gated)"]


def test_polish_turns_a_state_positive_at_zero_by_pi():
    results = minimize_restarts(1.0, make_grid(2, 128), 32, seed=4, restarts=SMALL)
    r = best_restart(results).minimizer
    polished = []
    for values in (r.values, -r.values):
        flipped = AdmissibleR(1.0, r.grid, 32, values)
        p = polish_switches(flipped)
        assert p.declined is None and 0.0 <= p.switches[0] < p.switches[-1] < np.pi
        text = result_to_json(OptimizationResult(flipped, 1, 0, 0, True))
        assert body2d.validate(loads_shape(text)).valid
        polished.append(p)
    # the turn by pi keeps the switch angles and the body
    assert polished[0].switches == polished[1].switches
    assert polished[0].window == polished[1].window


def test_polish_of_an_aliased_grid_minimum_is_the_truncated_triangle(grid240):
    # samples of the exact triangle with a node on every switch: their
    # trapezoid window reads a phi below that of any exact body at L = 60,
    # and the polish still gives the exact triangle truncated at L = 60
    r = AdmissibleR(1.0, grid240, 60, triangle_values(grid240))
    assert phi(r) < TRIANGLE_PHI
    p = polish_switches(r)
    assert p.declined is None and len(p.switches) == 3
    ks = np.arange(3, 61, 2)
    floor_phi = sum(square_wave_cos_coeff(3, 1.0, int(k)) ** 2 / (1.0 - k * k) for k in ks)
    assert p.area > TRIANGLE_AREA
    assert p.area == pytest.approx(np.pi / 4 + 0.5 * floor_phi, rel=1e-13)
    text = result_to_json(OptimizationResult(r, 1, 0, 0, True))
    assert json.loads(text)["switches"] == list(p.switches)
    assert body2d.validate(loads_shape(text)).valid


def test_switch_residuals_jacobian_matches_finite_differences(rng):
    theta = np.sort(rng.uniform(0.0, np.pi, 5))
    lam = rng.normal(0.0, 0.1, 2)
    resid, jac = switches.switch_system(theta, lam)
    h = 1e-6
    x = np.concatenate((theta, lam))
    for j in range(x.size):
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        r_up = np.array(switches.switch_system(up[:5], up[5:])[0])
        r_down = np.array(switches.switch_system(down[:5], down[5:])[0])
        assert np.allclose(np.array(jac)[:, j], (r_up - r_down) / (2 * h), rtol=0.0, atol=1e-8)
    assert np.abs(resid[5:]).max() > 0.01


def test_validate_result_of_a_switch_file_at_the_reader_caps_stays_small():
    # 255 regular switches at degree 4096; a (2L + 1) x n matrix of the
    # window's derivatives in the angles alone would take 16 MiB
    theta = (2 * np.arange(1, 256) - 1) * np.pi / 510
    window = SpectralCoeffs(2, 4096, np.array(switch_window(theta, 1.0, 4096)[0]))
    green = quadratic_form_green(window)
    f = ShapeFile(2, 1.0, 4096, window.values.tolist(), tuple(theta.tolist()),
                  green, np.pi / 4 + 0.5 * green)
    tracemalloc.start()
    try:
        report = body2d.validate(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    assert peak < 16 * 2**20


def test_half_turn_list_gives_the_point_reflection():
    for theta in ([-0.05, 1.0, 2.2], [0.4, 1.5, np.pi + 0.02], [0.1, 0.5, 1.2, 2.0, 3.0]):
        listed, turned = switches._half_turn_list(theta)
        assert turned == (theta[0] < 0.0 or theta[-1] >= np.pi)
        assert 0.0 <= listed[0] and np.all(np.diff(listed) > 0.0) and listed[-1] < np.pi
        window, closure = switch_window(theta, 1.3, 31)
        again, closure_again = switch_window(listed, 1.3, 31)
        sign = -1.0 if turned else 1.0
        assert np.allclose(again, sign * np.array(window), rtol=0.0, atol=1e-14)
        assert np.allclose(closure_again, sign * np.array(closure), rtol=0.0, atol=1e-14)


def test_polish_declines_an_even_count_of_switches():
    p = polish_switches(AdmissibleR(1.0, make_grid(2, 16), 7, np.zeros(16)))
    assert p == (0, "an even count of switches (0) in [0, pi)", None, None, None, None, None, None)


def test_polish_turns_an_end_angle_below_zero_by_pi():
    # a triangle turned by -0.01 is stationary as read; its first angle is
    # below 0, so the polish lists its antipode last and negates the window
    shift = 0.01
    read = [-shift, math.pi / 3 - shift, 2 * math.pi / 3 - shift]
    turned = [math.pi / 3 - shift, 2 * math.pi / 3 - shift, math.pi - shift]
    p, direct = polish(read, 1.0, 15), polish(turned, 1.0, 15)
    assert p.steps == direct.steps == 0 and p.declined is None
    assert p.switches == direct.switches == tuple(turned)
    assert p.window == direct.window
    assert np.allclose(p.window, -np.array(switch_window(read, 1.0, 15)[0]), rtol=0.0, atol=1e-15)
    assert (p.closure, p.stationarity) == (direct.closure, direct.stationarity)
    assert p.closure <= 1e-15 and p.stationarity <= 1e-15


def test_polish_declines_angles_that_leave_their_order():
    p = polish([-0.19393529009745206, 0.051184340343450985, 2.8270925729532945], 1.0, 15)
    assert p.declined == "the switch angles left their order in [0, pi)"
    assert p.steps == 8 and p.switches is None


def test_every_restart_of_the_sweep_polishes_to_a_closed_stationary_body():
    # 480 restarts: five grids, seeds 0-23, four restarts each, every one
    # polished, not only the winners
    counts, most_steps = {}, 0
    for n_nodes, modes in ((16, 7), (24, 11), (64, 31), (128, 63), (512, 255)):
        grid = make_grid(2, n_nodes)
        for seed in range(24):
            for res in minimize_restarts(1.0, grid, modes, seed, restarts=4):
                p = polish_switches(res.minimizer)
                assert p.declined is None, (n_nodes, seed, res.restart_index, p.declined)
                assert p.closure <= switches.POLISH_RTOL and p.stationarity <= switches.POLISH_RTOL
                counts[len(p.switches)] = counts.get(len(p.switches), 0) + 1
                most_steps = max(most_steps, p.steps)
    assert counts == {3: 476, 5: 4}
    assert most_steps <= 5


def test_polish_is_dim2_only(grid3_16):
    res = best_restart(minimize_restarts(1.0, grid3_16, 7, seed=2, restarts=1))
    assert res.polish is None
    with pytest.raises(ValueError, match="dim 2"):
        polish_switches(res.minimizer)


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**16))
def test_descent_never_beats_global_bound(seed):
    # phi of any admissible state is bounded below by the full box mass
    grid = make_grid(2, 64)
    res = best_restart(minimize_restarts(1.0, grid, 16, seed=seed, restarts=1))
    assert -1.0 < res.phi_value <= 0.0
