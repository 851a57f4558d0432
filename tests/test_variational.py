"""Admissible states, metric projection, functional, and the optimizer."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbiform.harmonic_core import (
    SpectralCoeffs,
    analyze,
    index2,
    make_grid,
    num_coeffs,
    quadratic_form_green,
    synthesize,
    zero_coeffs,
)
from orbiform.reuleaux import deviation_coeffs, make_spec
from orbiform.variational import (
    AdmissibleR,
    MinimizeConfig,
    NumericalFailure,
    admissible_from_values,
    bang_bang_report,
    box_bound,
    canonical_align,
    minimize,
    minimize_restarts,
    phi,
    phi_gradient,
    project_admissible,
    result_to_json,
    support_deviation,
)

from oracles import TRIANGLE_PHI, square_wave_cos_coeff


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
    from orbiform.reuleaux import curvature_square_wave

    spec = make_spec(3, scale)
    return curvature_square_wave(spec, grid.angles) - 0.5 * scale


# ---------------------------------------------------------------- admissibility


def test_box_bound_values():
    assert box_bound(2, 1.0) == 0.5
    assert box_bound(3, 1.0) == 1.0
    assert box_bound(2, 3.0) == 1.5


def test_admissible_accepts_square_wave(grid240):
    r = admissible_from_values(1.0, grid240, 60, triangle_values(grid240))
    assert isinstance(r, AdmissibleR)
    assert r.dim == 2


def test_admissible_rejects_box_violation(grid240):
    vals = triangle_values(grid240) * 1.01
    with pytest.raises(ValueError, match="box"):
        admissible_from_values(1.0, grid240, 60, vals)


def test_admissible_rejects_asymmetry(grid240):
    vals = triangle_values(grid240).copy()
    vals[3] -= np.sign(vals[3]) * 1e-6  # move inward so only antisymmetry breaks
    with pytest.raises(ValueError, match="antisym"):
        admissible_from_values(1.0, grid240, 60, vals)


def test_admissible_rejects_translation_component(grid240):
    vals = 0.2 * np.sin(grid240.angles)
    with pytest.raises(ValueError, match="degree-1"):
        admissible_from_values(1.0, grid240, 60, vals)


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


def test_project_reports_nonconvergence(grid2_256, rng):
    f = rng.normal(0.0, 2.0, grid2_256.size)
    with pytest.raises(NumericalFailure):
        project_admissible(f, 1.0, grid2_256, 60, max_sweeps=1)


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
    r = minimize(1.0, grid3_16, 7, seed=7, config=MinimizeConfig(restarts=1)).minimizer
    grad = phi_gradient(r)
    phi0 = phi(r)
    for k in range(11):
        step = project_admissible(r.values - 5.0 * 2.0**k * grad, 1.0, grid3_16, 7)
        assert isinstance(step, AdmissibleR)
        # phi is concave: a projected gradient step never raises it
        assert phi(step) <= phi0 + 1e-12


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
    r = admissible_from_values(1.0, grid480, 128, triangle_values(grid480))
    assert phi(r) == pytest.approx(window_phi, abs=5e-5)
    assert phi(r) == pytest.approx(TRIANGLE_PHI, abs=5e-5)


def test_phi_nonpositive_and_zero_at_ball(grid240):
    z = admissible_from_values(1.0, grid240, 60, np.zeros(grid240.size))
    assert phi(z) == 0.0
    r = admissible_from_values(1.0, grid240, 60, triangle_values(grid240))
    assert phi(r) < 0


def test_phi_scale_covariance(grid240):
    r1 = admissible_from_values(1.0, grid240, 60, triangle_values(grid240))
    r2 = admissible_from_values(2.0, grid240, 60, triangle_values(grid240, 2.0))
    assert phi(r2) == pytest.approx(4.0 * phi(r1), rel=1e-12)


def test_gradient_matches_finite_differences(grid240, rng):
    L = 40
    vals = 0.8 * triangle_values(grid240)
    r = admissible_from_values(1.0, grid240, L, vals)
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
    r = admissible_from_values(1.0, grid240, 60, triangle_values(grid240))
    rep = bang_bang_report(r)
    assert rep.epsilon == 1e-3
    assert rep.violation <= 1e-12
    assert rep.sign_consistency == pytest.approx(1.0, abs=1e-12)


def test_bang_bang_report_flags_interior_mass(grid240):
    r = admissible_from_values(1.0, grid240, 60, 0.5 * triangle_values(grid240))
    rep = bang_bang_report(r)
    assert rep.violation > 0.5


def test_bang_bang_report_rejects_bad_epsilon(grid240):
    r = admissible_from_values(1.0, grid240, 60, triangle_values(grid240))
    with pytest.raises(ValueError):
        bang_bang_report(r, epsilon=0.0)


def test_canonical_align_idempotent_and_rotation_invariant():
    # 234 = 3 * 78 keeps every switch point strictly between nodes, so any
    # rotation by a third of a turn permutes the sampled wave exactly; 240
    # would park nodes on the switches and break bitwise roll equality
    grid = make_grid(2, 234)
    vals = triangle_values(grid)
    r = admissible_from_values(1.0, grid, 60, vals)
    a = canonical_align(r)
    assert np.array_equal(canonical_align(a).values, a.values)
    rolled = admissible_from_values(1.0, grid, 60, np.roll(vals, 39))
    b = canonical_align(rolled)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------- optimizer


SMALL = MinimizeConfig(restarts=3)


def test_minimize_small_run_finds_triangle():
    grid = make_grid(2, 128)
    res = minimize(1.0, grid, 32, seed=11, config=SMALL)
    assert res.converged
    assert res.phi_value < 0
    assert res.area == pytest.approx(0.70477, abs=5e-3)
    assert res.bangbang_violation < 0.05
    assert res.sign_consistency > 0.95


def test_minimize_is_deterministic():
    grid = make_grid(2, 128)
    a = minimize(1.0, grid, 32, seed=4, config=SMALL)
    b = minimize(1.0, grid, 32, seed=4, config=SMALL)
    assert result_to_json(a) == result_to_json(b)
    assert np.array_equal(a.minimizer.values, b.minimizer.values)


def test_minimize_restart_count_does_not_change_result():
    # restart i draws from default_rng([seed, i]) whatever the restart count
    grid = make_grid(2, 128)
    one = minimize_restarts(1.0, grid, 32, seed=4, config=MinimizeConfig(restarts=1))
    three = minimize_restarts(1.0, grid, 32, seed=4, config=MinimizeConfig(restarts=3))
    assert result_to_json(one[0]) == result_to_json(three[0])


def test_minimize_iterations_do_not_depend_on_width(grid2_512):
    # the problem is scale-invariant, and so is every stopping rule
    counts = [
        [r.iterations for r in minimize_restarts(B, grid2_512, 255, 7, MinimizeConfig(restarts=4))]
        for B in (0.75, 1.0, 1.36)
    ]
    assert counts[0] == counts[1] == counts[2]


def test_minimize_scale_covariance():
    grid = make_grid(2, 128)
    a = minimize(1.0, grid, 32, seed=2, config=SMALL)
    b = minimize(2.0, grid, 32, seed=2, config=SMALL)
    assert b.phi_value == pytest.approx(4.0 * a.phi_value, rel=1e-12)
    assert b.area == pytest.approx(4.0 * a.area, rel=1e-12)


def test_minimize_restarts_provenance():
    grid = make_grid(2, 128)
    results = minimize_restarts(1.0, grid, 32, seed=9, config=SMALL)
    assert [r.restart_index for r in results] == [0, 1, 2]
    assert all(r.seed == 9 for r in results)
    best = minimize(1.0, grid, 32, seed=9, config=SMALL)
    assert best.phi_value == min(r.phi_value for r in results)


def test_result_json_schema():
    grid = make_grid(2, 128)
    res = minimize(1.0, grid, 32, seed=1, config=SMALL)
    payload = json.loads(result_to_json(res))
    assert list(payload.keys()) == [
        "phi",
        "area",
        "iterations",
        "seed",
        "violation",
        "sign_consistency",
        "coeffs",
    ]
    assert payload["seed"] == 1
    assert payload["area"] is not None
    again = json.loads(result_to_json(res, timestamp="2024-01-01T00:00:00+00:00"))
    assert again["timestamp"] == "2024-01-01T00:00:00+00:00"


def test_result_rejects_positive_phi(grid240):
    from orbiform.variational import OptimizationResult

    r = admissible_from_values(1.0, grid240, 60, triangle_values(grid240))
    with pytest.raises(ValueError):
        OptimizationResult(
            minimizer=r,
            phi_value=0.5,
            area=1.0,
            iterations=1,
            seed=0,
            restart_index=0,
            bangbang_violation=0.0,
            sign_consistency=1.0,
            converged=True,
        )


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**16))
def test_descent_never_beats_global_bound(seed):
    # phi of any admissible state is bounded below by the full box mass
    grid = make_grid(2, 64)
    res = minimize(1.0, grid, 16, seed=seed, config=MinimizeConfig(restarts=1))
    assert -1.0 < res.phi_value <= 0.0
