"""Planar constant-width bodies built from support expansions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbiform import body2d, switches
from orbiform.body2d import (
    SupportBody,
    area_quadrature,
    area_spectral,
    body_from_deviation,
    curvature_coeffs,
    disk,
    eval_curvature_radius,
    eval_support,
    perimeter,
    random_body,
    validate,
)
from orbiform.harmonic_core import (
    ClosednessError,
    SpectralCoeffs,
    make_grid,
    apply_green,
    num_coeffs,
    quadratic_form_green,
    require_translation_free,
    synthesize,
    zero_coeffs,
)
from orbiform.reuleaux import ReuleauxSpec, closed_area, support_values, to_body
from orbiform.switches import switch_jumps, switch_window

from oracles import (
    index2, reuleaux_deviation_coeffs, switch_kernel, switch_kernel_s, switch_phi,
    switch_phi_pairwise, switch_support,
)


def small_cos3_body(width=1.0, amp=None):
    """Smooth strictly convex test body: p = width/2 + amp cos(3w)."""
    if amp is None:
        amp = width / 32.0
    dev = zero_coeffs(2, 3).values.copy()
    dev[index2(3, "cos")] = amp * np.sqrt(np.pi)
    return body_from_deviation(width, SpectralCoeffs(2, 3, dev))


# ---------------------------------------------------------------- basics


def test_disk_support_and_curvature(grid2_64):
    d = disk(2.0)
    assert eval_support(d, 0.3) == pytest.approx(1.0, abs=1e-14)
    assert eval_curvature_radius(d, 1.1) == pytest.approx(1.0, abs=1e-14)
    assert area_quadrature(d, grid2_64) == pytest.approx(np.pi, rel=1e-13)
    assert area_spectral(d) == pytest.approx(np.pi, rel=1e-13)
    assert perimeter(d, grid2_64) == pytest.approx(2 * np.pi, rel=1e-13)


def test_body_requires_positive_width():
    with pytest.raises(ValueError):
        SupportBody(0.0, zero_coeffs(2, 3))
    with pytest.raises(ValueError):
        SupportBody(-1.0, zero_coeffs(2, 3))
    with pytest.raises(ValueError):
        SupportBody(1.0, zero_coeffs(3, 3))


def test_body_from_deviation_sets_mean():
    b = small_cos3_body(width=3.0)
    assert eval_support(b, 0.0) + eval_support(b, np.pi) == pytest.approx(3.0, abs=1e-13)


def test_curvature_coeffs_scaling():
    b = small_cos3_body(1.0, amp=0.01)
    r = curvature_coeffs(b)
    # degree k picks up 1 - k^2; degree 3 -> -8
    assert r.values[index2(3, "cos")] == pytest.approx(-8 * 0.01 * np.sqrt(np.pi))
    assert eval_curvature_radius(b, 0.0) == pytest.approx(0.5 - 8 * 0.01, abs=1e-13)


# ---------------------------------------------------------------- boundary


def test_width_across_boundary():
    # support in opposite directions always sums to the width
    b = to_body(ReuleauxSpec(5, 2.0), 128)
    om = np.linspace(0, 2 * np.pi, 101)
    total = eval_support(b, om) + eval_support(b, om + np.pi)
    assert np.max(np.abs(total - 2.0)) <= 1e-12


# ---------------------------------------------------------------- areas


def test_area_routes_agree_on_random_bodies(rng, grid2_256):
    for _ in range(10):
        b = random_body(rng)
        a_quad = area_quadrature(b, grid2_256)
        a_spec = area_spectral(b)
        assert a_quad == pytest.approx(a_spec, rel=1e-12)


def test_area_spectral_rejects_open_curvature():
    c = zero_coeffs(2, 3).values.copy()
    c[0] = 1.0
    c[index2(1, "cos")] = 0.5  # translation term: fine for p, fatal if forced into R
    body = SupportBody(1.0, SpectralCoeffs(2, 3, c))
    # R kills degree 1, so the spectral area still works on a translated body
    assert np.isfinite(area_spectral(body))
    with pytest.raises(ClosednessError):
        require_translation_free(SpectralCoeffs(2, 3, c), "test input")


def test_area_spectral_is_the_parseval_sum_of_the_support(rng):
    for b in [disk(1.0), *(random_body(rng, width=w) for w in (1e-100, 1.0, 1e100))]:
        assert area_spectral(b) == body2d._area_parseval(b.support_coeffs.values.tolist())


def test_barbier_perimeter(rng, grid2_256):
    for _ in range(5):
        b = random_body(rng, width=1.7)
        assert perimeter(b, grid2_256) == pytest.approx(np.pi * 1.7, rel=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.floats(0.25, 4.0))
def test_area_scale_covariance(scale):
    b1 = small_cos3_body(1.0)
    b2 = small_cos3_body(scale)
    assert area_spectral(b2) == pytest.approx(scale * scale * area_spectral(b1), rel=1e-12)


def test_body_from_deviation_refuses_dim3():
    with pytest.raises(ValueError, match="deviation must be dim-2"):
        body_from_deviation(1.0, zero_coeffs(3, 2))


# ---------------------------------------------------------------- validate


def test_validate_disk_passes():
    report = validate(disk(1.0))
    assert report.valid
    names = {c.name for c in report.checks}
    assert {"constant-width", "convexity", "curvature-bound"} <= names
    assert "PASS" in report.summary()


def test_report_check_of_an_unknown_name_raises_key_error():
    with pytest.raises(KeyError, match="no-such-check"):
        validate(disk(1.0)).check("no-such-check")


def test_validate_flags_even_harmonic():
    dev = zero_coeffs(2, 4).values.copy()
    dev[index2(4, "cos")] = 0.05
    report = validate(body_from_deviation(1.0, SpectralCoeffs(2, 4, dev)))
    assert not report.valid
    assert not report.check("constant-width").passed


def test_validate_flags_nonconvex():
    # amp large enough that R = p'' + p goes negative
    report = validate(small_cos3_body(1.0, amp=0.2))
    assert not report.valid
    assert not report.check("convexity").passed


def test_validate_truncated_polygon_needs_relaxed_tolerance():
    b = to_body(ReuleauxSpec(3, 1.0), 128)
    assert not validate(b).check("convexity").passed  # Gibbs dip below zero
    assert validate(b, convexity_tol=0.12).valid


def test_validate_convexity_tol_is_absolute():
    # the ringing scales with the width, the tolerance does not; band limit
    # 1023 is what a `reuleaux --modes 1024` file reads back as (residual
    # 0.0895 * width)
    b = to_body(ReuleauxSpec(3, 1.4), 1023)
    assert not validate(b, convexity_tol=0.12).check("convexity").passed
    assert validate(b, convexity_tol=0.12 * 1.4).valid


def test_validate_convexity_residual_does_not_depend_on_band_parity():
    # the dip is the Gibbs overshoot, 0.0895 * width; a check grid of only
    # 2L + 2 nodes read 0.077 * width at L = 1024 and 0.0895 * width at 1023
    B = 1.4
    dips = [
        validate(to_body(ReuleauxSpec(3, B), L)).check("convexity").residual for L in (1023, 1024)
    ]
    assert abs(dips[0] - dips[1]) <= 1e-4 * B
    assert dips[0] == pytest.approx(0.0895 * B, abs=1e-4 * B)


def test_high_band_area_and_validate_stay_small():
    # a dense N x (2L+1) basis at L = 2048 alone would take 128 MB
    body = to_body(ReuleauxSpec(3, 1.0), 2048)
    tracemalloc.start()
    try:
        area_quadrature(body, make_grid(2, 2 * 2048 + 2))
        validate(body, convexity_tol=0.12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------- bang-bang closed form


@pytest.mark.parametrize("width", [1.0, 2.0 ** (-1.0 / 3.0)])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_switch_window_is_the_reuleaux_square_wave_at_regular_angles(n, width):
    # R = 0 on [0, pi/(2n)): the Reuleaux convention, support maximum at 0
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    window, closure = switch_window(theta, width, 8 * n)
    # plain lists of floats: the window needs no numpy
    assert all(type(v) is float for v in window + closure) and len(closure) == 2
    want = reuleaux_deviation_coeffs(n, width, 8 * n)
    want[index2(1, "cos")] = 0.0  # the window starts at degree 3; here degree 1 is 0 anyway
    assert np.allclose(window, want, rtol=0.0, atol=1e-14 * width)
    assert np.abs(closure).max() <= 1e-15 * width


def test_switch_window_is_zero_at_degrees_0_and_1_and_at_even_degrees(rng):
    theta = np.sort(rng.uniform(0.0, np.pi, 5))
    values, closure = switch_window(theta, 1.3, 40)
    window = np.array(values)
    # even degrees and degree 1 are exact zeros; the degree-1 part of the
    # full wave is what the closure measures
    assert np.all(window[[0, 1, 2]] == 0.0) and np.all(window[3::4] == 0.0)
    assert np.all(window[4::4] == 0.0) and np.abs(closure).max() > 0.01


@pytest.mark.parametrize("n", [3, 5, 7])
def test_switch_window_green_form_is_the_kernel_sum(n, rng):
    # the window's Green form at L = 65535 against the band-free oracle
    theta = np.sort(rng.uniform(0.0, np.pi, n))
    window = SpectralCoeffs(2, 65535, np.array(switch_window(theta, 1.3, 65535)[0]))
    got = quadratic_form_green(window)
    assert got == pytest.approx(switch_phi(theta, 1.3), rel=1e-12, abs=0.0)
    # the math sum in body2d against the numpy oracle
    assert switches.switch_phi(theta, 1.3) == pytest.approx(switch_phi(theta, 1.3), rel=1e-13, abs=0.0)


def test_switch_kernel_is_the_derivative_of_the_oracle_kernel(rng):
    x = rng.uniform(0.01, np.pi - 0.01, 64) * rng.choice([-1.0, 1.0], 64)
    h = 1e-4
    up, mid, down = switch_kernel_s(x + h), switch_kernel_s(x), switch_kernel_s(x - h)
    ds, dds = switch_kernel(x)
    assert np.allclose(ds, (up - down) / (2 * h), rtol=0.0, atol=1e-8)
    assert np.allclose(dds, (up - 2 * mid + down) / (h * h), rtol=0.0, atol=1e-7)
    assert switch_kernel(0.0)[0] == 0.0


def test_switch_support_of_a_closed_irregular_body_is_its_window(rng):
    B = 1.3
    theta = (2 * np.arange(1, 6) - 1) * np.pi / 10
    theta[:3] += (0.05, -0.08, 0.03)
    # theta_4, theta_5 close the boundary: B (e^{i theta_5} - e^{i theta_4}) = w
    assert switch_jumps(5, B) == [B, -B, B, -B, B]
    jumps = np.array(switch_jumps(5, B))
    w = -(jumps[:3] @ np.exp(1j * theta[:3])) / B
    half, mid = np.arcsin(abs(w) / 2), np.mod(np.angle(w) - np.pi / 2, 2 * np.pi)
    theta[3:] = mid - half, mid + half
    assert np.all(np.diff(theta) > 0.1) and theta[-1] < np.pi
    window, closure = switch_window(theta, B, 8191)
    assert np.abs(closure).max() <= 1e-15 * B
    grid = make_grid(2, 16384)
    want = synthesize(apply_green(SpectralCoeffs(2, 8191, np.array(window))), grid)
    assert np.abs(switch_support(theta, B, grid.angles) - want).max() <= 1e-8 * B


@pytest.mark.parametrize("n", [1, 3, 5, 7, 63])
def test_switch_system_is_the_pairwise_numpy_oracle(n, rng):
    # residuals: the oracle's support at the switches plus the multipliers'
    # degree 1, then the closure; off-diagonal Jacobian: (2/pi) J_k S''. Sums
    # of n terms of size up to 1, so the two orders agree to n ulps
    eps = np.finfo(float).eps
    jumps = np.array(switch_jumps(n, 1.0))
    for _ in range(20):
        theta = np.sort(rng.uniform(0.0, np.pi, n))
        lam = rng.normal(0.0, 0.3, 2)
        resid, jac = switches.switch_system(theta, lam)
        want = switch_support(theta, 1.0, theta) + lam[0] * np.cos(theta) + lam[1] * np.sin(theta)
        closure = [jumps @ np.sin(theta), jumps @ np.cos(theta)]
        assert np.allclose(resid, np.append(want, closure), rtol=0.0, atol=n * eps)
        off = 2.0 / np.pi * switch_kernel(np.subtract.outer(theta, theta))[1] * jumps
        mask = ~np.eye(n, dtype=bool)
        assert np.allclose(np.array(jac)[:n, :n][mask], off[mask], rtol=0.0, atol=n * eps)


WIDTHS = (1.0, 2.0 ** (-1.0 / 3.0), 1.3)
# Reuleaux (sides, band limit) pairs from low to the reader's highest band;
# a body needs L >= 4 * sides
REULEAUX_BANDS = [(n, L) for n in (3, 5, 7, 255) for L in (64, 511, 1023, 4096) if L >= 4 * n]


@pytest.mark.parametrize("n", [3, 5, 7, 255, 1365])
def test_switch_phi_of_the_regular_angles_is_the_closed_area(n):
    # the bound `orbiform reuleaux` gates on: an ulp of B^2 per running-sum
    # term; n = 3, 5 and 7 read within 2 ulps of the area
    for width in WIDTHS:
        spec = ReuleauxSpec(n, width)
        area = 0.25 * np.pi * width**2 + 0.5 * switches.switch_phi(spec.switches, width)
        exact = closed_area(spec)
        assert abs(area - exact) <= n * np.finfo(float).eps * width**2
        if n < 9:
            assert abs(area - exact) <= 2 * np.spacing(exact)


@pytest.mark.parametrize("order", ["sorted", "unsorted"])
def test_switch_phi_forms_agree_on_random_lists(order, rng):
    # the running sums and the pairwise sum against the numpy oracle, on
    # lists that need not close; each side sums (4/pi) n^2 kernel terms of
    # size below 3, so 8 n^2 eps B^2 bounds its rounding
    for _ in range(200):
        n = int(rng.integers(1, 64))
        theta = rng.uniform(0.0, np.pi, n)
        if order == "sorted":
            theta = np.sort(theta)
        width = float(rng.choice(WIDTHS))
        want = switch_phi(theta, width)
        tol = 8 * n * n * np.finfo(float).eps * width**2
        assert abs(switches.switch_phi(theta.tolist(), width) - want) <= tol
        assert abs(switch_phi_pairwise(theta, width) - want) <= tol


@pytest.mark.parametrize("n, L", REULEAUX_BANDS)
def test_parseval_area_is_the_trapezoid_area(n, L):
    for width in WIDTHS:
        spec = ReuleauxSpec(n, width)
        want = area_quadrature(to_body(spec, L), make_grid(2, 2 * L + 2))
        got = body2d._area_parseval(support_values(spec, L))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_parseval_area_skips_zeros_to_the_same_double(rng):
    # fsum rounds the exact sum once, and zero terms add nothing to it
    def dense(values):
        return 0.5 * math.fsum((1 - ((i + 1) // 2) ** 2) * c * c for i, c in enumerate(values))

    for n, L in REULEAUX_BANDS:
        values = support_values(ReuleauxSpec(n, 1.3), L)
        assert body2d._area_parseval(values) == dense(values)
    values = rng.normal(size=2 * 600 + 1) * (rng.uniform(size=2 * 600 + 1) < 0.1)
    values[[1, 5]] = -0.0
    assert body2d._area_parseval(values.tolist()) == dense(values.tolist())
    assert body2d._area_parseval([0.0, -0.0, 0.0]) == dense([0.0, -0.0, 0.0]) == 0.0


# ---------------------------------------------------------------- random bodies


def test_random_body_is_valid_and_deterministic():
    a = random_body(np.random.default_rng(5), width=1.0)
    b = random_body(np.random.default_rng(5), width=1.0)
    assert np.array_equal(a.support_coeffs.values, b.support_coeffs.values)
    assert validate(a).valid


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**32 - 1))
def test_random_body_respects_box(seed):
    b = random_body(np.random.default_rng(seed))
    grid = make_grid(2, 512)
    from orbiform.harmonic_core import synthesize

    r = synthesize(curvature_coeffs(b), grid)
    assert np.all(r >= -1e-12)
    assert np.all(r <= 1.0 + 1e-12)
