"""Transform layer: grids, real harmonic bases, spectral operators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbiform import body2d
from orbiform.harmonic_core import (
    ClosednessError,
    SpectralCoeffs,
    analyze,
    apply_green,
    apply_laplacian,
    coeff_degrees,
    degree_one_residual,
    green_multipliers,
    make_grid,
    num_coeffs,
    project_linear_H,
    quadratic_form_green,
    require_translation_free,
    synthesize,
    translation_residual,
    zero_coeffs,
)

from oracles import TWO_PI, fourier_matrix, index2, index3, real_sph_harm_matrix


# ---------------------------------------------------------------- grids


@pytest.mark.parametrize("dim,res,measure", [(2, 64, TWO_PI), (3, 16, 4 * np.pi)])
def test_grid_weights_and_measure(dim, res, measure):
    g = make_grid(dim, res)
    assert np.all(g.weights > 0)
    assert np.isclose(np.sum(g.weights), measure, rtol=0, atol=1e-12)
    assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("dim,res", [(2, 64), (2, 62), (3, 16), (3, 32)])
def test_grid_antipode_is_exact_involution(dim, res):
    g = make_grid(dim, res)
    a = g.antipode_index
    assert np.array_equal(a[a], np.arange(g.size))
    assert np.max(np.abs(g.nodes[a] + g.nodes)) <= 1e-15


@pytest.mark.parametrize("dim,res", [(1, 64), (4, 64), (2, 7), (2, 9), (3, 6)])
def test_grid_rejects_bad_arguments(dim, res):
    with pytest.raises(ValueError):
        make_grid(dim, res)


# ---------------------------------------------------------------- layout


def test_index_layout_roundtrip_dim2():
    L = 9
    degs = coeff_degrees(2, L)
    assert num_coeffs(2, L) == 2 * L + 1 == degs.size
    assert index2(0, "cos") == 0
    seen = set()
    for k in range(1, L + 1):
        for part in ("cos", "sin"):
            i = index2(k, part)
            assert degs[i] == k
            seen.add(i)
    assert len(seen) == 2 * L


def test_index_layout_roundtrip_dim3():
    L = 6
    degs = coeff_degrees(3, L)
    assert num_coeffs(3, L) == (L + 1) ** 2 == degs.size
    for ell in range(L + 1):
        for m in range(-ell, ell + 1):
            assert degs[index3(ell, m)] == ell


def test_degree_slice_matches_labels():
    c = zero_coeffs(3, 5)
    degs = c.degrees()
    for ell in range(6):
        sl = c.degree_slice(ell)
        assert np.all(degs[sl] == ell)
    assert c.degree_slice(9) == slice(0, 0)


# ---------------------------------------------------------------- transforms


def test_basis_is_orthonormal_dim2(grid2_64):
    L = 31
    n = num_coeffs(2, L)
    gram = np.empty((n, n))
    eye = np.eye(n)
    for i in range(n):
        f = synthesize(SpectralCoeffs(2, L, eye[i]), grid2_64)
        gram[i] = analyze(grid2_64, f, L).values
    assert np.max(np.abs(gram - eye)) <= 1e-12


def test_basis_is_orthonormal_dim3(grid3_16):
    L = 6
    n = num_coeffs(3, L)
    eye = np.eye(n)
    gram = np.empty((n, n))
    for i in range(n):
        f = synthesize(SpectralCoeffs(3, L, eye[i]), grid3_16)
        gram[i] = analyze(grid3_16, f, L).values
    assert np.max(np.abs(gram - eye)) <= 1e-12


@pytest.mark.parametrize("n,L", [(8, 3), (16, 5), (64, 31), (62, 20), (130, 64)])
def test_analyze_dim2_matches_explicit_quadrature(n, L, rng):
    grid = make_grid(2, n)
    f = rng.normal(size=n)
    want = fourier_matrix(n, L).T @ (f * (TWO_PI / n))
    got = analyze(grid, f, L).values
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(f)))


# L < n/2 is plain evaluation. Above the band synthesize raises on the n-node
# grid; evaluating every mode at those nodes is then synthesize on the least
# power-of-two refinement that carries the band, at every step-th node
@pytest.mark.parametrize(
    "n,L", [(8, 3), (64, 31), (62, 20), (8, 4), (8, 8), (8, 17), (16, 40), (10, 33)]
)
def test_synthesize_dim2_matches_explicit_sum(n, L, rng):
    c = SpectralCoeffs(2, L, rng.normal(size=num_coeffs(2, L)))
    want = fourier_matrix(n, L) @ c.values
    step = 1
    while n * step < 2 * L + 2:
        step *= 2
    got = synthesize(c, make_grid(2, n * step))[::step]
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.sum(np.abs(c.values)))


def test_synthesize_above_the_band_raises():
    # one band rule in both dims: resolution >= 2L + 2, as analyze needs
    for n, L in [(8, 4), (8, 8), (8, 17), (16, 40), (10, 33)]:
        with pytest.raises(ValueError, match=f"need resolution >= {2 * L + 2}"):
            synthesize(zero_coeffs(2, L), make_grid(2, n))
    with pytest.raises(ValueError, match="need resolution >= 18"):
        synthesize(zero_coeffs(3, 8), make_grid(3, 16))


# the oracle pins the dim-3 layout: which column is cos- or sin-type, the
# normalization and the sign convention of every (degree, order)
@pytest.mark.parametrize("res", [16, 32])
def test_dim3_transforms_match_real_spherical_harmonics(res, rng):
    grid = make_grid(3, res)
    L = res // 2 - 1
    Y = real_sph_harm_matrix(L, grid.angles[:, 0], grid.angles[:, 1])
    c = rng.normal(size=num_coeffs(3, L))
    assert np.max(np.abs(synthesize(SpectralCoeffs(3, L, c), grid) - Y @ c)) <= 1e-12
    f = rng.normal(size=grid.size)
    want = Y.T @ (grid.weights * f)
    assert np.max(np.abs(analyze(grid, f, L).values - want)) <= 1e-12


def test_synthesize_dim3_requires_enough_resolution(grid3_16):
    with pytest.raises(ValueError, match="need resolution >= 18"):
        synthesize(zero_coeffs(3, 8), grid3_16)


def test_dim3_transform_memory_is_small_at_res_128(rng):
    # an N x (L+1)^2 basis matrix would take 256 MB here; the per-order
    # Legendre table takes 2 MB
    grid = make_grid(3, 128)
    L = 63
    c = SpectralCoeffs(3, L, rng.normal(size=num_coeffs(3, L)))
    tracemalloc.start()
    try:
        analyze(grid, synthesize(c, grid), L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_analyze_known_coefficients(grid2_256):
    om = grid2_256.angles
    c = analyze(grid2_256, np.cos(3.0 * om), 8)
    assert c.values[index2(3, "cos")] == pytest.approx(np.sqrt(np.pi), abs=1e-13)
    others = c.values.copy()
    others[index2(3, "cos")] = 0.0
    assert np.max(np.abs(others)) <= 1e-13

    ones = analyze(grid2_256, np.ones(grid2_256.size), 4)
    assert ones.values[0] == pytest.approx(np.sqrt(TWO_PI), abs=1e-13)


def test_analyze_requires_enough_resolution(grid2_64):
    with pytest.raises(ValueError):
        analyze(grid2_64, np.zeros(64), max_degree=40)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_band_limited_dim2(seed):
    grid = make_grid(2, 64)
    L = 20
    c = SpectralCoeffs(2, L, np.random.default_rng(seed).normal(size=num_coeffs(2, L)))
    back = analyze(grid, synthesize(c, grid), L)
    assert np.max(np.abs(back.values - c.values)) <= 1e-12


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_band_limited_dim3(seed):
    grid = make_grid(3, 16)
    L = 6
    c = SpectralCoeffs(3, L, np.random.default_rng(seed).normal(size=num_coeffs(3, L)))
    back = analyze(grid, synthesize(c, grid), L)
    assert np.max(np.abs(back.values - c.values)) <= 1e-11


def test_parseval_inner_product(grid2_64, rng):
    L = 20
    a = SpectralCoeffs(2, L, rng.normal(size=num_coeffs(2, L)))
    b = SpectralCoeffs(2, L, rng.normal(size=num_coeffs(2, L)))
    quad = grid2_64.inner(synthesize(a, grid2_64), synthesize(b, grid2_64))
    assert quad == pytest.approx(float(np.dot(a.values, b.values)), rel=1e-12)


# ---------------------------------------------------------------- operators


@pytest.mark.parametrize("dim", [2, 3])
def test_laplacian_eigenfunctions(dim):
    L = 6
    for ell in range(L + 1):
        lam = ell * (ell + dim - 2)  # -Laplace-Beltrami on degree ell of S^(dim-1)
        c = zero_coeffs(dim, L).values.copy()
        idx = index2(ell, "cos") if dim == 2 else index3(ell, min(ell, 1))
        c[idx] = 1.0
        out = apply_laplacian(SpectralCoeffs(dim, L, c))
        assert out.values[idx] == pytest.approx(-lam)


@pytest.mark.parametrize("dim", [2, 3])
def test_green_multiplier_table(dim):
    g = green_multipliers(dim, 8)
    assert g.shape == (9,)
    assert g[0] == pytest.approx(1.0 / (dim - 1))
    assert g[1] == 0.0  # the reduced resolvent vanishes on the degree-1 eigenspace
    for ell in range(2, 9):
        expect = 1.0 / ((dim - 1) - ell * (ell + dim - 2))
        assert g[ell] == pytest.approx(expect)
        assert g[ell] < 0


@pytest.mark.parametrize("dim,L", [(2, 12), (3, 8)])
def test_green_inverts_helmholtz(dim, L, rng):
    c = rng.normal(size=num_coeffs(dim, L))
    c[zero_coeffs(dim, L).degree_slice(1)] = 0.0
    f = SpectralCoeffs(dim, L, c)
    u = apply_green(f)
    back = apply_laplacian(u).values + (dim - 1) * u.values
    assert np.max(np.abs(back - f.values)) <= 1e-12 * max(1.0, np.max(np.abs(f.values)))


@pytest.mark.parametrize("dim", [2, 3])
def test_green_zeroes_a_tolerated_degree_one_residue(dim):
    c = zero_coeffs(dim, 5).values.copy()
    c[0], c[num_coeffs(dim, 3) - 1] = 1.0, 2.0
    c[zero_coeffs(dim, 5).degree_slice(1)] = 1e-14  # under DEGREE_ONE_RTOL * norm
    out = apply_green(SpectralCoeffs(dim, 5, c)).values
    assert np.all(out[zero_coeffs(dim, 5).degree_slice(1)] == 0.0)
    assert out[0] == c[0] / (dim - 1)


def test_green_rejects_degree_one_input():
    c = zero_coeffs(2, 4).values.copy()
    c[index2(1, "sin")] = 1.0
    with pytest.raises(ValueError, match="degree-1"):
        apply_green(SpectralCoeffs(2, 4, c))


def test_degree_one_residual_is_largest_translation_coefficient():
    c = zero_coeffs(3, 4).values.copy()
    c[index3(1, -1)], c[index3(1, 1)], c[index3(3, 0)] = 0.25, -0.5, 7.0
    assert degree_one_residual(SpectralCoeffs(3, 4, c)) == 0.5
    assert degree_one_residual(SpectralCoeffs(2, 0, np.array([3.0]))) == 0.0
    assert degree_one_residual(zero_coeffs(2, 5)) == 0.0


@pytest.mark.parametrize(
    "dim, flat, label",
    [
        (2, index2(1, "cos"), "part=cos"),
        (2, index2(1, "sin"), "part=sin"),
        (3, index3(1, -1), "order=-1"),
        (3, index3(1, 0), "order=0"),
        (3, index3(1, 1), "order=1"),
    ],
)
def test_green_names_the_degree_one_coefficient(dim, flat, label):
    c = zero_coeffs(dim, 3).values.copy()
    c[0], c[flat] = 1.0, 0.5
    with pytest.raises(ClosednessError, match=rf"degree-1.*\(degree=1, {label}\)"):
        apply_green(SpectralCoeffs(dim, 3, c))


def test_translation_residual_is_relative_to_the_norm():
    c = zero_coeffs(2, 3).values.copy()
    c[0], c[index2(1, "sin")] = 1e6, 1e-7
    resid, tol = translation_residual(SpectralCoeffs(2, 3, c))
    assert resid == 1e-7
    assert tol == 1e-12 * np.linalg.norm(c)
    require_translation_free(SpectralCoeffs(2, 3, c), "small translation")
    c[index2(1, "sin")] = 1e-5
    with pytest.raises(ClosednessError):
        require_translation_free(SpectralCoeffs(2, 3, c), "large translation")
    require_translation_free(zero_coeffs(3, 2), "the zero expansion")


def test_norm_stays_finite_where_the_sum_of_squares_overflows():
    c = SpectralCoeffs(3, 1, [0.0, 0.0, 1e299, 5e298])
    assert c.norm() == pytest.approx(math.hypot(1e299, 5e298), rel=1e-15)
    assert translation_residual(c)[1] == pytest.approx(1e-12 * c.norm(), rel=1e-15)


def test_quadratic_form_green_signs(rng):
    # nonpositive whenever degree 0 is absent, zero only for zero input
    for dim, L in ((2, 10), (3, 6)):
        c = rng.normal(size=num_coeffs(dim, L))
        c[0] = 0.0
        c[zero_coeffs(dim, L).degree_slice(1)] = 0.0
        assert quadratic_form_green(SpectralCoeffs(dim, L, c)) < 0
    assert quadratic_form_green(zero_coeffs(2, 10)) == 0.0


@pytest.mark.parametrize("dim, L", [(2, 255), (3, 15)])
def test_quadratic_form_green_is_one_fsum_of_the_multiplier_terms(dim, L, rng):
    # one double: body2d._green_form, the exact sum of g_l c^2 rounded once,
    # in any order of the terms; a BLAS dot agrees to rounding
    for scale in (1e-3, 1.0, 1e5):
        c = SpectralCoeffs(dim, L, scale * rng.normal(size=num_coeffs(dim, L)))
        got = quadratic_form_green(c)
        assert got == body2d._green_form(c.values.tolist(), dim)
        ell = c.degrees()
        denom = ((dim - 1) - ell * (ell + dim - 2)).tolist()  # 0 at degree 1 only
        terms = [x * x / d for x, d in zip(c.values.tolist(), denom) if d]
        assert got == math.fsum(terms[::-1]) == math.fsum(sorted(terms))
        g = green_multipliers(dim, L)[ell]
        assert got == pytest.approx(float(np.dot(g * c.values, c.values)), rel=1e-13, abs=0.0)


def test_project_linear_H_keeps_odd_high_degrees(rng):
    L = 9
    c = SpectralCoeffs(2, L, rng.normal(size=num_coeffs(2, L)))
    p = project_linear_H(c)
    degs = coeff_degrees(2, L)
    keep = (degs % 2 == 1) & (degs >= 3)
    assert np.array_equal(p.values[keep], c.values[keep])
    assert np.all(p.values[~keep] == 0.0)
    # idempotent
    assert np.array_equal(project_linear_H(p).values, p.values)


def test_analyze_takes_band_limits_up_to_half_the_resolution():
    for res in (8, 64, 512):
        g = make_grid(2, res)
        L = res // 2 - 1
        analyze(g, np.zeros(g.size), L)
        with pytest.raises(ValueError):
            analyze(g, np.zeros(g.size), L + 1)
