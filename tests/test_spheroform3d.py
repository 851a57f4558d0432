"""Dim-3 functional: curvature sums, Blaschke volume relation, minimization."""

import numpy as np
import pytest

from orbiform.body2d import curvature_coeffs, disk
from orbiform.harmonic_core import (
    ClosednessError,
    SpectralCoeffs,
    make_grid,
    num_coeffs,
    synthesize,
    zero_coeffs,
)
from orbiform.spheroform3d import (
    ball_curvature_sum,
    blaschke_volume,
    phi1,
    width_residual,
)
from orbiform.variational import best_restart, minimize_restarts

from oracles import BALL3_PHI1, ball3_phi1, index3


def test_ball_curvature_sum_is_constant_width(grid3_16):
    c = ball_curvature_sum(1.0)
    vals = synthesize(c, grid3_16)
    # sum of the two principal radii of the width-1 ball is 1 everywhere
    assert np.allclose(vals, 1.0, atol=1e-14)


def test_phi1_ball_frozen_value():
    assert phi1(ball_curvature_sum(1.0)) == pytest.approx(BALL3_PHI1, abs=1e-12)
    assert phi1(ball_curvature_sum(2.0)) == pytest.approx(ball3_phi1(2.0), rel=1e-12)


def test_phi1_rejects_translation_residue():
    c = zero_coeffs(3, 2).values.copy()
    c[index3(1, 0)] = 1.0
    with pytest.raises(ClosednessError, match=r"degree-1.*\(degree=1, order=0\)"):
        phi1(SpectralCoeffs(3, 2, c))


def test_phi1_at_dim2_is_the_area():
    # same quadratic form one dimension down: phi1 of the disk is its area
    assert phi1(curvature_coeffs(disk(1.0))) == pytest.approx(np.pi / 4, rel=1e-14)
    assert phi1(curvature_coeffs(disk(3.0))) == pytest.approx(9 * np.pi / 4, rel=1e-14)


def test_phi1_perturbation_decreases(rng):
    # odd-degree deviations only lower the functional below the ball value
    base = zero_coeffs(3, 5).values.copy()
    base[0] = ball_curvature_sum(1.0).values[0]
    c = SpectralCoeffs(3, 5, base)
    pert = base.copy()
    pert[index3(3, 2)] += 0.1
    assert phi1(SpectralCoeffs(3, 5, pert)) < phi1(c)


@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
def test_blaschke_volume_of_ball_surface(width):
    # S = pi B^2 forces V = pi B^3 / 6, the ball of diameter B
    vol = blaschke_volume(np.pi * width**2, width)
    assert vol == pytest.approx(np.pi * width**3 / 6.0, rel=1e-15)


def test_blaschke_volume_linear_in_surface():
    v1 = blaschke_volume(1.0, 1.0)
    v2 = blaschke_volume(2.0, 1.0)
    assert v2 - v1 == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize(
    "surface, width, match",
    [(1.0, 0.0, "width"), (1.0, np.inf, "width"), (-1.0, 1.0, "surface_area"),
     (np.nan, 1.0, "surface_area")],
)
def test_blaschke_volume_refuses_bad_inputs(surface, width, match):
    with pytest.raises(ValueError, match=match):
        blaschke_volume(surface, width)


def test_width_residual_refuses_a_dim2_grid_or_a_wrong_shape(grid3_16, grid2_64):
    with pytest.raises(ValueError, match="dim-3 grid"):
        width_residual(np.zeros(grid2_64.size), grid2_64, 1.0)
    with pytest.raises(ValueError, match="shape does not match"):
        width_residual(np.zeros(grid3_16.size - 1), grid3_16, 1.0)


def test_width_residual_zero_for_odd_harmonics(grid3_16, rng):
    base = synthesize(ball_curvature_sum(1.0), grid3_16)
    c = zero_coeffs(3, 5).values.copy()
    for m in range(-3, 4):
        c[index3(3, m)] = rng.normal(0.0, 0.05)
    pert = synthesize(SpectralCoeffs(3, 5, c), grid3_16)
    assert width_residual(base + pert, grid3_16, 1.0) <= 1e-12
    # even-degree perturbations break the antipodal pairing
    c2 = zero_coeffs(3, 5).values.copy()
    c2[index3(2, 1)] = 0.05
    pert2 = synthesize(SpectralCoeffs(3, 5, c2), grid3_16)
    assert width_residual(base + pert2, grid3_16, 1.0) > 1e-3


def test_minimize3d_contract(grid3_16):
    res = best_restart(minimize_restarts(1.0, grid3_16, 7, seed=5, restarts=2))
    assert res.equivalence_warning
    assert res.area is None
    assert res.phi_value < 0
    assert res.minimizer.dim == 3
