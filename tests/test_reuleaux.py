"""Exact odd Reuleaux polygons: piecewise geometry and harmonic series."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbiform.body2d import (
    area_quadrature,
    body_from_deviation,
    curvature_coeffs,
    eval_support,
    validate,
)
from orbiform.harmonic_core import SpectralCoeffs, apply_green, make_grid
from orbiform.reuleaux import (
    ReuleauxSpec,
    area_table,
    closed_area,
    format_area_table_csv,
    support_values,
    to_body,
)

from oracles import (
    CORNER_AMPLITUDE_3,
    CORNER_AMPLITUDE_5,
    PENTAGON_AREA,
    TRIANGLE_AREA,
    corner_amplitude,
    index2,
    reuleaux_area_segments,
    reuleaux_curvature,
    reuleaux_deviation_coeffs,
    square_wave_cos_coeff,
    switch_support,
)


# ------------------------------------------------------------ polygon spec


@pytest.mark.parametrize("n", [2, 4, 1, -3, 10])
def test_make_spec_rejects_even_or_small(n):
    with pytest.raises(ValueError):
        ReuleauxSpec(n, 1.0)


def test_make_spec_rejects_bad_width():
    with pytest.raises(ValueError):
        ReuleauxSpec(3, 0.0)
    with pytest.raises(ValueError):
        ReuleauxSpec(3, np.inf)


def test_spec_checks_its_inputs_and_derives_the_rest():
    with pytest.raises(ValueError, match="odd"):
        ReuleauxSpec(4, 1.0)
    with pytest.raises(ValueError, match="width"):
        ReuleauxSpec(3, -1.0)
    for sides in (3.5, 3.0, "3"):
        with pytest.raises(ValueError, match="sides must be an integer"):
            ReuleauxSpec(sides, 1.0)
    with pytest.raises(TypeError):
        ReuleauxSpec(3, 1.0, 99.0, 0.1)  # amplitude and switch angle are not inputs
    spec = ReuleauxSpec(5, 2.0)
    assert spec == ReuleauxSpec(5, 2.0) == ReuleauxSpec(np.int64(5), 2.0)
    assert spec.switch_angle == np.pi / 10


def test_corner_amplitude_frozen_values():
    assert corner_amplitude(3, 1.0) == pytest.approx(CORNER_AMPLITUDE_3, abs=1e-15)
    assert corner_amplitude(5, 1.0) == pytest.approx(CORNER_AMPLITUDE_5, abs=1e-15)
    assert corner_amplitude(3, 2.0) == pytest.approx(2 * CORNER_AMPLITUDE_3, abs=1e-15)
    assert corner_amplitude(5, 2.0) == pytest.approx(2 * CORNER_AMPLITUDE_5, abs=1e-15)


# ---------------------------------------------------------------- piecewise


def test_switch_support_peaks_and_antisymmetry():
    spec, amplitude = ReuleauxSpec(3, 1.0), corner_amplitude(3, 1.0)
    assert switch_support(spec.switches, 1.0, 0.0) == pytest.approx(amplitude, abs=1e-15)
    om = np.linspace(0, 2 * np.pi, 144, endpoint=False)
    p = switch_support(spec.switches, 1.0, om)
    assert np.max(np.abs(p + switch_support(spec.switches, 1.0, om + np.pi))) <= 1e-15
    assert np.max(p) == pytest.approx(amplitude, abs=1e-15)


# ---------------------------------------------------------------- series


def test_deviation_coeffs_match_window_integration_oracle():
    # the curvature deviation of the truncated body, R - B/2
    for n in (3, 5, 7):
        c = curvature_coeffs(to_body(ReuleauxSpec(n, 1.0), 6 * n))
        for k in range(1, 6 * n + 1):
            want = square_wave_cos_coeff(n, 1.0, k)
            assert c.values[index2(k, "cos")] == pytest.approx(want, abs=1e-13), (n, k)
            assert c.values[index2(k, "sin")] == 0.0


def test_deviation_coeffs_sparsity():
    nz = np.nonzero(support_values(ReuleauxSpec(3, 1.0), 20))[0]
    assert set(nz) == {0, index2(3, "cos"), index2(9, "cos"), index2(15, "cos")}


def test_series_converges_to_square_wave_away_from_switches():
    spec = ReuleauxSpec(3, 1.0)
    grid = make_grid(2, 4096)
    from orbiform.harmonic_core import synthesize

    exact = reuleaux_curvature(3, 1.0, grid.angles)
    away = np.abs(np.cos(3 * grid.angles)) > 0.2  # keep clear of the jumps

    def masked_err(L):
        vals = synthesize(curvature_coeffs(to_body(spec, L)), grid)
        return np.max(np.abs(vals[away] - exact[away]))

    coarse, fine = masked_err(255), masked_err(1023)
    # tail decays like 1/L off the jump set; the ringing never fully leaves
    # the mask edge, so check the decay rate plus a realistic ceiling
    assert fine < 0.5 * coarse
    assert fine <= 1e-2


# ---------------------------------------------------------------- bodies


def test_to_body_needs_enough_modes():
    with pytest.raises(ValueError):
        to_body(ReuleauxSpec(3, 1.0), 11)
    to_body(ReuleauxSpec(3, 1.0), 12)


@pytest.mark.parametrize("n", [3, 5, 7, 255])
def test_support_values_are_the_green_composition(n):
    for width in (1.0, 2.0 ** (-1.0 / 3.0), 1.3, 1e-100, 1e100):
        for L in (4 * n, 1023, 4096):
            spec = ReuleauxSpec(n, width)
            deviation = SpectralCoeffs(2, L, reuleaux_deviation_coeffs(n, width, L))
            want = body_from_deviation(width, apply_green(deviation))
            got = support_values(spec, L)
            assert all(type(v) is float for v in got)
            # equal floats: the same doubles, bit for bit, but for the sign of zero
            assert got == want.support_coeffs.values.tolist()
            assert np.array_equal(to_body(spec, L).support_coeffs.values, np.array(got))


def test_to_body_support_at_corner():
    spec = ReuleauxSpec(3, 1.0)
    b = to_body(spec, 512)
    assert eval_support(b, 0.0) == pytest.approx(0.5 + corner_amplitude(3, 1.0), abs=1e-7)
    assert validate(b, convexity_tol=0.12).valid


def test_to_body_area_converges(grid2_512):
    spec = ReuleauxSpec(3, 1.0)
    areas = [area_quadrature(to_body(spec, L), make_grid(2, 2 * L + 2)) for L in (64, 256)]
    errs = [abs(a - TRIANGLE_AREA) for a in areas]
    assert errs[1] < errs[0] < 1e-3


# ---------------------------------------------------------------- areas


def test_closed_area_frozen_values():
    assert closed_area(ReuleauxSpec(3, 1.0)) == pytest.approx(TRIANGLE_AREA, abs=1e-15)
    assert closed_area(ReuleauxSpec(5, 1.0)) == pytest.approx(PENTAGON_AREA, abs=1e-15)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 21, 99])
def test_closed_area_matches_segment_decomposition(n):
    assert closed_area(ReuleauxSpec(n, 1.0)) == pytest.approx(
        reuleaux_area_segments(n, 1.0), abs=1e-14
    )


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 48), st.floats(0.25, 4.0))
def test_closed_area_scales_and_grows(half, width):
    n = 2 * half + 1
    a = closed_area(ReuleauxSpec(n, width))
    assert a == pytest.approx(width * width * closed_area(ReuleauxSpec(n, 1.0)), rel=1e-13)
    assert a < closed_area(ReuleauxSpec(n + 2, width))
    assert a < np.pi * width * width / 4.0


def test_area_table_contents():
    rows = area_table(21)
    assert [n for n, _ in rows] == [3, 5, 7, 9, 11, 13, 15, 17, 19, 21]
    assert rows[0][1] == pytest.approx(TRIANGLE_AREA, abs=1e-15)
    areas = [a for _, a in rows]
    assert all(b > a for a, b in zip(areas, areas[1:]))


def test_area_table_rejects_small_max():
    with pytest.raises(ValueError):
        area_table(2)


def test_csv_roundtrips_through_repr():
    csv = format_area_table_csv(area_table(7))
    lines = csv.strip().split("\n")
    assert lines[0] == "n,area"
    assert len(lines) == 4
    for line, (n, a) in zip(lines[1:], area_table(7)):
        ns, as_ = line.split(",")
        assert int(ns) == n
        assert float(as_) == a  # repr-exact
