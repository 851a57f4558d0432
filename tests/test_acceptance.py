"""End-to-end acceptance gate.

Each test pins one deliverable of the library at its stated tolerance and
wall-clock budget: exact Reuleaux geometry, the Green operator, the gradient,
the bang-bang minimizer, the ball-maximality inequality, the dim-3
consistency identities, and the CLI contract. Targets are frozen closed
forms or independently coded oracles from tests/oracles.py.
"""

import json
import time

import numpy as np
import pytest

from orbiform import cli
from orbiform.body2d import (
    area_quadrature,
    disk,
    eval_curvature_radius,
    eval_support,
    perimeter,
    random_body,
)
from orbiform.harmonic_core import (
    analyze,
    apply_green,
    apply_laplacian,
    make_grid,
    num_coeffs,
    project_linear_H,
    quadratic_form_green,
    synthesize,
    zero_coeffs,
)
from orbiform.reuleaux import ReuleauxSpec, area_table, closed_area, to_body
from orbiform.spheroform3d import (
    ball_curvature_sum,
    blaschke_volume,
    phi1,
    width_residual,
)
from orbiform.variational import (
    AdmissibleR,
    bang_bang_report,
    box_bound,
    canonical_align,
    minimize_restarts,
    phi,
    phi_gradient,
    support_deviation,
)

from oracles import (
    BALL3_PHI1,
    TRIANGLE_AREA,
    ball3_phi1,
    reuleaux_area_segments,
)


def random_odd_coeffs(dim, max_degree, rng, lo=3):
    """Random band-limited element of the odd-degree (>= lo) subspace."""
    co = zero_coeffs(dim, max_degree)
    for deg in range(lo, max_degree + 1, 2):
        sl = co.degree_slice(deg)
        co.values[sl] = rng.standard_normal(sl.stop - sl.start)
    return co


def random_admissible(width, grid, max_degree, rng):
    """Sample the admissible set: odd-harmonic profile scaled into the box."""
    vals = synthesize(random_odd_coeffs(grid.dim, max_degree, rng), grid)
    peak = float(np.max(np.abs(vals)))
    scale = rng.uniform(0.2, 0.9) * box_bound(grid.dim, width) / peak
    return AdmissibleR(width, grid, max_degree, scale * vals)


# ------------------------------------------------------------------ criteria


def test_criterion_1_reuleaux_triangle_minimality():
    start = time.perf_counter()
    spec3 = ReuleauxSpec(3, 1.0)

    body = to_body(spec3, 1024)
    grid = make_grid(2, 4096)
    assert area_quadrature(body, grid) == pytest.approx(TRIANGLE_AREA, abs=1e-5)

    assert closed_area(spec3) == pytest.approx(
        reuleaux_area_segments(3, 1.0), abs=1e-12
    )
    assert time.perf_counter() - start < 1.0


def test_criterion_2_polygon_area_monotonicity():
    start = time.perf_counter()
    rows = area_table(99)
    assert [n for n, _ in rows] == list(range(3, 100, 2))
    areas = [a for _, a in rows]
    assert all(b > a for a, b in zip(areas, areas[1:]))
    assert all(a < np.pi / 4 for a in areas)
    assert time.perf_counter() - start < 1.0


def test_criterion_3_width_and_perimeter_identities(rng):
    start = time.perf_counter()
    grid = make_grid(2, 512)
    half = grid.size // 2

    bodies = [disk(1.0)]
    bodies += [to_body(ReuleauxSpec(n, 1.0), 128) for n in (3, 5, 7, 9)]
    for _ in range(50):
        bodies.append(random_body(rng, width=rng.uniform(0.5, 2.0)))

    for body in bodies:
        B = body.width
        p = eval_support(body, grid.angles)
        R = eval_curvature_radius(body, grid.angles)
        assert np.max(np.abs(p + p[grid.antipode_index] - B)) < 1e-8 * B
        assert np.max(np.abs(R + R[grid.antipode_index] - B)) < 1e-8 * B
        assert abs(perimeter(body, grid) - np.pi * B) < 1e-8 * B
    assert time.perf_counter() - start < 5.0


def test_criterion_4_green_operator_residual(rng):
    start = time.perf_counter()
    for dim, max_degree in ((2, 40), (3, 12)):
        for _ in range(20):
            f = zero_coeffs(dim, max_degree)
            f.values[:] = rng.standard_normal(num_coeffs(dim, max_degree))
            f.values[f.degree_slice(1)] = 0.0

            gf = apply_green(f)
            resid = apply_laplacian(gf).values + (dim - 1) * gf.values
            rel = np.linalg.norm(resid - f.values) / np.linalg.norm(f.values)
            assert rel <= 1e-10
    assert time.perf_counter() - start < 5.0


def test_criterion_5_gradient_matches_finite_differences(rng):
    start = time.perf_counter()
    cases = [(make_grid(2, 128), 31, 60), (make_grid(3, 16), 7, 40)]
    h = 1e-4

    for grid, L, pairs in cases:
        def phi_raw(vals):
            return quadratic_form_green(project_linear_H(analyze(grid, vals, L)))

        for _ in range(pairs):
            r = random_admissible(1.0, grid, L, rng)
            zeta = synthesize(
                zero_coeffs(grid.dim, L).with_values(
                    rng.standard_normal(num_coeffs(grid.dim, L))
                ),
                grid,
            )
            fd = (phi_raw(r.values + h * zeta) - phi_raw(r.values - h * zeta)) / (2 * h)
            exact = grid.inner(phi_gradient(r), zeta)
            assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1e-8)
    assert time.perf_counter() - start < 10.0


def test_criterion_6_optimizer_recovers_reuleaux_triangle():
    start = time.perf_counter()
    grid = make_grid(2, 512)
    results = minimize_restarts(1.0, grid, 128, seed=7)
    assert len(results) == 16

    ranked = sorted(results, key=lambda r: r.phi_value)
    best = ranked[0]
    assert abs(best.area - TRIANGLE_AREA) < 0.005 * TRIANGLE_AREA

    report = bang_bang_report(best.minimizer)
    assert report.violation < 0.01
    assert report.sign_consistency > 0.99

    pbar_a = support_deviation(canonical_align(ranked[0].minimizer))
    pbar_b = support_deviation(canonical_align(ranked[1].minimizer))
    assert np.max(np.abs(pbar_a - pbar_b)) < 1e-2
    assert time.perf_counter() - start < 120.0


def test_criterion_7_ball_maximality(rng):
    start = time.perf_counter()
    for dim, res, L in ((2, 64, 15), (3, 16, 7)):
        grid = make_grid(dim, res)
        for _ in range(1000):
            assert phi(random_admissible(1.0, grid, L, rng)) < 0.0
        zero = AdmissibleR(1.0, grid, L, np.zeros(grid.size))
        assert phi(zero) == 0.0

    grid = make_grid(2, 512)
    for _ in range(50):
        B = rng.uniform(0.5, 2.0)
        body = random_body(rng, width=B)
        rbar = eval_curvature_radius(body, grid.angles) - 0.5 * B
        r = AdmissibleR(B, grid, body.support_coeffs.max_degree, rbar)
        lhs = area_quadrature(body, grid)
        rhs = np.pi * B**2 / 4.0 + 0.5 * phi(r)
        assert abs(lhs - rhs) < 1e-10 * B**2
    assert time.perf_counter() - start < 10.0


def test_criterion_8_three_dim_consistency(rng):
    start = time.perf_counter()
    # ball value of the volume-difference form: (1/3)*(B/2)*|S^2| at B=1
    assert phi1(ball_curvature_sum(1.0)) == pytest.approx(BALL3_PHI1, abs=1e-10)
    assert phi1(ball_curvature_sum(2.0)) == pytest.approx(ball3_phi1(2.0), abs=1e-10)

    for B in (0.5, 1.0, 2.0):
        ball_volume = np.pi * B**3 / 6.0
        assert blaschke_volume(np.pi * B**2, B) == pytest.approx(
            ball_volume, rel=1e-15
        )

    grid = make_grid(3, 16)
    vals = 1.0 + synthesize(random_odd_coeffs(3, 7, rng), grid)
    assert width_residual(vals, grid, 1.0) < 1e-12
    assert time.perf_counter() - start < 5.0


CORPUS = {
    # valid: round body, smooth perturbed body, translated body, 3d candidate
    "disk.json": (0, {"dim": 2, "width": 1.0, "coeffs": [
        {"degree": 0, "part": "cos", "value": 1.2533141373155003}]}),
    "smooth.json": (0, {"dim": 2, "width": 1.0, "coeffs": [
        {"degree": 0, "part": "cos", "value": 1.2533141373155003},
        {"degree": 3, "part": "cos", "value": 0.02}]}),
    "translated.json": (0, {"dim": 2, "width": 1.0, "coeffs": [
        {"degree": 0, "part": "cos", "value": 1.2533141373155003},
        {"degree": 1, "part": "cos", "value": 0.1},
        {"degree": 3, "part": "sin", "value": 0.01}]}),
    "candidate3d.json": (0, {"dim": 3, "width": 1.0, "coeffs": [
        {"degree": 3, "order": 1, "value": 0.1},
        {"degree": 5, "order": -2, "value": 0.05}]}),
    # invariant violations: even harmonic, nonconvex, mean/width mismatch,
    # box overflow, 3d even harmonic, 3d degree-1 content
    "even2d.json": (1, {"dim": 2, "width": 1.0, "coeffs": [
        {"degree": 0, "part": "cos", "value": 1.2533141373155003},
        {"degree": 2, "part": "cos", "value": 0.05}]}),
    "sharp2d.json": (1, {"dim": 2, "width": 1.0, "coeffs": [
        {"degree": 0, "part": "cos", "value": 1.2533141373155003},
        {"degree": 3, "part": "cos", "value": 0.2}]}),
    "mean2d.json": (1, {"dim": 2, "width": 1.0, "coeffs": [
        {"degree": 0, "part": "cos", "value": 1.0}]}),
    "box3d.json": (1, {"dim": 3, "width": 1.0, "coeffs": [
        {"degree": 3, "order": 0, "value": 3.0}]}),
    "even3d.json": (1, {"dim": 3, "width": 1.0, "coeffs": [
        {"degree": 2, "order": 0, "value": 0.1}]}),
    "translate3d.json": (1, {"dim": 3, "width": 1.0, "coeffs": [
        {"degree": 1, "order": 0, "value": 0.1}]}),
    # malformed: truncated text, missing required key
    "truncated.json": (2, '{"dim": 2, "width"'),
    "schema.json": (2, {"dim": 2, "coeffs": []}),
}


def test_criterion_9_cli_determinism_and_validate_taxonomy(tmp_path, capsys):
    start = time.perf_counter()

    flags = [
        "optimize", "--grid", "64", "--modes", "16",
        "--restarts", "2", "--seed", "11",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(flags + ["--out", str(a)]) == 0
    assert cli.main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    expected_codes = []
    got_codes = []
    for name, (code, payload) in CORPUS.items():
        path = tmp_path / name
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text)
        expected_codes.append((name, code))
        got_codes.append((name, cli.main(["validate", str(path)])))
    assert got_codes == expected_codes
    assert sum(1 for _, c in expected_codes if c == 0) == 4
    assert sum(1 for _, c in expected_codes if c != 0) == 8
    assert time.perf_counter() - start < 60.0


@pytest.mark.parametrize("name", ["box3d.json", "candidate3d.json", "translate3d.json"])
def test_validate_dim3_verdict_does_not_depend_on_the_width(name, tmp_path, capsys):
    code, payload = CORPUS[name]
    for width in (1e-13, 1.0, 1e13, 1e300):
        entries = [{**e, "value": e["value"] * width} for e in payload["coeffs"]]
        path = tmp_path / name
        path.write_text(json.dumps({"dim": 3, "width": width, "coeffs": entries}))
        assert (width, cli.main(["validate", str(path)])) == (width, code)
