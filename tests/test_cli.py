"""Command-line behavior: flags, exit codes, files, determinism."""

import json
import math
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from orbiform import body2d, cli, harmonic_core, reuleaux, switches, variational
from orbiform.harmonic_core import make_grid, synthesize
from orbiform.shapeio import loads_shape
from orbiform.variational import NumericalFailure

from oracles import boundary_points

MEAN = 0.5 * np.sqrt(2 * np.pi)  # degree-0 coefficient of the width-1 disk


def write(path, payload):
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def disk_payload(width=1.0, extra=()):
    coeffs = [{"degree": 0, "part": "cos", "value": MEAN * width}]
    coeffs.extend(extra)
    return {"dim": 2, "width": width, "coeffs": coeffs}


# ---------------------------------------------------------------- reuleaux


def test_reuleaux_prints_both_areas(capsys):
    assert cli.main(["reuleaux", "--sides", "3", "--width", "1"]) == 0
    out = capsys.readouterr().out
    assert "closed-form area: 0.704770923010" in out
    assert "quadrature area:  0.7047" in out


@pytest.mark.parametrize("width", [1e-100, 1e100])
def test_reuleaux_prints_its_areas_as_repr(width, capsys):
    # fixed-point digits read 0.000000000000 at the smallest width
    for sides in (3, 5):
        spec = reuleaux.ReuleauxSpec(sides, width)
        assert cli.main(["reuleaux", "--sides", str(sides), "--width", repr(width)]) == 0
        lines = dict(line.split(": ") for line in capsys.readouterr().out.splitlines()[1:])
        assert float(lines["closed-form area"]) == reuleaux.closed_area(spec)
        values = reuleaux.support_values(spec, 512)
        assert float(lines["quadrature area"]) == body2d._area_parseval(values)


def test_reuleaux_rejects_even_sides(capsys):
    assert cli.main(["reuleaux", "--sides", "4"]) == 2
    assert "odd" in capsys.readouterr().err


def test_reuleaux_rejects_bad_width(capsys):
    assert cli.main(["reuleaux", "--sides", "3", "--width", "-1"]) == 2


def test_reuleaux_rejects_small_mode_count(capsys):
    assert cli.main(["reuleaux", "--sides", "9", "--modes", "20"]) == 2
    assert cli.main(["reuleaux", "--sides", "3", "--modes", "5"]) == 2
    assert "need >= 12" in capsys.readouterr().err


def test_reuleaux_writes_shape_and_svg(tmp_path, capsys):
    shape = tmp_path / "tri.json"
    svg = tmp_path / "tri.svg"
    rc = cli.main(
        ["reuleaux", "--sides", "3", "--out", str(shape), "--svg", str(svg)]
    )
    assert rc == 0
    f = loads_shape(shape.read_text())
    assert (f.dim, f.width, f.switches) == (2, 1.0, reuleaux.ReuleauxSpec(3, 1.0).switches)
    assert f.values[0] == pytest.approx(MEAN)

    root = ET.fromstring(svg.read_text())
    assert root.attrib["viewBox"] == "0 0 512 512"
    paths = [e for e in root.iter() if e.tag.endswith("path")]
    assert len(paths) == 1
    d = paths[0].attrib["d"]
    assert d.startswith("M ") and d.endswith(" Z")


SVG_RADIUS = 460.8  # pixels per width: 512 less a 5% margin on each side


def svg_arcs(text):
    """The start point, and (radius, flags, end point) of each arc, of the
    one path in an SVG that reuleaux writes."""
    (d,) = re.findall(r' d="([^"]*)"', text)
    words = d.split()
    assert words[0] == "M" and words[-1] == "Z" and (len(words) - 4) % 8 == 0
    arcs = [words[i:i + 8] for i in range(3, len(words) - 1, 8)]
    assert all(a[0] == "A" and a[1] == a[2] for a in arcs)
    start = (float(words[1]), float(words[2]))
    return start, [(a[1], " ".join(a[3:6]), (float(a[6]), float(a[7]))) for a in arcs]


def svg_corners(sides, width):
    """The polygon's corners rho (cos 2 pi k / n, sin 2 pi k / n), rho = B /
    (2 cos(pi / 2n)), in the viewBox: its box [rho - B, rho] x [-B/2, B/2]
    fills 512 x 512 less a 5% margin, with y down."""
    rho = 0.5 * width / math.cos(math.pi / (2 * sides))
    t = 2.0 * math.pi * np.arange(sides) / sides
    x, y = rho * np.cos(t), rho * np.sin(t)
    scale = SVG_RADIUS / width
    return np.stack((25.6 + (x - rho + width) * scale, 486.4 - (y + 0.5 * width) * scale), axis=1)


def svg_arc_centre(p, q, r):
    """Centre of the SVG arc from p to q of radius r with both flags 0: the
    endpoint-to-centre conversion of SVG 1.1, appendix F.6.5."""
    hx, hy = 0.5 * (p[0] - q[0]), 0.5 * (p[1] - q[1])
    coef = -math.sqrt((r * r - hx * hx - hy * hy) / (hx * hx + hy * hy))  # flags equal
    return np.array((coef * hy + 0.5 * (p[0] + q[0]), -coef * hx + 0.5 * (p[1] + q[1])))


@pytest.mark.parametrize("sides", [3, 5, 7, 255])
def test_reuleaux_svg_draws_the_n_arcs(sides):
    for width in (1e-100, 1.0, 1e100):
        start, arcs = svg_arcs(cli.render_svg(reuleaux.ReuleauxSpec(sides, width)))
        assert len(arcs) == sides
        assert all(radius == "460.800" and flags == "0 0 0" for radius, flags, _ in arcs)
        ends = np.array([start] + [end for _, _, end in arcs])
        corners = svg_corners(sides, width)
        assert np.abs(ends - np.vstack((corners, corners[:1]))).max() <= 6e-4
        for k in range(sides):
            # the endpoints carry 3 decimals; the centre moves by their error
            # times the radius over the half chord
            half_chord = 0.5 * math.dist(ends[k], ends[k + 1])
            centre = svg_arc_centre(ends[k], ends[k + 1], SVG_RADIUS)
            opposite = corners[(k + (sides + 1) // 2) % sides]
            assert np.abs(centre - opposite).max() <= 1e-3 * (1.0 + SVG_RADIUS / half_chord)


@pytest.mark.parametrize("sides", [3, 5, 7, 255])
def test_reuleaux_svg_is_the_same_at_every_band_limit(sides, tmp_path, capsys):
    for width in (1e-100, 1.0, 1e100):
        want = cli.render_svg(reuleaux.ReuleauxSpec(sides, width))
        for modes in (4 * sides, 1024, 4096):
            svg = tmp_path / f"{sides}-{modes}.svg"
            argv = ["reuleaux", "--sides", str(sides), "--width", repr(width),
                    "--modes", str(modes), "--svg", str(svg)]
            assert cli.main(argv) == 0
            assert svg.read_text() == want
    capsys.readouterr()


@pytest.mark.parametrize("sides, modes", [(3, 4096), (5, 2048), (7, 1024)])
def test_reuleaux_svg_follows_the_truncated_support(sides, modes):
    # boundary points of the support at 1024 normal angles, in the viewBox,
    # lie within 0.03 px of the drawn outline: distance to an arc where the
    # point lies in its angular sector, else to the arc's nearer end. The
    # farthest sit next to a corner, where the truncated boundary overshoots
    # it: 0.0034, 0.0117 and 0.0218 px at these three band limits
    spec = reuleaux.ReuleauxSpec(sides, 1.0)
    x, y = boundary_points(reuleaux.support_values(spec, modes), 1024)
    rho = 0.5 / math.cos(spec.switch_angle)
    pts = np.stack((25.6 + (x - rho + 1.0) * SVG_RADIUS, 486.4 - (y + 0.5) * SVG_RADIUS), axis=1)
    start, arcs = svg_arcs(cli.render_svg(spec))
    ends = [np.array(start)] + [np.array(end) for _, _, end in arcs]
    dist = np.full(len(pts), np.inf)
    for p, q in zip(ends, ends[1:]):
        c = svg_arc_centre(p, q, SVG_RADIUS)
        a, b, v = p - c, q - c, pts - c
        turn = np.sign(a[0] * b[1] - a[1] * b[0])
        inside = (np.sign(a[0] * v[:, 1] - a[1] * v[:, 0]) == turn) & (
            np.sign(v[:, 0] * b[1] - v[:, 1] * b[0]) == turn)
        to_ends = np.minimum(np.hypot(*(pts - p).T), np.hypot(*(pts - q).T))
        dist = np.minimum(dist, np.where(inside, np.abs(np.hypot(*v.T) - SVG_RADIUS), to_ends))
    assert dist.max() <= 0.03


CERTIFICATE = ("constant-width", "switches", "closure", "closed-form", "convexity",
               "curvature-bound")


def reuleaux_file(tmp_path, sides, width=1.0, modes=512):
    shape = tmp_path / f"r{sides}.json"
    argv = ["reuleaux", "--sides", str(sides), "--width", repr(width), "--modes", str(modes)]
    assert cli.main([*argv, "--out", str(shape)]) == 0
    return shape


def test_reuleaux_shape_file_validates_roundtrip(tmp_path, capsys):
    # at default flags: the file lists its switches, and validate certifies them
    for sides in (3, 5, 7):
        for width in (1.0, 2.0, 2.0 ** (-1.0 / 3.0)):
            shape = reuleaux_file(tmp_path, sides, width)
            switches = json.loads(shape.read_text())["switches"]
            assert switches == list(reuleaux.ReuleauxSpec(sides, width).switches)
            capsys.readouterr()
            assert cli.main(["validate", str(shape)]) == 0
            report = capsys.readouterr().out.splitlines()
            assert [line.split(":")[0] for line in report] == [f"PASS {c}" for c in CERTIFICATE]


def test_reuleaux_shape_file_at_the_reader_caps_validates(tmp_path, capsys):
    shape = reuleaux_file(tmp_path, 255, modes=4096)
    assert cli.main(["validate", str(shape)]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("sides", [3, 5, 7])
def test_each_tampering_of_a_reuleaux_file_fails_its_gate(sides, tmp_path, capsys):
    width = 2.0 ** (-1.0 / 3.0)
    payload = json.loads(reuleaux_file(tmp_path, sides, width).read_text())
    t = payload["switches"]
    tampered = [
        (("closed-form", "closure"), [t[0] + 1e-6, *t[1:]]),
        (("switches",), [*t[:-1], np.pi]),
        (("switches",), t[:-1]),
        (("convexity",), [t[1], t[0], *t[2:]]),  # out of order: R dips to -B
        (("curvature-bound",), [t[0], t[2], t[1], *t[3:]]),  # and rises to 2B
    ]
    for checks, angles in tampered:
        assert cli.main(["validate", write(tmp_path / "t.json", dict(payload, switches=angles))]) == 1
        report = capsys.readouterr().out
        assert all(f"FAIL {check}:" in report for check in checks), (checks, report)
    moved = [dict(e, value=e["value"] + 1e-9 * width) if e["degree"] == sides else e
             for e in payload["coeffs"]]
    assert cli.main(["validate", write(tmp_path / "c.json", dict(payload, coeffs=moved))]) == 1
    assert "FAIL closed-form" in capsys.readouterr().out


def test_validate_without_switches_keeps_the_sampled_check(tmp_path, capsys):
    payload = json.loads(reuleaux_file(tmp_path, 5).read_text())
    del payload["switches"]
    shape = write(tmp_path / "bare.json", payload)
    assert cli.main(["validate", shape]) == 1
    assert "FAIL convexity" in capsys.readouterr().out
    assert cli.main(["validate", shape, "--convexity-tol", "0.12"]) == 0


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_validate_rejects_a_bad_convexity_tol(value, tmp_path, capsys):
    # on a file without switches, where the bound is read: nan and -1 failed
    # every sampled check and inf passed a dip of 0.089 B; 0 stays a bound
    payload = json.loads(reuleaux_file(tmp_path, 3).read_text())
    del payload["switches"]
    shape = write(tmp_path / "bare.json", payload)
    capsys.readouterr()
    assert cli.main(["validate", shape, f"--convexity-tol={value}"]) == 2
    captured = capsys.readouterr()
    assert f"--convexity-tol: must be finite and >= 0, got '{value}'" in captured.err
    assert not captured.out
    assert cli.main(["validate", shape, "--convexity-tol", "0"]) == 1
    assert "FAIL convexity" in capsys.readouterr().out


def test_validate_refuses_a_width_too_large_for_a_float(tmp_path, capsys):
    assert cli.main(["validate", write(tmp_path / "w.json", dict(disk_payload(), width=10**400))]) == 2
    assert "malformed shape file: width must be a finite number" in capsys.readouterr().err


def test_reuleaux_refuses_a_file_validate_would_refuse(tmp_path, capsys):
    # degree 4101 = 3 * 1367 is written; 4097 writes 4095 = 3 * 1365 at most
    shape, svg = tmp_path / "hi.json", tmp_path / "hi.svg"
    argv = ["reuleaux", "--sides", "3", "--out", str(shape), "--svg", str(svg)]
    assert cli.main([*argv, "--modes", "4101"]) == 2
    assert "degree 4101 is above the dim-2 limit of 4096" in capsys.readouterr().err
    assert not shape.exists() and not svg.exists()
    # the writer's rule holds without --out too, before anything is computed
    assert cli.main(["reuleaux", "--sides", "3", "--modes", "4101"]) == 2
    captured = capsys.readouterr()
    assert "degree 4101 is above the dim-2 limit of 4096" in captured.err and not captured.out
    assert cli.main([*argv, "--modes", "4097"]) == 0
    assert cli.main(["validate", str(shape)]) == 0


@pytest.mark.parametrize("name, message", [
    ("_area_parseval", "quadrature area disagrees"),
    ("switch_phi", "area of the switch angles disagrees"),
])
def test_reuleaux_area_gates_exit_4(name, message, monkeypatch, tmp_path, capsys):
    argv = ["reuleaux", "--sides", "5", "--width", "1.3", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4  # the gates add no line
    module = body2d if name == "_area_parseval" else switches
    original = getattr(module, name)
    # the area is off by 1e-3 B^2 in the quadrature, by 1e-12 B^2 through phi / 2
    shift = 1e-3 if name == "_area_parseval" else 2e-12
    monkeypatch.setattr(module, name, lambda *a: original(*a) + shift * 1.3**2)
    (tmp_path / "r.json").unlink()
    assert cli.main(argv) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------- optimize


OPT_FLAGS = ["optimize", "--grid", "64", "--modes", "16", "--restarts", "2", "--seed", "3"]


def test_optimize_exits_3_rather_than_write_a_non_finite_result(monkeypatch, tmp_path, capsys):
    best = variational.best_restart

    def nan_phi(results):
        result = best(results)
        vars(result)["phi_value"] = math.nan  # a dim-3 file holds the restart's own phi
        return result

    monkeypatch.setattr(variational, "best_restart", nan_phi)
    out = tmp_path / "r3.json"
    argv = ["optimize", "--dim", "3", "--grid", "16", "--modes", "7", "--restarts", "1",
            "--out", str(out)]
    assert cli.main(argv) == 3
    assert "numerical failure: cannot write the non-finite number nan" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_writes_result_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(OPT_FLAGS + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "benchmark" in stdout
    payload = json.loads(out.read_text())
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
    assert payload["phi"] < 0
    assert payload["seed"] == 3
    assert len(payload["switches"]) == 3


def test_optimize_prints_plain_floats(capsys):
    assert cli.main(OPT_FLAGS) == 0
    out = capsys.readouterr().out
    assert "benchmark (odd 3-gon, same width): 0.704770923010458" in out
    assert "np.float64" not in out


def test_optimize_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(OPT_FLAGS + ["--out", str(a)]) == 0
    assert cli.main(OPT_FLAGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_optimize_timestamp_opt_in(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert cli.main(OPT_FLAGS + ["--out", str(out), "--timestamp"]) == 0
    assert "timestamp" in json.loads(out.read_text())


def test_optimize_dim3_equivalence_warning(tmp_path, capsys):
    out = tmp_path / "d3.json"
    rc = cli.main(
        [
            "optimize",
            "--dim",
            "3",
            "--grid",
            "16",
            "--modes",
            "7",
            "--restarts",
            "1",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["equivalence_warning"] is True
    assert payload["area"] is None
    assert "candidate" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [
        ["--dim", "2", "--grid", "64", "--modes", "16"],
        ["--dim", "3", "--grid", "16", "--modes", "7"],
    ],
    ids=["dim2", "dim3"],
)
def test_optimize_result_file_ends_with_one_newline(flags, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert cli.main(["optimize", *flags, "--restarts", "1", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("}\n")
    assert not text.endswith("\n\n")


def test_optimize_prints_one_line_per_restart(capsys):
    assert cli.main(OPT_FLAGS) == 0
    lines = capsys.readouterr().out.splitlines()
    per_restart = [line for line in lines if line.startswith("restart ")]
    assert [line.split(":")[0] for line in per_restart] == ["restart 0", "restart 1"]
    assert all("newton_steps=" in line for line in per_restart)
    assert all(re.search(r" max_newton_steps=\d+ line_searches=\d+$", line) for line in per_restart)


@pytest.mark.parametrize(
    "dim, resolution, modes", [(2, 64, 16), (3, 16, 7)], ids=["dim2", "dim3"]
)
def test_optimize_writes_what_minimize_returns(dim, resolution, modes, tmp_path, capsys):
    out = tmp_path / "r.json"
    flags = ["--dim", str(dim), "--grid", str(resolution), "--modes", str(modes)]
    rc = cli.main(["optimize", *flags, "--restarts", "3", "--seed", "5", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    grid = make_grid(dim, resolution)
    best = variational.best_restart(variational.minimize_restarts(1.0, grid, modes, 5, restarts=3))
    assert f"restart={best.restart_index} " in stdout
    assert out.read_text() == variational.result_to_json(best)


def test_optimize_rejects_bad_flags(capsys):
    assert cli.main(["optimize", "--dim", "4"]) == 2
    assert cli.main(["optimize", "--restarts", "0"]) == 2
    assert cli.main(["optimize", "--max-iter", "5"]) == 2  # the cap is a constant
    assert cli.main(["optimize", "--grid", "7"]) == 2
    assert cli.main(["optimize", "--grid", "9"]) == 2
    assert cli.main(["optimize", "--modes", "-1"]) == 2
    assert cli.main(["optimize", "--modes", "2"]) == 2
    assert cli.main(["optimize", "--seed", "-1"]) == 2
    assert cli.main(["optimize", "--grid", "64", "--modes", "40"]) == 2
    assert "--modes 40 needs --grid >= 82, got 64" in capsys.readouterr().err


@pytest.mark.parametrize("dim,grid,limit", [(2, 8196, 4096), (3, 514, 255)])
def test_optimize_holds_modes_to_the_result_file_degree_limit(dim, grid, limit, monkeypatch,
                                                              capsys):
    # what optimize would write, validate must read: the check comes before any grid
    def reached(*a, **k):
        raise ValueError("reached the grid")

    monkeypatch.setattr(harmonic_core, "make_grid", reached)
    argv = ["optimize", "--dim", str(dim), "--grid", str(grid), "--restarts", "1"]
    assert cli.main([*argv, "--modes", str(limit + 1)]) == 2
    assert capsys.readouterr().err == (
        f"error: --modes {limit + 1} is above the dim-{dim} degree limit of {limit}\n")
    assert cli.main([*argv, "--modes", str(limit)]) == 2
    assert capsys.readouterr().err == "error: reached the grid\n"


def test_optimize_maps_numerical_failure(monkeypatch, capsys):
    def boom(*a, **k):
        raise NumericalFailure("forced")

    monkeypatch.setattr(variational, "minimize_restarts", boom)
    assert cli.main(OPT_FLAGS) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dim, resolution, modes", [(2, 64, 16), (3, 16, 7)], ids=["dim2", "dim3"]
)
def test_optimize_reports_a_capped_descent(dim, resolution, modes, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(variational, "DESCENT_MAX_ITERATIONS", 1)
    out = tmp_path / "r.json"
    flags = ["--dim", str(dim), "--grid", str(resolution), "--modes", str(modes)]
    assert cli.main(["optimize", *flags, "--restarts", "2", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    restarts = [line for line in lines if line.startswith("restart ")]
    assert len(restarts) == 2 and all("converged=False" in line for line in restarts)
    if dim == 2:
        assert any(line.startswith("switch polish declined") and "not bang-bang" in line
                   for line in lines)
    assert cli.main(["validate", str(out)]) == 0
    assert "PASS phi: residual=0.000e+00" in capsys.readouterr().out  # the descent's own phi


# ---------------------------------------------------------------- validate


def test_validate_disk_passes(tmp_path, capsys):
    f = write(tmp_path / "disk.json", disk_payload())
    assert cli.main(["validate", f]) == 0
    assert "PASS constant-width" in capsys.readouterr().out


def test_validate_flags_even_harmonic(tmp_path, capsys):
    f = write(
        tmp_path / "even.json",
        disk_payload(extra=[{"degree": 2, "part": "cos", "value": 0.05}]),
    )
    assert cli.main(["validate", f]) == 1
    assert "FAIL constant-width" in capsys.readouterr().out


def test_validate_flags_nonconvex(tmp_path, capsys):
    f = write(
        tmp_path / "sharp.json",
        disk_payload(extra=[{"degree": 3, "part": "cos", "value": 0.2}]),
    )
    assert cli.main(["validate", f]) == 1
    assert "FAIL convexity" in capsys.readouterr().out


@pytest.mark.parametrize("value", [1e307, 1e308])
def test_validate_fails_a_body_whose_curvature_overflows(value, tmp_path, capsys):
    # R = -8 * value * cos(3 w) / sqrt(pi): at 1e307 its samples overflow to
    # NaN, at 1e308 its coefficients do; neither may pass or raise
    f = write(tmp_path / "huge.json",
              disk_payload(extra=[{"degree": 3, "part": "cos", "value": value}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["validate", f]) == 1
    out, err = capsys.readouterr()
    assert "FAIL convexity: residual=inf" in out and "FAIL curvature-bound" in out
    assert err == ""


@pytest.mark.parametrize("dim, degrees", [(2, [3]), (3, [3]), (2, [0, 3])],
                         ids=["2", "3", "2-degrees-0-and-3"])
def test_validate_fails_a_result_whose_green_form_overflows(dim, degrees, tmp_path, capsys):
    # the Green form of a degree-3 coefficient of 1e200 overflows to inf, and
    # so does the phi check's tolerance; an infinite residual still fails.
    # With degree 0 at 1e200 too its terms are inf and -inf, which fsum
    # refuses: the form is inf all the same
    part = {"part": "cos"} if dim == 2 else {"order": 0}
    payload = {"dim": dim, "width": 1.0, "phi": 1e308, "area": 5e307 if dim == 2 else None,
               "iterations": 1, "seed": 0, "violation": 0.0, "sign_consistency": 1.0,
               "coeffs": [{"degree": k, "value": 1e200, **part} for k in degrees],
               **({} if dim == 2 else {"equivalence_warning": True})}
    f = write(tmp_path / "huge.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["validate", f]) == 1
    out, err = capsys.readouterr()
    assert "FAIL phi: residual=inf tol=inf" in out
    assert err == ""


def test_validate_refuses_a_name_given_twice(tmp_path, capsys):
    # the triangle of width 2 given a first width of 1: json alone keeps the
    # last, and the file validated at width 2
    tri = tmp_path / "tri.json"
    assert cli.main(["reuleaux", "--sides", "3", "--width", "2", "--out", str(tri)]) == 0
    text = tri.read_text().replace('"width": 2.0', '"width": 1.0, "width": 2.0')
    f = write(tmp_path / "two.json", text)
    assert cli.main(["validate", f]) == 2
    assert "'width' appears twice" in capsys.readouterr().err


def test_validate_truncated_json(tmp_path, capsys):
    f = write(tmp_path / "trunc.json", '{"dim": 2, "width"')
    assert cli.main(["validate", f]) == 2
    assert "malformed" in capsys.readouterr().err


def test_validate_refuses_dim3_degree_above_limit(tmp_path, capsys):
    # refused while parsing, before any grid or table is built
    entry = {"degree": 256, "order": 0, "value": 0.5}
    f = write(tmp_path / "deep3.json", {"dim": 3, "width": 1.0, "coeffs": [entry]})
    assert cli.main(["validate", f]) == 2
    assert "dim-3 limit of 255" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        disk_payload(),
        {"dim": 3, "width": 1.0, "coeffs": []},
        {"dim": 2, "width": 1.0, "phi": 0.0, "area": np.pi / 4, "iterations": 1, "seed": 0,
         "violation": 0.0, "sign_consistency": 1.0, "coeffs": []},
        {"dim": 3, "width": 1.0, "phi": 0.0, "area": None, "iterations": 1, "seed": 0,
         "violation": 0.0, "sign_consistency": 1.0, "coeffs": [], "equivalence_warning": True},
    ],
    ids=["shape-2", "shape-3", "result-2", "result-3"],
)
def test_validate_refuses_a_float_dim(payload, tmp_path, capsys):
    assert cli.main(["validate", write(tmp_path / "int.json", payload)]) == 0
    as_float = {**payload, "dim": float(payload["dim"])}
    assert cli.main(["validate", write(tmp_path / "float.json", as_float)]) == 2
    assert f"dim must be 2 or 3, got {as_float['dim']!r}" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert cli.main(["validate", "/no/such/file.json"]) == 2


def test_validate_of_a_file_that_is_not_utf8_is_malformed(tmp_path, capsys):
    # JSON text is UTF-8: the file is read as such, whatever the locale says
    f = tmp_path / "bad.json"
    f.write_bytes(b"\xff\xfe{}")
    assert cli.main(["validate", str(f)]) == 2
    assert "malformed shape file: 'utf-8' codec can't decode" in capsys.readouterr().err


UNWRITABLE = {
    "reuleaux-out": ["reuleaux", "--sides", "3", "--modes", "64", "--out"],
    "reuleaux-svg": ["reuleaux", "--sides", "3", "--modes", "64", "--svg"],
    "optimize": [*OPT_FLAGS, "--out"],
    "table": ["table", "--out"],
}


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", sorted(UNWRITABLE))
def test_an_output_path_that_cannot_be_written_exits_2(command, target, tmp_path, capsys):
    path = tmp_path / "missing" / "x" if target == "missing-directory" else tmp_path / "d"
    if target == "directory":
        path.mkdir()
    assert cli.main([*UNWRITABLE[command], str(path)]) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {path}: " in captured.err
    assert f"wrote {path}" not in captured.out
    # nothing is left behind: no temp file, and the directory stays empty
    assert [p.name for p in tmp_path.rglob("*")] == ([] if target == "missing-directory" else ["d"])


@pytest.mark.parametrize("dim, resolution, modes, seed, width", [
    (2, 64, 16, 0, 1.3), (3, 16, 7, 0, 1.3), (3, 16, 7, 1, 1.0), (3, 24, 11, 5, 1.0),
], ids=["dim2", "dim3", "dim3-grid16-seed1", "dim3-grid24-seed5"])
def test_validate_accepts_what_optimize_writes(dim, resolution, modes, seed, width, tmp_path,
                                               capsys):
    out = tmp_path / "r.json"
    flags = ["--dim", str(dim), "--grid", str(resolution), "--modes", str(modes)]
    assert cli.main(["optimize", *flags, "--restarts", "2", "--seed", str(seed),
                     "--width", repr(width), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["validate", str(out)]) == 0
    report = capsys.readouterr().out
    assert "PASS odd-degrees" in report and "FAIL" not in report
    # optimize writes the Green form that validate reads back, in one fsum
    assert "PASS phi: residual=0.000e+00" in report
    # dim 2 writes the polished bang-bang body, whose convexity is exact and
    # gated; the dim-3 window's box overshoot is printed, not gated
    assert ("PASS convexity" if dim == 2 else "INFO box-bound") in report

    payload = json.loads(out.read_text())
    tampered = write(tmp_path / "phi.json", dict(payload, phi=payload["phi"] * (1 + 1e-9)))
    assert cli.main(["validate", tampered]) == 1
    assert "FAIL phi" in capsys.readouterr().out
    entry = {"degree": 4, "value": 1e-3, **({"part": "cos"} if dim == 2 else {"order": 0})}
    even = write(tmp_path / "even.json", dict(payload, coeffs=payload["coeffs"] + [entry]))
    assert cli.main(["validate", even]) == 1
    assert "FAIL odd-degrees" in capsys.readouterr().out


def test_validate_result_checks_area_and_degree_one(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(OPT_FLAGS + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    moved = write(tmp_path / "area.json", dict(payload, area=payload["area"] + 1e-9))
    assert cli.main(["validate", moved]) == 1
    assert "FAIL area" in capsys.readouterr().out
    dim3 = tmp_path / "r3.json"
    assert cli.main(["optimize", "--dim", "3", "--grid", "16", "--modes", "7", "--restarts", "1",
                     "--out", str(dim3)]) == 0
    capsys.readouterr()
    # degree 1 sits at flat indices 1, 2 in dim 2 and 1, 2, 3 in dim 3: order +1 is index 3
    for result, entry in [(payload, {"degree": 1, "part": "sin", "value": 1e-3}),
                          (json.loads(dim3.read_text()), {"degree": 1, "order": 1, "value": 1e-3})]:
        shifted = write(tmp_path / "deg1.json", dict(result, coeffs=result["coeffs"] + [entry]))
        assert cli.main(["validate", shifted]) == 1
        assert "FAIL translation-orthogonality" in capsys.readouterr().out
    missing = write(tmp_path / "seed.json", {k: v for k, v in payload.items() if k != "seed"})
    assert cli.main(["validate", missing]) == 2
    assert "result keys must be" in capsys.readouterr().err


def test_optimize_on_a_grid_with_nodes_on_the_switches_writes_the_polished_body(tmp_path, capsys):
    # grid 96 puts nodes on the triangle's switches, where the grid's window
    # reads an area below (pi - sqrt(3)) / 2; the file holds the exact body
    out = tmp_path / "f.json"
    flags = ["--grid", "96", "--modes", "20", "--restarts", "4", "--seed", "7"]
    assert cli.main(["optimize", *flags, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "switch polish: switches=3" in text
    # the reading below the minimum is labelled as the grid's, before the polish
    assert "\ngrid area=0.70453" in text and "grid excess=-0.0340%" in text
    assert "\narea=" not in text and "  excess=-" not in text
    payload = json.loads(out.read_text())
    assert len(payload["switches"]) == 3
    assert payload["area"] > (np.pi - np.sqrt(3.0)) / 2
    assert cli.main(["validate", str(out)]) == 0


def test_validate_gates_the_switches_of_a_result(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(OPT_FLAGS + ["--out", str(out)]) == 0
    assert "switch polish: switches=3" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    t1, t2, t3 = payload["switches"]
    tampered = {
        "closure": [t1, t2 + 1e-6, t3],  # the coeffs no longer match either
        "switches": [t1, t2],
        "convexity": [t2, t1, t3],  # out of order: R dips to -B
        "curvature-bound": [t1, t3, t2],  # and rises to 2B
    }
    for check, angles in tampered.items():
        assert cli.main(["validate", write(tmp_path / "t.json", dict(payload, switches=angles))]) == 1
        report = capsys.readouterr().out
        assert f"FAIL {check}:" in report
    moved = [dict(e, value=e["value"] * (1 + 1e-9)) if e["degree"] == 3 else e
             for e in payload["coeffs"]]
    assert cli.main(["validate", write(tmp_path / "c.json", dict(payload, coeffs=moved))]) == 1
    assert "FAIL closed-form" in capsys.readouterr().out


@pytest.mark.parametrize(
    "switches", ["0.5", [0.5, "1.0", 2.0], [0.5, None], [0.1] * 256],
    ids=["not-a-list", "text-angle", "null-angle", "too-many"])
def test_reader_refuses_malformed_switches(switches, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(OPT_FLAGS + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert cli.main(["validate", write(tmp_path / "m.json", dict(payload, switches=switches))]) == 2
    assert "switch" in capsys.readouterr().err


def test_reader_refuses_switches_in_dim3(tmp_path, capsys):
    out = tmp_path / "r3.json"
    assert cli.main(["optimize", "--dim", "3", "--grid", "16", "--modes", "7", "--restarts", "1",
                     "--out", str(out)]) == 0
    payload = dict(json.loads(out.read_text()), switches=[0.5])
    assert cli.main(["validate", write(tmp_path / "s3.json", payload)]) == 2
    assert "result keys must be" in capsys.readouterr().err


def test_validate_dim3(tmp_path, capsys):
    good = write(
        tmp_path / "good3.json",
        {
            "dim": 3,
            "width": 1.0,
            "coeffs": [{"degree": 3, "order": 1, "value": 0.1}],
        },
    )
    assert cli.main(["validate", good]) == 0
    bad = write(
        tmp_path / "bad3.json",
        {
            "dim": 3,
            "width": 1.0,
            "coeffs": [{"degree": 1, "order": 0, "value": 0.1}],
        },
    )
    assert cli.main(["validate", bad]) == 1
    assert "FAIL translation-orthogonality" in capsys.readouterr().out


DIM3_CASES = {
    "admissible": [{"degree": 3, "order": 1, "value": 0.1}],
    "box": [{"degree": 3, "order": 0, "value": 5.0}],
    "antisymmetry": [{"degree": 2, "order": 1, "value": 0.1}],
    "translation": [{"degree": 1, "order": 0, "value": 0.1}],
}


def dim3_file(tmp_path, case):
    return write(tmp_path / f"{case}.json", {"dim": 3, "width": 1.0, "coeffs": DIM3_CASES[case]})


@pytest.mark.parametrize("case", sorted(DIM3_CASES))
def test_validate_dim3_agrees_with_admissible_r(case, tmp_path, capsys):
    path = dim3_file(tmp_path, case)
    rc = cli.main(["validate", path])
    with open(path) as fh:
        f = loads_shape(fh.read())
    width, coeffs = f.width, f.coeffs
    grid = make_grid(3, max(16, 2 * coeffs.max_degree + 2))
    values = synthesize(coeffs, grid)
    try:
        variational.AdmissibleR(width, grid, coeffs.max_degree, values)
        refused = False
    except ValueError:
        refused = True
    assert rc == (1 if refused else 0)
    assert refused == (case != "admissible")


def test_validate_dim3_stdout_is_pinned(tmp_path, capsys):
    # the files of test_validate_dim3; the text is the one printed before
    # validate shared AdmissibleR's checks, except the antisymmetry residual,
    # a rounding digit that read 3.123e-17 under the dense dim-3 basis
    assert cli.main(["validate", dim3_file(tmp_path, "admissible")]) == 0
    assert capsys.readouterr().out == (
        "PASS box-bound: residual=0.000e+00 tol=1.000e-12\n"
        "PASS antipodal-antisymmetry: residual=0.000e+00 tol=1.000e-12\n"
        "PASS translation-orthogonality: residual=0.000e+00 tol=1.000e-13\n"
    )
    assert cli.main(["validate", dim3_file(tmp_path, "translation")]) == 1
    assert capsys.readouterr().out == (
        "PASS box-bound: residual=0.000e+00 tol=1.000e-12\n"
        "PASS antipodal-antisymmetry: residual=0.000e+00 tol=1.000e-12\n"
        "FAIL translation-orthogonality: residual=1.000e-01 tol=1.000e-13\n"
    )


# ---------------------------------------------------------------- table


def test_table_default_rows(capsys):
    assert cli.main(["table"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,area"
    assert len(lines) == 11
    areas = [float(l.split(",")[1]) for l in lines[1:]]
    assert areas == sorted(areas)
    assert areas[-1] < np.pi / 4


def test_table_single_row(capsys):
    assert cli.main(["table", "--max", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2


def test_table_writes_file(tmp_path, capsys):
    out = tmp_path / "areas.csv"
    assert cli.main(["table", "--max", "9", "--out", str(out)]) == 0
    assert out.read_text().startswith("n,area\n3,")


def test_table_rejects_bad_max(capsys):
    assert cli.main(["table", "--max", "2"]) == 2


def test_table_max_stops_where_consecutive_areas_are_still_distinct(capsys):
    # from n = 199,053 on, consecutive width-1 areas are the same double
    assert cli.main(["table", "--max", "99999"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 + 49999 and out.split("\n")[-2].startswith("99999,")
    for value in ("100001", "300001"):
        assert cli.main(["table", "--max", value]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --max: must be an integer from 3 to 99999, got '{value}'\n")


def test_table_detects_regression(monkeypatch, capsys):
    monkeypatch.setattr(reuleaux, "area_table", lambda m, w=1.0: [(3, 0.8), (5, 0.7)])
    assert cli.main(["table"]) == 4
    assert "cross-check" in capsys.readouterr().err


WIDTH_COMMANDS = {
    "reuleaux": ["reuleaux", "--sides", "3"],
    "optimize": ["optimize", "--grid", "64", "--modes", "16", "--restarts", "1"],
    "table": ["table"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", sorted(WIDTH_COMMANDS))
def test_width_must_be_finite_and_positive(command, value, capsys):
    assert cli.main([*WIDTH_COMMANDS[command], f"--width={value}"]) == 2
    err = capsys.readouterr().err
    assert "argument --width: must be finite and > 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1e155", "1e-200"])
@pytest.mark.parametrize("command", sorted(WIDTH_COMMANDS))
def test_width_outside_range_is_usage_error(command, value, capsys):
    # past these B**2 overflows or the area and degree-1 checks fail
    assert cli.main([*WIDTH_COMMANDS[command], f"--width={value}"]) == 2
    err = capsys.readouterr().err
    assert "argument --width: must be finite and > 0, within 1e-100 to 1e+100" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1e-100", "1e100"])
@pytest.mark.parametrize(
    "argv",
    [*WIDTH_COMMANDS.values(), ["optimize", "--dim", "3", "--grid", "16", "--modes", "7",
                                "--restarts", "1"]],
    ids=[*WIDTH_COMMANDS, "optimize3"],
)
def test_width_range_ends_succeed(argv, value, capsys):
    assert cli.main([*argv, f"--width={value}"]) == 0


# ---------------------------------------------------------------- parser


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


def test_unknown_command(capsys):
    assert cli.main(["frobnicate"]) == 2


# the parser's text, byte for byte at 80 columns: argv, exit code, stdout, stderr
PINNED_TEXT = [
    (
        ["--help"],
        0,
        (
            "usage: orbiform [-h] {reuleaux,optimize,validate,table} ...\n"
            "\n"
            "constant-width bodies: Reuleaux polygons and functional minimization\n"
            "\n"
            "positional arguments:\n"
            "  {reuleaux,optimize,validate,table}\n"
            "    reuleaux            closed-form Reuleaux polygon\n"
            "    optimize            minimize the area functional\n"
            "    validate            check invariants of a shape file\n"
            "    table               closed-form area table as CSV\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        ["reuleaux", "--help"],
        0,
        (
            "usage: orbiform reuleaux [-h] --sides SIDES [--width WIDTH] [--modes MODES]\n"
            "                         [--out OUT] [--svg SVG]\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --sides SIDES  odd side count >= 3\n"
            "  --width WIDTH  width B, 1e-100 to 1e+100 (the problem is scale-free)\n"
            "  --modes MODES  spectral band limit\n"
            "  --out OUT      shape JSON path\n"
            "  --svg SVG      SVG rendering path\n"
        ),
        "",
    ),
    (
        ["optimize", "--help"],
        0,
        (
            "usage: orbiform optimize [-h] [--dim {2,3}] [--width WIDTH] [--grid GRID]\n"
            "                         [--modes MODES] [--restarts RESTARTS] [--seed SEED]\n"
            "                         [--out OUT] [--timestamp]\n"
            "\n"
            "options:\n"
            "  -h, --help           show this help message and exit\n"
            "  --dim {2,3}\n"
            "  --width WIDTH        width B, 1e-100 to 1e+100 (the problem is scale-free)\n"
            "  --grid GRID          grid resolution\n"
            "  --modes MODES        spectral band limit\n"
            "  --restarts RESTARTS\n"
            "  --seed SEED\n"
            "  --out OUT            result JSON path\n"
            "  --timestamp          stamp the result JSON\n"
        ),
        "",
    ),
    (
        ["validate", "--help"],
        0,
        (
            "usage: orbiform validate [-h] [--convexity-tol CONVEXITY_TOL] file\n"
            "\n"
            "positional arguments:\n"
            "  file\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --convexity-tol CONVEXITY_TOL\n"
            "                        absolute tolerance, in units of length, on the sampled\n"
            "                        R < 0 and R > width of a dim-2 shape file without\n"
            "                        switches (default 1e-9 * width); files with switches,\n"
            "                        as reuleaux --out writes, are checked in closed form\n"
        ),
        "",
    ),
    (
        ["table", "--help"],
        0,
        (
            "usage: orbiform table [-h] [--max MAX] [--width WIDTH] [--out OUT]\n"
            "\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --max MAX      largest side count\n"
            "  --width WIDTH  width B, 1e-100 to 1e+100 (the problem is scale-free)\n"
            "  --out OUT      CSV path\n"
        ),
        "",
    ),
    (
        ["optimize", "--width", "-1"],
        2,
        "",
        (
            "usage: orbiform optimize [-h] [--dim {2,3}] [--width WIDTH] [--grid GRID]\n"
            "                         [--modes MODES] [--restarts RESTARTS] [--seed SEED]\n"
            "                         [--out OUT] [--timestamp]\n"
            "orbiform optimize: error: argument --width: must be finite and > 0, got '-1'\n"
        ),
    ),
    (
        ["optimize", "--restarts", "0"],
        2,
        "",
        (
            "usage: orbiform optimize [-h] [--dim {2,3}] [--width WIDTH] [--grid GRID]\n"
            "                         [--modes MODES] [--restarts RESTARTS] [--seed SEED]\n"
            "                         [--out OUT] [--timestamp]\n"
            "orbiform optimize: error: argument --restarts: must be an integer >= 1, got '0'\n"
        ),
    ),
    (
        ["reuleaux", "--sides", "x"],
        2,
        "",
        (
            "usage: orbiform reuleaux [-h] --sides SIDES [--width WIDTH] [--modes MODES]\n"
            "                         [--out OUT] [--svg SVG]\n"
            "orbiform reuleaux: error: argument --sides: must be an odd integer >= 3, got 'x'\n"
        ),
    ),
]


@pytest.mark.parametrize(
    "argv,code,out,err", PINNED_TEXT, ids=[" ".join(p[0]) for p in PINNED_TEXT]
)
def test_parser_text_is_pinned(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    assert cli.main(argv) == code
    assert capsys.readouterr() == (out, err)
