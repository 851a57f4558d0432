"""Command-line behavior: flags, exit codes, files, determinism."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from orbiform import cli
from orbiform.shapeio import loads_shape
from orbiform.variational import NumericalFailure

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


def test_reuleaux_rejects_even_sides(capsys):
    assert cli.main(["reuleaux", "--sides", "4"]) == 2
    assert "odd" in capsys.readouterr().err


def test_reuleaux_rejects_bad_width(capsys):
    assert cli.main(["reuleaux", "--sides", "3", "--width", "-1"]) == 2


def test_reuleaux_rejects_small_mode_count(capsys):
    assert cli.main(["reuleaux", "--sides", "9", "--modes", "20"]) == 2


def test_reuleaux_writes_shape_and_svg(tmp_path, capsys):
    shape = tmp_path / "tri.json"
    svg = tmp_path / "tri.svg"
    rc = cli.main(
        ["reuleaux", "--sides", "3", "--out", str(shape), "--svg", str(svg)]
    )
    assert rc == 0
    dim, width, coeffs = loads_shape(shape.read_text())
    assert (dim, width) == (2, 1.0)
    assert coeffs.coeff(0) == pytest.approx(MEAN)

    root = ET.fromstring(svg.read_text())
    assert root.attrib["viewBox"] == "0 0 512 512"
    paths = [e for e in root.iter() if e.tag.endswith("path")]
    assert len(paths) == 1
    d = paths[0].attrib["d"]
    assert d.startswith("M ") and d.endswith(" Z")


def test_reuleaux_shape_file_validates_roundtrip(tmp_path, capsys):
    shape = tmp_path / "penta.json"
    assert cli.main(["reuleaux", "--sides", "5", "--out", str(shape)]) == 0
    rc = cli.main(["validate", str(shape), "--convexity-tol", "0.12"])
    assert rc == 0


# ---------------------------------------------------------------- optimize


OPT_FLAGS = ["optimize", "--grid", "64", "--modes", "16", "--restarts", "2", "--seed", "3"]


def test_optimize_writes_result_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(OPT_FLAGS + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "benchmark" in stdout
    payload = json.loads(out.read_text())
    assert list(payload.keys()) == [
        "phi",
        "area",
        "iterations",
        "seed",
        "violation",
        "sign_consistency",
        "coeffs",
    ]
    assert payload["phi"] < 0
    assert payload["seed"] == 3


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


def test_optimize_rejects_bad_flags(capsys):
    assert cli.main(["optimize", "--dim", "4"]) == 2
    assert cli.main(["optimize", "--restarts", "0"]) == 2
    assert cli.main(["optimize", "--grid", "7"]) == 2


def test_optimize_maps_numerical_failure(monkeypatch, capsys):
    def boom(*a, **k):
        raise NumericalFailure("forced")

    monkeypatch.setattr(cli.variational, "minimize", boom)
    assert cli.main(OPT_FLAGS) == 3
    assert "numerical failure" in capsys.readouterr().err


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


def test_validate_truncated_json(tmp_path, capsys):
    f = write(tmp_path / "trunc.json", '{"dim": 2, "width"')
    assert cli.main(["validate", f]) == 2
    assert "malformed" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert cli.main(["validate", "/no/such/file.json"]) == 2


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


def test_table_detects_regression(monkeypatch, capsys):
    monkeypatch.setattr(
        cli.reuleaux, "area_table", lambda m, w=1.0: [(3, 0.8), (5, 0.7)]
    )
    assert cli.main(["table"]) == 4
    assert "cross-check" in capsys.readouterr().err


# ---------------------------------------------------------------- parser


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


def test_unknown_command(capsys):
    assert cli.main(["frobnicate"]) == 2
