"""The scripts under scripts/, run in process on small inputs."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, flags",
    [
        ("explore_3d.py", ["--res", "16", "--modes", "7", "--restarts", "1"]),
        ("run_blaschke_lebesgue.py", ["--grid", "64", "--modes", "16", "--restarts", "1"]),
    ],
)
def test_result_file_ends_with_one_newline(script, flags, tmp_path, capsys):
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    out = tmp_path / "result.json"
    assert main(flags + ["--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("}\n")
    assert not text.endswith("\n\n")
