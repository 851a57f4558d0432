"""`python -m orbiform` as a child process. ROWS run in table order in one directory, so a row
can read a file an earlier row wrote. A row is (argv, exit code, check(run, dir), input file)."""

import os
import re
import subprocess
import sys

import pytest

from orbiform import cli


def run_child(args, **kwargs):
    """subprocess.run of this interpreter, src/ first on PYTHONPATH; a child hung 60 s fails."""
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


def no_numpy(p, d):  # -X importtime lists every import on stderr
    return "import time:" in p.stderr and "numpy" not in p.stderr


O2 = ('{"dim": 2, "width": 1.0, "coeffs": [{"degree": 0, "part": "cos", '
      '"value": 1.2533141373155003}, {"degree": 3, "part": "cos", "value": 1e30%d}]}')
GREEN = ('"width": 1.0, "phi": 1e308, "iterations": 1, "seed": 0, "violation": 0.0, '
         '"sign_consistency": 1.0, ')
# a degree-7 dim-3 window at +-1.7e308, sign (-1)^order: its samples overflow to inf and NaN
N7 = ', "coeffs": [%s]}' % ", ".join(
    '{"degree": 7, "order": %d, "value": %s1.7e308}' % (m, "-" * (m % 2)) for m in range(-7, 8))
ROWS = [
    ("--help", 0),
    ("optimize --grid 64 --modes 16 --restarts 2 --out r.json", 0),
    ("optimize --dim 3 --grid 16 --modes 7 --restarts 2 --out r3.json", 0),
    ("validate r.json", 0),
    ("validate r3.json", 0),
    ("optimize --grid 512 --modes 255 --restarts 16 --seed 7 --out b.json", 0),  # the headline run
    ("-X importtime validate b.json", 0, no_numpy),  # its polished switches, with math alone
    ("optimize --grid 96 --modes 20 --seed 7 --out a.json", 0),  # grid nodes on the switches
    ("validate a.json", 0),
    ("optimize --width 1e-100 --grid 16 --modes 7 --restarts 2", 0,  # the polish is scale-free
     lambda p, d: "switch polish: switches=3" in p.stdout),
    ("optimize --dim 3 --grid 128 --restarts 1", 0),
    ("table --max 99", 0),
    ("reuleaux --sides 3 --modes 256 --out t.json --svg t.svg", 0),
    ("validate t.json", 0),
    ("reuleaux --sides 3 --width 1e-100", 0,  # every digit: no fixed-point zeros
     lambda p, d: "closed-form area: " in p.stdout and "0.000000000000" not in p.stdout),
    ("reuleaux --sides 5 --svg p.svg", 0, lambda p, d: (d / "p.svg").read_text().count(" A ") == 5),
    ("optimize --grid 16 --modes 7 --restarts 1 --seed 33 --out p5.json", 0,  # on a pentagon
     lambda p, d: "switch polish: switches=5" in p.stdout),
    ("validate p5.json", 0),
    ("-X importtime reuleaux --sides 3 --modes 4096 --out h.json --svg h.svg", 0, no_numpy),
    ("validate h.json", 0),  # the largest file the reader accepts
    ("reuleaux --sides 3 --modes 4101", 2),  # above the writer's degree limit, even without --out
    ("validate t.json --convexity-tol nan", 2),  # refused at parse time
    ("reuleaux --sides 255 --modes 4096 --out s.json", 0),  # the most switches a file holds
    ("validate s.json", 0),
    ("reuleaux --sides 1365 --modes 5460", 0),  # the most sides under degree 4095 (3 * 1365)
    ("validate u.json", 2, None, "\xff\xfe{}"),  # not UTF-8: malformed input, not a traceback
    ("reuleaux --sides 3 --out /nonexistent/x.json", 2),  # an error line, not a traceback
    ("optimize --grid 8196 --modes 4097 --restarts 1", 2),  # above the file's degree limit
    ("table --max 99999", 0),  # the last count whose areas are still distinct doubles
    ("table --max 100001", 2),
    ("reuleaux --sides 3 --out m.json", 0,  # the umask's mode (022 in every row), not 0600
     lambda p, d: (d / "m.json").stat().st_mode & 0o777 == 0o644),
    ("validate o7.json", 1, None, O2 % 7),  # a dim-2 R that overflows a double fails validate
    ("validate o8.json", 1, None, O2 % 8),  # (its samples or its coefficients),
    ("validate o3.json", 1, None,  # and so does a dim-3 translation at 1e300
     '{"dim": 3, "width": 1e300, "coeffs": [{"degree": 1, "order": 0, "value": 1e299}]}'),
    # a Green form that overflows fails the phi check in either dim, with nothing on stderr
    ("validate g2.json", 1, lambda p, d: p.stderr == "", '{"dim": 2, ' + GREEN + '"area": 5e307, '
     '"coeffs": [{"degree": 3, "part": "cos", "value": 1e200}]}'),
    ("validate g3.json", 1, lambda p, d: p.stderr == "", '{"dim": 3, ' + GREEN + '"area": null, '
     '"equivalence_warning": true, "coeffs": [{"degree": 3, "order": 0, "value": 1e200}]}'),
    # and samples that overflow read box-bound inf, gated on a shape file, information on a result
    ("validate n3.json", 1, lambda p, d: p.stderr == "" and "FAIL box-bound: residual=inf"
     in p.stdout and "FAIL antipodal-antisymmetry: residual=inf" in p.stdout,
     '{"dim": 3, "width": 1.0' + N7),
    ("validate m3.json", 1, lambda p, d: p.stderr == "" and "INFO box-bound: residual=inf"
     in p.stdout, '{"dim": 3, ' + GREEN + '"area": null, "equivalence_warning": true' + N7),
    # a translation under a norm that overflows: its tolerance stays finite
    ("validate d1.json", 1, lambda p, d: p.stderr == "" and "FAIL translation-orthogonality"
     in p.stdout, '{"dim": 3, "width": 1.0' + N7[:-2] + ', {"degree": 1, "order": 0, "value": 1e300}]}'),
    # an angle so large that k theta overflows fails switches, closure and closed-form
    ("validate x5.json", 1, lambda p, d: p.stderr == "" and "FAIL closed-form: residual=inf"
     in p.stdout, '{"dim": 2, "width": 1.0, "switches": [-1e308], "coeffs": '
     '[{"degree": 5, "part": "cos", "value": 0.1}]}'),
    ("validate w.json", 2, None, lambda d: (d / "t.json").read_text().replace(  # a name twice
        '"width": 1.0', '"width": 1.0, "width": 2.0', 1)),
    # a seed or iteration count that no optimize run writes
    ("validate s5.json", 2, lambda p, d: "seed must be an integer >= 0, got -5" in p.stderr,
     lambda d: (d / "r.json").read_text().replace('"seed": 0', '"seed": -5', 1)),
    ("validate i3.json", 2, lambda p, d: "iterations must be an integer >= 0, got -3" in p.stderr,
     lambda d: re.sub('"iterations": [0-9]+', '"iterations": -3', (d / "r.json").read_text())),
]


@pytest.fixture(scope="module")
def cwd(tmp_path_factory):
    return tmp_path_factory.mktemp("entrypoint")


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_row(row, cwd):
    argv, code, check, text = (*row, None, None)[:4]
    args = argv.split()
    if text is not None:  # into the last argument; latin-1 keeps "\xff" one byte
        (cwd / args[-1]).write_text(text(cwd) if callable(text) else text, encoding="latin-1")
    at = 2 if args[0] == "-X" else 0  # interpreter options go before -m
    args[at:at] = ["-m", "orbiform"]
    done = run_child(args, cwd=cwd, capture_output=True, text=True, umask=0o022)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    assert check is None or check(done, cwd), done.stdout + done.stderr


def run_into_a_closed_pipe(argv, **kwargs):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first byte
    try:
        done = run_child(["-m", "orbiform", *argv], stdout=write, stderr=subprocess.PIPE, text=True,
                         **kwargs)
    finally:
        os.close(write)
    assert done.returncode == cli.EXIT_PIPE == 141
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv", [["table", "--max", "99"], ["optimize", "--grid", "64", "--modes", "16", "--restarts", "1"]]
)
def test_a_closed_pipe_ends_with_exit_141_and_no_traceback(argv):
    run_into_a_closed_pipe(argv)


@pytest.mark.parametrize("argv", [
    "optimize --grid 16 --modes 7 --restarts 1 --seed 33 --out r.json",
    "optimize --dim 3 --grid 16 --modes 7 --restarts 2 --seed 1 --out r.json",
    "reuleaux --sides 5 --modes 64 --out r.json --svg r.svg",
])
def test_a_closed_pipe_stops_no_output_file(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")  # the first line meets the closed pipe
    run_into_a_closed_pipe(argv.split(), cwd=tmp_path)
    assert (tmp_path / "r.svg").exists() == ("--svg" in argv)
    assert run_child(["-m", "orbiform", "validate", "r.json"], cwd=tmp_path,
                     capture_output=True).returncode == 0
