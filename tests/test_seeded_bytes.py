"""Seeded CLI output bytes, pinned by SHA-256.

Runs through cli.main, in this process, the commands whose outputs refactors
must leave byte-identical: optimize --out in dim 2 and dim 3 and validate on
what it writes, a one-restart dim-2 optimize whose winner polishes to five
switches and validate on its file, table, and reuleaux --out --svg at seven (sides, modes) pairs
and three widths, each followed by validate with and without
--convexity-tol 0.12 * width. Each command's exit code and stdout, and every
file it writes, are hashed and compared with seeded_digests.json.

A change that moves output bytes on purpose re-records that file in the same
commit and says which digests moved and why:

    PYTHONPATH=src python tests/test_seeded_bytes.py

which prints on stderr each command whose digests moved and which of its
outputs moved: exit, stdout or a file name.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from orbiform import cli

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "seeded_digests.json")
WIDTHS = (1.0, 2.0 ** (-1.0 / 3.0), 1.3)
REULEAUX = ((3, 4096), (5, 2048), (7, 1024), (3, 1023), (9, 512), (11, 600), (3, 256))


def commands():
    """Argument lists in run order; files are written to the working directory."""
    for dim, grid, modes, restarts in ((2, 512, 255, 16), (3, 32, 15, 4)):
        out = f"optimize-dim{dim}.json"
        yield ["optimize", "--dim", str(dim), "--grid", str(grid), "--modes", str(modes),
               "--restarts", str(restarts), "--seed", "7", "--out", out]
        yield ["validate", out]
    yield ["optimize", "--grid", "16", "--modes", "7", "--restarts", "1", "--seed", "33",
           "--out", "pentagon.json"]
    yield ["validate", "pentagon.json"]
    yield ["table", "--max", "99"]
    for i, width in enumerate(WIDTHS):
        for sides, modes in REULEAUX:
            stem = f"reuleaux-{sides}-{modes}-w{i}"
            yield ["reuleaux", "--sides", str(sides), "--modes", str(modes), "--width", repr(width),
                   "--out", f"{stem}.json", "--svg", f"{stem}.svg"]
            yield ["validate", f"{stem}.json"]
            yield ["validate", f"{stem}.json", "--convexity-tol", repr(0.12 * width)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all() -> dict:
    """{command line: {"exit": code, "stdout": digest, file: digest, ...}}, in the cwd."""
    digests = {}
    for argv in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        entry = {"exit": code, "stdout": sha256(out.getvalue().encode())}
        for flag, path in zip(argv, argv[1:]):
            if flag in ("--out", "--svg"):
                with open(path, "rb") as fh:
                    entry[path] = sha256(fh.read())
        digests[" ".join(argv)] = entry
    return digests


def test_seeded_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_all()
    with open(DIGESTS) as fh:
        want = json.load(fh)
    assert list(got) == list(want)
    moved = [cmd for cmd in want if got[cmd] != want[cmd]]
    assert not moved, f"{len(moved)} of {len(want)} commands moved bytes: {moved}"


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        recorded = run_all()
        os.chdir(here)
    with open(DIGESTS) as fh:
        before = json.load(fh)
    for cmd in {**before, **recorded}:
        was, now = before.get(cmd, {}), recorded.get(cmd, {})
        moved = [key for key in {**was, **now} if was.get(key) != now.get(key)]
        if moved:
            print(f"moved {', '.join(moved)}: {cmd}", file=sys.stderr)
    with open(DIGESTS, "w") as fh:
        fh.write(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded)} commands in {DIGESTS}", file=sys.stderr)
