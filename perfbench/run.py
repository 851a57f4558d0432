"""End-to-end and per-layer benchmark of orbiform.

    python3 perfbench/run.py --workload blaschke2d --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the directory holding src/orbiform).
Each run repeats whole rounds of one workload until --seconds have passed:

  blaschke2d    orbiform optimize --dim 2 --grid 512 --modes 255 --restarts 16,
                orbiform validate on its output, then project_admissible for
                every step size of the descent from the returned minimizer
  spheroform3d  the same with --dim 3 --grid 32 --modes 15 --restarts 4
  reuleaux_hires orbiform reuleaux --sides n --modes L --out F --svg S and
                orbiform validate F, for (n, L) = (3, 4096), (5, 2048), (7, 1024)

Every CLI operation is its own process, one at a time; the re-projections are
library calls made in one worker process (perfbench/worker.py). The program
only receives the generated arguments. On reuleaux_hires the seed draws the
width B and the order of the cases; the optimize workloads run one fixed
input. See perfbench/README.md for why, for the metrics, the checks and the
two program faults counted as failed operations.

With --trace 1 every round runs twice: as above, then with every CLI operation
run in a worker process that calls orbiform's own cli.main with a span around
each public function of the program. The per-layer metrics come from those
spans, the overhead from the difference, and the spans are written to
perfbench/.out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Exit codes: 0 done and correct, 1 an output check failed,
2 no orbiform source tree here, 3 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import oracles  # noqa: E402  (the benchmark's own reference values)

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, ".out")

SETUP_PROBES = (3, 2)  # bare CLI starts before the first round, and after each round
OP_TIMEOUT_S = 100.0  # a run must end within 180 s; no operation here takes 20
OPT_SEED = 7  # restart seed handed to `orbiform optimize`; fixed, see README
# one BLAS thread in every child: the default two make the same dim-2 optimize
# slower and noisier (README), and the load is one single-threaded process
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# passes: how often one round walks the step ladder. Its calls are short and
# the shared host's speed swings by half within a second, so each run needs
# many of them; in dim 3 every pass also pays 1.5 s for the five F2 failures.
OPTIMIZE = {
    "blaschke2d": {"dim": 2, "grid": 512, "modes": 255, "restarts": 16, "passes": 5},
    "spheroform3d": {"dim": 3, "grid": 32, "modes": 15, "restarts": 4, "passes": 4},
}
REULEAUX_CASES = ((3, 4096), (5, 2048), (7, 1024))
REULEAUX_TOL = 0.12  # times B: ringing of the truncated square wave (body2d.validate)
WORKLOADS = (*OPTIMIZE, "reuleaux_hires")

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "produce_s": "s",
    "followup_s": "s", "answer_excess": "ratio",
}
PER_LAYER = {
    "grid_s": "s", "synthesize_first_s": "s", "synthesize_repeat_s": "s",
    "analyze_s": "s", "first_call_peak_mb": "MB", "solve_s": "s", "write_s": "s",
    "read_s": "s", "check_s": "s", "check_failed": "count",
    "descent_iterations": "count", "restarts_converged": "count",
    "trace_overhead": "ratio",
}
# spans that make up the solve and write stages of a producing operation
# (none of them runs inside another)
SOLVE_SPANS = ("variational.minimize_restarts", "reuleaux.to_body", "body2d.area_quadrature")
WRITE_SPANS = ("variational.result_to_json", "shapeio.dumps_shape", "cli.render_svg",
               "shapeio.write_text_atomic")

F1 = "F1: validate rejects what optimize --out writes"
F2 = "F2: project_admissible raises NumericalFailure"


class BenchError(Exception):
    """The benchmark itself could not run (not a fault of the program)."""


def median(values) -> float:
    values = list(values)
    if not values:
        raise BenchError("no successful operation to time")
    return float(statistics.median(values))


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked through its C API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_default": blas_threads(),
        "blas_threads_children": CHILD_THREADS,
        "ORBIFORM_THREADS_set": "ORBIFORM_THREADS" in os.environ,
        "platform": platform.platform(),
    }


class Runner:
    """Runs the operations of one benchmark run and keeps their accounting."""

    def __init__(self, root: str, tmp: str):
        self.root = root
        self.tmp = tmp
        env = dict(os.environ, **CHILD_THREADS)
        env.pop("ORBIFORM_THREADS", None)  # restarts run on one thread, as by default
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: Counter = Counter()
        self.errors: list[str] = []
        self.spans: list[dict] = []
        self._seq = 0

    # -- processes -------------------------------------------------------

    def spawn(self, argv: list[str]) -> tuple[int, float, str, str]:
        """Run one process to its end; returns (exit code, wall s, stdout, stderr)."""
        self._seq += 1
        out_path = os.path.join(self.tmp, f"p{self._seq}.out")
        err_path = os.path.join(self.tmp, f"p{self._seq}.err")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timed_out = threading.Event()
            killer = threading.Timer(OP_TIMEOUT_S, lambda: (timed_out.set(), proc.kill()))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode(errors="replace")
            stderr = err.read().decode(errors="replace")
        os.unlink(out_path)
        os.unlink(err_path)
        if timed_out.is_set():
            raise BenchError(f"{' '.join(argv[1:4])} ran past {OP_TIMEOUT_S:.0f} s")
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, wall, stdout, stderr

    def cli(self, args: list[str]) -> tuple[int, float, str]:
        rc, wall, _, err = self.spawn([sys.executable, "-m", "orbiform", *args])
        return rc, wall, err

    def worker(self, args: list[str], parent: int | None) -> dict:
        """Runs perfbench/worker.py; its spans go under span `parent`, if given."""
        rc, wall, out, err = self.spawn([sys.executable, WORKER, *args])
        lines = out.strip().splitlines()
        if rc != 0 or not lines:
            raise BenchError(f"worker {args[0]} exited {rc}: {err.strip()[-400:]}")
        report = json.loads(lines[-1])
        report["wall"] = wall
        self.errors.extend(report["errors"])
        if parent is not None:
            base = len(self.spans)
            for s in report["spans"]:
                s["id"] += base
                s["parent"] = parent if s["parent"] is None else s["parent"] + base
                self.spans.append(s)
        return report

    # -- accounting ------------------------------------------------------

    def count(self, ok: bool, fault: str | None = None) -> bool:
        self.attempted += 1
        if not ok:
            self.failures[fault or "other"] += 1
        return ok

    def open_span(self, name: str, parent: int | None) -> dict:
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        return rec

    def close_span(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    # -- one operation, as a CLI process or as a traced worker --------------

    def op(self, name: str, args: list[str], round_span: dict | None):
        """Returns (ok, wall s, error text); traced inside `round_span` if given."""
        if round_span is None:
            rc, wall, err = self.cli([name, *args])
            return rc == 0, wall, err
        rec = self.open_span(f"op:{name}", round_span["id"])
        report = self.worker(["cli", name, *args], rec["id"])
        self.close_span(rec)
        (entry,) = report["ops"]
        return entry["ok"], report["wall"], entry["error"]


def load_entries(path: str):
    with open(path) as fh:
        data = json.load(fh)
    entries = data.get("coeffs", [])
    degrees = np.array([e["degree"] for e in entries], dtype=int)
    values = np.array([e["value"] for e in entries], dtype=float)
    return data, entries, degrees, values


def check_optimize_file(s: Runner, path: str, dim: int, width: float) -> float:
    """Checks the optimize result against closed forms; returns the answer excess."""
    data, _, degrees, values = load_entries(path)
    scale = width * width
    phi = float(data["phi"])
    own = oracles.phi_from_deviation(dim, degrees, values)
    s.check(abs(own - phi) <= 1e-10 * scale, f"phi {phi!r} but its coefficients give {own!r}")
    s.check(bool(np.all(degrees >= 2)), "result coefficients carry degree 0 or 1")
    if dim == 2:
        area = float(data["area"])
        s.check(abs(area - oracles.area_from_phi(phi, width)) <= 1e-10 * scale,
                f"area {area!r} is not pi B^2/4 + phi/2 = {oracles.area_from_phi(phi, width)!r}")
        bl = oracles.blaschke_lebesgue_area(width)
        excess = (area - bl) / bl
        s.check(0.0 < excess < 1e-3, f"area excess over Blaschke-Lebesgue {excess!r} not in (0, 1e-3)")
        return excess
    s.check(oracles.phi3_floor(width) <= phi <= 0.0,
            f"dim-3 phi {phi!r} outside [-(4 pi/10) B^2, 0]")
    s.check(data.get("equivalence_warning") is True, "dim-3 result is not marked as a candidate")
    floor = oracles.surface_area_from_phi(oracles.phi3_floor(width), width)
    return (oracles.surface_area_from_phi(phi, width) - floor) / floor


def check_reuleaux_file(s: Runner, path: str, svg: str, n: int, modes: int, width: float) -> float:
    """Checks a written Reuleaux polygon; returns its area excess over the exact one."""
    data, entries, degrees, values = load_entries(path)
    s.check(data.get("dim") == 2 and data.get("width") == width,
            f"{n}-gon file has dim/width {data.get('dim')}/{data.get('width')}")
    s.check(all(e["part"] == "cos" for e in entries), f"{n}-gon file has sin coefficients")
    mean = values[degrees == 0]
    s.check(mean.size == 1 and abs(mean[0] - 0.5 * width * np.sqrt(oracles.TWO_PI)) <= 1e-15 * width,
            f"{n}-gon mean coefficient is not B/2 * sqrt(2 pi)")
    rest = degrees > 0
    ks = degrees[rest]
    s.check(np.array_equal(ks, np.arange(n, modes + 1, 2 * n)),
            f"{n}-gon file does not hold exactly the odd multiples of {n} up to {modes}")
    want = np.array([oracles.reuleaux_support_coeff(n, width, int(k)) for k in ks])
    err = np.abs(values[rest] - want)
    s.check(bool(np.all(err <= 1e-9 * np.abs(want) + 1e-15 * width)),
            f"{n}-gon coefficients differ from the square-wave integrals by {float(np.max(err, initial=0)):.3e}")
    area = oracles.area_from_support(degrees, values)
    exact = oracles.reuleaux_area_segments(n, width)
    excess = (area - exact) / exact
    s.check(0.0 < excess < 1e-6, f"{n}-gon area excess over the segment decomposition {excess!r}")
    with open(svg) as fh:
        s.check(fh.read(4) == "<svg", f"{n}-gon SVG does not start with <svg")
    return excess


def optimize_round(s: Runner, spec: dict, width: float, tag: str, rspan) -> dict:
    dim = spec["dim"]
    out = os.path.join(s.tmp, f"opt-{tag}.json")
    ok, wall, _ = s.op("optimize", [
        "--dim", str(dim), "--grid", str(spec["grid"]), "--modes", str(spec["modes"]),
        "--restarts", str(spec["restarts"]), "--seed", str(OPT_SEED),
        "--width", repr(width), "--out", out], rspan)
    if not s.count(ok):
        raise BenchError(f"optimize --dim {dim} failed; nothing to measure")
    row = {"produce": {"optimize": [wall]}, "answer": [check_optimize_file(s, out, dim, width)],
           "out": [out], "followup": {}}

    ok, _, err = s.op("validate", [out], rspan)
    s.count(ok, F1 if "top-level keys" in err else None)

    parent = s.open_span("op:reuse", rspan["id"]) if rspan else None
    report = s.worker(["reuse", "--dim", str(dim), "--grid", str(spec["grid"]),
                       "--modes", str(spec["modes"]), "--width", repr(width), "--file", out,
                       "--passes", str(spec["passes"])] + (["--trace"] if parent else []),
                      parent and parent["id"])
    if parent:
        s.close_span(parent)
    for entry in report["ops"]:
        if s.count(entry["ok"], F2 if "NumericalFailure" in entry.get("error", "") else None):
            row["followup"].setdefault(entry["step"], []).append(entry["s"])
    return row


def reuleaux_round(s: Runner, width: float, order, tag: str, rspan) -> dict:
    row = {"produce": {}, "followup": {}, "answer": [], "out": []}
    for i in order:
        n, modes = REULEAUX_CASES[i]
        out = os.path.join(s.tmp, f"reuleaux-{n}-{tag}.json")
        svg = os.path.join(s.tmp, f"reuleaux-{n}-{tag}.svg")
        ok, wall, _ = s.op("reuleaux", ["--sides", str(n), "--width", repr(width),
                                        "--modes", str(modes), "--out", out, "--svg", svg], rspan)
        if not s.count(ok):
            continue
        row["produce"][n] = [wall]
        row["answer"].append(check_reuleaux_file(s, out, svg, n, modes, width))
        row["out"].append(out)
        ok, wall, _ = s.op("validate", [out, "--convexity-tol", repr(REULEAUX_TOL * width)], rspan)
        if s.count(ok):
            row["followup"][n] = [wall]
        if rspan is not None:
            # the CLI never analyzes here: a check of the transform pair on the
            # written coefficients times it. It is not a CLI operation, so it
            # is not counted and not part of trace_overhead
            probe = s.open_span("op:transform", rspan["id"])
            s.worker(["transform", "--dim", "2", "--grid", str(2 * modes + 2), "--file", out,
                      "--trace"], probe["id"])
            s.close_span(probe)
    return row


def mean(values) -> float:
    values = list(values)
    if not values:
        raise BenchError("a traced round has no span of a layer it must time")
    return statistics.fmean(values)


def layer_metrics(spans: list[dict], round_id: int, check_failed: int) -> dict:
    """Per-layer values of one traced round, from the spans under it."""
    children: dict = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(sp)

    def under(node_id):
        for sp in children.get(node_id, []):
            yield sp
            yield from under(sp["id"])

    def dur(sp):
        return sp["end"] - sp["start"]

    ops = children.get(round_id, [])
    inner = {op["id"]: list(under(op["id"])) for op in ops}
    allsp = [sp for lst in inner.values() for sp in lst]

    def named(name, **attrs):
        return [sp for sp in allsp if sp["name"] == name
                and all(sp.get(k) == v for k, v in attrs.items())]

    first = named("harmonic_core.synthesize", call="first")
    restarts = named("variational.minimize_restarts", ok=True)
    producing = [op for op in ops if op["name"] in ("op:optimize", "op:reuleaux")]
    return {
        "grid_s": sum(dur(sp) for sp in named("harmonic_core.make_grid")),
        "synthesize_first_s": mean(dur(sp) for sp in first),
        "synthesize_repeat_s": mean(dur(sp) for sp in named("harmonic_core.synthesize", call="repeat")),
        "analyze_s": mean(dur(sp) for sp in named("harmonic_core.analyze")),
        "first_call_peak_mb": max(sp["peak_mb"] for sp in first),
        "solve_s": mean(
            sum(dur(sp) for sp in inner[op["id"]] if sp["name"] in SOLVE_SPANS) for op in producing),
        "write_s": mean(
            sum(dur(sp) for sp in inner[op["id"]] if sp["name"] in WRITE_SPANS) for op in producing),
        "read_s": mean(dur(sp) for sp in named("shapeio.loads_shape")),
        "check_s": mean(dur(sp) for sp in named("variational.project_admissible", ok=True)
                        + named("body2d.validate", ok=True)),
        "check_failed": check_failed,
        "descent_iterations": sum(sp["iterations"] for sp in restarts),
        "restarts_converged": sum(sp["converged"] for sp in restarts),
    }


def per_label(rows: list[dict], key: str) -> float:
    """Median of each operation's times over the run, averaged over the operations."""
    samples: dict = {}
    for row in rows:
        for label, times in row[key].items():
            samples.setdefault(label, []).extend(times)
    return statistics.fmean(median(v) for v in samples.values())


def run(args) -> dict:
    root = os.getcwd()
    problems = oracles.self_check()
    if problems:
        raise BenchError("benchmark oracles failed their self-check: " + "; ".join(problems))

    # the optimize workloads have one fixed input (width 1, restart seed
    # OPT_SEED): both change the descent's work, see README
    rng = np.random.default_rng(args.seed)
    width = 1.0 if args.workload in OPTIMIZE else float(2.0 ** rng.uniform(-0.5, 0.5))
    order = [int(i) for i in rng.permutation(len(REULEAUX_CASES))]

    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    s = Runner(root, tmp)
    try:
        setup = []

        def probe(times):
            for _ in range(times):
                rc, wall, err = s.cli(["--help"])
                if rc != 0:
                    raise BenchError(f"orbiform --help exited {rc}: {err.strip()[-300:]}")
                setup.append(wall)

        probe(SETUP_PROBES[0])

        def one_round(tag, rspan):
            if args.workload in OPTIMIZE:
                return optimize_round(s, OPTIMIZE[args.workload], width, tag, rspan)
            return reuleaux_round(s, width, order, tag, rspan)

        rows, layers, overhead = [], [], []
        t0 = time.perf_counter()
        while not rows or time.perf_counter() - t0 < args.seconds:
            i = len(rows)
            start = time.perf_counter()
            rows.append(one_round(str(i), None))
            plain = time.perf_counter() - start
            probe(SETUP_PROBES[1])
            if args.trace:
                rspan = s.open_span(f"round:{i}", None)
                before = Counter(s.failures)
                traced = one_round(f"{i}t", rspan)
                s.close_span(rspan)
                traced_s = rspan["end"] - rspan["start"] - sum(
                    sp["end"] - sp["start"] for sp in s.spans
                    if sp["parent"] == rspan["id"] and sp["name"] == "op:transform")
                overhead.append(traced_s / plain - 1.0)
                layers.append(layer_metrics(s.spans, rspan["id"], (s.failures - before)[F2]))
                # the CLI promises identical bytes for identical flags, and a
                # traced operation must be the operation the plain round timed
                for a, b in zip(rows[-1]["out"], traced["out"]):
                    with open(a, "rb") as fa, open(b, "rb") as fb:
                        s.check(fa.read() == fb.read(),
                                f"traced output {os.path.basename(b)} differs from the CLI's "
                                f"{os.path.basename(a)}")

        if args.trace:
            metrics = {k: median(row[k] for row in layers) for k in PER_LAYER if k != "trace_overhead"}
            metrics["trace_overhead"] = median(overhead)
            units = PER_LAYER
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "width": width,
                           "env": env, "rounds": layers, "overhead": overhead,
                           "spans": s.spans}, fh, indent=1)
            print(f"trace: {len(s.spans)} spans -> {os.path.relpath(trace_path, root)}")
        else:
            metrics = {
                "setup_s": median(setup),
                "peak_rss_mb": s.peak_rss_mb,
                "produce_s": per_label(rows, "produce"),
                "followup_s": per_label(rows, "followup"),
                "answer_excess": median(statistics.fmean(r["answer"]) for r in rows),
            }
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} width={width!r} rounds={len(rows)} "
          f"trace={args.trace} optimize-seed={OPT_SEED if args.workload in OPTIMIZE else '-'}")
    print("env: " + json.dumps(env))
    print(f"attempted={s.attempted} failed={sum(s.failures.values())}"
          + "".join(f"\n  {count} x {fault}" for fault, count in sorted(s.failures.items())))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for message in s.errors[:20]:
        print("CHECK FAILED:", message)
    return {
        "correct": not s.errors,
        "attempted": s.attempted,
        "failed": sum(s.failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run still stops its child and removes its temporary files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "orbiform", "__init__.py")):
        print(f"error: no orbiform source tree under {os.getcwd()}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
