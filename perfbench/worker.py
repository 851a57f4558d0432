"""In-process orbiform operations for the benchmark, one operation per process.

Run by perfbench/run.py with the program's source tree on PYTHONPATH:

    python3 perfbench/worker.py reuse --dim 2 --grid 512 --modes 255 --width 1 --file F --passes 5
    python3 perfbench/worker.py reuse ... --trace
    python3 perfbench/worker.py transform --dim 2 --grid 8194 --file F --trace
    python3 perfbench/worker.py cli optimize --dim 2 ...     (any `orbiform` argument list)

`reuse` is the step-ladder re-projection from an optimize result: the
minimizer is read back from the result file and `project_admissible` is
called for every step size the descent can take, --passes times over. It
starts with the transform check that `transform` runs alone: the file's
coefficients are synthesized twice and analyzed back, which must give the
same values twice and the coefficients back.

`cli` runs `orbiform.cli.main` in this process with a span around every public
function of the program's modules, so a traced run splits a CLI operation into
its layers while the program composes its calls exactly as `python3 -m
orbiform` does. `reuse --trace` puts the same spans around its calls. Spans
are placed by replacing the names listed in each module's `__all__`, in every
orbiform module that binds them; nothing else of the program is touched.

The last line of stdout is one JSON object: the operations attempted with
their outcome and time, any failed output checks and the spans (name, start,
end, parent; seconds on the monotonic perf_counter clock, which all processes
of the run share).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time
import tracemalloc

import numpy as np

from orbiform import body2d, cli, harmonic_core, reuleaux, shapeio, spheroform3d, variational

LADDER_STEPS = 11  # eta0 * 2**k for k = 0..10: the descent's step-size cap is 2**10 eta0
TRACED_MODULES = (harmonic_core, body2d, reuleaux, variational, spheroform3d, shapeio, cli)
# index arithmetic, called once per coefficient inside loops: a span around
# it would cost more than the call and swamp the trace
UNTRACED = {"harmonic_core.index2", "harmonic_core.index3", "harmonic_core.num_coeffs"}


def _restart_summary(results) -> dict:
    return {"iterations": sum(r.iterations for r in results),
            "converged": sum(bool(r.converged) for r in results)}


# extra span fields taken from a call's return value
SUMMARIES = {"variational.minimize_restarts": _restart_summary}


class Tracer:
    """Spans kept in memory, with parent links from the call nesting."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._synthesized: set = set()

    def wrap(self, name: str, fn):
        summary = SUMMARIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {"id": len(self.spans), "name": name,
                   "parent": self._stack[-1] if self._stack else None,
                   "start": time.perf_counter(), "end": None}
            self.spans.append(rec)
            self._stack.append(rec["id"])
            # the first synthesize at a (grid, band limit) in the process is
            # the one that can build the dense basis: record its memory peak
            peak = False
            if name == "harmonic_core.synthesize":
                coeffs, grid = args[0], args[1]
                key = (grid.dim, grid.resolution, coeffs.max_degree)
                rec["call"] = "repeat" if key in self._synthesized else "first"
                self._synthesized.add(key)
                peak = rec["call"] == "first" and not tracemalloc.is_tracing()
                if peak:
                    tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec["ok"] = False
                rec["error"] = type(exc).__name__
                raise
            else:
                rec["ok"] = True
                if summary:
                    rec.update(summary(out))
                return out
            finally:
                rec["end"] = time.perf_counter()
                if peak:
                    rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()

        return traced

    def instrument(self) -> None:
        """Put a span around every public function of TRACED_MODULES."""
        wrapped = {}
        for mod in TRACED_MODULES:
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type) or id(fn) in wrapped:
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                if name not in UNTRACED:
                    wrapped[id(fn)] = (fn, self.wrap(name, fn))
        # rebind every module's reference, so calls between modules and
        # within one module go through the span as well
        for modname, mod in list(sys.modules.items()):
            if modname != "orbiform" and not modname.startswith("orbiform."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])


class Report:
    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.ops: list[dict] = []
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def dump(self) -> None:
        spans = self.tracer.spans if self.tracer else []
        print(json.dumps({"ops": self.ops, "errors": self.errors, "spans": spans}))


def window_phi(dim: int, coeffs) -> float:
    """phi from the odd degree >= 3 window, with the closed-form multipliers."""
    degs = coeffs.degrees()
    keep = (degs % 2 == 1) & (degs >= 3)
    ell = degs[keep].astype(float)
    g = 1.0 / ((dim - 1) - ell * (ell + dim - 2))
    return float(np.sum(g * coeffs.values[keep] ** 2))


def cmd_transform(args, rep: Report):
    """Synthesizes the file's coefficients; returns (grid, values)."""
    with open(args.file) as fh:
        entries = json.load(fh)["coeffs"]
    grid = harmonic_core.make_grid(args.dim, args.grid)
    coeffs = shapeio.entries_to_coeffs(args.dim, entries)
    # the transform pair must be exact on band-limited data, and repeatable
    values = harmonic_core.synthesize(coeffs, grid)
    again = harmonic_core.synthesize(coeffs, grid)
    rep.check(bool(np.array_equal(values, again)), "repeated synthesize differs from the first call")
    back = harmonic_core.analyze(grid, values, coeffs.max_degree)
    scale = max(1.0, float(np.max(np.abs(coeffs.values))))
    err = float(np.max(np.abs(back.values - coeffs.values)))
    rep.check(err <= 1e-10 * scale, f"analyze(synthesize(c)) differs from c by {err:.3e}")
    return grid, values


def cmd_reuse(args, rep: Report) -> None:
    grid, start = cmd_transform(args, rep)

    # g_3 is the flattest kept multiplier; the descent starts at eta0 = 1 / (2 |g_3|)
    eta0 = 0.5 * abs((args.dim - 1) - 3 * (3 + args.dim - 2))
    scale = args.width * args.width

    def project(values, label):
        t0 = time.perf_counter()
        entry = {"op": "project", "step": label, "ok": True}
        try:
            r = variational.project_admissible(values, args.width, grid, args.modes)
        except variational.NumericalFailure as exc:
            entry.update(ok=False, error=f"NumericalFailure: {exc}")
        except ValueError as exc:
            # AdmissibleR refuses a point outside the box, off antisymmetry or
            # with a degree-1 part: the projection returned a wrong answer
            entry.update(ok=False, error=f"ValueError: {exc}")
            rep.check(False, f"projection at step {label} is not admissible: {exc}")
        entry["s"] = time.perf_counter() - t0
        rep.ops.append(entry)
        if not entry["ok"]:
            return None
        value = variational.phi(r)
        own = window_phi(args.dim, harmonic_core.analyze(grid, r.values, args.modes))
        rep.check(abs(value - own) <= 1e-10 * scale, f"phi at step {label}: {value!r} vs {own!r}")
        rep.check(value <= 1e-12 * scale, f"phi at step {label} is positive: {value!r}")
        return r, value

    for _ in range(args.passes):
        first = project(start, "start")
        if first is None:
            for k in range(LADDER_STEPS):
                rep.ops.append({"op": "project", "step": k, "ok": False, "s": 0.0,
                                "error": "no admissible start point"})
            continue
        r0, phi0 = first
        grad = variational.phi_gradient(r0)
        for k in range(LADDER_STEPS):
            step = project(r0.values - eta0 * 2.0**k * grad, k)
            # a projected step on a concave functional never raises it
            if step is not None:
                rep.check(step[1] <= phi0 + 1e-9 * scale,
                          f"phi rose along the step ladder at k={k}: {step[1]!r} > {phi0!r}")


def cmd_cli(argv: list[str], rep: Report) -> None:
    """One `orbiform` invocation, in process; stdout and stderr are captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an uncaught error ends `python3 -m orbiform` with 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 1
    rep.ops.append({"op": argv[0], "ok": rc == 0, "rc": rc,
                    "s": time.perf_counter() - t0, "error": err.getvalue()})


def parse(argv):
    p = argparse.ArgumentParser(prog="worker.py")
    sub = p.add_subparsers(dest="cmd", required=True)
    t = sub.add_parser("transform")
    r = sub.add_parser("reuse")
    for q in (t, r):
        q.add_argument("--dim", type=int, required=True)
        q.add_argument("--grid", type=int, required=True)
        q.add_argument("--file", required=True)
        q.add_argument("--trace", action="store_true")
    r.add_argument("--modes", type=int, required=True)
    r.add_argument("--width", type=float, required=True)
    r.add_argument("--passes", type=int, required=True, help="walk the ladder this many times")
    return p.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["cli"]:
        tracer = Tracer()
        tracer.instrument()
        rep = Report(tracer)
        cmd_cli(argv[1:], rep)
    else:
        args = parse(argv)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.instrument()
        rep = Report(tracer)
        {"transform": cmd_transform, "reuse": cmd_reuse}[args.cmd](args, rep)
    rep.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
