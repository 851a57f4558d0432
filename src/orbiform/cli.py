"""Command-line interface.

Subcommands: reuleaux (closed-form polygons, optional shape JSON and SVG),
optimize (multi-restart functional minimization), validate (invariant checks
on a shape or result file), table (closed-form area table as CSV).

Parsing, --help and usage errors use the standard library only: flag ranges
are argparse types, optimize checks that --grid carries --modes before it
imports anything (reuleaux.support_values checks --modes against --sides), and
each subcommand imports the modules it runs when it runs. reuleaux, table and
validate of a dim-2 file with switches (what reuleaux --out writes, and
optimize --out when its polish converged) compute with math alone and load
no numpy; optimize and the other validate paths do.

reuleaux holds its highest degree, the largest odd multiple of --sides up to
--modes, to the writer's limit (shapeio.MAX_DEGREE_2D) whether or not it
writes --out. It prints the closed-form area and the "quadrature area", the
trapezoid rule on 2L + 2 nodes for band limit L, which integrates p R exactly
and so is the Parseval sum (1/2) sum (1 - k^2) c_k^2 of the support
coefficients (body2d._area_parseval). Two gates exit 4: that area against the
closed form at 2e-4 B^2, and the band-free area of the switch angles, pi B^2 /
4 + phi / 2 (switches.switch_phi), at n eps B^2 for n sides. Both areas print
as repr. Each step costs time linear in what it reads or writes: the support
values, the Parseval sum and the shape file's text in the band limit (the sum
and the writer skip the zeros, and shapeio writes the text without json), phi
and the SVG, the polygon's n arcs drawn exactly (render_svg), in the side
count.

validate prints body2d.validate's report of every file, shape or result (a
ShapeFile whose phi shapeio.loads_shape has set, as optimize --out writes it),
in dim 2 or 3. A dim-2 body whose curvature radius overflows a double fails
convexity and curvature-bound, and a dim-3 deviation whose samples overflow
reads box-bound inf.

table --max is at most TABLE_MAX_SIDES = 99999, past which consecutive
closed-form areas can round to the same double and fail the cross-check.

optimize holds --modes to the degree limit of the result file it may write
(shapeio.MAX_DEGREE_2D or MAX_DEGREE_3D), so validate accepts what --out
writes. It prints one line per restart (phi, iterations, converged, projection
work: projections, newton_steps, max_newton_steps, line_searches), in dim 2
or 3, then reports the restart that variational.best_restart picks. In dim 2
it prints that restart's grid area (before the polish; pi B^2 / 4 + phi / 2 of
the printed phi), then the certificate of its switch polish (polish_switches):
the switch count, Newton steps, closure over B and max |pbar + l| over B at
the switches, and the polished area, or why it declined. --out writes the
restart as result JSON, with the polished body when there is one.

Exit codes: 0 success, 1 invariant failure, 2 usage, malformed input (a file
that is not UTF-8 too) or an output path that cannot be written, 3 numerical
failure, 4 regression (an internal cross-check went wrong),
141 stdout closed before the output was written (a reader such as head
exited; no traceback).
All file output is written to a temp file and renamed into place, so failures
leave no partial files, with the mode open() gives a new file; it is written
before the first stdout line, so a closed stdout stops no file. Identical flags
and seed produce identical bytes; --timestamp opts into a nondeterministic
field.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

__all__ = ["main", "entrypoint", "render_svg"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_REGRESSION = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that a closed pipe ended

TRIANGLE_AREA = 0.5 * (math.pi - math.sqrt(3.0))  # width-1 benchmark
# accepted --width range: the problem is scale-free (B only scales the answer);
# every subcommand succeeds across it, while B**2 overflows past about 1e154
# and the area and degree-1 checks fail from about 1e153 and 1e-160 on
WIDTH_RANGE = (1e-100, 1e100)
# largest table --max: from n = 184,519 on (199,053 at width 1) consecutive
# closed-form areas round to the same double, which the cross-check refuses;
# every table up to here is strictly increasing at widths across WIDTH_RANGE
TABLE_MAX_SIDES = 99999


def render_svg(spec) -> str:
    """Draw the Reuleaux polygon of spec (a reuleaux.ReuleauxSpec) exactly: one
    closed path of n arcs of radius B in a 512 x 512 viewBox, 5% margin, from
    corner v_k = rho (cos 2 pi k / n, sin 2 pi k / n), rho = B / (2 cos alpha),
    to v_(k+1), each centred on the opposite corner. The body spans B in every
    direction and is symmetric about the x axis: its box is [rho - B, rho] x
    [-B/2, B/2]. Taken in units of B, the drawing depends neither on the width
    nor on --modes; math only, O(n)."""
    n = spec.sides
    rho = 0.5 / math.cos(spec.switch_angle)  # over B
    margin = 0.05 * 512
    scale = 512 - 2 * margin  # pixels per B
    # svg y axis points down; flip so the figure is not mirrored
    corners = [f"{margin + (1.0 - rho + rho * math.cos(t)) * scale:.3f} "
               f"{512 - margin - (0.5 + rho * math.sin(t)) * scale:.3f}"
               for t in (2.0 * math.pi * k / n for k in range(n))]
    # sweep flag 0: after the flip, each arc turns about the opposite corner
    arcs = " ".join(f"A {scale:.3f} {scale:.3f} 0 0 0 {v}" for v in corners[1:] + corners[:1])
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 512 512">\n'
        f'  <path d="M {corners[0]} {arcs} Z" fill="none" stroke="black" stroke-width="1.5"/>\n'
        "</svg>\n"
    )


def _width(text: str) -> float:
    """argparse type of --width: a finite number > 0 inside WIDTH_RANGE."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    lo, hi = WIDTH_RANGE
    if not lo <= value <= hi:
        within = f", within {lo:g} to {hi:g}" if 0.0 < value < math.inf else ""
        raise argparse.ArgumentTypeError(f"must be finite and > 0{within}, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of --convexity-tol: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _count(low: int, parity: str = "", high: float = math.inf):
    """argparse type of an integer flag from low to high, and "odd" or "even" if asked."""
    within = f">= {low}" if high == math.inf else f"from {low} to {high}"
    want = f"an {parity + ' ' if parity else ''}integer {within}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1  # out of range, so refused below
        if not low <= value <= high or parity not in ("", ("even", "odd")[value % 2]):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbiform",
        description="constant-width bodies: Reuleaux polygons and functional minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    width_help = "width B, {:g} to {:g} (the problem is scale-free)".format(*WIDTH_RANGE)

    p_r = sub.add_parser("reuleaux", help="closed-form Reuleaux polygon")
    p_r.add_argument("--sides", type=_count(3, "odd"), required=True, help="odd side count >= 3")
    p_r.add_argument("--width", type=_width, default=1.0, help=width_help)
    p_r.add_argument("--modes", type=int, default=512, help="spectral band limit")
    p_r.add_argument("--out", type=str, default=None, help="shape JSON path")
    p_r.add_argument("--svg", type=str, default=None, help="SVG rendering path")
    p_r.set_defaults(run=_cmd_reuleaux)

    p_o = sub.add_parser("optimize", help="minimize the area functional")
    p_o.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p_o.add_argument("--width", type=_width, default=1.0, help=width_help)
    p_o.add_argument("--grid", type=_count(8, "even"), default=None, help="grid resolution")
    p_o.add_argument("--modes", type=_count(3), default=None, help="spectral band limit")
    p_o.add_argument("--restarts", type=_count(1), default=16)
    p_o.add_argument("--seed", type=_count(0), default=0)
    p_o.add_argument("--out", type=str, default=None, help="result JSON path")
    p_o.add_argument("--timestamp", action="store_true", help="stamp the result JSON")
    p_o.set_defaults(run=_cmd_optimize)

    p_v = sub.add_parser("validate", help="check invariants of a shape file")
    p_v.add_argument("file", type=str)
    p_v.add_argument(
        "--convexity-tol", type=_tolerance, default=None,
        help="absolute tolerance, in units of length, on the sampled R < 0 and "
        "R > width of a dim-2 shape file without switches (default 1e-9 * width); "
        "files with switches, as reuleaux --out writes, are checked in closed form",
    )
    p_v.set_defaults(run=_cmd_validate)

    p_t = sub.add_parser("table", help="closed-form area table as CSV")
    p_t.add_argument("--max", type=_count(3, high=TABLE_MAX_SIDES), default=21,
                     help="largest side count")
    p_t.add_argument("--width", type=_width, default=1.0, help=width_help)
    p_t.add_argument("--out", type=str, default=None, help="CSV path")
    p_t.set_defaults(run=_cmd_table)
    return parser


def _finish(lines: list[str], files=(), code: int = EXIT_OK) -> int:
    """Write each (path, text) of files whose path is set, atomically and in
    order, then print lines and a "wrote" line per file written, and return
    code: no file waits on stdout, so a reader that went away stops none. At
    the first path that cannot be written, EXIT_USAGE, with an error line and
    no file of that path left behind."""
    from . import shapeio

    for path, text in files:
        if path:
            try:
                shapeio.write_text_atomic(path, text)
            except OSError as exc:
                print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
                code = EXIT_USAGE
                break
            lines.append(f"wrote {path}")
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    return code


def _cmd_reuleaux(args) -> int:
    from . import body2d, reuleaux, shapeio, switches

    spec = reuleaux.ReuleauxSpec(args.sides, args.width)
    try:
        # the highest degree the body has, its largest odd multiple of --sides,
        # is held to the writer's limit with or without --out
        shapeio._check_max_degree(2, args.sides * (2 * ((args.modes // args.sides + 1) // 2) - 1))
        values = reuleaux.support_values(spec, args.modes)
        # refused here, before any output, if validate would refuse the file
        shape = shapeio.dumps_shape(2, args.width, values, spec.switches) if args.out else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    B2 = args.width**2
    exact = reuleaux.closed_area(spec)
    quad = body2d._area_parseval(values)  # the trapezoid sum on 2L + 2 nodes
    lines = [f"sides={args.sides} width={args.width!r}", f"closed-form area: {exact!r}",
             f"quadrature area:  {quad!r}"]
    # the band-free area of the switches, pi B^2 / 4 + phi / 2: phi sums O(n)
    # terms, each of which may carry a rounding error of B^2 eps (at most
    # 0.23 n eps B^2 measured, every odd n to 1365 at 29 widths)
    switch_area = 0.25 * math.pi * B2 + 0.5 * switches.switch_phi(spec.switches, args.width)
    if abs(quad - exact) > 2e-4 * B2:
        error = "quadrature area disagrees with the closed form"
    elif abs(switch_area - exact) > args.sides * sys.float_info.epsilon * B2:
        error = "the area of the switch angles disagrees with the closed form"
    else:
        return _finish(lines, [(args.out, shape), (args.svg, args.svg and render_svg(spec))])
    print(f"error: {error}", file=sys.stderr)
    return _finish(lines, code=EXIT_REGRESSION)


def _cmd_optimize(args) -> int:
    resolution = args.grid if args.grid is not None else (512 if args.dim == 2 else 32)
    band = resolution // 2 - 1  # the band limit that resolution transforms exactly
    modes = args.modes if args.modes is not None else band
    if modes > band:
        print(f"error: --modes {modes} needs --grid >= {2 * modes + 2}, got {resolution}",
              file=sys.stderr)
        return EXIT_USAGE
    from . import shapeio

    # the degree limit of the result file, held with or without --out
    limit = shapeio.MAX_DEGREE_2D if args.dim == 2 else shapeio.MAX_DEGREE_3D
    if modes > limit:
        print(f"error: --modes {modes} is above the dim-{args.dim} degree limit of {limit}",
              file=sys.stderr)
        return EXIT_USAGE
    from datetime import datetime, timezone

    from . import variational
    from .harmonic_core import make_grid

    try:
        grid = make_grid(args.dim, resolution)
        results = variational.minimize_restarts(args.width, grid, modes, args.seed, args.restarts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except variational.NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    lines = [
        f"restart {r.restart_index}: phi={r.phi_value!r} iterations={r.iterations} "
        f"converged={r.converged} projections={r.projections} "
        f"newton_steps={r.newton_steps} max_newton_steps={r.max_newton_steps} "
        f"line_searches={r.line_searches}"
        for r in results
    ]
    result = variational.best_restart(results)
    lines += [
        f"phi={result.phi_value!r} iterations={result.iterations} "
        f"restart={result.restart_index} converged={result.converged}",
        f"bang-bang violation={result.bang_bang.violation:.6f} "
        f"sign consistency={result.bang_bang.sign_consistency:.6f}",
    ]
    if args.dim == 2:
        bench = TRIANGLE_AREA * args.width**2
        excess = (result.area - bench) / bench
        lines += [f"grid area={result.area!r}",
                  f"benchmark (odd 3-gon, same width): {bench!r}  grid excess={100 * excess:.4f}%"]
        polish = result.polish
        if polish.declined is None:
            excess = (polish.area - bench) / bench
            lines += [f"switch polish: switches={len(polish.switches)} newton_steps={polish.steps} "
                      f"closure/B={polish.closure:.3e} max|pbar+l|/B={polish.stationarity:.3e}",
                      f"polished area={polish.area!r}  excess={100 * excess:.4e}%"]
        else:
            lines.append(f"switch polish declined after {polish.steps} Newton steps: "
                         f"{polish.declined}")
    else:
        lines.append("note: dim-3 result is a candidate; surface-area/volume equivalence "
                     "assumes the deviation is realizable by a convex body")

    stamp = datetime.now(timezone.utc).isoformat() if args.timestamp else None
    try:
        text = variational.result_to_json(result, stamp) if args.out else None
    except shapeio.ShapeFormatError as exc:  # a NaN or infinity, which validate refuses
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _finish(lines, code=EXIT_NUMERICAL)
    return _finish(lines, [(args.out, text)])


def _cmd_validate(args) -> int:
    from . import body2d, shapeio

    try:
        with open(args.file, encoding="utf-8") as fh:  # JSON's encoding, not the locale's
            parsed = shapeio.loads_shape(fh.read())
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (shapeio.ShapeFormatError, UnicodeDecodeError) as exc:
        print(f"malformed shape file: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = body2d.validate(parsed, convexity_tol=args.convexity_tol)
    print(report.summary())
    return EXIT_OK if report.valid else EXIT_INVARIANT


def _cmd_table(args) -> int:
    from . import reuleaux

    rows = reuleaux.area_table(args.max, args.width)
    areas = [a for _, a in rows]
    limit = math.pi * args.width**2 / 4.0
    if any(b <= a for a, b in zip(areas, areas[1:])) or any(a >= limit for a in areas):
        print("error: area table failed its monotonicity cross-check", file=sys.stderr)
        return EXIT_REGRESSION
    csv = reuleaux.format_area_table_csv(rows)
    if args.out:
        return _finish([], [(args.out, csv)])
    sys.stdout.write(csv)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.run(args)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here at the latest, not at exit
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that Python's own
        # flush at exit finds nothing to write (recipe of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)
