"""Command-line interface.

Subcommands: reuleaux (closed-form polygons, optional shape JSON and SVG),
optimize (multi-restart functional minimization), validate (invariant checks
on a shape file), table (closed-form area table as CSV).

Exit codes: 0 success, 1 invariant failure, 2 usage or malformed input,
3 numerical failure, 4 regression (an internal cross-check went wrong).
All file output is written to a temp file and renamed into place, so failures
leave no partial files. Identical flags and seed produce identical bytes;
--timestamp opts into a nondeterministic field.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

import numpy as np

from . import body2d, reuleaux, shapeio, spheroform3d, variational
from .harmonic_core import default_max_degree, make_grid, synthesize

__all__ = ["main", "entrypoint", "render_svg"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_REGRESSION = 4

TRIANGLE_AREA = float(0.5 * (np.pi - np.sqrt(3.0)))  # width-1 benchmark


def render_svg(body: body2d.SupportBody, samples: int = 1024) -> str:
    """Render the boundary as one closed path in a 512 x 512 viewBox, 5% margin."""
    om = 2.0 * np.pi * np.arange(samples) / samples
    x, y = body2d.boundary_point(body, om)
    xmin, xmax = float(np.min(x)), float(np.max(x))
    ymin, ymax = float(np.min(y)), float(np.max(y))
    span = max(xmax - xmin, ymax - ymin, np.finfo(float).tiny)
    margin = 0.05 * 512
    scale = (512 - 2 * margin) / span
    # svg y axis points down; flip so the figure is not mirrored
    px = margin + (x - xmin) * scale
    py = 512 - margin - (y - ymin) * scale
    steps = " L ".join(f"{a:.3f} {b:.3f}" for a, b in zip(px, py))
    path = f"M {steps} Z"
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 512 512">\n'
        f'  <path d="{path}" fill="none" stroke="black" stroke-width="1.5"/>\n'
        "</svg>\n"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbiform",
        description="constant-width bodies: Reuleaux polygons and functional minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_r = sub.add_parser("reuleaux", help="closed-form Reuleaux polygon")
    p_r.add_argument("--sides", type=int, required=True, help="odd side count >= 3")
    p_r.add_argument("--width", type=float, default=1.0)
    p_r.add_argument("--modes", type=int, default=512, help="spectral band limit")
    p_r.add_argument("--out", type=str, default=None, help="shape JSON path")
    p_r.add_argument("--svg", type=str, default=None, help="SVG rendering path")

    p_o = sub.add_parser("optimize", help="minimize the area functional")
    p_o.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p_o.add_argument("--width", type=float, default=1.0)
    p_o.add_argument("--grid", type=int, default=None, help="grid resolution")
    p_o.add_argument("--modes", type=int, default=None, help="spectral band limit")
    p_o.add_argument("--restarts", type=int, default=16)
    p_o.add_argument("--seed", type=int, default=0)
    p_o.add_argument("--max-iter", type=int, default=50000)
    p_o.add_argument("--out", type=str, default=None, help="result JSON path")
    p_o.add_argument("--timestamp", action="store_true", help="stamp the result JSON")

    p_v = sub.add_parser("validate", help="check invariants of a shape file")
    p_v.add_argument("file", type=str)
    p_v.add_argument("--convexity-tol", type=float, default=None)

    p_t = sub.add_parser("table", help="closed-form area table as CSV")
    p_t.add_argument("--max", type=int, default=21, help="largest side count")
    p_t.add_argument("--width", type=float, default=1.0)
    p_t.add_argument("--out", type=str, default=None, help="CSV path")
    return parser


def _cmd_reuleaux(args) -> int:
    if args.sides < 3 or args.sides % 2 == 0:
        print(f"error: --sides must be odd and >= 3, got {args.sides}", file=sys.stderr)
        return EXIT_USAGE
    if args.width <= 0:
        print(f"error: --width must be > 0, got {args.width}", file=sys.stderr)
        return EXIT_USAGE
    spec = reuleaux.make_spec(args.sides, args.width)
    try:
        body = reuleaux.to_body(spec, args.modes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    exact = reuleaux.closed_area(spec)
    grid = make_grid(2, 2 * args.modes + 2)
    quad = body2d.area_quadrature(body, grid)
    print(f"sides={args.sides} width={args.width!r}")
    print(f"closed-form area: {exact:.12f}")
    print(f"quadrature area:  {quad:.12f}")
    if abs(quad - exact) > 2e-4 * args.width**2:
        print("error: quadrature area disagrees with the closed form", file=sys.stderr)
        return EXIT_REGRESSION
    if args.out:
        shapeio.write_text_atomic(
            args.out, shapeio.dumps_shape(2, body.width, body.support_coeffs)
        )
        print(f"wrote {args.out}")
    if args.svg:
        shapeio.write_text_atomic(args.svg, render_svg(body))
        print(f"wrote {args.svg}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    resolution = args.grid if args.grid is not None else (512 if args.dim == 2 else 32)
    modes = args.modes if args.modes is not None else default_max_degree(resolution)
    if args.restarts < 1:
        print("error: --restarts must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        grid = make_grid(args.dim, resolution)
        cfg = variational.MinimizeConfig(restarts=args.restarts, max_iterations=args.max_iter)
        if args.dim == 2:
            result = variational.minimize(args.width, grid, modes, args.seed, cfg)
        else:
            result = spheroform3d.explore_minimize3d(args.width, grid, modes, args.seed, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except variational.NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    print(
        f"phi={result.phi_value!r} iterations={result.iterations} "
        f"restart={result.restart_index} converged={result.converged}"
    )
    print(
        f"bang-bang violation={result.bangbang_violation:.6f} "
        f"sign consistency={result.sign_consistency:.6f}"
    )
    if args.dim == 2:
        bench = TRIANGLE_AREA * args.width**2
        excess = (result.area - bench) / bench
        print(f"area={result.area!r}")
        print(f"benchmark (odd 3-gon, same width): {bench!r}  excess={100 * excess:.4f}%")
    else:
        print("note: dim-3 result is a candidate; surface-area/volume equivalence "
              "assumes the deviation is realizable by a convex body")

    stamp = datetime.now(timezone.utc).isoformat() if args.timestamp else None
    if args.out:
        shapeio.write_text_atomic(args.out, variational.result_to_json(result, stamp))
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        dim, width, coeffs = shapeio.loads_shape(text)
    except shapeio.ShapeFormatError as exc:
        print(f"malformed shape file: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if dim == 2:
        body = body2d.SupportBody(width, coeffs)
        report = body2d.validate(body, convexity_tol=args.convexity_tol)
        print(report.summary())
        return EXIT_OK if report.valid else EXIT_INVARIANT

    # dim 3: admissibility checks for a curvature-sum deviation candidate
    grid = make_grid(3, max(16, 2 * coeffs.max_degree + 2))
    vals = synthesize(coeffs, grid)
    bound = variational.box_bound(3, width)
    box_resid = max(0.0, float(np.max(np.abs(vals))) - bound)
    anti_resid = float(np.max(np.abs(vals + vals[grid.antipode_index])))
    sl = coeffs.degree_slice(1)
    deg1 = float(np.max(np.abs(coeffs.values[sl]))) if sl.stop > sl.start else 0.0
    checks = [
        ("box-bound", box_resid, 1e-12),
        ("antipodal-antisymmetry", anti_resid, 1e-12),
        ("translation-orthogonality", deg1, 1e-12 * max(coeffs.norm(), 1e-300)),
    ]
    ok = True
    for name, resid, tol in checks:
        passed = resid <= tol
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: residual={resid:.3e} tol={tol:.3e}")
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_table(args) -> int:
    if args.max < 3:
        print("error: --max must be >= 3", file=sys.stderr)
        return EXIT_USAGE
    if args.width <= 0:
        print(f"error: --width must be > 0, got {args.width}", file=sys.stderr)
        return EXIT_USAGE
    rows = reuleaux.area_table(args.max, args.width)
    areas = [a for _, a in rows]
    limit = np.pi * args.width**2 / 4.0
    if any(b <= a for a, b in zip(areas, areas[1:])) or any(a >= limit for a in areas):
        print("error: area table failed its monotonicity cross-check", file=sys.stderr)
        return EXIT_REGRESSION
    csv = reuleaux.format_area_table_csv(rows)
    if args.out:
        shapeio.write_text_atomic(args.out, csv)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {
        "reuleaux": _cmd_reuleaux,
        "optimize": _cmd_optimize,
        "validate": _cmd_validate,
        "table": _cmd_table,
    }
    return handlers[args.command](args)


def entrypoint() -> None:
    sys.exit(main())
