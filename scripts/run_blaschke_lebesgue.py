#!/usr/bin/env python3
"""Planar minimality experiment at full scale.

Runs the restarted projected-gradient minimizer for the area functional over
constant-width bodies, prints a per-restart table, and compares the winning
area against the Reuleaux triangle value (pi - sqrt(3))/2 * B^2.
"""

import argparse
import sys

import numpy as np

from orbiform.harmonic_core import make_grid
from orbiform.shapeio import write_text_atomic
from orbiform.variational import (
    MinimizeConfig,
    bang_bang_report,
    minimize_restarts,
    result_to_json,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=512, help="nodes on the circle")
    ap.add_argument("--modes", type=int, default=128, help="analysis band limit")
    ap.add_argument("--restarts", type=int, default=16)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--width", type=float, default=1.0)
    ap.add_argument("--out", help="write the best result as JSON")
    args = ap.parse_args(argv)

    grid = make_grid(2, args.grid)
    cfg = MinimizeConfig(restarts=args.restarts)
    results = minimize_restarts(args.width, grid, args.modes, args.seed, cfg)

    print(f"{'restart':>7} {'phi':>22} {'iterations':>10} {'converged':>9}")
    for r in results:
        print(f"{r.restart_index:>7} {r.phi_value:>22.15f} {r.iterations:>10} {str(r.converged):>9}")

    best = min(results, key=lambda r: r.phi_value)
    benchmark = float(0.5 * (np.pi - np.sqrt(3.0)) * args.width**2)
    report = bang_bang_report(best.minimizer, epsilon=1e-3)
    print()
    print(f"best restart      : {best.restart_index}")
    print(f"area              : {best.area!r}")
    print(f"triangle benchmark: {benchmark!r}")
    print(f"relative excess   : {(best.area - benchmark) / benchmark:.3e}")
    print(f"bang-bang         : violation={report.violation:.3e} "
          f"sign_consistency={report.sign_consistency:.6f}")

    if args.out:
        write_text_atomic(args.out, result_to_json(best))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
