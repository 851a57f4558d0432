#!/usr/bin/env python3
"""Exploratory minimization of the volume-difference form on the 2-sphere.

Runs the same restarted projected-gradient engine in dimension 3. Results
are candidates only: admissibility of the curvature-sum deviation does not
by itself certify a convex body, so every result carries
equivalence_warning=True and no area/volume claim is printed.
"""

import argparse
import sys

from orbiform.harmonic_core import make_grid
from orbiform.shapeio import write_text_atomic
from orbiform.spheroform3d import explore_minimize3d
from orbiform.variational import MinimizeConfig, bang_bang_report, result_to_json


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--res", type=int, default=32, help="polar grid resolution")
    ap.add_argument("--modes", type=int, default=15, help="analysis band limit")
    ap.add_argument("--restarts", type=int, default=4)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--width", type=float, default=1.0)
    ap.add_argument("--out", help="write the result as JSON")
    args = ap.parse_args(argv)

    grid = make_grid(3, args.res)
    cfg = MinimizeConfig(restarts=args.restarts)
    res = explore_minimize3d(args.width, grid, args.modes, args.seed, cfg)
    report = bang_bang_report(res.minimizer, epsilon=1e-3)

    print(f"phi               : {res.phi_value!r}")
    print(f"iterations        : {res.iterations} (restart {res.restart_index})")
    print(f"bang-bang         : violation={report.violation:.3e} "
          f"sign_consistency={report.sign_consistency:.6f}")
    print("note              : exploratory candidate, no body certificate")

    if args.out:
        write_text_atomic(args.out, result_to_json(res))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
