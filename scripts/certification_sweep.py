"""Sweep the homotopy certification over a range of commutator sizes.

For each delta on the grid, run the two-stage path certification and record
whether it passes, the worst mesh bound, and the refined mesh size.  The
default settings use a reduced search budget so a full sweep finishes in
minutes; pass --production for the full-accuracy configuration (11-22 s
per delta on a 2-CPU machine, depending on its load; delta 0.125 itself
reads the stored certificate and takes about 1 s).

    python scripts/certification_sweep.py --to 0.21 --points 9 --out sweep.csv
"""

import argparse
import csv
import sys

import numpy as np

from acbott.bounds import certify_log_path
from acbott.config import CertifyConfig, DEFAULT_CERTIFY
from acbott.errors import CertificationFailed

CHEAP = CertifyConfig(mesh_per_stage=9, max_degree=16, fine_grid=2**13, coarse_points=96)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--from", dest="lo", type=float, default=0.0)
    ap.add_argument("--to", dest="hi", type=float, default=0.21)
    ap.add_argument("--points", type=int, default=8)
    ap.add_argument("--production", action="store_true",
                    help="full-accuracy configuration instead of the fast one")
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)
    config = DEFAULT_CERTIFY if args.production else CHEAP

    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(fh)
    writer.writerow(["delta", "passed", "max_bound", "mesh_points",
                     "step_sum_1", "step_sum_2"])
    for d in np.linspace(args.lo, args.hi, args.points):
        d = float(d)
        try:
            report = certify_log_path(d, config=config)
        except CertificationFailed as exc:
            report = exc.report
        writer.writerow([
            f"{d:.9g}",
            int(report.passed),
            f"{report.max_bound:.6f}",
            len(report.stage1_t),
            f"{report.step_sums[0]:.4f}",
            f"{report.step_sums[1]:.4f}",
        ])
        fh.flush()
    if args.out:
        fh.close()
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
