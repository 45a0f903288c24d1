"""Sweep the homotopy certification over a range of commutator sizes.

For each delta on the grid, certify the two-stage path with the stored
coefficient vectors and record whether it passes, the worst mesh bound, the
mesh size and the step sums.  No LP is solved and no scipy is imported: on a
2-CPU machine the first delta takes about 0.2 s, as it also samples the fine
grid and builds the trig tables, and each later one about 0.15 s.  A range
that is not finite and nonnegative, or fewer than one point, is refused
before anything is written.

    python scripts/certification_sweep.py --to 0.21 --points 9 --out sweep.csv
"""

import argparse
import csv
import sys

import numpy as np

from acbott.bounds import certify_log_path, require_delta
from acbott.errors import CertificationFailed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--from", dest="lo", type=float, default=0.0)
    ap.add_argument("--to", dest="hi", type=float, default=0.21)
    ap.add_argument("--points", type=int, default=8)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)
    # checked before the output opens, so a rejected range writes nothing
    try:
        require_delta(args.lo)
        require_delta(args.hi)
    except ValueError as exc:
        ap.error(str(exc))
    if args.points < 1:
        ap.error(f"--points must be at least 1, got {args.points}")

    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(fh)
    writer.writerow(["delta", "passed", "max_bound", "mesh_points",
                     "step_sum_1", "step_sum_2"])
    for d in np.linspace(args.lo, args.hi, args.points):
        d = float(d)
        try:
            report = certify_log_path(d)
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
