"""Tabulate the commutator-bound curves on a delta grid.

Writes one CSV with the eta envelopes, beta, and both gap guarantees so the
curves can be plotted side by side.  The gap columns go empty once delta
leaves the region where the corresponding guarantee holds.

    python scripts/bound_curves.py --to 0.25 --points 251 --out curves.csv
"""

import argparse
import csv
import sys

import numpy as np

from acbott.bounds import (
    beta,
    beta_root,
    coarse_gap,
    eta_envelope_f,
    eta_envelope_h,
    guaranteed_gap,
)
from acbott.errors import NoGuarantee


def gap_cell(gap, delta) -> str:
    """A gap guarantee at delta as a CSV cell, empty where it does not hold."""
    try:
        return f"{gap(delta):.9g}"
    except NoGuarantee:
        return ""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--from", dest="lo", type=float, default=0.0)
    ap.add_argument("--to", dest="hi", type=float, default=0.25)
    ap.add_argument("--points", type=int, default=251)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    env_f = eta_envelope_f()
    env_h = eta_envelope_h()
    root = beta_root()

    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(fh)
    writer.writerow(["delta", "eta_f", "eta_h", "beta", "gap_guaranteed", "gap_coarse"])
    for d in np.linspace(args.lo, args.hi, args.points):
        d = float(d)
        writer.writerow([
            f"{d:.9g}",
            f"{env_f(d):.9g}",
            f"{env_h(d):.9g}",
            f"{beta(d):.9g}",
            gap_cell(guaranteed_gap, d),
            gap_cell(coarse_gap, d),
        ])
    if args.out:
        fh.close()
        print(f"wrote {args.out}  (beta root at delta = {root:.9g})")


if __name__ == "__main__":
    main()
