"""Measured versus guaranteed spectral gaps across the cyclic-shift family.

For each matrix size the script records the commutator size, the measured
gap of the index matrix, both gap guarantees, and the certified indices.
With --doubled it uses the self-dual doubling instead, adding the sign
index column.

    python scripts/gap_profile.py --n-max 64 --out gaps.csv
    python scripts/gap_profile.py --doubled --n-max 64 --out gaps_doubled.csv
"""

import argparse
import csv
import sys

from acbott.analysis import analyze
from acbott.bounds import coarse_gap
from acbott.errors import NoGuarantee
from acbott.generators import cyclic_shift_pair, selfdual_doubling


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-min", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=64)
    ap.add_argument("--doubled", action="store_true")
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(fh)
    header = ["n", "delta", "gap_measured", "gap_guaranteed", "gap_coarse"]
    header += ["kappa2"] if args.doubled else ["omega", "kappa"]
    writer.writerow(header)
    for n in range(args.n_min, args.n_max + 1):
        pair = cyclic_shift_pair(n)
        if args.doubled:
            report = analyze(selfdual_doubling(pair))
            indices = [report.kappa2]
        else:
            report = analyze(pair)
            indices = [report.omega, report.kappa]
        if not report.kappa_certified:
            indices[-1] = ""  # blank where the report carries no certificate
        guar = report.gap_guaranteed
        try:
            coarse = f"{coarse_gap(pair.delta):.9g}"
        except NoGuarantee:
            coarse = ""
        writer.writerow(
            [
                n,
                f"{pair.delta:.9g}",
                f"{report.gap_measured:.9g}",
                "" if guar is None else f"{guar:.9g}",
                coarse,
            ]
            + indices
        )
    if args.out:
        fh.close()
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
