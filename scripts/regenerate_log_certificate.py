"""Regenerate the stored delta = 1/8 log-path certificate.

Runs the default certification at delta = LOG_THRESHOLD = 1/8 with the store
bypassed, so every eta is searched by LP, and writes the winning coefficient
vector of each search as exact float literals to
``src/acbott/log_certificate.py`` (or to --out), together with delta and the
three CertifyConfig fields the search depends on (max_degree, fine_grid,
coarse_points).  The search makes 108 LPs, about 22 s on a 2-CPU machine.
Run it after any change to the search: the test suite requires the committed
module to equal this script's output byte for byte.

    PYTHONPATH=src python scripts/regenerate_log_certificate.py
"""

import argparse
from pathlib import Path

from acbott import bounds
from acbott.config import DEFAULT_CERTIFY, LOG_THRESHOLD

MODULE = Path(bounds.__file__).with_name("log_certificate.py")

HEADER = '''"""Stored approximants of the delta = 1/8 log-path certificate.

Generated by scripts/regenerate_log_certificate.py; do not edit.

Each entry is the winning coefficient vector of one eta search of the default
certification at DELTA, under the CertifyConfig fields below: stage 1's h,
h^2 and f h (keys "h1", "h1sq", "q1"), and stage 2's h_t, h_t^2 and f_t h_t
at each mesh point t (keys (t, "h"), (t, "hsq"), (t, "q")).  Even functions
list cosine coefficients c_0..c_MAX_DEGREE, odd ones sine coefficients
c_1..c_MAX_DEGREE.  ``certify_log_path`` certifies every vector it uses with
one transform, so an entry carries no trust of its own: a wrong one gives a
looser bound, never a false one.
"""
'''


def search():
    """The default certification at 1/8 with every eta searched.

    Returns the report and the map of winning coefficient vectors.
    """
    return bounds._certify(LOG_THRESHOLD, None, DEFAULT_CERTIFY, {})


def render(winners) -> str:
    """The source of the stored-certificate module for these winners."""
    cfg = DEFAULT_CERTIFY
    lines = [
        HEADER,
        f"DELTA = {LOG_THRESHOLD!r}",
        f"MAX_DEGREE = {cfg.max_degree!r}",
        f"FINE_GRID = {cfg.fine_grid!r}",
        f"COARSE_POINTS = {cfg.coarse_points!r}",
        "",
        "APPROXIMANTS = {",
    ]
    for key, coeffs in winners.items():
        lines.append(f"    {key!r}: (")
        values = [repr(float(c)) for c in coeffs]
        for i in range(0, len(values), 3):
            lines.append("        " + ", ".join(values[i : i + 3]) + ",")
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write(winners, path) -> None:
    Path(path).write_text(render(winners))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(MODULE), help="module path to write")
    args = ap.parse_args(argv)
    report, winners = search()
    write(winners, args.out)
    print(
        f"wrote {args.out}: {len(winners)} vectors, {report.lp_solves} LPs, "
        f"max_bound={report.max_bound!r}"
    )


if __name__ == "__main__":
    main()
