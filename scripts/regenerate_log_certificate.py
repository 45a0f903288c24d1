"""Regenerate the stored delta = 1/8 log-path certificate.

Searches the coefficient vector of every eta of the log-path certification at
delta = LOG_THRESHOLD = 1/8 on the 17-point Chebyshev-Lobatto mesh, and writes
the winners as exact float literals to ``src/acbott/log_certificate.py`` (or
to --out).  Each search minimizes delta * m + diam by LP on a cosine-clustered
coarse set, then re-solves once with up to 64 fine-grid residual extrema
adjoined (one exchange step) and keeps the vector that certifies the smaller
eta.  The search is the coefficient source of the library's own
``bounds._certify``, so every candidate is certified by the code that
certifies the store.  The search makes 108 LPs, about 15 s on a 2-CPU
machine.  Run it after any change to the search or to the certification: the
test suite requires the committed module to equal this script's output byte
for byte.

    PYTHONPATH=src python scripts/regenerate_log_certificate.py
"""

import argparse
from pathlib import Path

import numpy as np

from acbott import bounds
from acbott.bott import eval_f, eval_h
from acbott.config import FINE_GRID, LOG_THRESHOLD
from acbott.errors import NumericalInconsistency

MODULE = Path(bounds.__file__).with_name("log_certificate.py")

# Chebyshev-Lobatto points (1 - cos(pi k / 16)) / 2 on [0, 1], clustered at
# both ends; they meet the step rule where a uniform mesh needs 65
MESH = (1 - np.cos(np.pi * np.linspace(0.0, 1.0, 17))) / 2
MAX_DEGREE = 48  # degree cap of the searched approximants
COARSE_POINTS = 512  # size of the first LP's cosine-clustered support

HEADER = '''"""Stored approximants of the log-path certificate.

Generated by scripts/regenerate_log_certificate.py; do not edit.

Each entry is the winning coefficient vector of one eta search at DELTA on
the 17-point Chebyshev-Lobatto mesh, under the search sizes below: stage 1's
h, h^2 and f h (keys "h1", "h1sq", "q1"), and stage 2's h_t, h_t^2 and
f_t h_t at each mesh point t (keys (t, "h"), (t, "hsq"), (t, "q")).  Even
functions list cosine coefficients c_0..c_MAX_DEGREE, odd ones sine
coefficients c_1..c_MAX_DEGREE.  ``certify_log_path`` certifies these vectors
at every delta, each with one transform, and a mesh point off this mesh takes
the vectors of its nearest point here.  An entry carries no trust of its
own: a wrong one gives a looser bound, never a false one.
"""
'''


def _path_function(key):
    """The function the eta of this store key approximates."""
    if key == "h1":
        return eval_h
    if key == "h1sq":
        return lambda u: eval_h(u) ** 2
    if key == "q1":
        return lambda u: eval_f(u) * eval_h(u)
    t, name = key

    def f_fn(u):
        return (1 - t) * bounds._clamped_f(u) + t * u / np.pi

    def h_fn(u):
        return np.sqrt(np.maximum(1 - f_fn(u) ** 2, 0.0))

    if name == "h":
        return h_fn
    if name == "hsq":
        return lambda u: 1 - f_fn(u) ** 2
    return lambda u: f_fn(u) * h_fn(u)


def _lp_line(vals, xs, parity):
    """Best (m, diam) line at LOG_THRESHOLD: minimize delta * m + diam by LP.

    Variables are the half-range basis coefficients (cos k x for
    k = 0..MAX_DEGREE, or sin k x for k = 1..MAX_DEGREE), their
    absolute-value majorants, and the residual's upper/lower envelope levels.
    """
    ks = np.arange(0 if parity == "even" else 1, MAX_DEGREE + 1)
    basis = (np.cos if parity == "even" else np.sin)(np.outer(xs, ks))
    nc = len(ks)
    npt = len(xs)
    cost = np.concatenate([np.zeros(nc), LOG_THRESHOLD * ks, [1.0, -1.0]])
    A = np.vstack(
        [
            np.hstack([-basis, np.zeros((npt, nc)), -np.ones((npt, 1)), np.zeros((npt, 1))]),
            np.hstack([basis, np.zeros((npt, nc)), np.zeros((npt, 1)), np.ones((npt, 1))]),
            np.hstack([np.eye(nc), -np.eye(nc), np.zeros((nc, 2))]),
            np.hstack([-np.eye(nc), -np.eye(nc), np.zeros((nc, 2))]),
        ]
    )
    rhs = np.concatenate([-vals, vals, np.zeros(2 * nc)])
    var_bounds = [(None, None)] * nc + [(0, None)] * nc + [(None, None)] * 2
    res = bounds.linprog(cost, A_ub=A, b_ub=rhs, bounds=var_bounds, method="highs")
    if not res.success:
        raise NumericalInconsistency(f"approximant LP failed: {res.message}")
    return res.x[:nc]


def _search_eta(fn, parity, certified, fine_x):
    """The winning coefficient vector of one eta and the LPs it took.

    The extrema of the first residual are found in one scratch array, and
    the fine arrays are dropped before the second LP.
    """
    theta = np.linspace(0.0, np.pi, COARSE_POINTS)
    xs = (np.pi / 2) * (1 - np.cos(theta))
    coeffs = _lp_line(np.asarray(fn(xs), dtype=float), xs, parity)
    best, resid = certified(coeffs)
    # interior extrema: consecutive differences of opposite sign
    turn = np.subtract(resid[1:], resid[:-1])
    np.sign(turn, out=turn)
    np.multiply(turn[:-1], turn[1:], out=turn[:-1])
    ex = np.flatnonzero(turn[:-1] < 0) + 1
    if len(ex) == 0:
        return coeffs, 1
    mid = (resid.max() + resid.min()) / 2
    take = ex[np.argsort(-np.abs(resid[ex] - mid))[:64]]
    del resid, turn
    xs = np.unique(np.concatenate([xs, fine_x[take], [0.0, np.pi]]))
    second = _lp_line(np.asarray(fn(xs), dtype=float), xs, parity)
    if certified(second)[0] < best:
        return second, 2
    return coeffs, 2


def search():
    """The certification at 1/8 with every eta searched.

    Returns the report, the map of winning coefficient vectors and the
    number of LPs solved.
    """
    fine_x = np.linspace(0.0, np.pi, FINE_GRID + 1)
    winners = {}
    lps = 0

    def approximant(key, parity, certified):
        nonlocal lps
        winners[key], solved = _search_eta(
            _path_function(key), parity, certified, fine_x
        )
        lps += solved
        return winners[key]

    report = bounds._certify(LOG_THRESHOLD, MESH, FINE_GRID, approximant)
    return report, winners, lps


def render(winners) -> str:
    """The source of the stored-certificate module for these winners."""
    lines = [
        HEADER,
        f"DELTA = {LOG_THRESHOLD!r}",
        f"MAX_DEGREE = {MAX_DEGREE!r}",
        f"FINE_GRID = {FINE_GRID!r}",
        f"COARSE_POINTS = {COARSE_POINTS!r}",
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
    report, winners, lps = search()
    write(winners, args.out)
    print(
        f"wrote {args.out}: {len(winners)} vectors, {lps} LPs, "
        f"max_bound={report.max_bound!r}"
    )


if __name__ == "__main__":
    main()
