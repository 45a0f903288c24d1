"""Command line front end.

Subcommands: index (all indices of a stored pair), generate (write example
pairs), bounds (CSV curves), certify-log (homotopy certification on the
stored mesh), fourier (the stored coefficient table).  Each answer has one
route: other meshes are the library's ``certify_log_path``, and the table is
printed, not integrated.  Exit codes: 0 success, 2 when results were
produced but something is uncertified (threshold overrun or failed
certification), 1 on hard errors and usage errors.  Nearly unitary input
takes --polar.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import IndexReport, analyze
from .bott import F_AMPLITUDES, standard_triple
from .bounds import (
    beta,
    certify_log_path,
    coarse_gap,
    eta_envelope_f,
    eta_envelope_h,
    guaranteed_gap,
    require_delta,
)
from .errors import (
    AlmostCommutingError,
    CertificationFailed,
    NoGuarantee,
    NumericalInconsistency,
)
from .generators import KINDS, PairSpec, build_pair
from .linalg import make_pair, unitary_part
from .matrixio import (
    read_matrix,
    read_selfdual_header,
    write_matrix,
    write_selfdual_header,
)
from .selfdual import SelfDualPair, make_selfdual_pair
from .winding import winding_number  # noqa: F401  (perfbench tests reach it here)


def _emit_report(report: IndexReport, fmt: str, out=None):
    # bind the stream at call time so redirection works
    if out is None:
        out = sys.stdout
    if fmt == "text":
        print(f"dim = {report.dim}", file=out)
        print(f"delta = {report.delta:.9g}", file=out)
        if report.omega is not None:
            print(f"omega = {report.omega}", file=out)
        if report.kappa is not None:
            tag = "certified" if report.kappa_certified else "NOT certified"
            print(f"kappa = {report.kappa} ({tag})", file=out)
        if report.kappa2 is not None:
            tag = "certified" if report.kappa_certified else "NOT certified"
            print(f"kappa2 = {report.kappa2:+d} ({tag})", file=out)
        if report.gap_measured is not None:
            print(f"gap_measured = {report.gap_measured:.9g}", file=out)
        if report.gap_guaranteed is not None:
            print(f"gap_guaranteed = {report.gap_guaranteed:.9g}", file=out)
        if report.distance_commuting is not None:
            print(
                f"distance_to_commuting >= {report.distance_commuting:.9g}",
                file=out,
            )
    elif fmt == "kv":
        for k, v in report.items():
            print(f"{k}={v}", file=out)
    else:
        print("key,value", file=out)
        for k, v in report.items():
            print(f"{k},{v}", file=out)


def cmd_index(args) -> int:
    U = read_matrix(args.u_file)
    V = read_matrix(args.v_file)
    if args.polar:
        U = unitary_part(U)
        V = unitary_part(V)
    if args.self_dual:
        if args.header:
            n_declared = read_selfdual_header(args.header)
            if 2 * n_declared != U.shape[0]:
                raise NumericalInconsistency(
                    f"header says N = {n_declared}, matrices have dim {U.shape[0]}"
                )
        pair = make_selfdual_pair(U, V)
    else:
        pair = make_pair(U, V)

    report = analyze(pair, args.method)
    _emit_report(report, args.format)
    computed = report.kappa is not None or report.kappa2 is not None
    return 2 if computed and not report.kappa_certified else 0


def cmd_generate(args) -> int:
    spec = PairSpec(
        kind=args.kind, n=args.n, seed=args.seed, noise=args.noise, k=args.k
    )
    pair = build_pair(spec)
    if isinstance(pair, SelfDualPair):
        write_selfdual_header(f"{args.out}_N.txt", pair.N)
        print(f"wrote {args.out}_N.txt")
    write_matrix(f"{args.out}_U.txt", pair.U)
    write_matrix(f"{args.out}_V.txt", pair.V)
    print(f"wrote {args.out}_U.txt")
    print(f"wrote {args.out}_V.txt")
    print(f"delta = {pair.delta:.9g}")
    return 0


def _open_out(path):
    return open(path, "w") if path else sys.stdout


def _gap_cell(gap, delta) -> str:
    """A gap guarantee at delta as a CSV cell, empty where it does not hold."""
    try:
        return f"{gap(delta):.9g}"
    except NoGuarantee:
        return ""


def cmd_bounds(args) -> int:
    # checked before the output opens, so a rejected range writes nothing
    require_delta(args.start)
    require_delta(args.stop)
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    deltas = np.linspace(args.start, args.stop, args.points)
    out = _open_out(args.out)
    try:
        if args.curve == "beta":
            print("delta,beta,gap_guaranteed,gap_coarse", file=out)
            for d in deltas:
                cells = (
                    f"{d:.9g}",
                    f"{beta(d):.9g}",
                    _gap_cell(guaranteed_gap, d),
                    _gap_cell(coarse_gap, d),
                )
                print(",".join(cells), file=out)
        else:
            env = eta_envelope_f() if args.curve == "eta-f" else eta_envelope_h()
            heads = ",".join(f"line{i}" for i in range(len(env.lines)))
            print(f"delta,{heads},envelope", file=out)
            for d in deltas:
                vals = [line(d) for line in env.lines]
                row = ",".join(f"{v:.9g}" for v in vals)
                print(f"{d:.9g},{row},{min(vals):.9g}", file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_certify_log(args) -> int:
    verdict = "PASS"
    try:
        report = certify_log_path(args.delta)
    except CertificationFailed as exc:
        # the certification attaches its report to every failure it raises
        report, verdict = exc.report, "FAIL"
    if args.out:
        with open(args.out, "w") as fh:
            print("stage,t,bound", file=fh)
            for stage, t, v in report.rows():
                print(f"{stage},{t:.9g},{v:.9g}", file=fh)
        print(f"wrote {args.out}")
    print(
        f"{verdict} delta={args.delta:.9g} max_bound={report.max_bound:.6f} "
        f"threshold={report.threshold}"
    )
    print(
        f"step_sums stage1={report.step_sums[0]:.4f} "
        f"stage2={report.step_sums[1]:.4f}"
    )
    return 0 if verdict == "PASS" else 2


def cmd_fourier(args) -> int:
    c = standard_triple().coefficients16
    if not 0 <= args.max_n < len(c):
        raise ValueError(
            f"coefficient index capped at {len(c) - 1} and nonnegative, got {args.max_n}"
        )
    print("n,a_imag,b,c")
    for n in range(args.max_n + 1):
        amp = F_AMPLITUDES[n - 1] if 1 <= n <= len(F_AMPLITUDES) else 0.0
        a_im = -amp / 2 if amp else 0.0
        print(f"{n},{a_im:.9g},{(-1) ** n * c[n]:.9g},{c[n]:.9g}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as hard errors do: 2 means "not certified"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="acbott",
        description="Topological indices of almost-commuting unitary pairs "
        "with certified error bounds.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ix = sub.add_parser("index", help="compute indices of a stored pair")
    ix.add_argument("u_file")
    ix.add_argument("v_file")
    ix.add_argument("--method", choices=("trig", "log"), default="trig")
    ix.add_argument("--self-dual", action="store_true", dest="self_dual")
    ix.add_argument("--header", help="one-line N header file to cross-check")
    ix.add_argument("--polar", action="store_true", help="apply unitary part first")
    ix.add_argument("--format", choices=("text", "kv", "csv"), default="text")
    ix.set_defaults(func=cmd_index)

    gen = sub.add_parser("generate", help="write an example pair to files")
    gen.add_argument("--kind", choices=tuple(KINDS), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=-1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--out", required=True, help="output file prefix")
    gen.set_defaults(func=cmd_generate)

    bd = sub.add_parser("bounds", help="emit bound curves as CSV")
    bd.add_argument("--curve", choices=("beta", "eta-f", "eta-h"), required=True)
    bd.add_argument("--from", dest="start", type=float, default=0.0)
    bd.add_argument("--to", dest="stop", type=float, default=0.25)
    bd.add_argument("--points", type=int, default=101)
    bd.add_argument("--out")
    bd.set_defaults(func=cmd_bounds)

    cl = sub.add_parser("certify-log", help="certify the log-method homotopy")
    cl.add_argument("--delta", type=float, required=True)
    cl.add_argument("--out", help="CSV of per-point bound values")
    cl.set_defaults(func=cmd_certify_log)

    fr = sub.add_parser("fourier", help="coefficient table of the standard triple")
    fr.add_argument("--max-n", type=int, default=5)
    fr.set_defaults(func=cmd_fourier)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "index" and args.header and not args.self_dual:
        # the header declares a self-dual pair's N; a plain pair has none
        parser.error("--header needs --self-dual")
    try:
        return args.func(args)
    except AlmostCommutingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        # unreadable files, and arguments a library call rejects
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
