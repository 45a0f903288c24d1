"""One measured process of the benchmark, started fresh by run.py.

    python worker.py probe   RESULT
    python worker.py cold    RESULT REQUEST TRACE -- ARGV...
    python worker.py sweep   RESULT SEED SECONDS TRACE
    python worker.py certify RESULT CSV SECONDS TRACE

Every mode first times its own set-up (import acbott, build the cached
tables), then does its work and writes a JSON result to RESULT.  ``cold``
runs one `acbott index` request exactly as the console script does and exits
with its code.  ``sweep`` and ``certify`` repeat their work until SECONDS
have passed; with TRACE = 1 they run it once untraced and once traced
instead (``cold`` is traced whole; run.py pairs it with an untraced process).
"""

import json
import resource
import sys
import time

T_START = time.perf_counter()


def _setup(trace: bool, request: str = "setup"):
    """Import acbott and build its cached tables; returns (tracer, setup_s)."""
    import acbott.cli  # noqa: F401  (imports every module of the package)

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.request = request
    from acbott import bott, bounds

    bott.standard_triple()
    bounds.eta_envelope_f()
    bounds.eta_envelope_h()
    return tracer, time.perf_counter() - T_START


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _trace_fields(tracer) -> dict:
    from tracing import span_rows, summarize

    return {"per_request": summarize(tracer.spans), "spans": span_rows(tracer.spans)}


def _write(path: str, result: dict) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh)


def probe(result_path: str) -> int:
    _, setup_s = _setup(False)
    _write(result_path, {"setup_s": setup_s})
    return 0


def cold(result_path: str, request: str, trace: bool, argv) -> int:
    tracer, setup_s = _setup(trace, request)
    from acbott import cli

    rc = cli.main(argv)
    sys.stdout.flush()
    result = {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["trace"] = _trace_fields(tracer)
    _write(result_path, result)
    return rc


def _plain_item(pair) -> dict:
    from acbott import bott, bounds, linalg, winding

    p = linalg.make_pair(pair.U, pair.V)
    return {
        "omega": winding.winding_number(p).omega,
        "kappa": bott.bott_index(p),
        "gap_guaranteed": bounds.guaranteed_gap(p.delta),
        "distance_commuting": winding.distance_bound_commuting(p),
    }


def _selfdual_item(sd) -> dict:
    from acbott import bounds, logmethod, selfdual, winding

    s = selfdual.make_selfdual_pair(sd.pair.U, sd.pair.V)
    return {
        "omega": winding.winding_number(s.pair).omega,
        "kappa2_pfaffian": selfdual.pfaffian_bott_index(s),
        "kappa2_log": logmethod.kappa2_log(s),
        "gap_guaranteed": bounds.guaranteed_gap(s.delta),
    }


def _sweep_pass(pairs, tracer=None) -> dict:
    times, answers = {}, {}
    for name, p in pairs.items():
        item = _selfdual_item if name.startswith("selfdual") else _plain_item
        if tracer is not None:
            tracer.request = name
        t0 = time.perf_counter()
        try:
            answers[name] = item(p)
        except Exception as exc:  # a failed request is counted, not fatal
            answers[name] = {"error": f"{type(exc).__name__}: {exc}"}
        times[name] = time.perf_counter() - t0
    return {"times": times, "answers": answers}


def sweep(result_path: str, seed: int, seconds: float, trace: bool) -> int:
    _, setup_s = _setup(False)
    import workloads

    pairs = workloads.sweep_inputs(seed)
    digest = workloads.input_digest(pairs)
    _plain_item(workloads.plain_pair(workloads.WARMUP_N, seed))  # pays first-call costs
    passes = []
    t_begin = time.perf_counter()
    while not passes or (not trace and time.perf_counter() - t_begin < seconds):
        passes.append(_sweep_pass(pairs))
    result = {"setup_s": setup_s, "input_digest": digest, "passes": passes}
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        result["traced_pass"] = _sweep_pass(pairs, tracer)
        tracer.uninstall()
        result["trace"] = _trace_fields(tracer)
    result["peak_rss_mb"] = _peak_rss_mb()
    _write(result_path, result)
    return 0


def _certify_once(csv_path: str) -> dict:
    import workloads
    from acbott import bounds
    from acbott.errors import CertificationFailed

    t0 = time.perf_counter()
    try:
        report = bounds.certify_log_path(
            workloads.CERTIFY_DELTA, mesh=workloads.certify_mesh()
        )
        verdict = "PASS"
    except CertificationFailed as exc:
        report, verdict = exc.report, "FAIL"
    with open(csv_path, "w") as fh:
        print("stage,t,bound", file=fh)
        for stage, t, v in report.rows():
            print(f"{stage},{t:.9g},{v:.9g}", file=fh)
    return {
        "wall_s": time.perf_counter() - t0,
        "verdict": verdict,
        "max_bound": report.max_bound,
        "step_sums": [float(s) for s in report.step_sums],
        "mesh_points": len(report.stage2_t),
    }


def certify(result_path: str, csv_path: str, seconds: float, trace: bool) -> int:
    _, setup_s = _setup(False)
    runs = []
    t_begin = time.perf_counter()
    while not runs or (not trace and time.perf_counter() - t_begin < seconds):
        runs.append(_certify_once(csv_path))
    result = {"setup_s": setup_s, "runs": runs}
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.request = "certify"
        result["runs"].append(_certify_once(csv_path))
        tracer.uninstall()
        result["trace"] = _trace_fields(tracer)
    result["peak_rss_mb"] = _peak_rss_mb()
    _write(result_path, result)
    return 0


def main(argv) -> int:
    mode, result_path = argv[0], argv[1]
    if mode == "probe":
        return probe(result_path)
    if mode == "cold":
        request, trace = argv[2], argv[3] == "1"
        return cold(result_path, request, trace, argv[argv.index("--") + 1 :])
    if mode == "sweep":
        return sweep(result_path, int(argv[2]), float(argv[3]), argv[4] == "1")
    if mode == "certify":
        return certify(result_path, argv[2], float(argv[3]), argv[4] == "1")
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
