"""Benchmark of acbott: cold `acbott index` calls, a warm library sweep and
the log-path certification.

    python3 perfbench/run.py --workload index-cold --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Inputs come from --seed alone and are made
before any timing.  Each workload repeats its requests, one at a time, until
--seconds have passed (at least once).  With --trace 0 the last line of
standard output is the JSON result with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run instead.  Every
answer is checked; the exit code is 1 when any request failed and 2 when the
checkout has no acbott sources.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

CHILD_TIMEOUT_S = 170
SETUP_PROBES = 2  # extra fresh processes where a workload has only one of its own

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "max_request_s": "s", "peak_rss_mb": "MB"}


class Run:
    """State of one benchmark run: its scratch directory and what it observed."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = OUT / f"run-{os.getpid()}"
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.problems: List[str] = []
        self.failed = 0
        self.setup: List[float] = []
        self.rss: List[float] = []
        self.metrics: Dict[str, float] = {}
        self.details: Dict[str, object] = {}
        self.per_request: Dict[str, dict] = {}
        self.spans: Dict[str, list] = {}

    def check(self, problems: List[str]) -> None:
        """Count one attempted request and whether it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def child(self, name: str, args: List[str]):
        """Run worker.py to completion; returns (process, wall seconds, result or None)."""
        result_path = self.dir / f"{name}.json"
        if result_path.exists():
            result_path.unlink()
        cmd = [sys.executable, str(HERE / "worker.py"), args[0], str(result_path), *args[1:]]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.child_env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0, None
        wall = time.perf_counter() - t0
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        return proc, wall, result

    def worker_problems(self, name: str, proc, result) -> List[str]:
        if proc is None:
            return [f"{name}: timed out after {CHILD_TIMEOUT_S} s"]
        if result is None:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return [f"{name}: exit code {proc.returncode}, no result ({tail[0]})"]
        return []

    def probes(self) -> None:
        for i in range(SETUP_PROBES):
            proc, _, result = self.child(f"probe{i}", ["probe"])
            problems = self.worker_problems(f"probe{i}", proc, result)
            self.check(problems)
            if not problems:
                self.setup.append(result["setup_s"])

    def add_trace(self, result: dict, key: str) -> None:
        self.per_request.update(result["trace"]["per_request"])
        self.spans[key] = result["trace"]["spans"]


def _median(values) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def _pass_metrics(run: Run, passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Set wall_s and max_request_s from each request's median over passes."""
    medians = {name: _median(p[name] for p in passes) for name in passes[0]}
    run.metrics["wall_s"] = sum(medians.values())
    run.metrics["max_request_s"] = max(medians.values())
    run.details["pass_times"] = passes
    return medians


def _write_inputs(run: Run, pairs) -> Dict[str, tuple]:
    from acbott.matrixio import write_matrix, write_selfdual_header
    from acbott.selfdual import SelfDualPair

    files = {}
    for name, p in pairs.items():
        pair = p.pair if isinstance(p, SelfDualPair) else p
        paths = [run.dir / f"{name}_U.txt", run.dir / f"{name}_V.txt"]
        write_matrix(paths[0], pair.U)
        write_matrix(paths[1], pair.V)
        if isinstance(p, SelfDualPair):
            paths.append(run.dir / f"{name}_N.txt")
            write_selfdual_header(paths[2], p.N)
        files[name] = tuple(str(path.relative_to(ROOT)) for path in paths)
    return files


def index_cold(run: Run) -> None:
    import workloads

    pairs = workloads.cold_inputs(run.seed)
    run.details["input_digest"] = workloads.input_digest(pairs)
    files = _write_inputs(run, pairs)

    def one_pass(traced: bool) -> Dict[str, float]:
        walls = {}
        for name in pairs:
            argv = workloads.request_argv(name, files[name])
            proc, wall, result = run.child(name, ["cold", name, str(int(traced)), "--", *argv])
            problems = run.worker_problems(name, proc, result)
            if proc is not None:
                problems += workloads.check_index_output(name, proc.returncode, proc.stdout)
            run.check(problems)
            walls[name] = wall
            if result is not None:
                run.setup.append(result["setup_s"])
                run.rss.append(result["peak_rss_mb"])
                if traced:
                    run.add_trace(result, name)
        return walls

    if run.trace:
        plain = one_pass(False)
        traced = one_pass(True)
        run.metrics["trace.overhead_s"] = sum(traced.values()) - sum(plain.values())
        return
    passes = []
    t_begin = time.perf_counter()
    while not passes or time.perf_counter() - t_begin < run.seconds:
        passes.append(one_pass(False))
    medians = _pass_metrics(run, passes)
    run.details["requests"] = {f"{name}_s": t for name, t in medians.items()}


def _warm_worker(run: Run, args: List[str]) -> Optional[dict]:
    """Set-up probes, then the one worker process of a warm workload."""
    if not run.trace:
        run.probes()
    proc, _, result = run.child(args[0], args)
    problems = run.worker_problems(args[0], proc, result)
    if problems:
        run.check(problems)
        return None
    run.setup.append(result["setup_s"])
    run.rss.append(result["peak_rss_mb"])
    return result


def sweep_warm(run: Run) -> None:
    import workloads

    result = _warm_worker(run, ["sweep", str(run.seed), str(run.seconds), str(int(run.trace))])
    if result is None:
        return
    run.details["input_digest"] = result["input_digest"]
    passes = result["passes"] + ([result["traced_pass"]] if run.trace else [])
    for p in passes:
        for name, answer in p["answers"].items():
            run.check(workloads.check_sweep_answer(name, answer))

    if run.trace:
        run.add_trace(result, "sweep")
        run.metrics["trace.overhead_s"] = sum(result["traced_pass"]["times"].values()) - sum(
            result["passes"][0]["times"].values()
        )
        return
    medians = _pass_metrics(run, [p["times"] for p in result["passes"]])
    run.details["requests"] = {
        "sweep_s": run.metrics["wall_s"],
        "sweep_plain_s": sum(t for n, t in medians.items() if n.startswith("plain")),
        "sweep_selfdual_s": sum(t for n, t in medians.items() if n.startswith("selfdual")),
    }
    run.details["request_medians"] = medians


def certify(run: Run) -> None:
    import workloads

    csv_path = run.dir / "certify.csv"
    result = _warm_worker(run, ["certify", str(csv_path), str(run.seconds), str(int(run.trace))])
    if result is None:
        return
    run.details["input_digest"] = workloads.certify_digest()
    for report in result["runs"]:
        run.check(workloads.check_certify(report))
    runs = result["runs"]
    run.details["certify"] = {k: runs[0][k] for k in ("max_bound", "step_sums", "mesh_points")}
    if run.trace:
        run.add_trace(result, "certify")
        run.metrics["trace.overhead_s"] = runs[1]["wall_s"] - runs[0]["wall_s"]
        return
    medians = _pass_metrics(run, [{"certify": r["wall_s"]} for r in runs])
    run.details["requests"] = {"certify_s": medians["certify"]}


WORKLOADS = {"index-cold": index_cold, "sweep-warm": sweep_warm, "certify": certify}


def _metrics(run: Run) -> Dict[str, dict]:
    if run.trace:
        import tracing

        out = {}
        for name, cell in tracing.totals(run.per_request).items():
            out[f"{name}.calls"] = {"value": cell["calls"], "unit": "count"}
            out[f"{name}.self_s"] = {"value": cell["self_s"], "unit": "s"}
        if "trace.overhead_s" in run.metrics:
            out["trace.overhead_s"] = {"value": run.metrics["trace.overhead_s"], "unit": "s"}
        return out
    values = dict(run.metrics)
    values["setup_s"] = _median(run.setup)
    values["peak_rss_mb"] = max(run.rss) if run.rss else None
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
        if values.get(name) is not None
    }


def _print_details(run: Run, env: dict) -> None:
    print("perfbench env " + json.dumps(env, sort_keys=True))
    if "input_digest" in run.details:
        print(f"perfbench inputs sha256={run.details['input_digest']}")
    for key, value in run.details.get("requests", {}).items():
        print(f"perfbench request {key} = {value:.4f}")
    if "certify" in run.details:
        print("perfbench certify " + json.dumps(run.details["certify"]))
    for request, layers in run.per_request.items():
        counts = " ".join(
            f"{name}={cell['calls']}" for name, cell in layers.items() if cell["calls"]
        )
        print(f"perfbench calls {request}: {counts}")
    for problem in run.problems:
        print(f"perfbench FAILED {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "acbott" / "__init__.py").is_file():
        print(f"perfbench: no acbott sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import envinfo

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = envinfo.environment(ROOT, args.workload, args.seed, args.seconds, args.trace)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    metrics = _metrics(run)
    _print_details(run, env)
    record = {
        "env": env,
        "details": run.details,
        "problems": run.problems,
        "metrics": metrics,
        "per_request": run.per_request,
        "spans": run.spans,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record))
    print(f"perfbench record {(results / name).relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.failed == 0 and run.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
