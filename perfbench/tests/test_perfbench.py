"""Quick checks of the benchmark's own arithmetic, checks and inputs.

    python3 -m pytest perfbench/tests -q
"""

import itertools

import numpy as np

import tracing
import workloads
from tracing import Span, Tracer, self_times, summarize, totals


def _fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 6]
    tr = Tracer(clock=_fake_clock(0, 1, 2, 3, 4, 5, 6, 10))
    tr.request = "r"
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("leaf"):
                pass
        with tr.span("b"):
            pass
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0]
    assert self_times(tr.spans) == [6, 2, 1, 1]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", -1, "r", 0.0, 10.0),
        Span("x", 0, "r", 1.0, 5.0),
        Span("y", 0, "r", 3.0, 7.0),
        Span("z", 0, "r", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_summary_counts_calls_per_request_and_fills_unused_layers():
    clock = itertools.count()
    tr = Tracer(clock=lambda: float(next(clock)))
    for request in ("one", "two"):
        tr.request = request
        with tr.span("bott.build_B"):
            with tr.span("lapack.schur"):
                pass
            with tr.span("lapack.schur"):
                pass
    per_request = summarize(tr.spans)
    assert per_request["one"]["lapack.schur"]["calls"] == 2
    assert per_request["two"]["bott.build_B"] == {"calls": 1, "self_s": 3.0}
    total = totals(per_request)
    assert set(total) == set(tracing.LAYERS)
    assert total["lapack.schur"]["calls"] == 4
    assert total["bounds.linprog"] == {"calls": 0, "self_s": 0.0}


def test_install_wraps_every_binding_and_uninstall_restores():
    import acbott
    import acbott.cli
    import acbott.winding

    original = acbott.winding.winding_number
    tr = Tracer()
    tr.install()
    try:
        assert acbott.winding_number is acbott.cli.winding_number
        assert acbott.cli.winding_number is not original
        tr.request = "tiny"
        pair = acbott.generators.cyclic_shift_pair(8)
        assert acbott.cli.winding_number(pair).omega == -1
    finally:
        tr.uninstall()
    assert acbott.cli.winding_number is original and acbott.winding_number is original
    calls = summarize(tr.spans)["tiny"]
    assert calls["winding.winding_number"]["calls"] == 1
    assert calls["lapack.schur"]["calls"] == 1


def test_index_checker_flags_a_wrong_invariant():
    good = "dim=64\nomega=-1\nkappa=-1\nomega_valid=true\nkappa_certified=true\n"
    assert workloads.check_index_output("cold_n64", 0, good) == []
    wrong = good.replace("kappa=-1", "kappa=1")
    assert any("kappa" in p for p in workloads.check_index_output("cold_n64", 0, wrong))
    assert workloads.check_index_output("cold_n64", 2, good)
    sd = "omega=0\nkappa=0\nkappa2=-1\nomega_valid=true\nkappa_certified=true\n"
    assert workloads.check_index_output("cold_sd256", 0, sd) == []
    assert workloads.check_index_output("cold_sd256", 0, sd.replace("kappa2=-1", "kappa2=1"))


def test_sweep_and_certify_checkers_flag_wrong_answers():
    sd = {"omega": 0, "kappa2_pfaffian": -1, "kappa2_log": -1, "gap_guaranteed": 0.8}
    assert workloads.check_sweep_answer("selfdual_N56", sd) == []
    assert workloads.check_sweep_answer("selfdual_N56", dict(sd, kappa2_log=1))
    assert workloads.check_sweep_answer("plain_n32", {"error": "GapClosed: boom"})
    report = {"verdict": "PASS", "max_bound": workloads.CERTIFY_MAX_BOUND, "step_sums": [0.19, 0.15]}
    assert workloads.check_certify(report) == []
    assert workloads.check_certify(dict(report, max_bound=0.8364))
    assert workloads.check_certify(dict(report, step_sums=[0.25, 0.15]))


def test_same_seed_gives_same_input_digest():
    a = workloads.input_digest(workloads.sweep_inputs(3))
    b = workloads.input_digest(workloads.sweep_inputs(3))
    c = workloads.input_digest(workloads.sweep_inputs(4))
    assert a == b != c


def test_certify_mesh_runs_from_zero_to_one():
    ts = workloads.certify_mesh()
    assert ts[0] == 0.0 and ts[-1] == 1.0 and np.all(np.diff(ts) > 0)
