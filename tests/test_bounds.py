"""Bound envelopes, the guarantee threshold, and homotopy certification."""

import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acbott
import acbott.bott as bott
from acbott.bounds import (
    BoundLine,
    _drift_gate,
    _eta_f_rows,
    _eta_h_rows,
    _eval_half_series,
    beta,
    beta_root,
    certify_log_path,
    coarse_gap,
    eta_envelope_f,
    eta_envelope_h,
    eta_lines,
    guaranteed_gap,
    variation_bound,
)
from acbott.config import CERTIFY_THRESHOLD, FINE_GRID, STEP_BUDGET
from acbott.errors import (
    CertificationFailed,
    InvalidPolynomial,
    MeshViolation,
    NoGuarantee,
    TableDrift,
)
from acbott.linalg import TrigPoly

ROOT = Path(__file__).resolve().parents[1]

# small fine grid for behavioral tests; the certifications at the real grid
# are the stored-certificate tests below and the acceptance suite's
SMALL_GRID = 2**13


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def test_eta_f_rows():
    rows = eta_envelope_f().lines
    assert [r.m for r in rows] == [0.0, 1.171875, 1.7578125, 1.875]
    for got, want in zip(
        (r.b for r in rows), (2.0000112, 0.4190157, 0.0468968, 0.0)
    ):
        assert got == pytest.approx(want, abs=1e-6)
    assert rows[-1].b == 0.0


def test_eta_h_rows():
    rows = eta_envelope_h().lines
    slopes = (0.0, 0.3598800, 0.8625007, 1.2585579, 1.4461165, 1.4849727, 2.99208)
    offsets = (1.0000072, 0.7322456, 0.3501520, 0.1066342, 0.0175232, 0.0041257, 0.0)
    assert len(rows) == 7
    for row, m, b in zip(rows, slopes, offsets):
        assert row.m == pytest.approx(m, abs=1e-6)
        assert row.b == pytest.approx(b, abs=1e-6)
    assert rows[-1].provenance == "stored"


def test_envelope_is_pointwise_minimum():
    env = eta_envelope_h()
    for d in (0.0, 0.05, 0.125, 0.2):
        assert env(d) == min(line(d) for line in env.lines)


def test_eta_line_rejects_complex_polynomial():
    p = TrigPoly(1, [0.0, 0.0, 1.0 + 0.5j])  # a_1 without conjugate partner
    with pytest.raises(InvalidPolynomial):
        eta_lines(np.sin, p, (0, 1), fn_lipschitz=1.0)


def test_stored_envelope_rows_match_recomputation():
    # the recomputation runs the reproduction check, the mass cap and the
    # drift gates; the stored rows must equal its output bit for bit
    for stored, recompute in (
        (eta_envelope_f, _eta_f_rows),
        (eta_envelope_h, _eta_h_rows),
    ):
        assert [repr(line) for line in stored().lines] == [
            repr(line) for line in recompute()
        ]


def test_envelopes_evaluate_each_function_once(monkeypatch):
    import acbott.bounds as bounds

    counts = {"f": 0, "h": 0}

    def counted(key, fn):
        def wrapper(x):
            counts[key] += 1
            return fn(x)

        return wrapper

    monkeypatch.setattr(bounds, "eval_f", counted("f", bounds.eval_f))
    monkeypatch.setattr(bounds, "eval_h", counted("h", bounds.eval_h))
    _eta_f_rows()
    _eta_h_rows()
    # f: the offset grid and the degree-5 reproduction check; h: the grid
    assert counts == {"f": 2, "h": 1}


def test_standard_triple_reads_stored_coefficients(monkeypatch):
    quadrature = bott.fourier_coefficients_h
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(bott, "fourier_coefficients_h", counted)
    bott.standard_triple.cache_clear()
    triple = bott.standard_triple()
    assert calls == []
    assert np.array_equal(triple.coefficients16, quadrature(16))
    assert np.array_equal(triple.coefficients, quadrature(5))


def test_drift_gate_raises_on_drift():
    with pytest.raises(TableDrift):
        _drift_gate([BoundLine(5.0, 5.0)], ((0.0, 2.0),), "probe")


# ---------------------------------------------------------------------------
# beta and gap guarantees
# ---------------------------------------------------------------------------


def test_beta_anchors():
    assert beta(0.0) == 0.0
    assert beta(0.125) == pytest.approx(0.6138695, abs=1e-6)
    with pytest.raises(ValueError):
        beta(-0.1)


def test_beta_monotone():
    grid = np.linspace(0.0, 0.3, 61)
    vals = [beta(d) for d in grid]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_beta_root_value():
    root = beta_root()
    assert root == pytest.approx(0.2046976, abs=1e-6)
    assert beta(root) == pytest.approx(1.0, abs=1e-10)


def test_guaranteed_gap():
    assert guaranteed_gap(0.0) == 1.0
    assert guaranteed_gap(0.2023) == pytest.approx(0.1077784, abs=1e-6)
    assert guaranteed_gap(0.1) == pytest.approx(np.sqrt(1 - beta(0.1)))
    with pytest.raises(NoGuarantee):
        guaranteed_gap(0.21)


def test_coarse_gap():
    assert coarse_gap(0.1) == pytest.approx(0.95 * np.sqrt(0.5))
    assert coarse_gap(0.0) == pytest.approx(0.95)
    with pytest.raises(NoGuarantee):
        coarse_gap(0.21)


def test_variation_bound():
    assert variation_bound(0.1, 0.0) == pytest.approx(0.1)
    assert variation_bound(0.0, 0.0) == 0.0
    dU, dV = 0.03, 0.02
    assert variation_bound(dU, dV) == pytest.approx(
        min(beta(dV) + dU, beta(dV + dU))
    )
    with pytest.raises(ValueError):
        variation_bound(-0.1, 0.0)


# ---------------------------------------------------------------------------
# homotopy certification
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cheap_report():
    # one small-grid certification at delta 0.02, shared by the tests that
    # only read it
    return certify_log_path(0.02, fine_grid=SMALL_GRID)


def test_certify_passes_at_small_delta(cheap_report):
    report = cheap_report
    assert report.passed
    assert report.max_bound < CERTIFY_THRESHOLD
    assert max(report.step_sums) <= STEP_BUDGET
    assert len(report.stage1_t) == len(report.stage1_bounds)
    assert len(report.stage2_t) == len(report.stage2_bounds)
    rows = report.rows()
    assert rows[0][0] == 1 and rows[-1][0] == 2
    assert all(v < CERTIFY_THRESHOLD for _, _, v in rows)


def test_certify_fails_at_large_delta():
    with pytest.raises(CertificationFailed) as exc:
        certify_log_path(0.2, fine_grid=SMALL_GRID)
    report = exc.value.report
    assert report is not None
    assert not report.passed
    assert report.max_bound >= CERTIFY_THRESHOLD


def test_certify_rejects_incomplete_user_mesh():
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.1, 0.5, 1.0], fine_grid=SMALL_GRID)
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.0, 0.5, 0.9], fine_grid=SMALL_GRID)
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.0], fine_grid=SMALL_GRID)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_certify_rejects_nonfinite_mesh_point(bad, monkeypatch):
    import acbott.bounds as bounds

    def no_work(*args, **kwargs):
        raise AssertionError("the certification ran on a non-finite point")

    monkeypatch.setattr(bounds, "_step_sums", no_work)
    mesh = np.linspace(0.0, 1.0, 65)
    mesh[30] = bad
    with pytest.raises(MeshViolation, match="finite"):
        certify_log_path(0.02, mesh=mesh, fine_grid=SMALL_GRID)


def test_certify_working_set_stays_small(cheap_report):
    # at 2**16 + 1 samples the fine-grid arrays dominate what the
    # certification allocates.  The bound is 9.5 of them: this code peaks at
    # 9.1, in the step-rule check; holding two whole triples and two
    # temporaries there peaked at 10.1, and allocating fresh arrays for every
    # residual, transform and sample set at 13.3
    import tracemalloc

    fine_grid = 2**16
    # cheap_report has imported scipy and the store outside the trace
    tracemalloc.start()
    try:
        certify_log_path(0.02, fine_grid=fine_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5 * 8 * (fine_grid + 1)


def test_certify_rejects_coarse_user_mesh():
    # two points cannot satisfy the step rule, and no mesh is refined
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.0, 1.0], fine_grid=SMALL_GRID)


def test_certify_accepts_fine_user_mesh():
    mesh = np.linspace(0.0, 1.0, 65)
    report = certify_log_path(0.02, mesh=mesh, fine_grid=SMALL_GRID)
    assert report.passed
    assert np.allclose(report.stage1_t, mesh)


def test_certify_negative_delta():
    with pytest.raises(ValueError):
        certify_log_path(-0.01, fine_grid=SMALL_GRID)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_certify_rejects_nonfinite_delta(bad, monkeypatch):
    import acbott.bounds as bounds

    def no_work(*args, **kwargs):
        raise AssertionError("the certification ran on a non-finite delta")

    monkeypatch.setattr(bounds, "_step_sums", no_work)
    with pytest.raises(ValueError, match="finite"):
        certify_log_path(bad)


def test_certify_rejects_degree_the_grid_aliases():
    # 9 samples cannot resolve the stored vectors' degree 48
    with pytest.raises(ValueError, match="aliases"):
        certify_log_path(0.02, fine_grid=8)


def _half_series_loop(coeffs, parity, n):
    # the direct sum, independent of the transform under test
    x = np.linspace(0.0, np.pi, n + 1)
    out = np.zeros_like(x)
    if parity == "even":
        for k, c in enumerate(coeffs):
            out += c * np.cos(k * x)
    else:
        for k, c in enumerate(coeffs, start=1):
            out += c * np.sin(k * x)
    return out


def _half_series_fresh(coeffs, parity, n):
    # the same transforms, each on its own freshly allocated zero-padded copy
    from scipy.fft import dct, dst

    if parity == "even":
        padded = np.zeros(n + 1)
        padded[: len(coeffs)] = coeffs
        padded[1:] /= 2
        return dct(padded, type=1)
    padded = np.zeros(n - 1)
    padded[: len(coeffs)] = coeffs / 2
    out = np.zeros(n + 1)
    out[1:-1] = dst(padded, type=1)
    return out


def _unit_mass_coeffs(parity, n, top):
    # lowest: degree 0 alone (odd: degree 1); largest: degree n - 1
    count = 1 if top == "lowest" else (n if parity == "even" else n - 1)
    rng = np.random.default_rng(n + count)
    coeffs = rng.standard_normal(count)
    # unit coefficient mass, so 1e-13 is relative to the size of the sum
    return coeffs / np.abs(coeffs).sum()


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("n", [2**13, 3000])
@pytest.mark.parametrize("top", ["lowest", "largest"])
def test_half_series_transform_matches_direct_sum(parity, n, top):
    coeffs = _unit_mass_coeffs(parity, n, top)
    got = _eval_half_series(coeffs, parity, n)
    want = _half_series_loop(coeffs, parity, n)
    assert got.shape == (n + 1,)
    assert np.max(np.abs(got - want)) < 1e-13
    if parity == "odd":
        assert got[0] == 0.0 and got[-1] == 0.0


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("top", ["lowest", "largest"])
def test_half_series_in_place_equals_fresh_transform(parity, top):
    # working in the output array changes no bit of the transform
    n = 2**13
    coeffs = _unit_mass_coeffs(parity, n, top)
    got = _eval_half_series(coeffs, parity, n)
    assert np.array_equal(got, _half_series_fresh(coeffs, parity, n))


def test_certify_same_with_direct_series_sum(cheap_report, monkeypatch):
    import acbott.bounds as bounds

    fast = cheap_report
    monkeypatch.setattr(bounds, "_eval_half_series", _half_series_loop)
    slow = certify_log_path(0.02, fine_grid=SMALL_GRID)
    assert [r[:2] for r in fast.rows()] == [r[:2] for r in slow.rows()]
    np.testing.assert_allclose(
        [r[2] for r in fast.rows()], [r[2] for r in slow.rows()], rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(fast.stage1_etas, slow.stage1_etas, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the stored delta = 1/8 certificate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def regenerator():
    path = ROOT / "scripts" / "regenerate_log_certificate.py"
    spec = importlib.util.spec_from_file_location("regenerate_log_certificate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _no_lp(*args, **kwargs):
    raise AssertionError("the certification solved an LP")


@pytest.fixture(scope="module")
def searched(regenerator):
    # one search of the certification at 1/8 on the 17-point mesh, shared
    # by the tests that hold the store to it
    report, winners, lps = regenerator.search()
    assert lps == 108
    return report, winners


@pytest.fixture(scope="module")
def stored_report():
    # the default certification at 1/8: the stored mesh and vectors
    return certify_log_path(0.125)


def test_stored_certificate_matches_regeneration(regenerator, searched, tmp_path):
    # the committed module is the generator's output for a fresh search,
    # byte for byte
    out = tmp_path / "log_certificate.py"
    regenerator.write(searched[1], out)
    assert out.read_bytes() == regenerator.MODULE.read_bytes()


def _report_bits(report):
    # every field: arrays by their bytes, the rest by repr
    return {
        field.name: (value.tobytes() if isinstance(value, np.ndarray) else repr(value))
        for field in dataclasses.fields(report)
        for value in [getattr(report, field.name)]
    }


def test_stored_certificate_reproduces_the_search(searched, stored_report):
    assert _report_bits(stored_report) == _report_bits(searched[0])


def test_stored_certificate_covers_shared_mesh_points(stored_report, monkeypatch):
    # the benchmark's 15-point Lobatto mesh shares t = 0, 0.49999999999999994
    # and 1 with the stored 17-point mesh; each of its other 12 points takes
    # the stored vectors of its nearest stored point, and no LP runs
    import acbott.bounds as bounds
    from acbott.log_certificate import APPROXIMANTS

    monkeypatch.setattr(bounds, "linprog", _no_lp)
    mesh = (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, 15))) / 2.0
    mesh[0], mesh[-1] = 0.0, 1.0
    report = certify_log_path(0.125, mesh=mesh)
    assert report.max_bound == stored_report.max_bound

    stored_mesh = stored_report.stage2_t
    shared = np.isin(mesh, stored_mesh)
    assert shared.sum() == 3
    at = np.searchsorted(stored_mesh, mesh[shared])
    for stage in (1, 2):
        got = getattr(report, f"stage{stage}_bounds")[shared]
        want = getattr(stored_report, f"stage{stage}_bounds")[at]
        assert got.tobytes() == want.tobytes()

    nearest = {t: stored_mesh[np.argmin(np.abs(stored_mesh - t))] for t in mesh}

    def from_nearest(key, parity, certified):
        if isinstance(key, tuple):
            key = (float(nearest[key[0]]), key[1])
        return APPROXIMANTS[key]

    explicit = bounds._certify(0.125, mesh, FINE_GRID, from_nearest)
    assert _report_bits(explicit) == _report_bits(report)


def test_default_mesh_passes_to_0155_and_fails_at_016(monkeypatch):
    import acbott.bounds as bounds

    monkeypatch.setattr(bounds, "linprog", _no_lp)
    assert certify_log_path(0.155).max_bound == pytest.approx(0.9343, abs=1e-4)
    with pytest.raises(CertificationFailed) as exc:
        certify_log_path(0.16)
    assert exc.value.report.max_bound == pytest.approx(0.9634, abs=1e-4)


_LP_FREE = """
import sys
import acbott.bounds as bounds
from acbott.errors import CertificationFailed

def no_lp(*args, **kwargs):
    raise AssertionError("the certification solved an LP")

bounds.linprog = no_lp
for delta in (0.02, 0.125, 0.2):
    try:
        report = bounds.certify_log_path(delta)
    except CertificationFailed as exc:
        report = exc.report
    print(delta, "passed:", report.passed)
print("scipy.optimize loaded:", "scipy.optimize" in sys.modules)
"""


def test_stored_certificate_runs_no_lp_in_a_fresh_process():
    src = str(Path(acbott.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _LP_FREE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "0.02 passed: True" in done.stdout
    assert "0.125 passed: True" in done.stdout
    assert "0.2 passed: False" in done.stdout
    assert "scipy.optimize loaded: False" in done.stdout
