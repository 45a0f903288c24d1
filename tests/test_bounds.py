"""Bound envelopes, the guarantee threshold, and homotopy certification."""

import numpy as np
import pytest

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
from acbott.config import CertifyConfig
from acbott.errors import (
    CertificationFailed,
    InvalidPolynomial,
    MeshViolation,
    NoGuarantee,
    TableDrift,
)
from acbott.linalg import TrigPoly

# small certification budget for behavioral tests; the full-budget runs live
# in the acceptance suite
CHEAP = CertifyConfig(mesh_per_stage=9, max_degree=16, fine_grid=2**13, coarse_points=96)


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
    # one CHEAP certification at delta 0.02, shared by the tests that only
    # read it
    return certify_log_path(0.02, config=CHEAP)


def test_certify_passes_at_small_delta(cheap_report):
    report = cheap_report
    assert report.passed
    assert report.max_bound < CHEAP.threshold
    assert max(report.step_sums) <= CHEAP.step_budget
    assert len(report.stage1_t) == len(report.stage1_bounds)
    assert len(report.stage2_t) == len(report.stage2_bounds)
    rows = report.rows()
    assert rows[0][0] == 1 and rows[-1][0] == 2
    assert all(v < CHEAP.threshold for _, _, v in rows)


def test_certify_fails_at_large_delta():
    with pytest.raises(CertificationFailed) as exc:
        certify_log_path(0.2, config=CHEAP)
    report = exc.value.report
    assert report is not None
    assert not report.passed
    assert report.max_bound >= CHEAP.threshold


def test_certify_auto_refines_default_mesh(cheap_report):
    report = cheap_report
    # nine points violate the step rule; doubling lands at 65
    assert len(report.stage1_t) == 65
    assert max(report.step_sums) <= CHEAP.step_budget


def test_certify_rejects_incomplete_user_mesh():
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.1, 0.5, 1.0], config=CHEAP)
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.0, 0.5, 0.9], config=CHEAP)
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.0], config=CHEAP)


def test_certify_rejects_coarse_user_mesh():
    # two points cannot satisfy the step rule and user meshes never refine
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.0, 1.0], config=CHEAP)


def test_certify_accepts_fine_user_mesh():
    mesh = np.linspace(0.0, 1.0, 65)
    report = certify_log_path(0.02, mesh=mesh, config=CHEAP)
    assert report.passed
    assert np.allclose(report.stage1_t, mesh)


def test_certify_negative_delta():
    with pytest.raises(ValueError):
        certify_log_path(-0.01, config=CHEAP)


def test_certify_rejects_degree_the_grid_aliases():
    tiny = CertifyConfig(fine_grid=8, max_degree=16, coarse_points=16)
    with pytest.raises(ValueError, match="max_degree"):
        certify_log_path(0.02, config=tiny)


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


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("n", [2**13, 3000])
@pytest.mark.parametrize("top", ["lowest", "largest"])
def test_half_series_transform_matches_direct_sum(parity, n, top):
    # lowest: degree 0 alone (odd: degree 1); largest: degree n - 1
    count = 1 if top == "lowest" else (n if parity == "even" else n - 1)
    rng = np.random.default_rng(n + count)
    coeffs = rng.standard_normal(count)
    # unit coefficient mass, so 1e-13 is relative to the size of the sum
    coeffs /= np.abs(coeffs).sum()
    got = _eval_half_series(coeffs, parity, n)
    want = _half_series_loop(coeffs, parity, n)
    assert got.shape == (n + 1,)
    assert np.max(np.abs(got - want)) < 1e-13
    if parity == "odd":
        assert got[0] == 0.0 and got[-1] == 0.0


def test_certify_same_with_direct_series_sum(cheap_report, monkeypatch):
    import acbott.bounds as bounds

    fast = cheap_report
    monkeypatch.setattr(bounds, "_eval_half_series", _half_series_loop)
    slow = certify_log_path(0.02, config=CHEAP)
    assert [r[:2] for r in fast.rows()] == [r[:2] for r in slow.rows()]
    np.testing.assert_allclose(
        [r[2] for r in fast.rows()], [r[2] for r in slow.rows()], rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(fast.stage1_etas, slow.stage1_etas, rtol=0, atol=1e-12)
