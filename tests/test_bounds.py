"""Bound envelopes, the guarantee threshold, and homotopy certification."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import acbott.bott as bott
from acbott.bounds import (
    _eval_half_series,
    beta,
    beta_root,
    certify_log_path,
    coarse_gap,
    eta_envelope_f,
    eta_envelope_h,
    guaranteed_gap,
    variation_bound,
)
from acbott.config import CERTIFY_THRESHOLD, FINE_GRID, KAPPA_THRESHOLD, STEP_BUDGET
from acbott.errors import CertificationFailed, MeshViolation, NoGuarantee
import support

ROOT = Path(__file__).resolve().parents[1]

# small fine grid for behavioral tests; the certifications at the real grid
# are the stored-certificate tests below and the acceptance suite's
SMALL_GRID = 2**13


@pytest.fixture
def small_grid(monkeypatch):
    import acbott.bounds as bounds

    monkeypatch.setattr(bounds, "FINE_GRID", SMALL_GRID)


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


def test_stored_envelope_rows_match_recomputation():
    # the oracle asserts the reproduction check, the mass cap and the drift
    # gates; the stored rows must equal its output bit for bit
    assert support.f5.is_real_valued() and support.h5.is_real_valued()
    for stored, recompute in (
        (eta_envelope_f, support._eta_f_rows),
        (eta_envelope_h, support._eta_h_rows),
    ):
        assert [repr(line) for line in stored().lines] == [
            repr(line) for line in recompute()
        ]


def test_envelopes_evaluate_each_function_once(monkeypatch):
    counts = {"f": 0, "h": 0}

    def counted(key, fn):
        def wrapper(x):
            counts[key] += 1
            return fn(x)

        return wrapper

    monkeypatch.setattr(support, "eval_f", counted("f", support.eval_f))
    monkeypatch.setattr(support, "eval_h", counted("h", support.eval_h))
    support._eta_f_rows()
    support._eta_h_rows()
    # f: the offset grid and the degree-5 reproduction check; h: the grid
    assert counts == {"f": 2, "h": 1}


def test_standard_triple_reads_stored_coefficients():
    # the stored table is the quadrature's, bit for bit; each c_n is
    # integrated on its own, so c_0..c_5 equal those of max_n = 5
    bott.standard_triple.cache_clear()
    triple = bott.standard_triple()
    assert np.array_equal(triple.coefficients16, support.fourier_coefficients_h(16))
    assert np.array_equal(triple.coefficients16[:6], support.fourier_coefficients_h(5))


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
    from scipy.optimize import brentq

    root = beta_root()
    assert root == pytest.approx(0.2046976, abs=1e-6)
    assert beta(root) == pytest.approx(1.0, abs=1e-10)
    # the closed form is the root a search of beta - 1 finds
    assert abs(root - brentq(lambda d: beta(d) - 1.0, 0.05, 0.5, xtol=1e-12)) <= 1e-12
    # the certified threshold stays the published constant, not the root
    assert KAPPA_THRESHOLD == 0.206007


_ROOT_FREE = """
import sys
from acbott.bounds import beta_root

print(repr(beta_root()))
print("scipy.optimize loaded:", "scipy.optimize" in sys.modules)
"""


def test_beta_root_runs_no_root_search_in_a_fresh_process():
    out = support.fresh_process(_ROOT_FREE).splitlines()
    assert float(out[0]) == pytest.approx(0.2046976, abs=1e-6)
    assert out[1] == "scipy.optimize loaded: False"


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


_DELTA_CHECKED = {
    "beta": beta,
    "guaranteed_gap": guaranteed_gap,
    "coarse_gap": coarse_gap,
    "variation_bound-dU": lambda d: variation_bound(d, 0.0),
    "variation_bound-dV": lambda d: variation_bound(0.0, d),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("fn", _DELTA_CHECKED.values(), ids=_DELTA_CHECKED.keys())
def test_every_bound_function_checks_delta_the_same_way(fn, bad):
    message = "must be nonnegative" if bad < 0 else "must be finite"
    with pytest.raises(ValueError, match=message):
        fn(bad)


# ---------------------------------------------------------------------------
# homotopy certification
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cheap_report():
    # one small-grid certification at delta 0.02, shared by the tests that
    # only read it
    import acbott.bounds as bounds

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "FINE_GRID", SMALL_GRID)
        return certify_log_path(0.02)


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


def test_certify_fails_at_large_delta(small_grid):
    with pytest.raises(CertificationFailed) as exc:
        certify_log_path(0.2)
    report = exc.value.report
    assert report is not None
    assert not report.passed
    assert report.max_bound >= CERTIFY_THRESHOLD


def test_certify_rejects_incomplete_user_mesh(small_grid):
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.1, 0.5, 1.0])
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.0, 0.5, 0.9])
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_certify_rejects_nonfinite_mesh_point(bad, monkeypatch, small_grid):
    import acbott.bounds as bounds

    def no_work(*args, **kwargs):
        raise AssertionError("the certification ran on a non-finite point")

    # the first fine-grid work
    monkeypatch.setattr(bounds, "eval_f", no_work)
    mesh = np.linspace(0.0, 1.0, 65)
    mesh[30] = bad
    with pytest.raises(MeshViolation, match="finite"):
        certify_log_path(0.02, mesh=mesh)


def test_certify_working_set_stays_small(cheap_report, monkeypatch):
    # at 2**16 + 1 samples the fine-grid arrays dominate what the
    # certification allocates.  The bound is 9.5 of them: this code peaks at
    # 7.1, in eval_h's temporaries at the set-up, and 7.1 again at each
    # stage-2 step, which holds two triples and one difference; checking the
    # step rule in a separate walk before the etas peaked at 9.1, holding
    # two whole triples and two temporaries there at 10.1, and allocating
    # fresh arrays for every residual, transform and sample set at 13.3
    import tracemalloc

    import acbott.bounds as bounds

    grid = 2**16
    monkeypatch.setattr(bounds, "FINE_GRID", grid)
    # cheap_report has imported scipy and the store outside the trace
    tracemalloc.start()
    try:
        certify_log_path(0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5 * 8 * (grid + 1)


def test_certify_rejects_coarse_user_mesh(small_grid):
    # two points cannot satisfy the step rule, and no mesh is refined
    with pytest.raises(MeshViolation):
        certify_log_path(0.02, mesh=[0.0, 1.0])


def test_certify_step_rule_precedes_a_failed_bound(small_grid):
    # at 0.2 the bounds fail too, but a mesh that breaks the step rule gives
    # no report
    with pytest.raises(MeshViolation):
        certify_log_path(0.2, mesh=[0.0, 1.0])


@pytest.mark.parametrize("points", [None, 65], ids=["stored", "uniform-65"])
def test_certify_walks_its_mesh_once(points, monkeypatch, small_grid):
    # one sampling of f on the fine grid, and one stage-2 triple per mesh point
    import acbott.bounds as bounds

    calls = {"eval_f": 0, "_stage2_triple": 0}

    def counted(name):
        fn = getattr(bounds, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(bounds, name, wrapper)

    counted("eval_f")
    counted("_stage2_triple")
    mesh = None if points is None else np.linspace(0.0, 1.0, points)
    report = certify_log_path(0.02, mesh=mesh)
    assert len(report.stage2_t) == (17 if points is None else points)
    assert calls == {"eval_f": 1, "_stage2_triple": len(report.stage2_t)}


def test_certify_accepts_fine_user_mesh(small_grid):
    mesh = np.linspace(0.0, 1.0, 65)
    report = certify_log_path(0.02, mesh=mesh)
    assert report.passed
    assert np.allclose(report.stage1_t, mesh)


def test_certify_negative_delta(small_grid):
    with pytest.raises(ValueError):
        certify_log_path(-0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_certify_rejects_nonfinite_delta(bad, monkeypatch):
    import acbott.bounds as bounds

    def no_work(*args, **kwargs):
        raise AssertionError("the certification ran on a non-finite delta")

    # the first fine-grid work
    monkeypatch.setattr(bounds, "eval_f", no_work)
    with pytest.raises(ValueError, match="finite"):
        certify_log_path(bad)


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
    # the same cascade, each transform on its own freshly allocated
    # zero-padded copy of the halved coefficients
    from scipy.fft import dct, dst

    coeffs = np.asarray(coeffs, dtype=float)
    k = len(coeffs)
    halved = coeffs / 2
    if parity == "even":
        halved[0] = coeffs[0]
    out = np.zeros(n + 1)
    m, step = n, 1
    while m % 2 == 0 and k < m // 2:
        padded = np.zeros(m // 2)
        padded[:k] = halved
        out[step :: 2 * step] = (dct if parity == "even" else dst)(padded, type=3)
        m //= 2
        step *= 2
    out[::step] = support.half_series_one_transform(coeffs, parity, m)
    return out


def _unit_mass_coeffs(parity, n, top):
    # lowest: degree 0 alone (odd: degree 1); largest: degree n - 1
    count = 1 if top == "lowest" else (n if parity == "even" else n - 1)
    rng = np.random.default_rng(n + count)
    coeffs = rng.standard_normal(count)
    # unit coefficient mass, so 1e-13 is relative to the size of the sum
    return coeffs / np.abs(coeffs).sum()


# 2**13 with one coefficient halves the grid 12 times and 2**16 15 times;
# 3000 halves it 3 times and stops at an odd count of intervals; the largest
# degree fills the grid, so no level halves it
_SERIES_CASES = [
    ("largest", 2**13),
    ("lowest", 2**13),
    ("largest", 3000),
    ("lowest", 3000),
    ("lowest", 2**16),
]


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize(
    "top, n", _SERIES_CASES, ids=[f"{top}-{n}" for top, n in _SERIES_CASES]
)
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
    # working in the output array changes no bit of the cascade
    n = 2**13
    coeffs = _unit_mass_coeffs(parity, n, top)
    got = _eval_half_series(coeffs, parity, n)
    assert np.array_equal(got, _half_series_fresh(coeffs, parity, n))


def test_half_series_matches_one_transform_on_stored_vectors():
    # every stored vector on the certification's own grid: the cascade
    # agrees with a single full-grid DCT-I or DST-I to rounding
    from acbott.log_certificate import APPROXIMANTS

    assert len(APPROXIMANTS) == 54
    for key, coeffs in APPROXIMANTS.items():
        odd = (key if isinstance(key, str) else key[1]) in ("q1", "q")
        parity = "odd" if odd else "even"
        got = _eval_half_series(coeffs, parity, FINE_GRID)
        want = support.half_series_one_transform(coeffs, parity, FINE_GRID)
        assert np.max(np.abs(got - want)) < 1e-14, key


def test_certify_same_with_direct_series_sum(cheap_report, monkeypatch, small_grid):
    import acbott.bounds as bounds

    fast = cheap_report
    monkeypatch.setattr(bounds, "_eval_half_series", _half_series_loop)
    slow = certify_log_path(0.02)
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


def test_stored_vectors_end_at_their_last_nonzero_coefficient():
    # cosine vectors hold c_0..c_k, sine vectors c_1..c_k, with k at most
    # the search's degree cap and c_k nonzero; the fine grid resolves that
    # cap, so no stored degree aliases onto a lower one
    from acbott import log_certificate
    from acbott.log_certificate import APPROXIMANTS, MAX_DEGREE

    assert MAX_DEGREE < FINE_GRID
    assert log_certificate.FINE_GRID == FINE_GRID
    for key, coeffs in APPROXIMANTS.items():
        odd = (key if isinstance(key, str) else key[1]) in ("q1", "q")
        assert 1 <= len(coeffs) <= MAX_DEGREE + (not odd), key
        assert coeffs[-1] != 0.0, key


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

    explicit = bounds._certify(0.125, mesh, from_nearest)
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
    out = support.fresh_process(_LP_FREE)
    assert "0.02 passed: True" in out
    assert "0.125 passed: True" in out
    assert "0.2 passed: False" in out
    assert "scipy.optimize loaded: False" in out
