"""Standard triple, its Fourier data, and the integer index kappa."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from acbott import analysis, bott
from acbott.analysis import analyze
from acbott.bott import (
    F_AMPLITUDES,
    bott_index,
    build_B,
    eval_f,
    eval_g,
    eval_h,
    require_certified,
    signature,
)
from acbott.config import KAPPA_THRESHOLD
from acbott.errors import GapClosed, NumericalInconsistency, ThresholdExceeded
from acbott.generators import commuting_random, cyclic_shift_pair, perturb
from acbott.linalg import make_pair
from acbott.winding import winding_number
from support import (
    AccuracyNotCertified,
    f5,
    fourier_coefficients_h,
    g5,
    h5,
    haar_unitary,
    horner_B,
)

# quadrature oracle, 30-digit arithmetic, frozen
C_ORACLE = (
    0.2020472053,
    0.1799400083,
    0.1256551534,
    0.0660095283,
    0.0234448114,
    0.0038856089,
)


def test_fourier_coefficients_match_oracle():
    c = fourier_coefficients_h(5)
    assert np.max(np.abs(c - np.array(C_ORACLE))) < 1e-7


def test_fourier_coefficient_index_cap():
    with pytest.raises(ValueError):
        fourier_coefficients_h(17)


def test_fourier_series_tail_is_certified():
    # the fixed series length keeps the truncation tail below 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyNotCertified)
        fourier_coefficients_h(2)


def test_sine_amplitudes():
    assert F_AMPLITUDES == (150 / 128, 0.0, 25 / 128, 0.0, 3 / 128)


def test_defining_identity_on_grid():
    # f^2 + (407/512) cos^6 x (1 + (96/407)cos 2x + (9/407)cos 4x) = 1
    x = np.linspace(-np.pi, np.pi, 100_001)
    lhs = eval_f(x) ** 2 + (407 / 512) * np.cos(x) ** 6 * (
        1 + (96 / 407) * np.cos(2 * x) + (9 / 407) * np.cos(4 * x)
    )
    assert np.max(np.abs(lhs - 1.0)) < 1e-12


def test_triple_pointwise_values():
    assert eval_f(np.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert eval_f(-np.pi / 2) == pytest.approx(-1.0, abs=1e-15)
    assert eval_h(0.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_h(np.pi / 2) == pytest.approx(0.0, abs=1e-7)
    assert eval_g(np.pi) == pytest.approx(1.0, abs=1e-15)
    assert eval_g(0.0) == 0.0


def test_triple_partition():
    x = np.linspace(-np.pi, np.pi, 50_001)
    f, g, h = eval_f(x), eval_g(x), eval_h(x)
    assert np.max(np.abs(f**2 + g**2 + h**2 - 1.0)) < 1e-12
    assert np.max(np.abs(g * h)) == 0.0
    # h supported inside |x| <= pi/2, g outside
    assert np.all(h[np.abs(x) > np.pi / 2 + 1e-9] == 0.0)
    assert np.all(g[np.abs(x) < np.pi / 2 - 1e-9] == 0.0)


def test_triple_periodicity():
    x = np.linspace(-np.pi, np.pi, 1001)
    for fn in (eval_f, eval_g, eval_h):
        assert np.max(np.abs(fn(x + 2 * np.pi) - fn(x))) < 1e-12


def test_degree5_checksum_at_zero():
    assert h5.real_values(0.0) == pytest.approx(1.0, abs=1e-4)
    assert g5.real_values(np.pi) == pytest.approx(1.0, abs=1e-4)
    assert np.max(np.abs(f5.real_values(np.linspace(-np.pi, np.pi, 101))
                         - eval_f(np.linspace(-np.pi, np.pi, 101)))) < 1e-12


_FINE = np.linspace(-np.pi, np.pi, 2_000_001)


def test_h5_sup_deviation_stated_bound():
    # stated bound 0.002338; the measured sup is 0.0023880, see the
    # companion test below for the certified value
    sup = float(np.max(np.abs(eval_h(_FINE) - h5.real_values(_FINE))))
    assert sup <= 0.002338, f"sup|h - h5| = {sup:.7f} exceeds 0.002338"


def test_h5_sup_deviation_measured():
    res = eval_h(_FINE) - h5.real_values(_FINE)
    sup = float(np.max(np.abs(res)))
    assert 0.00238 <= sup <= 0.00239
    # range diameter of the residual, the quantity the envelope rows carry
    assert np.max(res) - np.min(res) == pytest.approx(0.004110, abs=2e-5)


def test_B_identity_pair_anchor():
    I4 = np.eye(4, dtype=complex)
    bm = build_B(make_pair(I4, I4))
    ref = np.block([[np.zeros((4, 4)), np.eye(4)], [np.eye(4), np.zeros((4, 4))]])
    assert np.linalg.norm(bm.B - ref, 2) == 0.0
    assert bm.gap == pytest.approx(1.0)


def test_commuting_pair_B_squares_to_identity():
    pair = commuting_random(10, seed=7)
    bm = build_B(pair)
    assert np.linalg.norm(bm.B @ bm.B - np.eye(20), 2) < 1e-9
    assert bott_index(pair) == 0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10)
def test_B_is_hermitian(seed):
    g = np.random.default_rng(seed)
    pair = make_pair(haar_unitary(6, g), haar_unitary(6, g))
    B = build_B(pair).B
    assert np.linalg.norm(B - B.conj().T, 2) < 1e-12


def test_kappa_cyclic_31():
    pair = cyclic_shift_pair(31)
    assert pair.delta <= KAPPA_THRESHOLD
    assert bott_index(pair) == -1


def test_kappa_additivity_direct_sum():
    a = cyclic_shift_pair(31)
    pair = make_pair(block_diag(a.U, a.U), block_diag(a.V, a.V))
    assert bott_index(pair) == -2


def test_kappa_threshold_gate():
    pair = cyclic_shift_pair(8)  # delta ~ 0.765
    with pytest.raises(ThresholdExceeded):
        bott_index(pair)
    # the refusal prints delta in full: 0.2060074 is not rounded to the threshold
    with pytest.raises(ThresholdExceeded, match="delta = 0.2060074 exceeds"):
        require_certified(0.2060074, "trig")
    # analyze computes past the threshold and says so
    report = analyze(pair)
    assert report.kappa == -1
    assert not report.kappa_certified
    # an unknown method is refused before any work, not read as trig
    with pytest.raises(ValueError, match="'trig' or 'log'"):
        analyze(pair, "LOG")


def test_analyze_leaves_kappa_empty_when_the_gap_closes(monkeypatch):
    def closed(eigs):
        raise GapClosed("probe")

    monkeypatch.setattr(bott, "_count_signature", closed)
    report = analyze(cyclic_shift_pair(31))
    assert report.kappa is None
    assert report.kappa_certified
    assert report.omega == -1
    assert report.gap_measured > 0


def test_analyze_refuses_a_certified_kappa_that_disagrees_with_omega(monkeypatch):
    def shifted(pair):
        found = winding_number(pair)
        return dataclasses.replace(found, omega=found.omega + 1)

    monkeypatch.setattr(analysis, "winding_number", shifted)
    pair = cyclic_shift_pair(31)
    assert pair.delta <= KAPPA_THRESHOLD
    with pytest.raises(NumericalInconsistency, match="kappa = -1 disagrees with omega = 0"):
        analyze(pair)


def test_kappa_trigpoly_route_agrees():
    pair = cyclic_shift_pair(31)
    poly = horner_B(pair)
    assert poly.signature() // 2 == -1
    g_exact = build_B(pair).gap
    g_poly = poly.gap
    # routes differ by at most a few multiples of sup|h - h5|
    assert abs(g_exact - g_poly) < 0.02


def test_kappa_equals_winding_on_certified_sample():
    pairs = [cyclic_shift_pair(n) for n in (31, 40, 64)]
    pairs += [perturb(cyclic_shift_pair(n), r, seed=s)
              for n in (48, 64) for r in (0.02, 0.05) for s in (0, 1)]
    pairs.append(commuting_random(16, seed=2))
    a = cyclic_shift_pair(33)
    pairs.append(make_pair(block_diag(a.U, a.U.conj().T), block_diag(a.V, a.V)))
    for pair in pairs:
        assert pair.delta <= KAPPA_THRESHOLD
        assert bott_index(pair) == winding_number(pair).omega


@given(seed=st.integers(0, 10_000))
@settings(max_examples=5)
def test_kappa_invariant_under_joint_conjugation(seed):
    pair = cyclic_shift_pair(31)
    W = haar_unitary(31, np.random.default_rng(seed))
    conj = make_pair(W @ pair.U @ W.conj().T, W @ pair.V @ W.conj().T)
    assert bott_index(conj) == -1


def test_kappa_stable_below_distance_bound():
    # moves cheaper than the distance proposition cannot change kappa
    base = cyclic_shift_pair(31)
    for seed in (0, 1, 2):
        moved = perturb(base, 0.15, seed=seed)
        total = 0.15  # ||U-U'|| + ||V-V'|| by construction
        floor = (np.sqrt(1 - 5 * base.delta**2) + np.sqrt(1 - 5 * moved.delta**2)) / 5
        assert total < floor
        assert analyze(moved).kappa == -1


def test_gap_exceeds_guarantee_at_small_delta(rng):
    from acbott.bounds import beta

    base = commuting_random(20, seed=11)
    pair = perturb(base, 0.05, seed=3)
    bm = build_B(pair)
    assert bm.gap >= np.sqrt(1 - beta(pair.delta))
    eigs = np.linalg.eigvalsh(bm.B)
    assert bm.gap == pytest.approx(float(np.min(np.abs(eigs))))


def test_signature_basics():
    assert signature(np.diag([2.0, -3.0, 5.0])) == 1
    with pytest.raises(GapClosed):
        signature(np.diag([1.0, -1.0, 1e-12]))
