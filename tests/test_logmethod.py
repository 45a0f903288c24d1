"""Log-method block matrix: principal logarithm, B_L assembly, sign index."""

import numpy as np
import pytest
from scipy.linalg import expm

from acbott.analysis import analyze
from acbott.errors import (
    LogMethodUncertified,
    NotUnitary,
    SelfDualityLost,
    ThresholdExceeded,
)
from acbott.generators import (
    commuting_random,
    cyclic_shift_pair,
    perturb_selfdual,
    selfdual_doubling,
)
from acbott.linalg import make_pair, operator_norm
from acbott.logmethod import build_BL, kappa2_log, principal_log
from acbott.selfdual import (
    dual,
    dual_tensor,
    make_selfdual_pair,
    pfaffian_bott_index,
)
from support import haar_unitary


def reconstruct(K):
    lam, W = np.linalg.eigh(K)
    return (W * np.exp(1j * lam)) @ W.conj().T


def structure_preserving_unitary(dim, seed):
    """exp(iA) with A hermitian and anti-self-dual commutes with the dual:
    conjugating by it keeps self-dual matrices self-dual."""
    gen = np.random.default_rng(seed)
    M = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    M = (M + M.conj().T) / 2
    A = M - dual(M)
    return expm(1j * A / max(1.0, operator_norm(A)))


# ---------------------------------------------------------------------------
# principal_log
# ---------------------------------------------------------------------------


def test_log_of_identity():
    plog = principal_log(np.eye(4))
    assert np.allclose(plog.K, 0.0, atol=1e-12)
    assert plog.branch_margin == pytest.approx(2.0)


def test_log_of_quarter_turns():
    plog = principal_log(np.diag([1j, -1j]))
    assert np.allclose(plog.K, np.diag([np.pi / 2, -np.pi / 2]), atol=1e-12)


def test_log_branch_at_minus_one():
    plog = principal_log(-np.eye(3))
    assert np.allclose(plog.K, np.pi * np.eye(3), atol=1e-12)
    assert plog.branch_margin == pytest.approx(0.0, abs=1e-12)


def test_log_reconstructs_unitary(rng):
    for d in (2, 5, 9):
        V = haar_unitary(d, rng)
        plog = principal_log(V)
        assert operator_norm(reconstruct(plog.K) - V) <= 1e-8
        assert np.all(np.abs(np.linalg.eigvalsh(plog.K)) <= np.pi + 1e-12)


def test_log_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        principal_log(np.diag([1.0, 2.0]))


def test_log_of_selfdual_is_selfdual():
    sd = selfdual_doubling(cyclic_shift_pair(8))
    plog = principal_log(sd.pair.V, self_dual=True)
    assert operator_norm(plog.K - dual(plog.K)) <= 1e-12
    assert operator_norm(reconstruct(plog.K) - sd.pair.V) <= 1e-8


def test_log_refuses_split_kramers():
    # conjugate eigenvalues straddling the cut admit no self-dual logarithm
    theta = np.pi - 1e-4
    V = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    with pytest.raises(SelfDualityLost):
        principal_log(V, self_dual=True)


def test_log_repairs_branch_split(monkeypatch):
    # simulate the eigensolver splitting a doubled angle across the cut;
    # the retry with a rotated cut must restore self-duality
    import acbott.logmethod as lm

    real = lm.unitary_eig
    calls = {"n": 0}

    def split_first(V, tol=1e-8):
        calls["n"] += 1
        if calls["n"] == 1:
            return np.array([np.pi, -np.pi]), np.eye(2, dtype=complex)
        return real(V, tol=tol)

    monkeypatch.setattr(lm, "unitary_eig", split_first)
    plog = lm.principal_log(-np.eye(2), self_dual=True)
    assert calls["n"] == 2
    assert operator_norm(plog.K - dual(plog.K)) <= 1e-12
    assert operator_norm(reconstruct(plog.K) + np.eye(2)) <= 1e-8


# ---------------------------------------------------------------------------
# build_BL
# ---------------------------------------------------------------------------


def test_BL_identity_pair():
    bm = build_BL(make_pair(np.eye(3), np.eye(3)))
    O = np.zeros((3, 3))
    want = np.block([[O, np.eye(3)], [np.eye(3), O]])
    assert np.allclose(bm.B, want, atol=1e-12)
    assert bm.method == "log"
    assert bm.gap == pytest.approx(1.0)


def test_BL_at_minus_identity():
    bm = build_BL(make_pair(np.eye(2), -np.eye(2)))
    O = np.zeros((2, 2))
    want = np.block([[np.eye(2), O], [O, -np.eye(2)]])
    assert np.allclose(bm.B, want, atol=1e-12)


def test_BL_diagonal_blocks_are_scaled_log():
    pair = cyclic_shift_pair(9)
    plog = principal_log(pair.V)
    bm = build_BL(pair)
    d = pair.dim
    assert np.allclose(bm.B[:d, :d], plog.K / np.pi, atol=1e-12)
    assert np.allclose(bm.B[d:, d:], -plog.K / np.pi, atol=1e-12)


def test_BL_hermitian_and_anti_selfdual():
    sd = selfdual_doubling(cyclic_shift_pair(6))
    bm = build_BL(sd.pair, self_dual=True)
    assert operator_norm(bm.B - bm.B.conj().T) <= 1e-12
    assert operator_norm(dual_tensor(bm.B) + bm.B) <= 1e-9


def test_BL_commuting_squares_to_identity():
    for seed in (0, 1, 2):
        pair = commuting_random(7, seed=seed)
        bm = build_BL(pair)
        assert operator_norm(bm.B @ bm.B - np.eye(2 * pair.dim)) <= 1e-9


def test_BL_square_defect_four_term_bound(rng):
    # ||B_L^2 - I|| <= (||g||+1)||[h,U]|| + (1/4)||[h,U]||^2
    #                  + (1/2)||[h^2,U]|| + ||[q,U]||  with g = 0, q = f h
    for seed in range(6):
        d = 8
        U = haar_unitary(d, np.random.default_rng(seed))
        V = haar_unitary(d, np.random.default_rng(100 + seed))
        pair = make_pair(U, V)
        plog = principal_log(pair.V)
        lam, W = np.linalg.eigh(plog.K)
        x = np.clip(lam / np.pi, -1.0, 1.0)
        hvals = np.sqrt(1.0 - x**2)

        def call(vals):
            return (W * vals) @ W.conj().T

        def cnorm(X):
            return operator_norm(X @ pair.U - pair.U @ X)

        ch = cnorm(call(hvals))
        rhs = ch + 0.25 * ch**2 + 0.5 * cnorm(call(hvals**2)) + cnorm(call(x * hvals))
        bm = build_BL(pair)
        lhs = operator_norm(bm.B @ bm.B - np.eye(2 * d))
        assert lhs <= rhs + 1e-10


# ---------------------------------------------------------------------------
# kappa2_log
# ---------------------------------------------------------------------------


def test_kappa2_log_commuting_pairs():
    for seed in (0, 1, 2):
        sd = selfdual_doubling(commuting_random(6, seed=seed))
        assert kappa2_log(sd) == 1


def test_kappa2_log_identity_pair():
    sd = make_selfdual_pair(np.eye(4), -np.eye(4))
    assert kappa2_log(sd) == 1


def test_kappa2_log_matches_trig_on_doubled_cyclic():
    sd = selfdual_doubling(cyclic_shift_pair(64))
    assert sd.delta <= 0.125
    assert kappa2_log(sd) == pfaffian_bott_index(sd) == -1


def test_kappa2_log_warns_between_thresholds():
    sd = selfdual_doubling(cyclic_shift_pair(31))  # delta ~ 0.2023
    with pytest.warns(LogMethodUncertified):
        value = kappa2_log(sd)
    assert value == -1


def test_kappa2_log_threshold_gate():
    sd = selfdual_doubling(cyclic_shift_pair(8))
    with pytest.raises(ThresholdExceeded):
        kappa2_log(sd)
    report = analyze(sd.pair, self_dual=True, method="log")
    assert report.kappa2 in (-1, 1)
    assert not report.kappa_certified


def test_kappa2_log_invariant_under_structure_conjugation():
    sd = selfdual_doubling(cyclic_shift_pair(64))
    for seed in (0, 1):
        W = structure_preserving_unitary(sd.pair.dim, seed)
        moved = make_selfdual_pair(
            W @ sd.pair.U @ W.conj().T, W @ sd.pair.V @ W.conj().T
        )
        assert moved.delta == pytest.approx(sd.delta, abs=1e-9)
        assert kappa2_log(moved) == -1
        assert pfaffian_bott_index(moved) == -1


def test_log_and_trig_signs_agree_after_perturbation():
    base = selfdual_doubling(cyclic_shift_pair(64))
    for seed in (0, 1):
        moved = perturb_selfdual(base, 0.02, seed=seed)
        assert moved.delta <= 0.125
        assert kappa2_log(moved) == pfaffian_bott_index(moved)
