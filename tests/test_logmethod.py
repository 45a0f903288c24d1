"""Log-method block matrix: principal logarithm, B_L assembly, sign index."""

import sys
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import expm

from acbott.analysis import analyze
from acbott.errors import (
    LogMethodUncertified,
    NotAntiSelfDual,
    NotUnitary,
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
    plog = principal_log(sd.pair.V)
    assert operator_norm(plog.K - dual(plog.K)) <= 1e-12
    assert operator_norm(reconstruct(plog.K) - sd.pair.V) <= 1e-8


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
    bm = build_BL(sd.pair)
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


def test_kappa2_log_reuses_V_and_gates_self_duality_once(factorizations, monkeypatch):
    # B_L is assembled from the pair's cached factorization of V, and the
    # Pfaffian's anti-self-duality gate is the log route's one structure gate
    sd = selfdual_doubling(cyclic_shift_pair(64))
    sd.pair.v_eig  # V's factorization, made before counting
    gates = []
    for name, module in list(sys.modules.items()):
        real = getattr(module, "gate_norm", None) if name.startswith("acbott") else None
        if real is not None:
            def counted(X, limit, _real=real):
                gates.append(limit)
                return _real(X, limit)

            monkeypatch.setattr(module, "gate_norm", counted)
    factorizations.clear()
    assert kappa2_log(sd) == -1
    assert factorizations == Counter(eigvalsh=1)  # the spectrum of B_L
    assert len(gates) == 1


def test_split_kramers_pair_is_refused_on_the_log_route(factorizations):
    # a Kramers pair at e^{i(pi -+ a)}: V passes the self-duality gate, but
    # its angles pi - a and -pi + a sit on opposite sides of the cut
    a = 2e-10
    V = np.diag(np.exp(1j * np.array([np.pi - a, np.pi + a])))
    sd = make_selfdual_pair(np.eye(2), V)
    assert operator_norm(sd.pair.V - dual(sd.pair.V)) <= 1e-9
    factorizations.clear()
    with pytest.raises(NotAntiSelfDual):
        kappa2_log(sd)
    # V's cut eigvalsh and Cayley eigh, once; the spectrum of B_L
    assert factorizations == Counter(eigvalsh=2, eigh=1)
    with pytest.raises(NotAntiSelfDual):
        analyze(sd.pair, self_dual=True, method="log")
    assert pfaffian_bott_index(sd) == 1
    assert analyze(sd.pair, self_dual=True).kappa2 == 1


def _nudged(sd, eps, seed):
    """sd with V moved by e^{i eps H}, ||H|| = 1: self-dual to about eps."""
    rng = np.random.default_rng(seed)
    d = sd.pair.dim
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (H + H.conj().T) / 2
    H /= np.linalg.norm(H, 2)
    return make_selfdual_pair(sd.pair.U, sd.pair.V @ expm(1j * eps * H))


def test_kramers_pair_just_inside_the_cut_keeps_its_log_sign(recwarn):
    # a Kramers pair near -1, split by V's admitted self-duality defect but
    # on one side of the cut: h1 = sqrt(1 - theta^2/pi^2) turns a split eps
    # there into a drift of about sqrt(2 eps / pi) in h1(V) (5.7e-6 and
    # 4.3e-7 here), above the Pfaffian's gate at 1e-7
    V = np.diag(np.exp(1j * np.array([np.pi - 1e-9, np.pi - 1.5e-9])))
    near_cut = make_selfdual_pair(np.eye(2), V)
    doubled = _nudged(selfdual_doubling(cyclic_shift_pair(64)), 1e-11, seed=1)
    for sd, kappa2 in ((near_cut, 1), (doubled, -1)):
        assert pfaffian_bott_index(sd) == kappa2
        assert kappa2_log(sd) == kappa2
        assert analyze(sd.pair, self_dual=True, method="log").kappa2 == kappa2
        bm = build_BL(sd)
        assert operator_norm(dual_tensor(bm.B) + bm.B) <= 1e-9
    assert not recwarn.list
