"""Log-method block matrix: principal logarithm, B_L assembly, sign index."""

import sys
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import expm

from acbott.analysis import analyze
from acbott.errors import NotSelfDual, NotUnitary, ThresholdExceeded
from acbott.generators import (
    commuting_random,
    cyclic_shift_pair,
    perturb_selfdual,
    selfdual_doubling,
)
from acbott.linalg import make_pair, operator_norm
from acbott.logmethod import build_BL, kappa2_log
from acbott.selfdual import (
    dual,
    make_selfdual_pair,
    pfaffian_bott_index,
)
from support import dual_tensor, haar_unitary, principal_log


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
    plog = principal_log(sd.V)
    assert operator_norm(plog.K - dual(plog.K)) <= 1e-12
    assert operator_norm(reconstruct(plog.K) - sd.V) <= 1e-8


# ---------------------------------------------------------------------------
# build_BL
# ---------------------------------------------------------------------------


def test_BL_identity_pair():
    bm = build_BL(make_pair(np.eye(3), np.eye(3)))
    O = np.zeros((3, 3))
    want = np.block([[O, np.eye(3)], [np.eye(3), O]])
    assert np.allclose(bm.B, want, atol=1e-12)
    assert bm.gap == pytest.approx(1.0)


def test_BL_at_minus_identity():
    bm = build_BL(make_pair(np.eye(2), -np.eye(2)))
    O = np.zeros((2, 2))
    want = np.block([[np.eye(2), O], [O, -np.eye(2)]])
    assert np.allclose(bm.B, want, atol=1e-12)


def test_BL_diagonal_blocks_are_scaled_log():
    # build_BL's matrix is in V's eigenbasis; diag(Q, Q) takes it to the standard one
    pair = cyclic_shift_pair(9)
    plog = principal_log(pair.V)
    Q2 = np.kron(np.eye(2), pair.v_eig[1])
    B = Q2 @ build_BL(pair).B @ Q2.conj().T
    d = pair.dim
    assert np.allclose(B[:d, :d], plog.K / np.pi, atol=1e-12)
    assert np.allclose(B[d:, d:], -plog.K / np.pi, atol=1e-12)


def test_BL_hermitian_and_anti_selfdual():
    sd = selfdual_doubling(cyclic_shift_pair(6))
    bm = build_BL(sd)
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


def test_log_report_claims_no_gap_guarantee():
    # beta bounds B's gap, not B_L's: here B_L's gap 0.942 is below the
    # trig guarantee 0.971 at delta = 0.01
    a = np.pi - 0.005
    pair = make_pair(
        np.array([[0, -1], [1, 0]], dtype=complex),
        np.diag([np.exp(1j * a), np.exp(-1j * a)]),
    )
    log = analyze(pair, method="log")
    assert log.gap_guaranteed is None
    assert dict(log.items())["gap_guaranteed"] == ""
    assert log.gap_measured == pytest.approx(0.942011945, abs=1e-9)
    trig = analyze(pair, method="trig")
    assert trig.gap_guaranteed == pytest.approx(0.971236009, abs=1e-9)
    assert trig.gap_guaranteed <= trig.gap_measured


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


def test_kappa2_log_refuses_between_thresholds():
    # certified only up to 1/8: the wrapper refuses, analyze reports
    sd = selfdual_doubling(cyclic_shift_pair(31))  # delta ~ 0.2023
    assert 0.125 < sd.delta <= 0.206007
    with pytest.raises(ThresholdExceeded, match="threshold 0.125"):
        kappa2_log(sd)
    assert pfaffian_bott_index(sd) == -1
    report = analyze(sd, method="log")
    assert report.kappa2 == -1
    assert not report.kappa_certified
    assert analyze(sd).kappa_certified


def test_kappa2_log_threshold_gate():
    sd = selfdual_doubling(cyclic_shift_pair(8))
    with pytest.raises(ThresholdExceeded):
        kappa2_log(sd)
    report = analyze(sd, method="log")
    assert report.kappa2 in (-1, 1)
    assert not report.kappa_certified


def test_kappa2_log_invariant_under_structure_conjugation():
    sd = selfdual_doubling(cyclic_shift_pair(64))
    for seed in (0, 1):
        W = structure_preserving_unitary(sd.dim, seed)
        moved = make_selfdual_pair(
            W @ sd.U @ W.conj().T, W @ sd.V @ W.conj().T
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
    sd.v_eig  # V's factorization, made before counting
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
    # one real reduction of B_L and its tridiagonal spectrum
    assert factorizations == Counter(dgehrd=1, dsterf=1)
    assert len(gates) == 1


def test_split_kramers_pair_at_the_cut_answers_on_the_log_route(factorizations):
    # a Kramers pair at e^{i(pi -+ a)}: V passes the self-duality gate, and
    # both angles lie in the branch cluster at -1, so both go to +pi
    a = 2e-10
    V = np.diag(np.exp(1j * np.array([np.pi - a, np.pi + a])))
    sd = make_selfdual_pair(np.eye(2), V)
    assert operator_norm(sd.V - dual(sd.V)) <= 1e-9
    factorizations.clear()
    assert kappa2_log(sd) == 1
    # V's cut eigvalsh and Cayley eigh, once; one real reduction of B_L
    assert factorizations == Counter(eigvalsh=1, eigh=1, dgehrd=1, dsterf=1)
    assert np.array_equal(sd.v_eig[0], [np.pi, np.pi])
    assert analyze(sd, method="log").kappa2 == 1
    assert pfaffian_bott_index(sd) == 1
    assert analyze(sd).kappa2 == 1


def test_kramers_pair_across_the_snap_radius_answers():
    # centred 1e-8 from -1 and split by 2e-10: the branch rule moves one
    # angle to +pi and keeps the other; the Kramers basis gives the pair the
    # mean of the two on the circle, so neither route sees the pair split,
    # and the residual stays under the gate's sqrt(2) * 1e-8
    V = np.diag(np.exp(1j * (-np.pi + 1e-8 + np.array([-1e-10, 1e-10]))))
    sd = make_selfdual_pair(np.eye(2), V)
    angles, Q = sd.v_eig
    assert angles[0] == angles[1] == pytest.approx(-np.pi + 0.505e-8, abs=1e-15)
    assert np.linalg.norm(V @ Q - Q * np.exp(1j * angles)) <= 0.71e-8
    assert kappa2_log(sd) == 1
    assert pfaffian_bott_index(sd) == 1
    assert analyze(sd, method="log").kappa2 == 1


def _nudged_v(sd, eps, seed):
    """sd's V moved by e^{i eps H}, ||H|| = 1: self-dual to about eps."""
    rng = np.random.default_rng(seed)
    d = sd.dim
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (H + H.conj().T) / 2
    H /= np.linalg.norm(H, 2)
    return sd.V @ expm(1j * eps * H)


def test_kramers_pairs_at_minus_one_answer_on_both_routes():
    # V of a doubled cyclic pair of even n has a Kramers pair at -1; moved
    # by e^{i a H}, the pairs that make_selfdual_pair admits split it by at
    # most its 1e-9 gate, inside the branch cluster, so both angles go to
    # +pi and the log route answers as the trig route does
    admitted = 0
    for n in (6, 8, 64):
        base = selfdual_doubling(cyclic_shift_pair(n))
        for a in (1e-11, 1e-10, 3e-10, 7e-10):
            for seed in range(6):
                try:
                    sd = make_selfdual_pair(base.U, _nudged_v(base, a, seed))
                except NotSelfDual:
                    continue
                admitted += 1
                for method in ("trig", "log"):
                    assert analyze(sd, method=method).kappa2 == -1
    assert admitted == 71


def test_pair_off_self_duality_cannot_reach_kappa2():
    # only make_selfdual_pair makes a SelfDualPair, so a V beyond its gate
    # gets no self-dual route, whatever the caller believes of the pair
    base = selfdual_doubling(cyclic_shift_pair(64))
    V = _nudged_v(base, 5e-8, seed=0)
    assert 6e-8 < operator_norm(V - dual(V)) < 7e-8
    with pytest.raises(NotSelfDual):
        make_selfdual_pair(base.U, V)
    for method in ("trig", "log"):
        assert analyze(make_pair(base.U, V), method=method).kappa2 is None


def test_kramers_pair_just_inside_the_cut_keeps_its_log_sign(recwarn):
    # a Kramers pair near -1, split by V's admitted self-duality defect but
    # on one side of the cut: h1 = sqrt(1 - theta^2/pi^2) turns a split eps
    # at distance x from the cut into a drift of about eps / sqrt(2 pi x) in
    # h1(V) (6.3e-7 for the pair 1e-7 inside), above the Pfaffian's gate at
    # 1e-7.  The other two inputs lie in the branch cluster at -1.
    far = np.diag(np.exp(1j * np.array([np.pi - 1e-7, np.pi - 1e-7 - 5e-10])))
    V = np.diag(np.exp(1j * np.array([np.pi - 1e-9, np.pi - 1.5e-9])))
    inside = make_selfdual_pair(np.eye(2), far)
    near_cut = make_selfdual_pair(np.eye(2), V)
    base = selfdual_doubling(cyclic_shift_pair(64))
    doubled = make_selfdual_pair(base.U, _nudged_v(base, 1e-11, seed=1))
    for sd, kappa2 in ((inside, 1), (near_cut, 1), (doubled, -1)):
        assert pfaffian_bott_index(sd) == kappa2
        assert kappa2_log(sd) == kappa2
        assert analyze(sd, method="log").kappa2 == kappa2
        bm = build_BL(sd)
        assert operator_norm(dual_tensor(bm.B) + bm.B) <= 1e-9
    assert not recwarn.list
