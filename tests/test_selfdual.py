"""Dual operation, Pfaffians, and the sign index kappa_2."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acbott.selfdual as selfdual
from acbott.analysis import analyze
from acbott.bott import BottMatrix, build_B
from acbott.errors import (
    DimensionMismatch,
    IllConditionedSign,
    NoObstruction,
    NotAntiSelfDual,
    NotHermitian,
    NotSelfDual,
    NotSkewSymmetric,
    NumericalInconsistency,
    OddDimension,
    ThresholdExceeded,
)
from acbott.generators import (
    commuting_random,
    cyclic_shift_pair,
    perturb_selfdual,
    selfdual_doubling,
)
from acbott.logmethod import build_BL, kappa2_log
from acbott.selfdual import (
    _pfaffian_sign,
    _pfaffian_sign_log,
    _real_pfaffian_sign_log,
    _rotated_anti_selfdual,
    check_kramers,
    dual,
    dual_tensor,
    make_selfdual_pair,
    modified_pfaffian,
    pfaffian,
    pfaffian_bott_index,
    selfdual_distance_bounds,
    selfdual_part,
)
from support import (
    haar_unitary,
    horner_B,
    pfaffian_cofactor,
    random_hermitian,
    random_skew,
    standard_form,
)


def _rand(seed):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("N", [1, 2, 5, 32])
def test_dual_slicing_matches_dense_product(N):
    rng = _rand(N)
    Z = standard_form(N)
    X = rng.normal(size=(2 * N, 2 * N)) + 1j * rng.normal(size=(2 * N, 2 * N))
    dense = -Z @ X.T @ Z
    assert np.array_equal(dual(X), dense)


@pytest.mark.parametrize("N", [1, 3, 16, 64])
def test_rotation_by_slicing_matches_dense_product(N):
    rng = _rand(100 + N)
    Z = standard_form(N)
    Y = rng.normal(size=(4 * N, 4 * N)) + 1j * rng.normal(size=(4 * N, 4 * N))
    X = 3.0 * (Y - dual_tensor(Y)) / 2  # exactly anti-self-dual
    S, drift = _rotated_anti_selfdual(X, 1e-7, 1.0)
    assert drift == 0.0
    eye = np.eye(2 * N)
    Q = np.block([[eye, -1j * Z], [1j * Z, eye]]) / np.sqrt(2.0)
    dense = Q.conj().T @ X @ Q
    dense = (dense - dense.T) / 2
    assert np.max(np.abs(S - dense)) <= 1e-14 * max(1.0, np.linalg.norm(X, 2))


def test_dual_of_structure_matrix():
    Z = standard_form(3)
    assert np.array_equal(dual(Z), -Z)
    assert np.array_equal(dual(np.eye(6)), np.eye(6))


@given(seed=st.integers(0, 10_000), N=st.integers(1, 4))
def test_dual_is_an_involution(seed, N):
    g = _rand(seed)
    X = g.standard_normal((2 * N, 2 * N)) + 1j * g.standard_normal((2 * N, 2 * N))
    assert np.allclose(dual(dual(X)), X, atol=1e-13)


def test_dual_reverses_products(rng):
    X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    Y = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.allclose(dual(X @ Y), dual(Y) @ dual(X), atol=1e-12)
    assert np.linalg.norm(dual(X), 2) == pytest.approx(np.linalg.norm(X, 2))


def test_selfdual_part_splits(rng):
    X = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    S = selfdual_part(X)
    A = X - S
    assert np.allclose(dual(S), S, atol=1e-13)
    assert np.allclose(dual(A), -A, atol=1e-13)


def test_dual_tensor_block_formula(rng):
    N = 3
    blocks = [
        rng.standard_normal((2 * N, 2 * N)) + 1j * rng.standard_normal((2 * N, 2 * N))
        for _ in range(4)
    ]
    A, B, C, D = blocks
    M = np.block([[A, B], [C, D]])
    expected = np.block([[dual(D), -dual(B)], [-dual(C), dual(A)]])
    assert np.allclose(dual_tensor(M), expected, atol=1e-13)
    assert np.allclose(dual_tensor(dual_tensor(M)), M, atol=1e-13)


def test_block_matrix_is_anti_selfdual_on_selfdual_pair():
    sd = selfdual_doubling(cyclic_shift_pair(12))
    B = build_B(sd).B
    assert np.linalg.norm(dual_tensor(B) + B, 2) < 1e-9


def test_make_selfdual_pair_gates(rng):
    sd = selfdual_doubling(cyclic_shift_pair(6))
    again = make_selfdual_pair(sd.U, sd.V)
    assert again.N == 6
    with pytest.raises(DimensionMismatch):
        make_selfdual_pair(haar_unitary(5, rng), haar_unitary(5, rng))
    with pytest.raises(NotSelfDual):
        make_selfdual_pair(haar_unitary(6, rng), haar_unitary(6, rng))


def test_kramers_pairing(rng):
    for d in (4, 8, 12):
        H = random_hermitian(d, rng)
        H = (H + dual(H)) / 2
        H = (H + H.conj().T) / 2
        assert check_kramers(H)
    with pytest.raises(NotHermitian):
        check_kramers(1j * np.eye(4) + random_skew(4, rng))
    with pytest.raises(NotSelfDual):
        check_kramers(np.diag([1.0, 2.0, 3.0, 4.0]))


@given(
    re=st.floats(-10, 10, allow_nan=False),
    im=st.floats(-10, 10, allow_nan=False),
)
def test_pfaffian_two_by_two(re, im):
    a = complex(re, im)
    X = np.array([[0, a], [-a, 0]])
    assert pfaffian(X) == pytest.approx(a, abs=1e-12 * (1 + abs(a)))


@given(seed=st.integers(0, 10_000))
def test_pfaffian_four_by_four_closed_form(seed):
    X = random_skew(4, _rand(seed))
    closed = X[0, 1] * X[2, 3] - X[0, 2] * X[1, 3] + X[0, 3] * X[1, 2]
    assert pfaffian(X) == pytest.approx(closed, rel=1e-10, abs=1e-12)


def test_pfaffian_squares_to_determinant(rng):
    for _ in range(50):
        d = 2 * int(rng.integers(1, 9))
        X = random_skew(d, rng)
        p = pfaffian(X)
        assert p**2 == pytest.approx(np.linalg.det(X), rel=1e-8)


def test_pfaffian_congruence_rule(rng):
    for _ in range(25):
        d = 2 * int(rng.integers(1, 6))
        X = random_skew(d, rng)
        Y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = pfaffian(Y @ X @ Y.T)
        rhs = np.linalg.det(Y) * pfaffian(X)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_pfaffian_against_cofactor_recursion(rng):
    for d in (2, 4, 6, 8):
        for _ in range(10):
            X = random_skew(d, rng)
            assert pfaffian(X) == pytest.approx(pfaffian_cofactor(X), rel=1e-9)


def test_pfaffian_of_standard_symplectic():
    # direct sum of [[0, b_i], [-b_i, 0]] blocks multiplies out
    from scipy.linalg import block_diag

    bs = [2.0, -0.5, 3.0]
    X = block_diag(*[np.array([[0, b], [-b, 0]]) for b in bs])
    assert pfaffian(X) == pytest.approx(np.prod(bs))


def test_pfaffian_gates(rng):
    with pytest.raises(OddDimension):
        pfaffian(np.zeros((3, 3)))
    with pytest.raises(NotSkewSymmetric):
        pfaffian(np.eye(4))
    assert pfaffian(np.zeros((4, 4))) == 0j


def test_modified_pfaffian_of_standard_blocks():
    # the hermitian block matrix ((0,I),(I,0)) conjugates to diag(iZ,-iZ),
    # whose Pfaffian is +1 in every dimension; the skew variant ((0,I),(-I,0))
    # is fixed by the Q conjugation and alternates with N
    for N in (1, 2, 3):
        I = np.eye(2 * N)
        O = np.zeros((2 * N, 2 * N))
        herm = np.block([[O, I], [I, O]])
        skew = np.block([[O, I], [-I, O]])
        assert modified_pfaffian(herm) == pytest.approx(1.0, rel=1e-10)
        assert modified_pfaffian(skew) == pytest.approx((-1.0) ** N, rel=1e-10)


def test_modified_pfaffian_gates(rng):
    with pytest.raises(DimensionMismatch):
        modified_pfaffian(random_skew(6, rng))
    M = random_hermitian(8, rng)
    with pytest.raises(NotAntiSelfDual):
        modified_pfaffian(M + np.eye(8))


def test_kappa2_commuting_doubles_to_plus_one():
    for seed in range(4):
        sd = selfdual_doubling(commuting_random(6, seed=seed))
        assert pfaffian_bott_index(sd) == 1


def test_kappa2_doubled_cyclic_64():
    # integer index of the base pair is odd, so the doubled sign is -1;
    # the log route in test_logmethod confirms the same value
    sd = selfdual_doubling(cyclic_shift_pair(64))
    assert pfaffian_bott_index(sd) == -1
    assert _pfaffian_sign(horner_B(sd)) == -1


def test_kappa2_threshold_gate():
    sd = selfdual_doubling(cyclic_shift_pair(8))
    with pytest.raises(ThresholdExceeded):
        pfaffian_bott_index(sd)
    report = analyze(sd)
    assert report.kappa2 in (-1, 1)
    assert not report.kappa_certified


def test_kappa2_stable_under_selfdual_perturbation():
    sd = selfdual_doubling(cyclic_shift_pair(64))
    for seed in (0, 1):
        moved = perturb_selfdual(sd, 0.05, seed=seed)
        assert pfaffian_bott_index(moved) == -1


def test_selfdual_distance_bound_value():
    a = selfdual_doubling(commuting_random(8, seed=1))
    b = selfdual_doubling(cyclic_shift_pair(64))
    got = selfdual_distance_bounds(a, b)
    expected = (np.sqrt(1 - 5 * a.delta**2) + np.sqrt(1 - 5 * b.delta**2)) / 5
    assert got == pytest.approx(expected)
    with pytest.raises(NoObstruction):
        selfdual_distance_bounds(a, a)


def test_selfdual_distance_bound_threshold_gate():
    a = selfdual_doubling(cyclic_shift_pair(8))  # delta over threshold
    b = selfdual_doubling(commuting_random(8, seed=0))
    with pytest.raises(ThresholdExceeded):
        selfdual_distance_bounds(a, b)


# ---------------------------------------------------------------------------
# the real Hessenberg route behind kappa2
# ---------------------------------------------------------------------------


def _both_routes(B):
    """(complex phase, log|Pf|) and (sign, log|Pf|) of Pf(Q* B Q)."""
    norm = float(np.max(np.abs(np.linalg.eigvalsh(B))))
    S, _ = _rotated_anti_selfdual(B, 1e-7, norm)
    assert np.linalg.norm(S.real) <= 1e-12 * max(1.0, norm)
    sign, log_mag = _real_pfaffian_sign_log(S.imag)
    # Pf(iR) = i^(dim/2) Pf(R) = (-1)^N Pf(R)
    sign = -sign if (B.shape[0] // 4) % 2 else sign
    return _pfaffian_sign_log(S), (sign, log_mag)


def _random_hermitian_anti_selfdual(N, rng):
    H = random_hermitian(4 * N, rng)
    H = (H - dual_tensor(H)) / 2
    return (H + H.conj().T) / 2


def _kappa2_test_pairs():
    yield selfdual_doubling(cyclic_shift_pair(64))
    yield selfdual_doubling(cyclic_shift_pair(31))
    for seed in range(3):
        yield selfdual_doubling(commuting_random(6, seed=seed))
    sd = selfdual_doubling(cyclic_shift_pair(64))
    for seed in (0, 1):
        yield perturb_selfdual(sd, 0.05, seed=seed)


def test_real_route_matches_householder_on_kappa2_pairs():
    for sd in _kappa2_test_pairs():
        for bm in (build_B(sd), build_BL(sd)):
            (phase, log_c), (sign, log_r) = _both_routes(bm.B)
            assert abs(phase.imag) <= 1e-9
            assert sign == (1 if phase.real > 0 else -1)
            assert log_r == pytest.approx(log_c, abs=1e-10)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 32, 128])
def test_real_route_matches_householder_on_random_matrices(N):
    rng = np.random.default_rng(1000 + N)
    for _ in range(3 if N <= 32 else 1):
        B = _random_hermitian_anti_selfdual(N, rng)
        (phase, log_c), (sign, log_r) = _both_routes(B)
        assert abs(phase.imag) <= 1e-9
        assert sign == (1 if phase.real > 0 else -1)
        assert log_r == pytest.approx(log_c, abs=1e-9 * 4 * N)
        # magnitude is the spectral one: |Pf|^2 = |det B|
        spectral = 0.5 * np.sum(np.log(np.abs(np.linalg.eigvalsh(B))))
        assert log_r == pytest.approx(spectral, abs=1e-9 * 4 * N)


def test_real_route_standard_blocks():
    # same anchors as the complex route: ((0,I),(I,0)) has Pfaffian +1
    for N in (1, 2, 3):
        I = np.eye(2 * N)
        O = np.zeros((2 * N, 2 * N))
        bm = BottMatrix.of(np.block([[O, I], [I, O]]))
        assert _pfaffian_sign(bm) == 1


def test_kappa2_selfdual_N256():
    # B has dim 1024; the magnitude cross-check must pass without warning
    sd = selfdual_doubling(cyclic_shift_pair(256))
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedSign)
        report = analyze(sd)
    assert report.kappa2 == -1
    assert report.kappa == 0
    assert report.kappa_certified


def test_pfaffian_sign_rejects_non_hermitian_B():
    sd = selfdual_doubling(cyclic_shift_pair(12))
    bm = build_B(sd)
    rng = np.random.default_rng(5)
    # i times a hermitian anti-self-dual matrix keeps anti-self-duality but
    # adds an anti-hermitian part, which lands in Re(Q* B Q)
    A = _random_hermitian_anti_selfdual(sd.N, rng)
    bad = BottMatrix(bm.B + 1e-3j * A, bm.eigs)
    with pytest.raises(NumericalInconsistency, match="real part"):
        _pfaffian_sign(bad)


def test_pfaffian_sign_warns_on_magnitude_mismatch(monkeypatch):
    sd = selfdual_doubling(cyclic_shift_pair(12))
    bm = build_B(sd)
    real_route = selfdual._real_pfaffian_sign_log

    def off_by_one_percent(R):
        sign, log_mag = real_route(R)
        return sign, log_mag + 0.01

    monkeypatch.setattr(selfdual, "_real_pfaffian_sign_log", off_by_one_percent)
    with pytest.warns(IllConditionedSign):
        assert _pfaffian_sign(bm) == -1


def test_kappa2_callers_never_take_the_complex_loop(monkeypatch):
    sd = selfdual_doubling(cyclic_shift_pair(64))
    calls = {"complex": 0, "real": 0, "svd": 0}
    complex_route = selfdual._pfaffian_sign_log
    real_route = selfdual._real_pfaffian_sign_log

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(selfdual, "_pfaffian_sign_log", counted("complex", complex_route))
    monkeypatch.setattr(selfdual, "_real_pfaffian_sign_log", counted("real", real_route))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    for method in ("trig", "log"):
        assert analyze(sd, method=method).kappa2 == -1
    assert pfaffian_bott_index(sd) == -1
    assert kappa2_log(sd) == -1
    # the Frobenius bound clears every gate on the way: no SVD either
    assert calls == {"complex": 0, "real": 4, "svd": 0}


def test_anti_selfduality_gate_falls_back_to_exact_norm():
    # X + eps I has defect X + X^# = 2 eps I: operator norm 2 eps, Frobenius
    # norm 2 eps sqrt(8); the decision follows the operator norm
    I = np.eye(4)
    O = np.zeros((4, 4))
    X = np.block([[O, I], [I, O]])
    assert modified_pfaffian(X + 0.4e-7 * np.eye(8)) == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(NotAntiSelfDual):
        modified_pfaffian(X + 0.6e-7 * np.eye(8))
