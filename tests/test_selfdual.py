"""Dual operation, Pfaffians, and the sign index kappa_2."""

import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

import acbott.selfdual as selfdual
from acbott.analysis import analyze
from acbott.bott import (
    _eigenbasis_B,
    _trig_values,
    bott_index,
    build_B,
)
from acbott.config import DEFAULT_TOL
from acbott.errors import (
    DimensionMismatch,
    IllConditionedSign,
    NoObstruction,
    NotAntiSelfDual,
    NotHermitian,
    NotSelfDual,
    NumericalInconsistency,
    ThresholdExceeded,
)
from acbott.generators import (
    commuting_random,
    cyclic_shift_pair,
    perturb,
    perturb_selfdual,
    powered_pair,
    selfdual_doubling,
)
from acbott.linalg import make_pair
from acbott.logmethod import _log_values, build_BL, kappa2_log
from acbott.selfdual import (
    SelfDualPair,
    _pfaffian_sign,
    _real_pfaffian_sign_log,
    dual,
    make_selfdual_pair,
    pfaffian_bott_index,
    selfdual_distance_bounds,
    selfdual_part,
)
from support import (
    NotSkewSymmetric,
    OddDimension,
    _pfaffian_sign_log,
    check_kramers,
    dual_tensor,
    haar_unitary,
    horner_B,
    modified_pfaffian,
    pfaffian,
    pfaffian_cofactor,
    random_hermitian,
    random_skew,
    rotated,
    standard_basis_B,
    standard_form,
    unitary_eig,
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
    # entries are negated, not multiplied by -1.0: a zero of B turns -0 - 0j
    X[0, N] = 0.0
    assert np.signbit(dual(X)[0, N].real) and np.signbit(dual(X)[0, N].imag)


@pytest.mark.parametrize("N", [1, 3, 16, 64])
def test_rotation_by_slicing_matches_dense_product(N, monkeypatch):
    # with Q = I, g = 0 and h = 1 the corner is L = U exactly, so the route
    # writes R from any tiled f and any L; R is read where dgehrd gets it
    import scipy.linalg.lapack

    rng = _rand(100 + N)
    n = 2 * N
    f = np.tile(rng.normal(size=N), 2)
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    L = 3.0 * selfdual_part(M) + 1e-10 * rng.normal(size=(n, n))
    pair = SimpleNamespace(U=L, v_eig=(np.zeros(n), np.eye(n, dtype=complex)))
    seen = []
    dgehrd = scipy.linalg.lapack.dgehrd

    def spy(a, **kwargs):
        seen.append(a.copy(order="K"))
        return dgehrd(a, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgehrd", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedSign)  # a random B's gap
        _pfaffian_sign(pair, lambda angles: (f, np.zeros(n), np.ones(n)))
    (R,) = seen
    F = np.diag(f)
    dense = rotated(np.block([[F, L.conj().T], [L, -F]]))
    tol = 1e-14 * max(1.0, np.linalg.norm(L, 2))
    assert np.max(np.abs(R - dense.imag)) <= tol
    assert np.max(np.abs(dense.real)) <= tol
    assert np.array_equal(R, -R.T)
    assert R.flags.f_contiguous


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
    assert np.array_equal(dual_tensor(M), expected)
    assert np.array_equal(dual_tensor(dual_tensor(M)), M)


def test_block_matrix_is_anti_selfdual_on_selfdual_pair():
    sd = selfdual_doubling(cyclic_shift_pair(12))
    B = build_B(sd).B
    assert np.linalg.norm(dual_tensor(B) + B, 2) < 1e-9


def test_make_selfdual_pair_gates(rng):
    sd = selfdual_doubling(cyclic_shift_pair(6))
    again = make_selfdual_pair(sd.U, sd.V)
    assert again.N == 6
    with pytest.raises(DimensionMismatch, match="got 5"):
        make_selfdual_pair(haar_unitary(5, rng), haar_unitary(5, rng))
    with pytest.raises(DimensionMismatch, match="got 5"):
        dual(rng.standard_normal((5, 5)))
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
    with pytest.raises(DimensionMismatch, match="got 6"):
        modified_pfaffian(random_skew(6, rng))
    with pytest.raises(DimensionMismatch, match="got 6"):
        dual_tensor(random_skew(6, rng))
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
    pf = modified_pfaffian(horner_B(sd).B)
    assert pf.real < 0 and abs(pf.imag) <= 1e-9 * abs(pf)


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
    a = selfdual_doubling(commuting_random(64, seed=1))
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


def test_selfdual_distance_bound_refuses_pairs_of_different_dims():
    # refused before V is factorized, after the type and threshold refusals
    a = selfdual_doubling(cyclic_shift_pair(32))
    b = selfdual_doubling(commuting_random(3, seed=0))
    for first, second in ((a, b), (b, a)):
        with pytest.raises(DimensionMismatch):
            selfdual_distance_bounds(first, second)
    assert "v_eig" not in vars(a) and "v_eig" not in vars(b)
    with pytest.raises(NotSelfDual):
        selfdual_distance_bounds(make_pair(a.U, a.V), b)
    with pytest.raises(ThresholdExceeded):
        selfdual_distance_bounds(selfdual_doubling(cyclic_shift_pair(8)), b)


# ---------------------------------------------------------------------------
# the real Hessenberg route behind kappa2
# ---------------------------------------------------------------------------


def _both_routes(B):
    """(complex phase, log|Pf|) and (sign, log|Pf|) of Pf(Q* B Q): the
    Householder route on the dense rotation, and the library's real
    reduction of its imaginary part."""
    norm = float(np.max(np.abs(np.linalg.eigvalsh(B))))
    S = rotated(B)
    assert np.linalg.norm(S.real) <= 1e-12 * max(1.0, norm)
    sign, log_mag, _, _ = _real_pfaffian_sign_log(np.asfortranarray(S.imag))
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
    # same anchor as the complex route: the pair (I, I) has f = g = 0 and
    # h = 1 at its angles on both triples, so B = ((0,I),(I,0)), Pfaffian +1
    for N in (1, 2, 3):
        sd = make_selfdual_pair(np.eye(2 * N), np.eye(2 * N))
        for values in (_trig_values, _log_values):
            assert _pfaffian_sign(sd, values).sign == 1


@pytest.mark.parametrize("corner", [0.0, 1.0])
def test_real_route_raises_at_a_zero_pivot(corner):
    # R = corner * J (+) 0 is exactly singular, so T has a zero pivot
    R = np.zeros((4, 4), order="F")
    R[0, 1], R[1, 0] = corner, -corner
    with pytest.raises(NumericalInconsistency, match="modified Pfaffian vanished"):
        _real_pfaffian_sign_log(R)


def test_kappa2_selfdual_N256():
    # B has dim 1024; the magnitude cross-check must pass without warning
    sd = selfdual_doubling(cyclic_shift_pair(256))
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedSign)
        report = analyze(sd)
    assert report.kappa2 == -1
    assert report.kappa == 0
    assert report.kappa_certified


def test_selfdual_pair_with_a_non_selfdual_U_is_refused():
    # a SelfDualPair made without make_selfdual_pair's gates: U is off
    # self-duality by about 1e-6, and so is the corner L of B
    base = selfdual_doubling(cyclic_shift_pair(32))
    U = base.U @ expm(1e-6j * random_hermitian(base.dim, _rand(3)))
    assert 5e-7 <= np.linalg.norm(U - dual(U), 2) <= 5e-6
    pair = make_pair(U, base.V)
    sd = SelfDualPair(pair.U, pair.V, pair.delta)
    for method in ("trig", "log"):
        with pytest.raises(NotAntiSelfDual):
            analyze(sd, method=method)


def test_sign_functions_refuse_a_plain_pair_before_any_work():
    # exactly self-dual matrices, but not a SelfDualPair: the type decides,
    # before V is factorized (v_eig is cached on first use)
    sd = selfdual_doubling(cyclic_shift_pair(64))
    pair = make_pair(sd.U, sd.V)
    for call in (
        lambda: pfaffian_bott_index(pair),
        lambda: kappa2_log(pair),
        lambda: selfdual_distance_bounds(pair, sd),
        lambda: selfdual_distance_bounds(sd, pair),
    ):
        with pytest.raises(NotSelfDual, match="make_selfdual_pair"):
            call()
        assert "v_eig" not in vars(pair)


def test_no_selfdual_path_assembles_B(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complex B assembled on a self-dual path")

    for name, module in list(sys.modules.items()):
        if name.startswith("acbott") and hasattr(module, "_eigenbasis_B"):
            monkeypatch.setattr(module, "_eigenbasis_B", refuse)
    sd = selfdual_doubling(cyclic_shift_pair(64))
    for method in ("trig", "log"):
        assert analyze(sd, method=method).kappa2 == -1
    assert pfaffian_bott_index(sd) == -1
    assert kappa2_log(sd) == -1


def test_pfaffian_sign_working_set():
    # L, its dual and their difference are half a real (4N)^2 array each,
    # and R is one; the complex B alone would be two
    N = 128
    sd = selfdual_doubling(cyclic_shift_pair(N))
    sd.v_eig  # V's factorization is cached on the pair, not the request's
    _pfaffian_sign(sd, _trig_values)  # first call: imports and caches
    tracemalloc.start()
    try:
        _pfaffian_sign(sd, _trig_values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * (4 * N) ** 2 * 8


def test_pfaffian_sign_warns_when_the_reduction_residual_reaches_the_gap(monkeypatch):
    # an entry far above H's superdiagonal, as large as T's gap, leaves T's
    # band and so the sign untouched, but only the residual term of eta
    # sees it, and eta then reaches the gap
    import scipy.linalg.lapack

    sd = selfdual_doubling(cyclic_shift_pair(12))
    clean = _pfaffian_sign(sd, _trig_values)
    assert clean.reliable and clean.eta < 1e-10
    dgehrd = scipy.linalg.lapack.dgehrd

    def spoiled(a, **kwargs):
        H, tau, info = dgehrd(a, **kwargs)
        H[0, -1] += clean.gap
        return H, tau, info

    monkeypatch.setattr(scipy.linalg.lapack, "dgehrd", spoiled)
    with pytest.warns(IllConditionedSign):
        record = _pfaffian_sign(sd, _trig_values)
    assert record.reliable is False
    assert record.eta >= record.gap == clean.gap
    assert record.sign == clean.sign == -1


def test_kappa2_callers_never_take_the_complex_loop(monkeypatch):
    # the complex Householder route is the tests' oracle, not a library route
    assert not hasattr(selfdual, "_pfaffian_sign_log")
    sd = selfdual_doubling(cyclic_shift_pair(64))
    calls = {"real": 0, "svd": 0}
    real_route = selfdual._real_pfaffian_sign_log

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(selfdual, "_real_pfaffian_sign_log", counted("real", real_route))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    for method in ("trig", "log"):
        assert analyze(sd, method=method).kappa2 == -1
    assert pfaffian_bott_index(sd) == -1
    assert kappa2_log(sd) == -1
    # the Frobenius bound clears every gate on the way: no SVD either
    assert calls == {"real": 4, "svd": 0}


def test_anti_selfduality_gate_falls_back_to_exact_norm():
    # X + eps I has defect X + X^# = 2 eps I: operator norm 2 eps, Frobenius
    # norm 2 eps sqrt(8); the decision follows the operator norm
    I = np.eye(4)
    O = np.zeros((4, 4))
    X = np.block([[O, I], [I, O]])
    assert modified_pfaffian(X + 0.4e-7 * np.eye(8)) == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(NotAntiSelfDual):
        modified_pfaffian(X + 0.6e-7 * np.eye(8))


# ---------------------------------------------------------------------------
# V in a Kramers basis
# ---------------------------------------------------------------------------


_KRAMERS_BASIS_PAIRS = {
    "doubled_cyclic_6": lambda: selfdual_doubling(cyclic_shift_pair(6)),
    "doubled_cyclic_64": lambda: selfdual_doubling(cyclic_shift_pair(64)),
    "perturbed_doubling": lambda: perturb_selfdual(
        selfdual_doubling(cyclic_shift_pair(33)), 0.02, seed=0
    ),
    "identity": lambda: make_selfdual_pair(np.eye(4), np.eye(4)),
    "minus_identity": lambda: make_selfdual_pair(np.eye(4), -np.eye(4)),
    "doubled_powered_pair": lambda: selfdual_doubling(powered_pair(8, 2)),
    "defect_near_next_cluster": lambda: _defect_near_next_cluster(),
    "chain_of_pairs": lambda: make_selfdual_pair(
        np.eye(6), np.diag(np.exp(1j * np.tile([0.0, 1.9e-8, 3.8e-8], 2)))
    ),
}


def _defect_near_next_cluster():
    """Kramers pairs at 0.3 and 0.3 + 3e-8, then a self-duality defect of 8e-10.

    Each pair's partner vector is an eigenvector of V^#, tilted towards the
    other pair's eigenvectors by about defect / gap = 3%.
    """
    V0 = np.diag(np.exp(1j * (0.3 + np.array([0.0, 3e-8, 0.0, 3e-8]))))
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = (M + M.conj().T) / 2
    H -= dual(H)
    V = V0 @ expm(4e-10j * H / np.linalg.norm(H, 2))
    return make_selfdual_pair(selfdual_doubling(commuting_random(2, seed=1)).U, V)


@pytest.mark.parametrize(
    "make", _KRAMERS_BASIS_PAIRS.values(), ids=_KRAMERS_BASIS_PAIRS.keys()
)
def test_v_eig_of_a_selfdual_pair_is_a_kramers_basis(make):
    sd = make()
    angles, Q = sd.v_eig
    N = sd.N
    assert np.max(np.abs(dual(Q) - Q.conj().T)) <= 1e-12
    assert np.max(np.abs(Q.conj().T @ Q - np.eye(sd.dim))) <= 1e-12
    assert np.array_equal(angles[:N], angles[N:])
    residual = np.linalg.norm(sd.V @ Q - Q * np.exp(1j * angles))
    assert residual <= DEFAULT_TOL.unitary * np.sqrt(sd.dim)


def _schur_basis_B(pair, values):
    """B from V's Schur form in the standard basis: no basis shared with v_eig,
    and no assembly code shared with the library."""
    angles, Q = unitary_eig(pair.V)
    fV, gV, hV = ((Q * v) @ Q.conj().T for v in values(angles))
    return standard_basis_B(fV, gV, hV, pair.U)


@pytest.mark.parametrize("method", ["trig", "log"])
def test_kramers_route_matches_the_schur_basis_oracle(method):
    # the request path, and build_B or build_BL, on self-dual and plain pairs
    values = _log_values if method == "log" else _trig_values
    build = build_BL if method == "log" else build_B
    base = selfdual_doubling(cyclic_shift_pair(32))
    plain = cyclic_shift_pair(33)
    for pair in (
        base,
        selfdual_doubling(cyclic_shift_pair(31)),
        perturb_selfdual(base, 0.02, seed=1),
        selfdual_doubling(commuting_random(6, seed=0)),
        plain,
        perturb(plain, 0.02, seed=1),
        commuting_random(12, seed=0),
    ):
        B = _schur_basis_B(pair, values)
        eigs = np.linalg.eigvalsh(B)
        report = analyze(pair, method=method)
        assert report.gap_measured == pytest.approx(np.min(np.abs(eigs)), abs=1e-12)
        built = build(pair)
        # built.B is in V's (Kramers) eigenbasis Q; the oracle's in the standard one
        Q2 = np.kron(np.eye(2), pair.v_eig[1])
        assert np.max(np.abs(Q2 @ built.B @ Q2.conj().T - B)) <= 1e-12
        assert np.max(np.abs(built.eigs - eigs)) <= 1e-12
        assert np.array_equal(built.eigs, _eigenbasis_B(pair, values).eigs)
        if isinstance(pair, SelfDualPair):
            pf = modified_pfaffian(B)
            assert abs(pf.imag) <= 1e-9 * abs(pf)
            assert report.kappa2 == (1 if pf.real > 0 else -1)
            # the request's spectrum is the real reduction's tridiagonal one
            record = _pfaffian_sign(pair, values)
            assert report.gap_measured == record.gap
            assert np.max(np.abs(record.eigs - eigs)) <= 1e-12


@pytest.mark.parametrize("method", ["trig", "log"])
def test_kramers_route_reads_B_of_the_factorized_V(method):
    # the route's B is B(U, V') for V' = Q e^{i Theta} Q*, exactly self-dual;
    # V' sits within V's self-duality defect of V, and B moves with it
    values = _log_values if method == "log" else _trig_values
    sd = _defect_near_next_cluster()
    angles, Q = sd.v_eig
    Vk = (Q * np.exp(1j * angles)) @ Q.conj().T
    gap = analyze(sd, method=method).gap_measured
    for V, tol in ((Vk, 1e-12), (sd.V, 2 * np.linalg.norm(sd.V - Vk, 2))):
        B = _schur_basis_B(make_pair(sd.U, V), values)
        assert gap == pytest.approx(np.min(np.abs(np.linalg.eigvalsh(B))), abs=tol)


def _selfdual_test_pairs():
    yield from _kappa2_test_pairs()
    for make in _KRAMERS_BASIS_PAIRS.values():
        yield make()
    base = selfdual_doubling(cyclic_shift_pair(32))
    yield perturb_selfdual(base, 0.02, seed=1)
    for eps, seed in ((1e-11, 0), (4e-10, 1)):  # a deliberate self-duality defect
        moved = base.V @ expm(1j * eps * random_hermitian(base.dim, _rand(seed)))
        yield make_selfdual_pair(base.U, moved)


@pytest.mark.parametrize("method", ["trig", "log"])
def test_tridiagonal_spectrum_is_B_within_eta(method):
    # the complex spectrum of the B that the route reads, B(U, V') for the
    # exactly self-dual V' of V's Kramers basis, is the oracle: by Weyl each
    # of its eigenvalues lies within eta of the tridiagonal's
    values = _log_values if method == "log" else _trig_values
    for sd in _selfdual_test_pairs():
        eigs = _eigenbasis_B(sd, values).eigs
        record = _pfaffian_sign(sd, values)
        assert record.reliable
        assert np.max(np.abs(record.eigs - eigs)) <= record.eta
        assert abs(record.gap - np.min(np.abs(eigs))) <= record.eta
        assert record.eta <= 1e-9


def test_no_request_path_assembles_in_the_standard_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("standard-basis assembly on a request path")

    for name, module in list(sys.modules.items()):
        if name.startswith("acbott"):
            for attr in ("build_B", "build_BL"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    plain = cyclic_shift_pair(32)
    sd = selfdual_doubling(cyclic_shift_pair(64))
    for method in ("trig", "log"):
        assert analyze(plain, method=method).kappa == -1
        assert analyze(sd, method=method).kappa2 == -1
    assert bott_index(plain) == -1
    assert pfaffian_bott_index(sd) == -1
    assert kappa2_log(sd) == -1
