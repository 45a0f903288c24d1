"""Unit tests for the dense matrix kernel."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acbott.errors import (
    DimensionMismatch,
    InvalidMatrix,
    NotHermitian,
    NotUnitary,
    SingularMatrix,
)
from acbott.linalg import (
    TrigPoly,
    apply_periodic,
    apply_trigpoly,
    as_matrix,
    commutator_norm,
    hermitian_eig,
    make_pair,
    operator_norm,
    unitary_eig,
    unitary_part,
)
from support import haar_unitary, random_hermitian


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(InvalidMatrix):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_empty():
    with pytest.raises(InvalidMatrix):
        as_matrix(np.zeros((0, 0)))


def test_as_matrix_rejects_nonfinite():
    A = np.eye(3, dtype=complex)
    A[1, 2] = np.nan
    with pytest.raises(InvalidMatrix):
        as_matrix(A)
    A[1, 2] = 1j * np.inf
    with pytest.raises(InvalidMatrix):
        as_matrix(A)


def test_operator_norm_matches_svd(rng):
    for d in (1, 3, 17, 40):
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)


def test_operator_norm_large_power_iteration(rng):
    # a large input still gets the exact dense-SVD norm
    d = 600
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-6)


def test_operator_norm_exact_where_power_iteration_reads_low():
    # the top singular vector u is orthogonal to the start vector of a power
    # iteration seeded with default_rng(0), which would stall at 1e-9
    d = 600
    rng = np.random.default_rng(0)
    start = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    u = np.ones(d, dtype=complex)
    u -= (start.conj() @ u) / (start.conj() @ start) * start
    u /= np.linalg.norm(u)
    A = 2e-8 * np.outer(u, u.conj()) + 1e-9 * np.eye(d)
    assert operator_norm(A) == pytest.approx(2.1e-8, rel=1e-9)
    # ||H - H*|| = 4.2e-8 is above the 1e-8 hermiticity gate
    with pytest.raises(NotHermitian):
        hermitian_eig(np.eye(d) + 1j * A)


def test_operator_norm_zero():
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_commutator_norm(rng):
    D1 = np.diag(rng.standard_normal(5)).astype(complex)
    D2 = np.diag(rng.standard_normal(5)).astype(complex)
    assert commutator_norm(D1, D2) == 0.0
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert commutator_norm(A, B) == pytest.approx(np.linalg.norm(A @ B - B @ A, 2))
    with pytest.raises(DimensionMismatch):
        commutator_norm(A, np.eye(4))


@given(d=st.integers(2, 10), seed=st.integers(0, 10_000))
def test_unitary_eig_reconstructs(d, seed):
    V = haar_unitary(d, np.random.default_rng(seed))
    angles, Q = unitary_eig(V)
    back = (Q * np.exp(1j * angles)) @ Q.conj().T
    assert np.linalg.norm(back - V, 2) < 1e-10
    assert np.all(angles > -np.pi) and np.all(angles <= np.pi)


def test_unitary_eig_branch_at_minus_one():
    angles, _ = unitary_eig(-np.eye(3, dtype=complex))
    assert np.allclose(angles, np.pi)
    angles2, _ = unitary_eig(np.diag([-1.0, 1.0, 1j]))
    assert np.isclose(sorted(angles2)[-1], np.pi)


def test_unitary_eig_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        unitary_eig(2 * np.eye(3))


def test_apply_periodic_identity_function(rng):
    V = haar_unitary(6, rng)
    back = apply_periodic(lambda t: np.exp(1j * t), V)
    assert np.linalg.norm(back - V, 2) < 1e-10


def test_apply_periodic_real_function_is_hermitian(rng):
    V = haar_unitary(7, rng)
    M = apply_periodic(np.cos, V)
    assert np.linalg.norm(M - M.conj().T, 2) < 1e-12


def test_apply_trigpoly_matches_periodic_calculus(rng):
    # Horner route vs eigendecomposition route
    p = TrigPoly.from_sin_series([1.0, 0.0, 0.25])
    q = TrigPoly.from_cos_series(0.3, [0.5, 0.125])
    V = haar_unitary(9, rng)
    for poly in (p, q):
        a = apply_trigpoly(poly, V)
        b = apply_periodic(lambda t, poly=poly: poly(t), V)
        assert np.linalg.norm(a - b, 2) < 1e-10


def test_unitary_part_recovers_polar_factor(rng):
    U = haar_unitary(8, rng)
    P = np.eye(8) + 0.3 * random_hermitian(8, rng)
    W = unitary_part(U @ P)
    assert np.linalg.norm(W - U, 2) < 1e-10


def test_unitary_part_singular_gate():
    A = np.diag([1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(SingularMatrix):
        unitary_part(A)


def test_hermitian_eig_gate(rng):
    H = random_hermitian(5, rng)
    eigs = hermitian_eig(H)
    assert np.all(np.diff(eigs) >= 0)
    with pytest.raises(NotHermitian):
        hermitian_eig(H + 0.01j * np.eye(5))


amps = st.lists(
    st.floats(-2, 2, allow_nan=False, allow_infinity=False), min_size=1, max_size=6
)


@given(a=amps)
def test_trigpoly_sin_series_values(a):
    p = TrigPoly.from_sin_series(a)
    x = np.linspace(-np.pi, np.pi, 101)
    direct = sum(ak * np.sin((k + 1) * x) for k, ak in enumerate(a))
    assert np.max(np.abs(p.real_values(x) - direct)) < 1e-12
    assert p.is_real_valued()


@given(a0=st.floats(-2, 2, allow_nan=False), a=amps)
def test_trigpoly_cos_series_values(a0, a):
    p = TrigPoly.from_cos_series(a0, a)
    x = np.linspace(-np.pi, np.pi, 101)
    direct = a0 + sum(ak * np.cos((k + 1) * x) for k, ak in enumerate(a))
    assert np.max(np.abs(p.real_values(x) - direct)) < 1e-12


def test_trigpoly_partial_sums_are_the_truncations(rng):
    n = 4
    p = TrigPoly(n, rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1))
    x = np.linspace(-np.pi, np.pi, 257)
    for k, value in enumerate(p.partial_sums(x)):
        truncated = TrigPoly(k, p.coeffs[n - k : n + k + 1])
        assert np.array_equal(value, truncated(x))
    assert k == n
    assert np.array_equal(value, p(x))


def test_trigpoly_derivative_l1_exact():
    # dyadic amplitudes make this equality exact in floating point
    f5 = TrigPoly.from_sin_series([150 / 128, 0.0, 25 / 128, 0.0, 3 / 128])
    assert f5.derivative_l1() == 1.875


def test_trigpoly_coeff_out_of_range():
    p = TrigPoly.from_sin_series([1.0])
    assert p.coeff(5) == 0j
    assert p.coeff(1) == pytest.approx(1 / 2j)


def test_trigpoly_bad_coefficient_count():
    with pytest.raises(InvalidMatrix):
        TrigPoly(2, np.zeros(3))


def test_make_pair_validates(rng):
    U = haar_unitary(5, rng)
    V = haar_unitary(5, rng)
    pair = make_pair(U, V)
    assert pair.dim == 5
    assert pair.delta == pytest.approx(commutator_norm(U, V))
    with pytest.raises(DimensionMismatch):
        make_pair(U, haar_unitary(4, rng))
    with pytest.raises(NotUnitary):
        make_pair(1.1 * U, V)
