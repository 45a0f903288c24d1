"""Shared matrix generators for the test suite.

These are deliberately independent of the generators module so that tests of
that module have something to check against.
"""

import numpy as np

from acbott.bott import BottMatrix, assemble_blocks, standard_triple
from acbott.linalg import apply_trigpoly


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    ph = np.diag(R)
    return Q * (ph / np.abs(ph))


def random_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (A + A.conj().T) / 2
    return scale * H / np.linalg.norm(H, 2)


def random_skew(d: int, rng: np.random.Generator, complex_entries: bool = True) -> np.ndarray:
    A = rng.standard_normal((d, d))
    if complex_entries:
        A = A + 1j * rng.standard_normal((d, d))
    return A - A.T


def shift_matrix(n: int) -> np.ndarray:
    U = np.zeros((n, n), dtype=complex)
    for j in range(n):
        U[(j + 1) % n, j] = 1.0
    return U


def clock_matrix(n: int) -> np.ndarray:
    # descending clock, k = 1..n
    return np.diag(np.exp(-2j * np.pi * np.arange(1, n + 1) / n))


def pfaffian_cofactor(X: np.ndarray) -> complex:
    """Recursive first-row cofactor expansion; exponential, keep dim <= 10."""
    d = X.shape[0]
    if d % 2:
        raise ValueError("odd dimension")
    if d == 0:
        return 1.0 + 0.0j
    if d == 2:
        return complex(X[0, 1])
    total = 0.0 + 0.0j
    for j in range(1, d):
        keep = [k for k in range(d) if k not in (0, j)]
        minor = X[np.ix_(keep, keep)]
        total += (-1.0) ** (j + 1) * X[0, j] * pfaffian_cofactor(minor)
    return total


def horner_B(pair) -> BottMatrix:
    """B(U, V) from the degree-5 approximants f5, g5, h5 of the triple.

    Each is evaluated at V by Horner accumulation (``apply_trigpoly``), with
    no eigendecomposition, so this is a route to B independent of
    ``build_B``'s eigendecomposition of V.
    """
    t = standard_triple()
    fV, gV, hV = (apply_trigpoly(p, pair.V) for p in (t.f5, t.g5, t.h5))
    return BottMatrix.of(assemble_blocks(fV, gV, hV, pair.U))


def standard_form(N: int) -> np.ndarray:
    """Dense Z = ((0, I), (-I, 0)) of dimension 2N, the form behind X^# = -Z X^T Z."""
    eye = np.eye(N)
    zero = np.zeros((N, N))
    return np.block([[zero, eye], [-eye, zero]]).astype(complex)
