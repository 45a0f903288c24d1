"""Dense complex matrix kernel.

Everything downstream consumes these few primitives: operator norms,
commutators, unitary eigendecomposition with a fixed branch rule and polar
parts.
A unitary is diagonalized by its complex Schur form, except V of a pair,
which takes one hermitian ``eigh`` of a Cayley transform of V and keeps the
Schur form as its fallback.

Matrices are plain ``numpy.ndarray`` objects with complex entries; helpers
here validate shape and finiteness at the boundary so the index modules can
assume well-formed input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    DimensionMismatch,
    InvalidMatrix,
    NotUnitary,
    SingularMatrix,
)


def as_matrix(X) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    A = np.asarray(X, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise InvalidMatrix(f"expected a nonempty square matrix, got shape {A.shape}")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise InvalidMatrix("matrix contains NaN or Inf entries")
    return A


def require_same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")


def operator_norm(X) -> float:
    """Largest singular value of ``X``, from a full SVD."""
    return float(np.linalg.svd(as_matrix(X), compute_uv=False)[0])


def gate_norm(X: np.ndarray, limit: float) -> float:
    """||X||_2 as far as a gate ``norm > limit`` needs it.

    The Frobenius norm bounds the operator norm from above (Golub & Van Loan,
    section 2.3): when it is at most limit the gate passes and it is
    returned, otherwise the exact norm from an SVD is.  Every decision is
    the one the exact norm gives, and a reported failure carries the exact
    value.
    """
    bound = float(np.linalg.norm(X))
    return bound if bound <= limit else operator_norm(X)


def gate_relative(X: np.ndarray, A: np.ndarray, tol: float) -> Optional[float]:
    """The exact ||X||_2 when it exceeds tol * max(1, ||A||_2), else None.

    Decided as the exact norms would, with the cheap bounds first: ||X||
    through :func:`gate_norm` against the scale's lower bound max|a_ij|;
    a failure there against the upper bound ||A||_F; only in between does
    ||A|| take an SVD.  A valid input costs no SVD.
    """
    low = tol * max(1.0, float(np.max(np.abs(A))))
    err = gate_norm(X, low)
    if err <= low:
        return None
    if err > tol * max(1.0, float(np.linalg.norm(A))):
        return err
    return err if err > tol * max(1.0, operator_norm(A)) else None


def eig_residual(A: np.ndarray, angles: np.ndarray, Q: np.ndarray) -> Optional[float]:
    """||AQ - Q e^{i Theta}||_F of a unitary's factorization when it exceeds
    1e-8 * sqrt(n), else None.

    A unitarity defect eps spread over n eigenvalues leaves a residual of
    about eps * sqrt(n), so a bound of 1e-8, the unitarity gate's width,
    would refuse inputs that the gate admits.
    """
    residual = A @ Q
    residual -= Q * np.exp(1j * angles)
    norm = float(np.linalg.norm(residual))
    return norm if norm > DEFAULT_TOL.unitary * np.sqrt(A.shape[0]) else None


def _check_unitary(V: np.ndarray, tol: float) -> None:
    d = V.shape[0]
    err = gate_norm(V.conj().T @ V - np.eye(d), tol)
    if err > tol:
        raise NotUnitary(f"||V*V - I|| = {err:.3e} exceeds tolerance {tol:.1e}")


def _schur_angles(A: np.ndarray):
    """``(angles, Q)`` with A = Q diag(e^{i angles}) Q*, from the complex
    Schur form of an A whose unitarity is already checked.

    The branch rule: angles lie in (-pi, pi], and an eigenvalue within
    ``DEFAULT_TOL.branch`` of -1 maps to +pi, which makes the branch
    deterministic at the cut.
    """
    from scipy.linalg import schur

    T, Q = schur(A, output="complex")
    lam = np.diag(T)
    angles = np.angle(lam)
    # at the cut: -1 (from either side) goes to +pi
    angles[np.abs(lam + 1.0) <= DEFAULT_TOL.branch] = np.pi
    angles[angles <= -np.pi] = np.pi
    return angles, Q


def _cayley_angles(A: np.ndarray):
    """:func:`_schur_angles` of a checked unitary A by one hermitian ``eigh``.

    The eigenvalues of (A + A*)/2 are the cosines of A's angles, so their
    arccos values +-t_k include every angle; the cut psi is the midpoint of
    the widest gap between these 2n points, at least pi/(2n) from every
    eigenvalue.  With phi = psi - pi the rotated A_phi = e^{-i phi} A has -1
    at the cut, and its Cayley transform H = i(I + A_phi)^{-1}(I - A_phi) is
    hermitian with eigenvalues tan((theta - phi)/2) (one LU solve, made in
    place).  The angles follow as phi + 2 arctan(lambda), wrapped to
    (-pi, pi] with the branch rule of :func:`_schur_angles`.  When
    :func:`eig_residual` finds the residual above its bound, the Schur route
    is taken instead.
    """
    from scipy.linalg.lapack import zgesv

    d = A.shape[0]
    half = np.arccos(np.clip(np.linalg.eigvalsh((A + A.conj().T) / 2), -1.0, 1.0))
    points = np.sort(np.concatenate((-half, half)))
    gaps = np.diff(points, append=points[0] + 2.0 * np.pi)
    widest = int(np.argmax(gaps))
    phi = points[widest] + gaps[widest] / 2.0 - np.pi
    # M = I + A_phi and R = i(I - A_phi) = i(2I - M); R M^{-1} = H as the two
    # commute, and solving M^T X = R^T on the transposed (Fortran-ordered)
    # views overwrites R with X = H^T
    M = A * np.exp(-1j * phi)
    M[np.diag_indices(d)] += 1.0
    R = M * -1j
    R[np.diag_indices(d)] += 2j
    _, _, X, info = zgesv(M.T, R.T, overwrite_a=1, overwrite_b=1)
    del M
    if info != 0:
        return _schur_angles(A)
    H = X.T + X.conj()
    del X, R
    H *= 0.5
    lam, Q = np.linalg.eigh(H)
    del H
    angles = phi + 2.0 * np.arctan(lam)
    angles[angles > np.pi] -= 2.0 * np.pi
    angles[angles <= -np.pi] += 2.0 * np.pi
    # |e^{i theta} + 1| = 2 |cos(theta / 2)|, the Schur route's distance to -1
    angles[2.0 * np.abs(np.cos(angles / 2.0)) <= DEFAULT_TOL.branch] = np.pi
    if eig_residual(A, angles, Q) is not None:
        return _schur_angles(A)
    return angles, Q


def unitary_part(A) -> np.ndarray:
    """Unitary factor of the polar decomposition, A (A*A)^(-1/2)."""
    M = as_matrix(A)
    P, s, Qh = np.linalg.svd(M)
    if s[-1] <= DEFAULT_TOL.singular * max(s[0], 1.0):
        raise SingularMatrix(
            f"smallest singular value {s[-1]:.3e} below gate; polar part unreliable"
        )
    return P @ Qh


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class UnitaryPair:
    """Validated pair of same-size unitaries with cached commutator norm.

    The pair also caches its two factorizations, each made on first use:
    ``v_eig`` is V's ``(angles, Q)`` with :func:`_schur_angles`'s branch rule
    (one ``eigvalsh`` to place a cut and one ``eigh`` of a Cayley transform,
    see :func:`_cayley_angles`; ``make_pair`` has already checked V's
    unitarity) and ``w_angles`` the eigenangles of W = VUV*U* from its
    Schur form.
    Every library call on the pair reads these, so a pair pays one
    factorization of each matrix however many invariants are asked of it.
    U and V must therefore not be mutated after ``make_pair``, which delta
    already relies on; the cached arrays are read-only.
    """

    U: np.ndarray
    V: np.ndarray
    delta: float

    @property
    def dim(self) -> int:
        return self.U.shape[0]

    def multiplicative_commutator(self) -> np.ndarray:
        """W = VUV*U*, gated for unitarity at 10 * ``DEFAULT_TOL.unitary``:
        the products compound U's and V's defects."""
        U, V = self.U, self.V
        W = V @ U @ V.conj().T @ U.conj().T
        _check_unitary(W, 10 * DEFAULT_TOL.unitary)
        return W

    @functools.cached_property
    def v_eig(self):
        """``(angles, Q)`` of V with :func:`_schur_angles`'s branch rule.

        Made by one ``eigh`` of a Cayley transform of V, or by the Schur
        form when that leaves a residual above 1e-8 * sqrt(dim); a
        ``SelfDualPair`` regroups it into a Kramers basis.
        """
        angles, Q = _cayley_angles(self.V)
        return _read_only(angles), _read_only(Q)

    @functools.cached_property
    def w_angles(self) -> np.ndarray:
        """W's eigenangles with :func:`_schur_angles`'s branch rule."""
        angles, _ = _schur_angles(self.multiplicative_commutator())
        return _read_only(angles)


def make_pair(U, V) -> UnitaryPair:
    """Gate both matrices for unitarity and cache delta = ||[U, V]||; nearly
    unitary input takes its polar parts first (:func:`unitary_part`)."""
    A, B = as_matrix(U), as_matrix(V)
    require_same_dim(A, B)
    _check_unitary(A, DEFAULT_TOL.unitary)
    _check_unitary(B, DEFAULT_TOL.unitary)
    return UnitaryPair(A, B, operator_norm(A @ B - B @ A))
