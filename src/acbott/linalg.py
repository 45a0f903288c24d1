"""Dense complex matrix kernel.

Everything downstream consumes these few primitives: operator norms,
commutators, unitary eigendecomposition with a fixed branch convention,
periodic functional calculus, polar parts, and trigonometric polynomials.
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
    NotHermitian,
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


def commutator_norm(U, V) -> float:
    """Operator norm of the commutator UV - VU."""
    A, B = as_matrix(U), as_matrix(V)
    require_same_dim(A, B)
    return operator_norm(A @ B - B @ A)


def _check_unitary(V: np.ndarray, tol: float) -> None:
    d = V.shape[0]
    err = gate_norm(V.conj().T @ V - np.eye(d), tol)
    if err > tol:
        raise NotUnitary(f"||V*V - I|| = {err:.3e} exceeds tolerance {tol:.1e}")


def unitary_eig(V, tol: float = DEFAULT_TOL.unitary):
    """Diagonalize a unitary matrix.

    Returns ``(angles, Q)`` with ``V = Q diag(exp(i*angles)) Q*``.  Angles
    live in (-pi, pi]; an eigenvalue numerically at -1 maps to +pi, which
    makes the branch deterministic at the cut.
    """
    A = as_matrix(V)
    _check_unitary(A, tol)
    return _schur_angles(A)


def _schur_angles(A: np.ndarray):
    """:func:`unitary_eig` of an A whose unitarity is already checked."""
    from scipy.linalg import schur

    T, Q = schur(A, output="complex")
    lam = np.diag(T)
    angles = np.angle(lam)
    # at the cut: -1 (from either side) goes to +pi
    angles[np.abs(lam + 1.0) <= DEFAULT_TOL.branch] = np.pi
    angles[angles <= -np.pi] = np.pi
    return angles, Q


def _cayley_angles(A: np.ndarray, tol: float):
    """:func:`unitary_eig` of a checked unitary A by one hermitian ``eigh``.

    The eigenvalues of (A + A*)/2 are the cosines of A's angles, so their
    arccos values +-t_k include every angle; the cut psi is the midpoint of
    the widest gap between these 2n points, at least pi/(2n) from every
    eigenvalue.  With phi = psi - pi the rotated A_phi = e^{-i phi} A has -1
    at the cut, and its Cayley transform H = i(I + A_phi)^{-1}(I - A_phi) is
    hermitian with eigenvalues tan((theta - phi)/2) (one LU solve, made in
    place).  The angles follow as phi + 2 arctan(lambda), wrapped to
    (-pi, pi] with the branch rule of :func:`_schur_angles`.  When the
    residual ||AQ - Q e^{i Theta}||_F exceeds tol, the Schur route is taken
    instead.
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
    residual = A @ Q
    residual -= Q * np.exp(1j * angles)
    if float(np.linalg.norm(residual)) > tol:
        return _schur_angles(A)
    return angles, Q


def apply_periodic(fn, V) -> np.ndarray:
    """Apply a 2pi-periodic scalar function to the eigenangles of unitary V."""
    angles, Q = unitary_eig(V)
    vals = np.asarray(fn(angles), dtype=complex)
    return (Q * vals) @ Q.conj().T


def apply_trigpoly(p: "TrigPoly", V) -> np.ndarray:
    """Evaluate a trigonometric polynomial at a unitary matrix.

    Horner accumulation in V for the nonnegative powers and in V* for the
    negative ones; no eigendecomposition involved, which makes this an
    independent route to the functional calculus.
    """
    A = as_matrix(V)
    _check_unitary(A, DEFAULT_TOL.unitary)
    d = A.shape[0]
    n = p.degree
    I = np.eye(d, dtype=complex)
    pos = p.coeff(n) * I
    for k in range(n - 1, 0, -1):
        pos = pos @ A
        pos += p.coeff(k) * I
    pos = pos @ A if n >= 1 else np.zeros_like(I)
    Astar = A.conj().T
    neg = p.coeff(-n) * I
    for k in range(n - 1, 0, -1):
        neg = neg @ Astar
        neg += p.coeff(-k) * I
    neg = neg @ Astar if n >= 1 else np.zeros_like(I)
    return pos + neg + p.coeff(0) * I


def unitary_part(A) -> np.ndarray:
    """Unitary factor of the polar decomposition, A (A*A)^(-1/2)."""
    M = as_matrix(A)
    P, s, Qh = np.linalg.svd(M)
    if s[-1] <= DEFAULT_TOL.singular * max(s[0], 1.0):
        raise SingularMatrix(
            f"smallest singular value {s[-1]:.3e} below gate; polar part unreliable"
        )
    return P @ Qh


def hermitian_eig(H) -> np.ndarray:
    """Real spectrum of a hermitian matrix, ascending."""
    A = as_matrix(H)
    err = gate_relative(A - A.conj().T, A, DEFAULT_TOL.hermitian)
    if err is not None:
        raise NotHermitian(f"||H - H*|| = {err:.3e} exceeds tolerance")
    return np.linalg.eigvalsh(A)


@dataclass(frozen=True)
class TrigPoly:
    """Finite Fourier series  sum_{k=-n..n} a_k e^{ikx}.

    ``coeffs[k + degree]`` holds a_k.  Real-valued series satisfy
    a_{-k} = conj(a_k).
    """

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.degree + 1,):
            raise InvalidMatrix(
                f"need {2 * self.degree + 1} coefficients for degree {self.degree}"
            )
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_sin_series(cls, amplitudes) -> "TrigPoly":
        """Build sum_k amplitudes[k-1] * sin(kx)."""
        amps = np.asarray(amplitudes, dtype=float)
        n = len(amps)
        c = np.zeros(2 * n + 1, dtype=complex)
        for k, a in enumerate(amps, start=1):
            c[n + k] = a / 2j
            c[n - k] = -a / 2j
        return cls(n, c)

    @classmethod
    def from_cos_series(cls, a0: float, amplitudes) -> "TrigPoly":
        """Build a0 + sum_k amplitudes[k-1] * cos(kx)."""
        amps = np.asarray(amplitudes, dtype=float)
        n = len(amps)
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n] = a0
        for k, a in enumerate(amps, start=1):
            c[n + k] = a / 2
            c[n - k] = a / 2
        return cls(n, c)

    def coeff(self, k: int) -> complex:
        if abs(k) > self.degree:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.degree])

    def partial_sums(self, x):
        """Yield the values at x of the truncations at degree 0, 1, ..., degree.

        One array is updated in place from each value to the next, so a
        caller that keeps a value past the next step must copy it.
        """
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.coeffs[self.degree], dtype=complex)
        yield out
        for k in range(1, self.degree + 1):
            e = np.exp(1j * k * x)
            out += self.coeffs[self.degree + k] * e
            out += self.coeffs[self.degree - k] * np.conj(e)
            yield out

    def __call__(self, x):
        for out in self.partial_sums(x):
            pass
        return out

    def real_values(self, x) -> np.ndarray:
        """Evaluate a real-valued series, returning float values."""
        return np.real(self(x))

    def is_real_valued(self) -> bool:
        """a_{-k} = conj(a_k) for every k, to 1e-12."""
        flipped = np.conj(self.coeffs[::-1])
        return bool(np.max(np.abs(self.coeffs - flipped)) <= 1e-12)

    def derivative_l1(self) -> float:
        """sum |k a_k|, the slope constant attached to this polynomial."""
        ks = np.arange(-self.degree, self.degree + 1)
        return float(np.sum(np.abs(ks * self.coeffs)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class UnitaryPair:
    """Validated pair of same-size unitaries with cached commutator norm.

    The pair also caches its two factorizations, each made on first use:
    ``v_eig`` is V's ``(angles, Q)`` with :func:`unitary_eig`'s conventions
    (one ``eigvalsh`` to place a cut and one ``eigh`` of a Cayley transform,
    see :func:`_cayley_angles`; ``make_pair`` has already checked V's
    unitarity) and ``w_angles`` the eigenangles of W = VUV*U* from its
    Schur form, gated for unitarity at 10 * unitary_tol.
    Every library call on the pair reads these, so a pair pays one
    factorization of each matrix however many invariants are asked of it.
    U and V must therefore not be mutated after ``make_pair``, which delta
    already relies on; the cached arrays are read-only.
    """

    U: np.ndarray
    V: np.ndarray
    delta: float
    unitary_tol: float = DEFAULT_TOL.unitary

    @property
    def dim(self) -> int:
        return self.U.shape[0]

    def multiplicative_commutator(self) -> np.ndarray:
        """W = VUV*U*."""
        U, V = self.U, self.V
        return V @ U @ V.conj().T @ U.conj().T

    @functools.cached_property
    def v_eig(self):
        """``(angles, Q)`` of V with :func:`unitary_eig`'s conventions.

        Made by one ``eigh`` of a Cayley transform of V, or by the Schur
        form when that leaves a residual above ``unitary_tol``.
        """
        angles, Q = _cayley_angles(self.V, self.unitary_tol)
        return _read_only(angles), _read_only(Q)

    @functools.cached_property
    def w_angles(self) -> np.ndarray:
        """Eigenangles of W in (-pi, pi], with unitary_eig's branch rule."""
        angles, _ = unitary_eig(
            self.multiplicative_commutator(), tol=10 * self.unitary_tol
        )
        return _read_only(angles)


def make_pair(U, V, unitary_tol: float = DEFAULT_TOL.unitary) -> UnitaryPair:
    """Validate unitarity of both matrices and cache delta = ||[U, V]||."""
    A, B = as_matrix(U), as_matrix(V)
    require_same_dim(A, B)
    _check_unitary(A, unitary_tol)
    _check_unitary(B, unitary_tol)
    return UnitaryPair(A, B, commutator_norm(A, B), unitary_tol)
