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

A pair's O(n^3) work runs inside :func:`_serial_blas`, which puts every
OpenBLAS in the process on one thread for pairs up to dim
``_SERIAL_BLAS_MAX_DIM``: at those sizes a second thread gains nothing or
costs time.  A scope holds the libraries that are loaded when it is
entered, and gives each the count it saved back on exit, so nested scopes
restore in stack order.  A function therefore opens its scope after the
imports its block needs: the Schur kernel and the self-dual sign's
reduction import scipy first, and V's Cayley kernel needs numpy only.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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


def gate_relative(X: np.ndarray, A: np.ndarray, tol: float) -> Tuple[float, bool]:
    """(norm, failed): whether ||X||_2 exceeds tol * max(1, ||A||_2), and
    the :func:`gate_norm` of X that decided it.

    Decided as the exact norms would, with the cheap bounds first: ||X||
    through :func:`gate_norm` against the scale's lower bound max|a_ij|;
    a failure there against the upper bound ||A||_F; only in between does
    ||A|| take an SVD.  A valid input costs no SVD.  norm bounds ||X||_2
    from above: it is ||X||_F when that clears the lower bound, and the
    exact ||X||_2 otherwise, so always when failed.
    """
    low = tol * max(1.0, float(np.max(np.abs(A))))
    err = gate_norm(X, low)
    if err <= low:
        return err, False
    if err > tol * max(1.0, float(np.linalg.norm(A))):
        return err, True
    return err, err > tol * max(1.0, operator_norm(A))


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


# Pairs up to this dim factorize at least as fast on one OpenBLAS thread as
# on two, and larger ones slower.  ``analyze`` on 2 CPUs, best of 3 in each
# of 3-4 runs, one thread against two: plain n = 384 0.41-0.44 s against
# 0.51-0.64 s, self-dual dim 512 1.03-1.07 s against 1.16-1.25 s, plain
# n = 512 1.01-1.12 s against 0.88-1.27 s; plain n = 768 3.13-3.23 s
# against 2.21-2.36 s (BENCH_31.json).
_SERIAL_BLAS_MAX_DIM = 512

# (set, get) of OpenBLAS's thread count: numpy's ILP64 build, scipy's LP64
# build and a plain build of either width
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_apis() -> Dict[str, tuple]:
    """{path: (set, get)} of every OpenBLAS mapped into this process, read
    from /proc/self/maps; empty where there is none or no such file."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    apis = {}
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _OPENBLAS_THREAD_API:
            setter, getter = (getattr(lib, name, None) for name in names)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                getter.argtypes, getter.restype = (), ctypes.c_int
                apis[path] = setter, getter
                break
    return apis


@functools.lru_cache(maxsize=1)
def _loaded_blas(modules: int) -> Dict[str, tuple]:
    """:func:`_openblas_apis` while ``len(sys.modules)`` is ``modules``: the
    libraries are looked for again only after an import, which is how a
    library loaded by a lazy import (scipy's own, on the first
    ``scipy.linalg`` import) is found."""
    return _openblas_apis()


@contextlib.contextmanager
def _serial_blas(dim: int):
    """Run the block with every OpenBLAS loaded at entry on one thread when
    dim is at most ``_SERIAL_BLAS_MAX_DIM``, and give each library the count
    it had at entry back on exit, also on an exception.

    Nested scopes therefore restore in stack order.  A library loaded inside
    the block is not held, so a function opens its scope after the imports
    its block needs.  Above the cutoff the counts are left alone.  The count
    is process-wide, so calls from several Python threads at once can race
    on it.  Without an OpenBLAS thread API (another BLAS, no /proc) the scope
    does nothing.
    """
    apis = _loaded_blas(len(sys.modules)) if dim <= _SERIAL_BLAS_MAX_DIM else {}
    saved = [(setter, getter()) for setter, getter in apis.values()]
    try:
        for setter, _ in saved:
            setter(1)
        yield
    finally:
        for setter, count in saved:
            setter(count)


def _check_unitary(V: np.ndarray) -> None:
    tol = DEFAULT_TOL.unitary
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

    with _serial_blas(len(A)):
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
    hermitian with eigenvalues tan((theta - phi)/2).  It takes one
    ``numpy.linalg.solve``, which copies its operands; a LinAlgError there
    takes the Schur route.  The angles follow as phi + 2 arctan(lambda),
    wrapped to (-pi, pi] with the branch rule of :func:`_schur_angles`.
    When :func:`eig_residual` finds the residual above its bound, the Schur
    route is taken instead.
    """
    with _serial_blas(len(A)):
        d = A.shape[0]
        half = np.arccos(np.clip(np.linalg.eigvalsh((A + A.conj().T) / 2), -1.0, 1.0))
        points = np.sort(np.concatenate((-half, half)))
        gaps = np.diff(points, append=points[0] + 2.0 * np.pi)
        widest = int(np.argmax(gaps))
        phi = points[widest] + gaps[widest] / 2.0 - np.pi
        # M = I + A_phi and R = i(I - A_phi) = i(2I - M) commute, so the
        # solution X of M X = R is H
        M = A * np.exp(-1j * phi)
        M[np.diag_indices(d)] += 1.0
        R = M * -1j
        R[np.diag_indices(d)] += 2j
        try:
            X = np.linalg.solve(M, R)
        except np.linalg.LinAlgError:
            return _schur_angles(A)
        del M, R
        H = X + X.conj().T
        del X
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
    Schur form.  W is not gated: it inherits ||W*W - I||_2 <= 2 e_U + 2 e_V
    plus product rounding from the gates of U and V
    (:meth:`multiplicative_commutator`).
    Every library call on the pair reads these, so a pair pays at most one
    factorization of each matrix however many invariants are asked of it; a
    ``SelfDualPair`` reads omega from delta and takes W's Schur form only
    for delta above ``winding.SELFDUAL_DELTA_MAX``.
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
        """W = VUV*U*, not gated: its defect is inherited from U's and V's.

        To first order ||W*W - I||_2 <= 2 e_U + 2 e_V, with e = ||A*A - I||_2,
        plus the rounding of the three products (Higham, *Accuracy and
        Stability of Numerical Algorithms*, ch. 3).  For a pair that
        ``make_pair`` admits that is about 4e-8, so the gates of U and V
        check W too.
        """
        U, V = self.U, self.V
        return V @ U @ V.conj().T @ U.conj().T

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
        with _serial_blas(self.dim):
            angles, _ = _schur_angles(self.multiplicative_commutator())
        return _read_only(angles)


def make_pair(U, V) -> UnitaryPair:
    """Gate both matrices for unitarity and cache delta = ||[U, V]||; nearly
    unitary input takes its polar parts first (:func:`unitary_part`)."""
    A, B = as_matrix(U), as_matrix(V)
    require_same_dim(A, B)
    with _serial_blas(A.shape[0]):
        _check_unitary(A)
        _check_unitary(B)
        return UnitaryPair(A, B, operator_norm(A @ B - B @ A))
