"""The dual, the modified Pfaffian, and the sign-valued index.

The dual of X is X^# = -Z X^T Z with Z = ((0, I), (-I, 0)) in N x N blocks,
so the dimension 2N alone fixes it.  Matrices fixed by the dual form the
quaternionic symmetry class; their spectra show Kramers doubling.  For a
self-dual almost-commuting pair the signature index vanishes, and the finer
invariant is the sign of a modified Pfaffian of the same block matrix
(dimension 4N), taken after Q = (I + iK)/sqrt(2) makes it skew.  Z and K are
signed reversals of equal blocks; the dual, the Kramers partner -Z conj(q)
and the rotation Q read that one structure.

The sign index takes a real route.  In V's Kramers basis the block matrix B
is made of diag(f) and one corner L, and B's anti-self-dual part is
hermitian, so Q* B Q is, up to L's self-duality defect, i times a real skew
matrix R, written in real arithmetic from L's self-dual part; the complex B
is never formed.  One LAPACK Hessenberg reduction takes R to a skew
tridiagonal T, which gives the Pfaffian and, in O(dim^2), the spectrum of B
up to a stated bound eta; the sign is reliable when eta is below that
spectrum's gap.  No complex eigensolver of B runs.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bott import _corner, _Spectrum, _trig_values, require_certified
from .config import DEFAULT_TOL
from .errors import (
    DimensionMismatch,
    IllConditionedSign,
    NoObstruction,
    NotAntiSelfDual,
    NotSelfDual,
    NumericalInconsistency,
)
from .linalg import (
    UnitaryPair,
    _cayley_angles,
    _read_only,
    _serial_blas,
    as_matrix,
    eig_residual,
    gate_norm,
    gate_relative,
    make_pair,
    require_same_dim,
)


_Z = np.array([1.0, -1.0])  # Z = ((0, I), (-I, 0))


def _block_reversal(dim: int, signs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(perm, sign) of F, which reverses len(signs) equal blocks and scales
    block j by signs[j]: F X = sign[:, None] * X[perm].  The only dimension check."""
    k = len(signs)
    if dim % k != 0:
        raise DimensionMismatch(f"dual needs dimension {k}N, got {dim}")
    return np.arange(dim).reshape(k, -1)[::-1].ravel(), signs.repeat(dim // k)


def _reversed_transpose(X, signs: np.ndarray) -> np.ndarray:
    """F X^T F^T by negation, exact to the sign of zero, unlike a product with -1.0."""
    X = as_matrix(X)
    perm, sign = _block_reversal(X.shape[0], signs)
    Y = X.T[np.ix_(perm, perm)]
    np.negative(Y, out=Y, where=sign[:, None] < 0)
    np.negative(Y, out=Y, where=sign < 0)
    return Y


def dual(X) -> np.ndarray:
    """X^# = -Z X^T Z, so ((A, B), (C, D)) -> ((D^T, -B^T), (-C^T, A^T)) in
    N-blocks.  Involutive and anti-multiplicative."""
    return _reversed_transpose(X, _Z)


def selfdual_part(X) -> np.ndarray:
    return (as_matrix(X) + dual(X)) / 2


def _partner(A: np.ndarray) -> np.ndarray:
    """-Z conj(A): the Kramers partner of each column, orthogonal to it."""
    perm, sign = _block_reversal(len(A), _Z)
    P = A[perm].conj()
    P[sign > 0] = -P[sign > 0]
    return P


def _kramers_half(C: np.ndarray) -> np.ndarray:
    """A of a Kramers basis [A, -Z conj(A)] of the span of C's c orthonormal columns.

    Gram-Schmidt in column order, projecting twice against the vectors and
    partners kept so far; a column is kept when at least 1/c of its norm
    squared is left.  In a span closed under partners the columns left out
    keep under 1/c each, under 1 in all, so c/2 columns are kept.
    """
    d, c = C.shape
    W = np.empty((c, d), dtype=complex)
    k = 0
    for q in C.T:
        if k == c:
            break
        for _ in range(2):
            q = q - (W[:k] @ q.conj()).conj() @ W[:k]
        n2 = np.vdot(q, q).real
        if k < c - 1 and n2 >= 1 / c:
            W[k] = q / math.sqrt(n2)
            W[k + 1] = _partner(W[k])
            k += 2
    if k < c:
        raise NumericalInconsistency("V's eigenvectors are not Kramers-paired")
    return W[::2].T


def _kramers_basis(V: np.ndarray, angles: np.ndarray, vectors: np.ndarray):
    """V's ``(angles, vectors)`` regrouped as Q = [A, -Z conj(A)], so Q^# = Q*.

    A self-dual V pairs each eigenvector q with -Z conj(q).  Angles closer
    than 2 * branch on the circle form a cluster: the branch rule moves an
    angle by at most branch, so it cannot split a pair.  Each cluster gives
    A columns by :func:`_kramers_half`, and each pair takes the mean of the
    cluster's angles on the circle, weighted by its share of each column, so
    equal angles stay exact.  A partner is an eigenvector of V^#, tilted off
    V's eigenvectors by up to V's self-duality defect over the gap to the
    next cluster; Newton-Schulz steps Q <- Q (3I - Q*Q) / 2, taken on A,
    keep the Kramers form and make Q unitary.  A residual
    ||VQ - Q e^{i Theta}||_F above the Cayley route's bound
    (:func:`linalg.eig_residual`) raises NumericalInconsistency.
    """
    d, N = len(angles), len(angles) // 2
    order = np.argsort(angles)
    gaps = np.diff(angles[order], append=angles[order[0]] + 2 * np.pi)
    starts = np.sort((np.flatnonzero(gaps > 2 * DEFAULT_TOL.branch) + 1) % d)
    Q = np.empty_like(V)
    A, theta, k = Q[:, :N], np.empty(N), 0
    for c in np.split(np.roll(order, -starts[0]), starts[1:] - starts[0]):
        C = vectors[:, c]
        half = _kramers_half(C)
        share = np.abs(C.conj().T @ half) ** 2 + np.abs(C.conj().T @ _partner(half)) ** 2
        ref = angles[c[0]]
        k, m = k + half.shape[1], k
        theta[m:k] = ref + np.angle(np.exp(1j * (angles[c] - ref)) @ share)
        A[:, m:k] = half
    theta[theta > np.pi] -= 2 * np.pi  # the mean lies at or after the first angle
    P = Q[:, N:]
    for _ in range(8):
        P[:] = _partner(A)
        E, F = A.conj().T @ A - np.eye(N), P.conj().T @ A
        if max(np.abs(E).max(), np.abs(F).max()) <= 1e-13:
            break
        A -= (A @ E + P @ F) / 2
    else:
        raise NumericalInconsistency("V's eigenvectors have no Kramers basis near them")
    angles = np.tile(theta, 2)
    norm = eig_residual(V, angles, Q)
    if norm is not None:
        raise NumericalInconsistency(f"V's Kramers basis leaves a residual of {norm:.3e}")
    return _read_only(angles), _read_only(Q)


@dataclass(frozen=True)
class SelfDualPair(UnitaryPair):
    """A pair that passed :func:`make_selfdual_pair`: U^# = U and V^# = V.

    The type is the one place where self-duality is decided: kappa2 is
    computed exactly for this class, V is factorized in a Kramers basis,
    and omega is read from delta (:func:`winding.winding_number`, which runs
    the self-duality gate again first, since the type can be built by hand).
    """

    @functools.cached_property
    def v_eig(self):
        """V's factorization in a Kramers basis, see :func:`_kramers_basis`."""
        with _serial_blas(self.dim):
            return _kramers_basis(self.V, *_cayley_angles(self.V))

    @property
    def N(self) -> int:
        return self.dim // 2

    @property
    def pair(self) -> "SelfDualPair":
        # perfbench/ still reads sd.pair; ROADMAP item 3 deletes this property
        return self


def _check_selfdual(pair: UnitaryPair) -> None:
    """The self-duality gate: ||M - M^#||_2 <= ``DEFAULT_TOL.selfdual`` for
    M = U and M = V, else NotSelfDual.  O(dim^2) for an admitted pair."""
    tol = DEFAULT_TOL.selfdual
    for name, M in (("U", pair.U), ("V", pair.V)):
        drift = gate_norm(M - dual(M), tol)
        if drift > tol:
            raise NotSelfDual(f"{name} fails self-duality by {drift:.3e}")


def make_selfdual_pair(U, V) -> SelfDualPair:
    pair = make_pair(U, V)
    _check_selfdual(pair)
    return SelfDualPair(pair.U, pair.V, pair.delta)


# ---------------------------------------------------------------------------
# The sign index
# ---------------------------------------------------------------------------


def _real_pfaffian_sign_log(R: np.ndarray) -> Tuple[int, float, np.ndarray, float]:
    """(sign, log |Pf|, spectrum, residual) of an exactly skew real R.

    One blocked LAPACK Hessenberg reduction (dgehrd) gives H = O^T R O with
    O a product of elementary reflectors.  For a real O the similarity is
    also a congruence, so H is a skew tridiagonal T up to rounding, and
    Pf(R) = det(O) prod_j T[2j, 2j+1], where each reflector with nonzero tau
    contributes det = -1.  A diagonal unitary similarity takes iT to the
    symmetric tridiagonal with zero diagonal and off-diagonal |T[j, j+1]|,
    whose ascending spectrum ``dsterf`` gives in O(n^2) (Ward & Gray, ACM
    TOMS 4 (1978)).  residual = ||H - T||_F counts what the reduction leaves
    outside T: the diagonal, the skew defect of the band and everything above
    the superdiagonal.  A Fortran-ordered float R is overwritten.  A zero
    pivot of T, where Pf(R) = 0, raises NumericalInconsistency("modified
    Pfaffian vanished").
    """
    from scipy.linalg.lapack import dgehrd, dgehrd_lwork, dlantr, dsterf

    n = R.shape[0]
    # R has twice its pair's dim, and the scope's cutoff counts pair dims
    with _serial_blas(n // 2):
        work, info = dgehrd_lwork(n)
        if info != 0:
            raise NumericalInconsistency(f"dgehrd workspace query failed: info {info}")
        H, tau, info = dgehrd(
            np.asfortranarray(R, dtype=float), lwork=int(work), overwrite_a=True
        )
        if info != 0:
            raise NumericalInconsistency(f"dgehrd failed: info {info}")
        b = np.diagonal(H, 1).copy()
        band = float(np.linalg.norm(np.diagonal(H, -1) + b))
        # zeroing T's superdiagonal leaves H - T in H's upper triangle; below it
        # dgehrd keeps its reflectors, which dlantr does not read
        H[np.arange(n - 1), np.arange(1, n)] = 0.0
        residual = math.hypot(band, dlantr("F", H))
        eigs, info = dsterf(np.zeros(n), np.abs(b))
        if info != 0:
            raise NumericalInconsistency(f"dsterf failed: info {info}")
    pivots = b[::2]
    if np.any(pivots == 0.0):
        raise NumericalInconsistency("modified Pfaffian vanished")
    flips = np.count_nonzero(tau) + np.count_nonzero(pivots < 0.0)
    sign = -1 if flips % 2 else 1
    return sign, float(np.sum(np.log(np.abs(pivots)))), eigs, residual


@dataclass(frozen=True)
class PfaffianSign(_Spectrum):
    """kappa2's sign from one real reduction of B, and whether it holds.

    ``eigs`` is the reduction's tridiagonal spectrum; each eigenvalue of B
    lies within ``eta`` of one of them, so the sign is ``reliable`` when eta
    is below their ``gap``.
    """

    sign: int
    log_magnitude: float
    eta: float
    eigs: np.ndarray

    @property
    def reliable(self) -> bool:
        return self.eta < self.gap


def _pfaffian_sign(pair: SelfDualPair, values) -> PfaffianSign:
    """Sign of the modified Pfaffian of B, with B's spectrum, from one real reduction.

    B = ((F, L*), (L, -F)) is the block matrix of a triple's ``values`` at
    V's angles (the ``B`` of :func:`bott._eigenbasis_B`), read from its
    corner: F = diag(f) and L of :func:`bott._corner`.  B itself is never
    formed.  V's Kramers basis tiles its angles, so F^# = F and
    B + B^# = ((0, D*), (D, 0)) for D = L - L^#: ||B + B^#|| = ||L - L^#||,
    gated against 1e-7 * max(1, ||L||) through ``gate_relative``
    (NotAntiSelfDual).  B's
    anti-self-dual part B_s = (B - B^#)/2 = ((F, L_s*), (L_s, -F)), with L's
    self-dual part L_s = (L + L^#)/2 = L_r + i L_i, is hermitian by
    construction, so S = Q* B_s Q = iR with R = Im B_s + Re(B_s) K real and
    skew: R = ((L_r^T Z, -L_i^T - FZ), (L_i - FZ, -L_r Z)), written in real
    arithmetic to one Fortran-ordered array.  The Pfaffian is real,
    Pf(S) = i^(dim/2) Pf(R) = (-1)^N Pf(R), and Pf(R) and the spectrum of iT
    come from :func:`_real_pfaffian_sign_log`.

    R' = O T O^T is exactly skew, and ||Q* B Q - iR'|| is at most
    ||B - B_s|| + ||H - T|| plus the rounding of the two reductions, where
    ||B - B_s||_F = ||L - L^#||_F / sqrt(2).  eta adds these Frobenius norms,
    each an upper bound, taking ||L - L^#||_F from the gate's one pass (where
    it does not clear the gate's lower bar the gate's exact ||L - L^#||_2,
    no larger, serves), and counts the rounding as dim * 1e-13 * scale,
    where scale = max|lambda_T| + eta, solved for, bounds ||B|| from above.
    By Weyl's inequality each eigenvalue of B lies within eta of one of T's,
    and so does each one of every skew matrix on the straight path from R'
    to R: when eta is below T's gap no determinant on the path vanishes, and
    Pf(R) has the sign of Pf(R') = det(O) Pf(T).  Otherwise
    IllConditionedSign is warned: the sign may be unreliable.
    """
    with _serial_blas(len(pair.U)):
        fvals, L = _corner(pair, values)
        n = len(fvals)
        dim = 2 * n
        Ls = dual(L)
        D = L - Ls
        err, failed = gate_relative(D, L, 1e-7)
        if failed:
            raise NotAntiSelfDual(f"anti-self-duality violated by {err:.3e}")
        drift = err / math.sqrt(2)
        del D
        Ls += L
        Ls /= 2
        del L
        # Z X = z[:, None] * X[perm], and X Z = X[:, perm] * z[perm]
        perm, z = _block_reversal(n, _Z)
        R = np.empty((dim, dim), order="F")
        np.multiply(Ls.real.T[:, perm], z[perm], out=R[:n, :n])
        np.multiply(Ls.real[:, perm], -z[perm], out=R[n:, n:])
        np.negative(Ls.imag.T, out=R[:n, n:])
        R[n:, :n] = Ls.imag
        del Ls  # the reduction needs R only
        # FZ = ZF, with f_i z_i at (i, perm_i): the Kramers basis tiles the angles
        d = np.arange(n)
        fz = fvals * z
        R[d, n + perm] -= fz
        R[n + d, perm] -= fz
    sign, log_mag, eigs, residual = _real_pfaffian_sign_log(R)
    eta = drift + residual
    rounding = dim * 1e-13
    scale = max(1.0, (float(np.max(np.abs(eigs))) + eta) / (1.0 - rounding))
    if (dim // 4) % 2:
        sign = -sign
    record = PfaffianSign(sign, log_mag, eta + rounding * scale, eigs)
    if not record.reliable:
        warnings.warn(
            "the error bound of B's spectrum reaches its gap; "
            "sign may be unreliable",
            IllConditionedSign,
        )
    return record


def require_selfdual(sd: UnitaryPair, method: str) -> None:
    """Refuse a pair that is not a ``SelfDualPair`` (NotSelfDual), then a
    delta above ``certified_threshold(method)``; the sign functions check
    here before any work."""
    if not isinstance(sd, SelfDualPair):
        raise NotSelfDual("kappa2 needs a SelfDualPair; make one with make_selfdual_pair")
    require_certified(sd.delta, method)


def pfaffian_bott_index(sd: SelfDualPair) -> int:
    """Sign of the modified Pfaffian of the block matrix of the pair.

    A pair that is not a ``SelfDualPair`` raises NotSelfDual.  Certified for
    delta <= KAPPA_THRESHOLD; beyond that ThresholdExceeded is raised.
    ``analysis.analyze`` computes kappa2 at any delta and reports whether it
    is certified.
    """
    require_selfdual(sd, "trig")
    return _pfaffian_sign(sd, _trig_values).sign


def selfdual_distance_bounds(sdA: SelfDualPair, sdB: SelfDualPair) -> float:
    """Lower bound on ||U_A - U_B|| + ||V_A - V_B|| when the signs differ.

    A commuting second pair always carries sign +1, which recovers the
    commuting-target form 1/5 + (1/5) sqrt(1 - 5 delta^2).  Pairs of
    different dims are refused with DimensionMismatch after the refusals of
    :func:`require_selfdual`.
    """
    for sd in (sdA, sdB):
        require_selfdual(sd, "trig")
    require_same_dim(sdA.U, sdB.U)
    a, b = (_pfaffian_sign(sd, _trig_values).sign for sd in (sdA, sdB))
    if a == b:
        raise NoObstruction("equal signs carry no distance obstruction")
    return (
        math.sqrt(1 - 5 * sdA.delta**2) + math.sqrt(1 - 5 * sdB.delta**2)
    ) / 5
