"""The dual, Pfaffians, and the sign-valued index.

The dual of X is X^# = -Z X^T Z with Z = ((0, I), (-I, 0)) in N x N blocks,
so the dimension 2N alone fixes it.  Matrices fixed by the dual form the
quaternionic symmetry class; their spectra show Kramers doubling.  For a
self-dual almost-commuting pair the signature index vanishes, and the finer
invariant is the sign of a modified Pfaffian of the same block matrix
(dimension 4N), taken after Q = (I + iK)/sqrt(2) makes it skew.  Z and K are
signed reversals of equal blocks; the dual, the block dual K X^T K, the
Kramers partner -Z conj(q) and the rotation Q read that one structure.

Two Pfaffian routes serve general complex skew input: Householder
congruences in complex arithmetic, cross-checked against pivoted LTL^T
elimination.  The sign index takes a third, real route: for the hermitian
block matrix, Q* B Q is i times a real skew matrix, whose Pfaffian comes from
one LAPACK Hessenberg reduction and is checked against the spectrum of B.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bott import BottMatrix, _spectrum_in_eigenbasis, _trig_values, require_certified
from .config import DEFAULT_TOL
from .errors import (
    DimensionMismatch,
    IllConditionedSign,
    NoObstruction,
    NotAntiSelfDual,
    NotHermitian,
    NotSelfDual,
    NotSkewSymmetric,
    NumericalInconsistency,
    OddDimension,
)
from .linalg import (
    UnitaryPair,
    _read_only,
    as_matrix,
    gate_norm,
    gate_relative,
    make_pair,
    operator_norm,
)


_Z = np.array([1.0, -1.0])  # Z = ((0, I), (-I, 0))
_K = np.array([-1.0, 1.0, 1.0, -1.0])  # K = ((0, -Z), (Z, 0)), symmetric


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


def dual_tensor(X) -> np.ndarray:
    """K X^T K, the blockwise dual ((A,B),(C,D)) -> ((D#,-B#),(-C#,A#)) at dim 4N."""
    return _reversed_transpose(X, _K)


def selfdual_part(X) -> np.ndarray:
    return (as_matrix(X) + dual(X)) / 2


def _hermitian_part(X: np.ndarray) -> np.ndarray:
    """(X + X*)/2."""
    return (X + X.conj().T) / 2


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
    ||VQ - Q e^{i Theta}||_F above the Cayley route's bound, 1e-8 * sqrt(dim),
    raises NumericalInconsistency.
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
    residual = V @ Q
    residual -= Q * np.exp(1j * angles)
    norm = float(np.linalg.norm(residual))
    if norm > DEFAULT_TOL.unitary * math.sqrt(d):
        raise NumericalInconsistency(f"V's Kramers basis leaves a residual of {norm:.3e}")
    return _read_only(angles), _read_only(Q)


@dataclass(frozen=True)
class SelfDualPair(UnitaryPair):
    """A pair that passed :func:`make_selfdual_pair`: U^# = U and V^# = V.

    The type is the one place where self-duality is decided: kappa2 is
    computed exactly for this class, and V is factorized in a Kramers basis.
    """

    @functools.cached_property
    def v_eig(self):
        """V's factorization in a Kramers basis, see :func:`_kramers_basis`."""
        return _kramers_basis(self.V, *UnitaryPair.v_eig.func(self))

    @property
    def N(self) -> int:
        return self.dim // 2

    @property
    def pair(self) -> "SelfDualPair":
        # perfbench/ still reads sd.pair; ROADMAP item 3 deletes this property
        return self


def make_selfdual_pair(U, V) -> SelfDualPair:
    pair = make_pair(U, V)
    tol = DEFAULT_TOL.selfdual
    for name, M in (("U", pair.U), ("V", pair.V)):
        drift = gate_norm(M - dual(M), tol)
        if drift > tol:
            raise NotSelfDual(f"{name} fails self-duality by {drift:.3e}")
    return SelfDualPair(pair.U, pair.V, pair.delta)


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------


def _check_skew(X) -> np.ndarray:
    dim = X.shape[0]
    if dim % 2 != 0:
        raise OddDimension(f"Pfaffian needs even dimension, got {dim}")
    limit = DEFAULT_TOL.skew * max(1.0, float(np.max(np.abs(X))))
    drift = gate_norm(X + X.T, limit)
    if drift > limit:
        raise NotSkewSymmetric(f"skew-symmetry violated by {drift:.3e}")
    return (X - X.T) / 2


def _pfaffian_sign_log(X: np.ndarray) -> Tuple[complex, float]:
    """(phase, log magnitude) of the Pfaffian of an exactly skew X.

    Householder congruences P X P^T reduce X to skew tridiagonal form; each
    reflector contributes det = -1 and the Pfaffian of the tridiagonal matrix
    is the product of its odd-position superdiagonal entries.
    """
    T = np.array(X, dtype=complex)
    n = T.shape[0]
    if n == 0:
        return 1.0 + 0j, 0.0
    det_p = 1.0
    for k in range(n - 2):
        col = T[k + 1 :, k]
        nrm = float(np.linalg.norm(col))
        # a zero column is already reduced; it only kills the Pfaffian if the
        # vanishing entry lands at an even superdiagonal position, which the
        # final product detects
        if nrm == 0.0 or float(np.linalg.norm(col[1:])) <= 1e-18 * nrm:
            continue
        # exp(i arg) instead of z/|z|: safe for subnormal entries
        phase = np.exp(1j * np.angle(col[0])) if col[0] != 0 else 1.0
        v = col.copy()
        v[0] += phase * nrm
        v /= np.linalg.norm(v)
        T[k + 1 :, :] -= 2.0 * np.outer(v, v.conj() @ T[k + 1 :, :])
        T[:, k + 1 :] -= 2.0 * np.outer(T[:, k + 1 :] @ v.conj(), v)
        det_p = -det_p
    phase_acc = complex(det_p)
    log_mag = 0.0
    for j in range(0, n - 1, 2):
        b = T[j, j + 1]
        a = abs(b)
        if a == 0.0:
            return 0j, -math.inf
        phase_acc *= np.exp(1j * np.angle(b))
        log_mag += math.log(a)
    return phase_acc, log_mag


def _real_pfaffian_sign_log(R: np.ndarray) -> Tuple[int, float]:
    """(sign, log magnitude) of the Pfaffian of an exactly skew real R.

    One blocked LAPACK Hessenberg reduction (dgehrd) gives H = O^T R O with
    O a product of elementary reflectors.  For a real O the similarity is
    also a congruence, so H is skew tridiagonal up to rounding and
    Pf(R) = det(O) prod_j H[2j, 2j+1], where each reflector with nonzero tau
    contributes det = -1.
    """
    from scipy.linalg.lapack import dgehrd, dgehrd_lwork

    n = R.shape[0]
    work, info = dgehrd_lwork(n)
    if info != 0:
        raise NumericalInconsistency(f"dgehrd workspace query failed: info {info}")
    H, tau, info = dgehrd(
        np.array(R, dtype=float, order="F"), lwork=int(work), overwrite_a=True
    )
    if info != 0:
        raise NumericalInconsistency(f"dgehrd failed: info {info}")
    b = np.diagonal(H, 1)[::2]
    if np.any(b == 0.0):
        return 0, -math.inf
    flips = np.count_nonzero(tau) + np.count_nonzero(b < 0.0)
    return (-1 if flips % 2 else 1), float(np.sum(np.log(np.abs(b))))


def _pfaffian_parlett_reid(X: np.ndarray) -> complex:
    """Pivoted LTL^T elimination, kept as an independent cross-check."""
    T = np.array(X, dtype=complex)
    n = T.shape[0]
    sign = 1.0
    for k in range(n - 2):
        p = k + 1 + int(np.argmax(np.abs(T[k + 1 :, k])))
        if p != k + 1:
            T[[k + 1, p], :] = T[[p, k + 1], :]
            T[:, [k + 1, p]] = T[:, [p, k + 1]]
            sign = -sign
        piv = T[k + 1, k]
        if piv == 0:
            continue
        mu = T[k + 2 :, k] / piv
        T[k + 2 :, :] -= np.outer(mu, T[k + 1, :])
        T[:, k + 2 :] -= np.outer(T[:, k + 1], mu)
    out = complex(sign)
    for j in range(0, n - 1, 2):
        out *= T[j, j + 1]
    return out


def pfaffian(X) -> complex:
    """Pfaffian of a complex skew-symmetric matrix; Pf(X)^2 = det(X).

    Below dimension 65 the Householder value is cross-checked against the
    pivoted LTL^T elimination; disagreement raises NumericalInconsistency.
    """
    X = as_matrix(X)
    S = _check_skew(X)
    phase, log_mag = _pfaffian_sign_log(S)
    if log_mag == -math.inf:
        return 0j
    value = phase * math.exp(log_mag)
    # plain product overflows outside this window; skip the check there
    if S.shape[0] <= 64 and abs(log_mag) < 600.0:
        ref = _pfaffian_parlett_reid(S)
        scale = max(abs(value), abs(ref))
        if scale > 0.0 and abs(value - ref) > 1e-6 * scale:
            raise NumericalInconsistency(
                f"Pfaffian routes disagree: {value:.6e} vs {ref:.6e}"
            )
    return value


def _rotated_anti_selfdual(X: np.ndarray, norm: float) -> Tuple[np.ndarray, float]:
    """(Q* X_a Q, an upper bound on ||X + X^#||), exactly skew.

    X_a = (X - X^#)/2 is the anti-self-dual part of X.  The gate against
    1e-7 * max(1, norm) reads ``gate_norm``, so it is decided as by the exact
    norm and takes an SVD only when the Frobenius bound does not clear it.
    """
    Xd = dual_tensor(X)
    limit = 1e-7 * max(1.0, norm)
    drift = gate_norm(X + Xd, limit)
    if drift > limit:
        raise NotAntiSelfDual(f"anti-self-duality violated by {drift:.3e}")
    Xa = X - Xd
    del Xd
    Xa /= 2
    # K^2 = I and X_a^# = K X_a^T K = -X_a entry for entry, so Q* X_a Q =
    # (X_a - X_a^T + i (X_a K - K X_a)) / 2 is skew as computed.  The terms
    # are formed in place and dropped once used: these arrays are the
    # largest of a self-dual request and set its peak memory.
    perm, sign = _block_reversal(X.shape[0], _K)
    KX = Xa[perm]
    KX *= sign[:, None]
    XK = Xa[:, perm]
    XK *= sign
    XK -= KX
    del KX
    S = Xa - Xa.T
    del Xa
    S += 1j * XK
    S /= 2
    return S, drift


def modified_pfaffian(X) -> complex:
    """Pf(Q* X Q) for anti-self-dual X; squares to det(X).

    X must have dimension 4N and be anti-self-dual to 1e-7 * max(1, ||X||).
    """
    X = as_matrix(X)
    S, _ = _rotated_anti_selfdual(X, operator_norm(X))
    phase, log_mag = _pfaffian_sign_log(S)
    if log_mag == -math.inf:
        return 0j
    return phase * math.exp(log_mag)


# ---------------------------------------------------------------------------
# The sign index
# ---------------------------------------------------------------------------


def _pfaffian_sign(bm: BottMatrix) -> int:
    """Sign of the modified Pfaffian of bm.B, with the magnitude cross-check.

    B is hermitian and anti-self-dual, so S = Q* B Q is hermitian and skew:
    S = iR with R = Im S real skew.  A non-hermitian B would leave a real part
    in S; ||Re S||_F above 1e-7 * max(1, ||B||) raises NumericalInconsistency.
    The Pfaffian is then real, Pf(S) = i^(dim/2) Pf(R) = (-1)^N Pf(R), and
    Pf(R) comes from one real Hessenberg reduction.  B is hermitian, so
    ||B|| = max |eigenvalue|.

    S has the spectrum of B up to eta = ||B + B^#|| / 2 + ||Re S||_F plus the
    rounding of the reductions, counted as dim * 1e-13 * max(1, ||B||).  Its
    eigenvalues come in +- pairs, so |Pf(S)| = prod |lambda_i|^(1/2), and
    when eta < gap the computed log |Pf| must lie within
    (dim/2) * eta / (gap - eta) of (1/2) sum log |lambda_i| over bm.eigs.
    Outside that window, or when eta reaches the gap, IllConditionedSign is
    warned: the sign may be unreliable.
    """
    norm = float(np.max(np.abs(bm.eigs)))
    scale = max(1.0, norm)
    S, drift = _rotated_anti_selfdual(bm.B, norm)
    real_part = float(np.linalg.norm(S.real))
    if real_part > 1e-7 * scale:
        raise NumericalInconsistency(
            f"Q* B Q has a real part of Frobenius norm {real_part:.3e}; "
            "B is not hermitian"
        )
    sign, log_mag = _real_pfaffian_sign_log(S.imag)
    if log_mag == -math.inf:
        raise NumericalInconsistency("modified Pfaffian vanished")
    dim = bm.B.shape[0]
    if (dim // 4) % 2:
        sign = -sign
    eta = drift / 2 + real_part + dim * 1e-13 * scale
    if eta < bm.gap:
        spectral = 0.5 * float(np.sum(np.log(np.abs(bm.eigs))))
        reliable = abs(log_mag - spectral) <= (dim / 2) * eta / (bm.gap - eta)
    else:
        reliable = False
    if not reliable:
        warnings.warn(
            "Pfaffian magnitude disagrees with the spectrum of B; "
            "sign may be unreliable",
            IllConditionedSign,
        )
    return sign


def pfaffian_bott_index(sd: SelfDualPair) -> int:
    """Sign of the modified Pfaffian of the block matrix of the pair.

    Certified for delta <= KAPPA_THRESHOLD; beyond that ThresholdExceeded is
    raised.  ``analysis.analyze`` computes kappa2 at any delta and reports
    whether it is certified.
    """
    require_certified(sd.delta, "trig")
    return _pfaffian_sign(_spectrum_in_eigenbasis(sd, _trig_values))


def selfdual_distance_bounds(sdA: SelfDualPair, sdB: SelfDualPair) -> float:
    """Lower bound on ||U_A - U_B|| + ||V_A - V_B|| when the signs differ.

    A commuting second pair always carries sign +1, which recovers the
    commuting-target form 1/5 + (1/5) sqrt(1 - 5 delta^2).
    """
    for sd in (sdA, sdB):
        require_certified(sd.delta, "trig")
    if pfaffian_bott_index(sdA) == pfaffian_bott_index(sdB):
        raise NoObstruction("equal signs carry no distance obstruction")
    return (
        math.sqrt(1 - 5 * sdA.delta**2) + math.sqrt(1 - 5 * sdB.delta**2)
    ) / 5


def check_kramers(H) -> bool:
    """True when the spectrum is doubly degenerate (Kramers pairing): each
    ascending pair of eigenvalues agrees to 1e-7 * max(1, max |eigenvalue|)."""
    H = as_matrix(H)
    limit = DEFAULT_TOL.hermitian * max(1.0, float(np.max(np.abs(H))))
    if gate_norm(H - H.conj().T, limit) > limit:
        raise NotHermitian("Kramers check needs a hermitian matrix")
    drift = gate_relative(H - dual(H), H, 1e-7)
    if drift is not None:
        raise NotSelfDual(f"self-duality violated by {drift:.3e}")
    # the hermiticity gate above, scaled by max |h_ij| <= ||H||, is stricter
    # than hermitian_eig's, which is therefore not run again
    eigs = np.linalg.eigvalsh(H)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    gaps = eigs[1::2] - eigs[0::2]
    return bool(np.all(np.abs(gaps) <= 1e-7 * scale))
