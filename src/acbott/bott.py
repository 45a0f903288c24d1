"""Signature-based index of an almost-commuting unitary pair.

The index is built from a fixed triple of periodic functions (f, g, h) with
f^2 + g^2 + h^2 = 1 and gh = 0: a 2x2-block hermitian matrix B(U, V) is
assembled once, in V's eigenbasis, from the triple at V's angles and Q*UQ,
and the index is half its signature.  The triple's bump function h lives on
[-pi/2, pi/2] and the companion g on the complement; f is a degree-5 sine
polynomial with rational coefficients.  The cosine coefficients c_0..c_16
of h are stored, not computed: every path reads them from the table below.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_TOL, certified_threshold
from .errors import GapClosed, NotHermitian, ThresholdExceeded
from .linalg import UnitaryPair, _serial_blas, as_matrix, gate_relative

# sine amplitudes of f: (150 sin x + 25 sin 3x + 3 sin 5x) / 128
F_AMPLITUDES = (150.0 / 128.0, 0.0, 25.0 / 128.0, 0.0, 3.0 / 128.0)

_BUMP_PREFACTOR = np.sqrt(407.0 / 512.0)


def eval_f(x):
    """The odd degree-5 polynomial; maps [-pi/2, pi/2] onto [-1, 1]."""
    x = np.asarray(x, dtype=float)
    return (150 * np.sin(x) + 25 * np.sin(3 * x) + 3 * np.sin(5 * x)) / 128


def _bump_core(x):
    # closed form of sqrt(1 - f^2) up to the sign of cos^3
    return (
        _BUMP_PREFACTOR
        * np.abs(np.cos(x)) ** 3
        * np.sqrt(1 + (96 / 407) * np.cos(2 * x) + (9 / 407) * np.cos(4 * x))
    )


def _reduce_angle(x):
    x = np.asarray(x, dtype=float)
    return np.angle(np.exp(1j * x))


def eval_h(x):
    """Bump over [-pi/2, pi/2], zero outside."""
    r = _reduce_angle(x)
    return np.where(np.abs(r) <= np.pi / 2, _bump_core(r), 0.0)


def eval_g(x):
    """Bump over the complement of [-pi/2, pi/2], zero inside."""
    r = _reduce_angle(x)
    return np.where(np.abs(r) > np.pi / 2, _bump_core(r), 0.0)


@dataclass(frozen=True)
class StandardTriple:
    """The closed-form triple and the stored cosine coefficients of h."""

    f: Callable
    g: Callable
    h: Callable
    coefficients16: np.ndarray  # c_0..c_16 of h, the table ``acbott fourier`` prints


# c_0..c_16 of h, the table that ``acbott fourier`` prints; the test suite
# integrates each c_n again by quadrature and requires bitwise equality
_H_COEFFICIENTS16 = (
    0.20204721666342668,
    0.17994001948259783,
    0.1256551641641235,
    0.06600953853608497,
    0.023444820911186822,
    0.003885617521058475,
    -0.00042012268094608873,
    0.00017595201124724375,
    0.00041012917587456455,
    -1.150820534530477e-05,
    -0.00016413435035963076,
    4.122627976746971e-07,
    7.653627445525553e-05,
    1.7675400359065974e-08,
    -4.0648848491763417e-05,
    -2.8896068234916094e-09,
    2.3625764701359684e-05,
)


@functools.lru_cache(maxsize=1)
def standard_triple() -> StandardTriple:
    return StandardTriple(eval_f, eval_g, eval_h, np.array(_H_COEFFICIENTS16))


class _Spectrum:
    """The gap at zero and the signature of an ascending spectrum ``eigs``."""

    eigs: np.ndarray

    @property
    def gap(self) -> float:
        """Spectral gap at zero."""
        return float(np.min(np.abs(self.eigs)))

    def signature(self) -> int:
        return _count_signature(self.eigs)


@dataclass(frozen=True)
class BottMatrix(_Spectrum):
    """Hermitian block matrix together with its ascending spectrum."""

    B: np.ndarray
    eigs: np.ndarray

    @classmethod
    def of(cls, B: np.ndarray) -> "BottMatrix":
        return cls(B, np.linalg.eigvalsh(B))


def _trig_values(angles):
    """The bump triple's (f, g, h) at V's angles."""
    t = standard_triple()
    return t.f(angles), t.g(angles), t.h(angles)


def _corner(pair: UnitaryPair, values):
    """(f, L): the triple's f at V's angles and the block matrix's lower corner.

    ``values`` maps V's angles to the triple's (f, g, h) there.  With
    V = Q diag(e^{i theta}) Q* and U~ = Q* U Q, the corner in V's eigenbasis
    is L = diag(g) + (h_i + h_j) U~_ij / 2: two products and O(n^2) work.
    """
    angles, Q = pair.v_eig
    fvals, gvals, hvals = values(angles)
    L = Q.conj().T @ pair.U @ Q
    L *= np.add.outer(hvals, hvals)
    L *= 0.5
    L[np.diag_indices(len(angles))] += gvals
    return fvals, L


def _eigenbasis_B(pair: UnitaryPair, values) -> BottMatrix:
    """The block matrix of a triple and U in V's eigenbasis, and its spectrum.

    diag(Q, Q)* B diag(Q, Q) has diagonal blocks +-diag(f), lower corner L
    of :func:`_corner` and upper corner its adjoint.  The corners are
    oriented so that B has signature -2 on the shift/clock pair with
    V U V* U* = exp(-2 pi i / n) I, matching the winding invariant of that
    pair; the commuting anchors (diagonal blocks +-f(V), corners h(V) at
    U = I) are insensitive to this choice.  The matrix is unitarily similar
    to the standard-basis B, so its spectrum is B's; for a ``SelfDualPair``,
    Q^# = Q* and its modified Pfaffian has B's sign too.  A self-dual
    request reads B's spectrum from :func:`selfdual._pfaffian_sign`, which
    takes the same arguments, instead.
    """
    with _serial_blas(pair.dim):
        fvals, lower = _corner(pair, values)
        n = len(fvals)
        B = np.zeros((2 * n, 2 * n), dtype=complex)
        d = np.arange(n)
        B[d, d] = fvals
        B[d + n, d + n] = -fvals
        B[n:, :n] = lower
        B[:n, n:] = lower.conj().T
        return BottMatrix.of(B)


def build_B(pair: UnitaryPair) -> BottMatrix:
    """B(U, V) in V's eigenbasis, and its spectrum: :func:`_eigenbasis_B`
    of the bump triple."""
    return _eigenbasis_B(pair, _trig_values)


def _count_signature(eigs: np.ndarray) -> int:
    tol = DEFAULT_TOL.gap_per_dim * len(eigs)
    if np.min(np.abs(eigs)) <= tol:
        raise GapClosed(
            f"eigenvalue at {np.min(np.abs(eigs)):.3e} inside gap tolerance {tol:.1e}"
        )
    return int(np.sum(eigs > 0) - np.sum(eigs < 0))


def signature(H) -> int:
    """Number of positive minus number of negative eigenvalues of a hermitian H.

    H is refused with NotHermitian when ||H - H*|| exceeds
    ``DEFAULT_TOL.hermitian`` * max(1, ||H||), decided by
    :func:`linalg.gate_relative`, and with GapClosed when an eigenvalue
    lies inside the gap tolerance.
    """
    A = as_matrix(H)
    err, failed = gate_relative(A - A.conj().T, A, DEFAULT_TOL.hermitian)
    if failed:
        raise NotHermitian(f"||H - H*|| = {err:.3e} exceeds tolerance")
    return _count_signature(np.linalg.eigvalsh(A))


def require_certified(delta: float, method: str) -> None:
    """Refuse delta above ``certified_threshold(method)``."""
    limit = certified_threshold(method)
    if delta > limit:
        raise ThresholdExceeded(
            f"delta = {float(delta)!r} exceeds certified threshold {limit}"
        )


def bott_index(pair: UnitaryPair) -> int:
    """Half the signature of B(U, V).

    Certified for delta <= KAPPA_THRESHOLD; beyond that ThresholdExceeded is
    raised.  ``analysis.analyze`` computes kappa at any delta and reports
    whether it is certified.
    """
    require_certified(pair.delta, "trig")
    return _eigenbasis_B(pair, _trig_values).signature() // 2
