"""Signature-based index of an almost-commuting unitary pair.

The index is built from a fixed triple of periodic functions (f, g, h) with
f^2 + g^2 + h^2 = 1 and gh = 0: a 2x2-block hermitian matrix B(U, V) is
assembled from f[V], g[V], h[V] and anticommutators with U, and the index is
half its signature.  The triple's bump function h lives on [-pi/2, pi/2] and
the companion g on the complement; f is a degree-5 sine polynomial with
rational coefficients.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_TOL, KAPPA_THRESHOLD, certified_threshold
from .errors import (
    AccuracyNotCertified,
    GapClosed,
    ThresholdExceeded,
)
from .linalg import TrigPoly, UnitaryPair, hermitian_eig

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


def fourier_coefficients_h(max_n: int = 5, series_K: int = 7) -> np.ndarray:
    """Cosine coefficients c_0..c_max_n of the bump function h.

    Each c_n is computed as a truncated binomial series: the square root in
    the closed form is expanded in powers of u(x) = (96 cos 2x + 9 cos 4x)/407
    and every term is integrated by adaptive quadrature.  With series_K >= 7
    the truncation tail is certifiably below 1e-6 (checked and warned about
    otherwise).
    """
    from scipy.integrate import quad
    from scipy.special import binom

    if max_n > 16:
        raise ValueError("coefficient index capped at 16")
    if series_K < 7:
        warnings.warn(
            "series truncation below 7 terms is not certified to 1e-6",
            AccuracyNotCertified,
        )

    def u(x):
        return (96 * np.cos(2 * x) + 9 * np.cos(4 * x)) / 407.0

    out = np.zeros(max_n + 1)
    for n in range(max_n + 1):
        total = 0.0
        for k in range(series_K + 1):
            w = binom(0.5, k)
            val, _ = quad(
                lambda t, n=n, k=k: np.cos(t) ** 3 * u(t) ** k * np.cos(n * t),
                -np.pi / 2,
                np.pi / 2,
                epsabs=1e-9,
                limit=200,
            )
            total += w * val
        out[n] = _BUMP_PREFACTOR * total / (2 * np.pi)

    # worst-case series remainder sits at u = -105/407
    r = 105.0 / 407.0
    partial = sum(binom(0.5, k) * (-r) ** k for k in range(series_K + 1))
    tail = abs(np.sqrt(1 - r) - partial) * _BUMP_PREFACTOR * (4.0 / 3.0) / (2 * np.pi)
    if tail > 1e-6:
        warnings.warn(
            f"series tail bound {tail:.2e} exceeds 1e-6", AccuracyNotCertified
        )
    return out


@dataclass(frozen=True)
class StandardTriple:
    """Closed-form triple plus its degree-5 trigonometric approximants."""

    f: Callable
    g: Callable
    h: Callable
    f5: TrigPoly
    g5: TrigPoly
    h5: TrigPoly
    coefficients16: np.ndarray  # c_0..c_16 of h; the envelope's mass cap reads all

    @property
    def coefficients(self) -> np.ndarray:
        """c_0..c_5 of h, the coefficients of h5."""
        return self.coefficients16[:6]


# c_0..c_16 of h as fourier_coefficients_h(16) computes them (each c_n is
# integrated on its own, so c_0..c_5 equal those of max_n = 5); the test
# suite recomputes them and requires equality
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
    c16 = np.array(_H_COEFFICIENTS16)
    c = c16[:6]
    f5 = TrigPoly.from_sin_series(F_AMPLITUDES)
    h5 = TrigPoly.from_cos_series(c[0], [2 * c[k] for k in range(1, 6)])
    # g is h shifted by pi, so its cosine coefficients alternate in sign
    b = [(-1.0) ** k * c[k] for k in range(6)]
    g5 = TrigPoly.from_cos_series(b[0], [2 * b[k] for k in range(1, 6)])
    return StandardTriple(eval_f, eval_g, eval_h, f5, g5, h5, c16)


@dataclass(frozen=True)
class BottMatrix:
    """Hermitian block matrix together with its ascending spectrum."""

    B: np.ndarray
    eigs: np.ndarray

    @classmethod
    def of(cls, B: np.ndarray) -> "BottMatrix":
        return cls(B, np.linalg.eigvalsh(B))

    @property
    def gap(self) -> float:
        """Spectral gap of B at zero."""
        return float(np.min(np.abs(self.eigs)))

    def signature(self) -> int:
        return _count_signature(self.eigs)


def assemble_blocks(fV, gV, hV, U) -> np.ndarray:
    """Hermitian 2x2-block matrix from function values and the partner unitary.

    Corner orientation is fixed so that the full matrix has signature -2 on
    the shift/clock pair with V U V* U* = exp(-2 pi i / n) I, matching the
    winding invariant of that pair.  The commuting anchors (diagonal blocks
    +-fV, corners hV at U = I) are insensitive to this choice.  The lower
    corner is gV + (hV U + U hV)/2, the upper one its adjoint and the
    diagonal blocks +-(fV + fV*)/2, so the result is exactly hermitian.
    """
    n = U.shape[0]
    lower = hV @ U
    lower += U @ hV
    lower *= 0.5
    lower += gV
    B = np.empty((2 * n, 2 * n), dtype=complex)
    B[:n, :n] = fV
    B[:n, :n] += fV.conj().T
    B[:n, :n] *= 0.5
    np.negative(B[:n, :n], out=B[n:, n:])
    B[n:, :n] = lower
    B[:n, n:] = lower.conj().T
    return B


def _trig_values(angles):
    """The bump triple's (f, g, h) at V's angles."""
    t = standard_triple()
    return t.f(angles), t.g(angles), t.h(angles)


def _assemble(pair: UnitaryPair, values, h_part=None) -> BottMatrix:
    """The block matrix of a triple in the standard basis, and its spectrum.

    ``values`` maps V's angles to the triple's (f, g, h) there, and the
    pair's cached eigendecomposition of V serves all three.  g and h vanish
    on disjoint sets of angles (gh = 0), so g(V) and h(V) are summed over
    disjoint columns of Q: the two take one product's worth of work.
    ``h_part``, when given, maps h(V) to the matrix that enters B.
    """
    angles, Q = pair.v_eig
    fvals, gvals, hvals = values(angles)

    def at_V(vals, cols=slice(None)):
        Qc = Q[:, cols]
        return (Qc * vals[cols]) @ Qc.conj().T

    hV = at_V(hvals, np.flatnonzero(hvals))
    if h_part is not None:
        hV = h_part(hV)
    B = assemble_blocks(at_V(fvals), at_V(gvals, np.flatnonzero(gvals)), hV, pair.U)
    return BottMatrix.of(B)


def build_B(pair: UnitaryPair) -> BottMatrix:
    """Assemble B(U, V) in the standard basis, and its spectrum."""
    return _assemble(pair, _trig_values)


def _spectrum_in_eigenbasis(pair: UnitaryPair, values) -> np.ndarray:
    """Ascending spectrum of the block matrix of a triple and U.

    ``values`` maps V's angles to the triple's (f, g, h) there.  With
    V = Q diag(e^{i theta}) Q* and U~ = Q* U Q, the matrix
    diag(Q, Q)* B diag(Q, Q) has diagonal blocks +-diag(f), lower corner
    diag(g) + (h_i + h_j) U~_ij / 2 and upper corner its adjoint: two
    products and O(n^2) assembly instead of seven products.  It is unitarily
    similar to the standard-basis B, so its spectrum is B's.
    """
    angles, Q = pair.v_eig
    fvals, gvals, hvals = values(angles)
    n = angles.shape[0]
    lower = Q.conj().T @ pair.U @ Q
    lower *= np.add.outer(hvals, hvals)
    lower *= 0.5
    lower[np.diag_indices(n)] += gvals
    B = np.zeros((2 * n, 2 * n), dtype=complex)
    d = np.arange(n)
    B[d, d] = fvals
    B[d + n, d + n] = -fvals
    B[n:, :n] = lower
    B[:n, n:] = lower.conj().T
    del lower
    return np.linalg.eigvalsh(B)


def _count_signature(eigs: np.ndarray) -> int:
    tol = DEFAULT_TOL.gap_per_dim * len(eigs)
    if np.min(np.abs(eigs)) <= tol:
        raise GapClosed(
            f"eigenvalue at {np.min(np.abs(eigs)):.3e} inside gap tolerance {tol:.1e}"
        )
    return int(np.sum(eigs > 0) - np.sum(eigs < 0))


def signature(H) -> int:
    """Number of positive minus number of negative eigenvalues."""
    return _count_signature(hermitian_eig(H))


def require_certified(delta: float, method: str) -> None:
    """Refuse delta above ``certified_threshold(method)``."""
    limit = certified_threshold(method)
    if delta > limit:
        raise ThresholdExceeded(
            f"delta = {delta:.6f} exceeds certified threshold {limit}"
        )


def bott_index(pair: UnitaryPair) -> int:
    """Half the signature of B(U, V).

    Certified for delta <= KAPPA_THRESHOLD; beyond that ThresholdExceeded is
    raised.  ``analysis.analyze`` computes kappa at any delta and reports
    whether it is certified.
    """
    require_certified(pair.delta, "trig")
    return _count_signature(_spectrum_in_eigenbasis(pair, _trig_values)) // 2


def threshold_consistency() -> dict:
    """Compare the stored threshold with the recomputed envelope root.

    Returned mapping carries the stored constant, the root of the bound
    envelope, and whether the root falls inside [0.2060, 0.2061].  Kept as a
    callable check (not an import-time assertion) so the library stays usable
    while the discrepancy between the stored constant and the recomputed
    tables is documented by the test suite.
    """
    from . import bounds

    root = bounds.beta_root()
    return {
        "stored": KAPPA_THRESHOLD,
        "beta_root": root,
        "bracket": (0.2060, 0.2061),
        "consistent": 0.2060 <= root <= 0.2061,
    }
