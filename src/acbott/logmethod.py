"""Log-method variant of the block matrix.

Instead of the bump-function triple, take iK to be the principal logarithm
of V and use f1(x) = x/pi, g1 = 0, h1(x) = sqrt(1 - x^2/pi^2).  These are
merely Borel functions of V, but the resulting matrix B_L is cheaper to
assemble and its sign index provably agrees with the trigonometric one for
delta <= 1/8.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
import numpy as np

from .bott import BottMatrix, assemble_blocks, require_certified
from .config import DEFAULT_TOL, KAPPA_THRESHOLD, LOG_THRESHOLD
from .errors import LogMethodUncertified, SelfDualityLost
from .linalg import UnitaryPair, as_matrix, gate_norm, unitary_eig
from .selfdual import SelfDualPair, _hermitian_part, _pfaffian_sign, dual


@dataclass(frozen=True)
class PrincipalLog:
    """Hermitian K = Q diag(angles) Q* with e^{iK} = V, eigenvalues in [-pi, pi]."""

    K: np.ndarray
    branch_margin: float  # distance of the spectrum of V to -1
    angles: np.ndarray
    Q: np.ndarray


def principal_log(V, self_dual: bool = False) -> PrincipalLog:
    """Principal logarithm of a unitary: angles taken in (-pi, pi], -1 -> +pi.

    With ``self_dual``, K is symmetrized to exact self-duality.  A large
    symmetrization drift means an eigenvalue pair straddles the branch cut
    (one angle near +pi, its partner near -pi), where no continuous self-dual
    logarithm exists; that case is refused rather than silently averaged.
    """
    V = as_matrix(V)
    return _principal_log(V, unitary_eig(V), self_dual, DEFAULT_TOL.unitary)


def _principal_log(
    V: np.ndarray,
    eig,
    self_dual: bool,
    tol: float,
) -> PrincipalLog:
    """:func:`principal_log` from ``eig``, V's ``(angles, Q)`` already made.

    ``tol`` gates V's unitarity when the branch cut has to be moved and V is
    factorized again, so a pair keeps the tolerance it was made with.
    """
    angles, Q = eig
    margin = float(np.min(np.abs(np.exp(1j * angles) + 1.0)))
    K = _hermitian_part((Q * angles) @ Q.conj().T)
    if self_dual:
        drift = gate_norm(K - dual(K), 1e-6)
        if drift > 1e-6:
            # a degenerate pair at -1 can come out of the eigensolver with
            # angles on opposite sides of the cut; recompute with the cut
            # moved to the midpoint of the widest spectral gap, then rewrap
            order = np.sort(angles)
            gaps = np.diff(np.append(order, order[0] + 2.0 * np.pi))
            widest = int(np.argmax(gaps))
            shift = order[widest] + gaps[widest] / 2.0 - np.pi
            angles2, Q = unitary_eig(V * np.exp(-1j * shift), tol=tol)
            angles = np.angle(np.exp(1j * (angles2 + shift)))
            K = _hermitian_part((Q * angles) @ Q.conj().T)
            drift = gate_norm(K - dual(K), 1e-6)
        if drift > 1e-6:
            raise SelfDualityLost(
                f"self-duality drift {drift:.3e} in the logarithm; "
                "spectrum splits across the branch cut"
            )
        K = _hermitian_part(K, self_dual=True)
    return PrincipalLog(K, margin, angles, Q)


def build_BL(pair: UnitaryPair, self_dual: bool = False) -> BottMatrix:
    """Assemble B_L(U, V); diagonal blocks are exactly +-K/pi.

    The logarithm starts from the pair's cached eigendecomposition of V.
    With ``self_dual`` the blocks are symmetrized to exact self-duality.
    """
    plog = _principal_log(pair.V, pair.v_eig, self_dual, pair.unitary_tol)
    # h1(K) on the eigenbasis K was built from, symmetrized as K is
    hvals = np.sqrt(1.0 - (plog.angles / np.pi) ** 2)
    hV = _hermitian_part((plog.Q * hvals) @ plog.Q.conj().T, self_dual)
    # g1 = 0, and adding the scalar 0.0 gives the blocks a zero matrix would
    B = assemble_blocks(plog.K / np.pi, 0.0, hV, pair.U)
    return BottMatrix.of(B, pair.delta, "log")


def kappa2_log(sd: SelfDualPair) -> int:
    """Sign index from B_L; certified to agree with the trig method for
    delta <= 1/8, soft-flagged up to the trig threshold, refused beyond it
    (``analysis.analyze(..., method="log")`` computes it at any delta)."""
    require_certified(sd.delta)
    if LOG_THRESHOLD < sd.delta <= KAPPA_THRESHOLD:
        warnings.warn(
            f"delta = {sd.delta:.6f} is above the log-method threshold "
            f"{LOG_THRESHOLD}; the log and trig signs are not certified "
            "to agree here",
            LogMethodUncertified,
        )
    return _pfaffian_sign(build_BL(sd.pair, self_dual=True))
