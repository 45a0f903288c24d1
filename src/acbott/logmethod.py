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
from typing import Optional

import numpy as np

from .bott import BottMatrix, assemble_blocks, require_certified
from .config import DEFAULT_TOL, KAPPA_THRESHOLD, LOG_THRESHOLD
from .errors import LogMethodUncertified, SelfDualityLost
from .linalg import UnitaryPair, as_matrix, gate_norm, unitary_eig
from .selfdual import (
    DualStructure,
    SelfDualPair,
    _pfaffian_sign,
    dual,
    selfdual_part,
)


@dataclass(frozen=True)
class PrincipalLog:
    """Hermitian K = Q diag(angles) Q* with e^{iK} = V, eigenvalues in [-pi, pi]."""

    K: np.ndarray
    branch_margin: float  # distance of the spectrum of V to -1
    angles: np.ndarray
    Q: np.ndarray


def principal_log(
    V,
    structure: Optional[DualStructure] = None,
    tol: float = DEFAULT_TOL.unitary,
) -> PrincipalLog:
    """Principal logarithm of a unitary: angles taken in (-pi, pi], -1 -> +pi.

    With a structure given, K is symmetrized to exact self-duality.  A large
    symmetrization drift means an eigenvalue pair straddles the branch cut
    (one angle near +pi, its partner near -pi), where no continuous self-dual
    logarithm exists; that case is refused rather than silently averaged.
    """
    V = as_matrix(V)
    angles, Q = unitary_eig(V, tol=tol)
    margin = float(np.min(np.abs(np.exp(1j * angles) + 1.0)))
    K = (Q * angles) @ Q.conj().T
    K = (K + K.conj().T) / 2
    if structure is not None:
        drift = gate_norm(K - dual(K, structure), 1e-6)
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
            K = (Q * angles) @ Q.conj().T
            K = (K + K.conj().T) / 2
            drift = gate_norm(K - dual(K, structure), 1e-6)
        if drift > 1e-6:
            raise SelfDualityLost(
                f"self-duality drift {drift:.3e} in the logarithm; "
                "spectrum splits across the branch cut"
            )
        K = selfdual_part(K, structure)
        K = (K + K.conj().T) / 2
    return PrincipalLog(K, margin, angles, Q)


def build_BL(
    pair: UnitaryPair,
    structure: Optional[DualStructure] = None,
) -> BottMatrix:
    """Assemble B_L(U, V); diagonal blocks are exactly +-K/pi."""
    plog = principal_log(pair.V, structure, tol=pair.unitary_tol)
    # h1(K) on the eigenbasis K was built from, symmetrized as K is
    hvals = np.sqrt(1.0 - (plog.angles / np.pi) ** 2)
    hV = (plog.Q * hvals) @ plog.Q.conj().T
    hV = (hV + hV.conj().T) / 2
    if structure is not None:
        hV = selfdual_part(hV, structure)
        hV = (hV + hV.conj().T) / 2
    fV = plog.K / np.pi
    zero = np.zeros_like(fV)
    B = assemble_blocks(fV, zero, hV, pair.U)
    return BottMatrix.of(B, pair.delta, "log")


def kappa2_log(sd: SelfDualPair, allow_uncertified: bool = False) -> int:
    """Sign index from B_L; certified to agree with the trig method for
    delta <= 1/8, soft-flagged up to the trig threshold, refused beyond it
    unless the caller opts in."""
    require_certified(sd.delta, allow_uncertified)
    if LOG_THRESHOLD < sd.delta <= KAPPA_THRESHOLD:
        warnings.warn(
            f"delta = {sd.delta:.6f} is above the log-method threshold "
            f"{LOG_THRESHOLD}; the log and trig signs are not certified "
            "to agree here",
            LogMethodUncertified,
        )
    return _pfaffian_sign(build_BL(sd.pair, sd.structure), sd.structure)
