"""Log-method variant of the block matrix.

Instead of the bump-function triple, take iK to be the principal logarithm
of V and use f1(x) = x/pi, g1 = 0, h1(x) = sqrt(1 - x^2/pi^2).  These are
merely Borel functions of V; B_L is assembled exactly as B is, from the
triple's values at V's angles, and its sign index provably agrees with the
trigonometric one for delta <= 1/8: ``config.certified_threshold("log")``,
which ``kappa2_log`` refuses above and ``analysis.analyze`` reports against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bott import BottMatrix, _assemble, require_certified
from .linalg import UnitaryPair, unitary_eig
from .selfdual import SelfDualPair, _hermitian_part, _pfaffian_sign


@dataclass(frozen=True)
class PrincipalLog:
    """Hermitian K = Q diag(angles) Q* with e^{iK} = V, eigenvalues in [-pi, pi]."""

    K: np.ndarray
    branch_margin: float  # distance of the spectrum of V to -1
    angles: np.ndarray
    Q: np.ndarray


def principal_log(V) -> PrincipalLog:
    """Principal logarithm of a unitary: angles taken in (-pi, pi], -1 -> +pi."""
    angles, Q = unitary_eig(V)
    margin = float(np.min(np.abs(np.exp(1j * angles) + 1.0)))
    K = _hermitian_part((Q * angles) @ Q.conj().T)
    return PrincipalLog(K, margin, angles, Q)


def _log_values(angles):
    """The log triple's (f1, g1, h1) at V's angles."""
    x = angles / np.pi
    return x, np.zeros_like(x), np.sqrt(1.0 - x**2)


def build_BL(pair: UnitaryPair) -> BottMatrix:
    """Assemble B_L(U, V) in the standard basis; diagonal blocks are +-K/pi.

    For a SelfDualPair, h1(V) enters B_L as its self-dual part.  h1 grows
    like sqrt(pi - |theta|) at the cut, so a Kramers pair just inside it,
    split by eps within V's admitted self-duality defect, leaves h1(V) off
    self-duality by up to sqrt(2 eps / pi) where f1(V) is off by eps / pi.
    K/pi keeps its drift: a pair split across the cut, with angles near
    +pi and -pi, still fails the Pfaffian's anti-self-duality gate.
    """
    if isinstance(pair, SelfDualPair):
        return _assemble(
            pair, _log_values, lambda hV: _hermitian_part(hV, self_dual=True)
        )
    return _assemble(pair, _log_values)


def kappa2_log(sd: SelfDualPair) -> int:
    """Sign index from B_L; certified to agree with the trig method for
    delta <= 1/8, refused beyond it with ThresholdExceeded
    (``analysis.analyze(sd, method="log")`` computes it at any delta)."""
    require_certified(sd.delta, "log")
    return _pfaffian_sign(build_BL(sd))
