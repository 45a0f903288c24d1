"""Log-method variant of the block matrix.

Instead of the bump-function triple, take iK to be the principal logarithm
of V, whose angles lie in (-pi, pi] by ``linalg._schur_angles``'s branch
rule, and use f1(x) = x/pi, g1 = 0, h1(x) = sqrt(1 - x^2/pi^2).  This log
triple is the end of the certified path, ``bounds.path_values(2, 1.0)``,
and is read from there.  These are merely Borel functions of V; B_L is
assembled exactly as B is, in V's eigenbasis from the triple's values at V's
angles, and its sign index provably agrees with the trigonometric one for
delta <= 1/8: ``config.certified_threshold("log")``, which ``kappa2_log``
refuses above and ``analysis.analyze`` reports against.
"""

from __future__ import annotations

from .bott import BottMatrix, _eigenbasis_B
from .bounds import path_values
from .linalg import UnitaryPair
from .selfdual import SelfDualPair, _pfaffian_sign, require_selfdual

# the log triple's (f1, g1, h1) at V's angles: the certified path's end
_log_values = path_values(2, 1.0)


def build_BL(pair: UnitaryPair) -> BottMatrix:
    """B_L(U, V) in V's eigenbasis, and its spectrum: :func:`bott._eigenbasis_B`
    of the log triple, so the diagonal blocks are +-diag(angles)/pi.  A
    ``SelfDualPair``'s Kramers pairs share one angle, so h1(V) is self-dual."""
    return _eigenbasis_B(pair, _log_values)


def kappa2_log(sd: SelfDualPair) -> int:
    """Sign index from B_L; certified to agree with the trig method for
    delta <= 1/8, refused beyond it with ThresholdExceeded
    (``analysis.analyze(sd, method="log")`` computes it at any delta).  A
    pair that is not a ``SelfDualPair`` raises NotSelfDual."""
    require_selfdual(sd, "log")
    return _pfaffian_sign(sd, _log_values).sign
