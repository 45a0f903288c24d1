"""Winding-number invariant of an almost-commuting unitary pair.

The multiplicative commutator W = VUV*U* of a pair with ||[U,V]|| < 2 has
spectrum bounded away from -1, so the principal logarithm of W is defined and
omega = Tr((1/2pi i) log W) is an integer.  Only the eigenangles of W enter
omega and the distance bounds; a plain pair factorizes W once and caches
them.  A ``SelfDualPair``, gated when made, takes no factorization of W:
W^# = U*V*UV is similar to W^T, since the dual is a similarity of the
transpose, and to W^{-1} = (UV)(VU)^{-1}, so W's spectrum is closed under
conjugation and omega = 0.  Its margin to -1 is read from delta, since W is
normal and ||W - I|| = ||(VU - UV)(UV)*|| = delta.  The test suite's
determinant-path winding (``tests/support.py``) is an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import InvariantUndefined, NoObstruction, NumericalInconsistency
from .linalg import UnitaryPair, require_same_dim
from .selfdual import SelfDualPair

# delta must stay strictly below 2; at 2 the spectrum of W can touch -1
DELTA_GATE = 2.0 - 1e-9

# a self-dual pair's omega is read as 0 up to this delta: 2 - c with
# c = 1e-7, the margin the input gates leave (see winding_number)
SELFDUAL_DELTA_MAX = 2.0 - 1e-7


@dataclass(frozen=True)
class WindingResult:
    omega: int
    delta: float
    min_angle_gap_at_pi: float  # distance of the spectrum of VUV*U* to -1
    raw: float                  # pre-rounding trace value

    def distance_bound(self) -> float:
        """Lower bound on the distance from the pair to any commuting unitary pair.

        Valid whenever the winding invariant is nonzero; the distance is
        measured as ||U - U1|| + ||V - V1||.
        """
        if self.omega == 0:
            raise NoObstruction("winding invariant is zero; no distance bound claimed")
        return 1.0 + float(np.sqrt(max(0.0, 1.0 - self.delta ** 2 / 4.0)))


def _require_gate(delta: float) -> None:
    if delta > DELTA_GATE:
        raise InvariantUndefined(
            f"delta = {delta:.15g} is above the gate {DELTA_GATE:.15g}; "
            "winding invariant undefined"
        )


def winding_number(pair: UnitaryPair) -> WindingResult:
    """Integer winding invariant via the trace of the principal logarithm.

    A plain pair reads its cached eigenangles of W, in (-pi, pi] by
    ``linalg._schur_angles``'s branch rule, so repeated calls on one pair,
    and the distance bounds built on them, factorize W once.

    A ``SelfDualPair``, which passed the self-duality gate when it was
    made, with delta <= ``SELFDUAL_DELTA_MAX`` = 2 - c gets (0, delta,
    sqrt(4 - delta^2), 0.0) with no factorization.  For exact unitaries the
    margin is exact: |lambda - 1|^2 + |lambda + 1|^2 = 4 on the circle, and
    max |lambda - 1| = ||W - I|| = delta.  c = 1e-7 covers the gates' 1e-8
    (unitarity) and 1e-9 (self-duality).  For M = U or V, each singular
    value has |sigma - 1| = |sigma^2 - 1| / (1 + sigma) <= 5.1e-9, and M's
    self-dual part lies within 5e-10 of M.  The unitary polar part P of that
    self-dual part is exactly self-dual, since the unitary polar factor of
    an invertible self-dual matrix is self-dual, and ||P - M|| <= 6.1e-9.
    On the straight path from M's own polar part to P every point lies
    within 6.1e-9 of M and its polar part within eps = 1.73e-8, so
    ||[U_t, V_t]|| <= delta + 4 eps < delta + 7e-8 < 2: no eigenvalue of W_t
    reaches -1, and omega stays constant from the pair's polar parts, whose
    omega is the pair's, to exactly self-dual unitaries, where it is 0.
    Above 2 - c a self-dual pair takes the Schur route as a plain pair does.
    """
    _require_gate(pair.delta)
    if isinstance(pair, SelfDualPair) and pair.delta <= SELFDUAL_DELTA_MAX:
        return WindingResult(0, pair.delta, math.sqrt(4.0 - pair.delta ** 2), 0.0)
    angles = pair.w_angles
    margin = float(np.min(np.abs(np.exp(1j * angles) + 1.0)))
    raw = float(np.sum(angles) / (2 * np.pi))
    nearest = round(raw)
    if abs(raw - nearest) > DEFAULT_TOL.rounding_hard:
        raise NumericalInconsistency(
            f"winding trace {raw:.6f} is {abs(raw - nearest):.2e} from an integer"
        )
    return WindingResult(int(nearest), pair.delta, margin, raw)


def distance_bound_commuting(pair: UnitaryPair) -> float:
    """:meth:`WindingResult.distance_bound` of the pair."""
    return winding_number(pair).distance_bound()


def distance_bound_index_change(pairA: UnitaryPair, pairB: UnitaryPair) -> float:
    """Lower bound on the distance between two pairs with different invariants.

    Pairs of different dims are refused with DimensionMismatch.
    """
    require_same_dim(pairA.U, pairB.U)
    ra, rb = winding_number(pairA), winding_number(pairB)
    if ra.omega == rb.omega:
        raise NoObstruction("equal winding invariants; no distance bound claimed")
    da, db = pairA.delta, pairB.delta
    return float(
        np.sqrt(max(0.0, 1.0 - da ** 2 / 4.0)) + np.sqrt(max(0.0, 1.0 - db ** 2 / 4.0))
    )
