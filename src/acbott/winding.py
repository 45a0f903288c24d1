"""Winding-number invariant of an almost-commuting unitary pair.

The multiplicative commutator W = VUV*U* of a pair with ||[U,V]|| < 2 has
spectrum bounded away from -1, so the principal logarithm of W is defined and
omega = Tr((1/2pi i) log W) is an integer.  Only the eigenangles of W enter
omega and the distance bounds; the pair factorizes W once and caches them.
The test suite's determinant-path winding (``tests/support.py``) is an
independent oracle for the same number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import InvariantUndefined, NoObstruction, NumericalInconsistency
from .linalg import UnitaryPair, require_same_dim

# delta must stay strictly below 2; at 2 the spectrum of W can touch -1
DELTA_GATE = 2.0 - 1e-9


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

    Reads the pair's cached eigenangles of W, in (-pi, pi] by
    ``linalg._schur_angles``'s branch rule, so repeated calls on one pair,
    and the distance bounds built on them, factorize W once.
    """
    _require_gate(pair.delta)
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
