"""Every invariant of a pair from one W and one block matrix.

``analyze`` reads the eigenangles of W = VUV*U* (one Schur form), which
give omega and the distance bound, and the eigendecomposition of V (one
hermitian ``eigh`` of a Cayley transform); both are made once per pair and
cached on it, so library calls on the same pair share them.  The single
hermitian spectrum of B(U, V) or B_L(U, V) gives kappa and the measured gap.
For a plain pair that spectrum is read from the matrix in V's eigenbasis,
which needs no product with Q beyond Q*UQ.  For a self-dual pair
(``self_dual=True``, the dual fixed by the dimension) B is built in the
standard basis, where the dual acts, and kappa2 is the sign of the modified
Pfaffian of the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bott import _count_signature, _plain_spectrum, build_B
from .bounds import guaranteed_gap
from .config import KAPPA_THRESHOLD, LOG_THRESHOLD
from .errors import GapClosed, NoGuarantee, NumericalInconsistency
from .linalg import UnitaryPair
from .logmethod import _plain_log_spectrum, build_BL
from .selfdual import _pfaffian_sign
from .winding import DELTA_GATE, winding_number


@dataclass
class IndexReport:
    delta: float
    dim: int
    omega: Optional[int] = None
    kappa: Optional[int] = None
    kappa2: Optional[int] = None
    omega_valid: bool = False
    kappa_certified: bool = False
    log_certified: bool = False
    gap_measured: Optional[float] = None
    gap_guaranteed: Optional[float] = None
    distance_commuting: Optional[float] = None

    def items(self):
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return f"{v:.9g}"
            return str(v)

        return [
            ("dim", fmt(self.dim)),
            ("delta", fmt(self.delta)),
            ("omega", fmt(self.omega)),
            ("kappa", fmt(self.kappa)),
            ("kappa2", fmt(self.kappa2)),
            ("omega_valid", fmt(self.omega_valid)),
            ("kappa_certified", fmt(self.kappa_certified)),
            ("log_certified", fmt(self.log_certified)),
            ("gap_measured", fmt(self.gap_measured)),
            ("gap_guaranteed", fmt(self.gap_guaranteed)),
            ("distance_commuting", fmt(self.distance_commuting)),
        ]


def analyze(
    pair: UnitaryPair,
    self_dual: bool = False,
    method: str = "trig",
) -> IndexReport:
    """All indices of the pair, computed whatever delta is, with their status.

    ``method`` is "trig" for B(U, V) or "log" for B_L(U, V); on the log route
    kappa is certified only up to LOG_THRESHOLD.  With ``self_dual`` the pair
    is treated as self-dual (its dimension fixes the dual) and kappa2 is
    filled in, certified exactly when kappa is.  Above the winding gate
    DELTA_GATE omega is left empty and ``omega_valid`` is false.  A closed
    gap leaves kappa empty; a certified kappa that disagrees with omega
    raises NumericalInconsistency.
    """
    report = IndexReport(delta=pair.delta, dim=pair.dim)
    report.omega_valid = pair.delta <= DELTA_GATE
    report.log_certified = pair.delta <= LOG_THRESHOLD
    report.kappa_certified = pair.delta <= KAPPA_THRESHOLD and (
        method != "log" or report.log_certified
    )

    winding = winding_number(pair) if report.omega_valid else None
    if winding is not None:
        report.omega = winding.omega

    if self_dual:
        bm = build_BL(pair, self_dual=True) if method == "log" else build_B(pair)
        eigs = bm.eigs
    else:
        eigs = (_plain_log_spectrum if method == "log" else _plain_spectrum)(pair)
    report.gap_measured = float(np.min(np.abs(eigs)))
    try:
        report.kappa = _count_signature(eigs) // 2
    except GapClosed:
        pass
    try:
        report.gap_guaranteed = guaranteed_gap(pair.delta)
    except NoGuarantee:
        pass
    if self_dual:
        report.kappa2 = _pfaffian_sign(bm)
    if winding is not None and winding.omega != 0:
        report.distance_commuting = winding.distance_bound()

    if (
        report.kappa is not None
        and report.omega is not None
        and report.kappa_certified
        and report.kappa != report.omega
    ):
        raise NumericalInconsistency(
            f"certified kappa = {report.kappa} disagrees with omega = {report.omega}"
        )
    return report
