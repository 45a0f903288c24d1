"""Every invariant of a pair from one W and one block matrix.

``analyze`` reads the eigenangles of W = VUV*U* (one Schur form), which
give omega and the distance bound, and the eigendecomposition of V (one
hermitian ``eigh`` of a Cayley transform); both are made once per pair and
cached on it, so library calls on the same pair share them.  The single
hermitian spectrum of B(U, V) or B_L(U, V) gives kappa and the measured gap.
The two differ only in the triple's values at V's angles (the bump triple
or the log triple) and share one assembly per basis.  For a plain pair the
spectrum is read from the matrix in V's eigenbasis, which needs no product
with Q beyond Q*UQ.  A ``SelfDualPair``, which only ``make_selfdual_pair``
makes after its self-duality gates, takes the self-dual route: B is built
in the standard basis, where the dual acts, and kappa2 is the sign of the
modified Pfaffian of the same matrix.  Every index of a method is certified
up to ``config.certified_threshold(method)``, the threshold that the index
functions refuse above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bott import _count_signature, _spectrum_in_eigenbasis, _trig_values, build_B
from .bounds import guaranteed_gap
from .config import certified_threshold
from .errors import GapClosed, NoGuarantee, NumericalInconsistency
from .linalg import UnitaryPair
from .logmethod import _log_values, build_BL
from .selfdual import SelfDualPair, _pfaffian_sign
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


def analyze(pair: UnitaryPair, method: str = "trig") -> IndexReport:
    """All indices of the pair, computed whatever delta is, with their status.

    ``method`` is "trig" for B(U, V) or "log" for B_L(U, V); kappa is
    certified up to ``certified_threshold(method)``.  For a ``SelfDualPair``
    kappa2 is filled in, certified exactly when kappa is.  Above the winding
    gate DELTA_GATE omega is left empty and ``omega_valid`` is false.  A
    closed gap leaves kappa empty; a certified kappa that disagrees with
    omega raises NumericalInconsistency.
    """
    report = IndexReport(delta=pair.delta, dim=pair.dim)
    report.omega_valid = pair.delta <= DELTA_GATE
    report.log_certified = pair.delta <= certified_threshold("log")
    report.kappa_certified = pair.delta <= certified_threshold(method)

    winding = winding_number(pair) if report.omega_valid else None
    if winding is not None:
        report.omega = winding.omega

    log = method == "log"
    self_dual = isinstance(pair, SelfDualPair)
    if self_dual:
        bm = build_BL(pair) if log else build_B(pair)
        eigs = bm.eigs
    else:
        eigs = _spectrum_in_eigenbasis(pair, _log_values if log else _trig_values)
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
