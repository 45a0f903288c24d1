"""Every invariant of a pair from one block matrix and, for a plain pair, one W.

``analyze`` reads the eigendecomposition of V (one hermitian ``eigh`` of a
Cayley transform) and, for a plain pair, the eigenangles of W = VUV*U* (one
Schur form), which give omega and the distance bound; both are made once
per pair and cached on it, so library calls on the same pair share them.
A self-dual pair's omega is 0 and is read from delta with no Schur form
(:func:`winding.winding_number`).  B's spectrum is read before omega, so a
plain request frees B before W is factorized.  B(U, V) or
B_L(U, V) is assembled once; the two differ only in the triple's values at
V's angles (the bump triple or the log triple), and either is read in V's
eigenbasis, which needs no product with Q beyond Q*UQ.  For a plain pair
the single hermitian spectrum of that matrix gives kappa and the measured
gap.  A ``SelfDualPair``, which only ``make_selfdual_pair`` makes after its
self-duality gates, has V's eigenbasis in Kramers form, Q^# = Q*, so the
same matrix is anti-self-dual and is not formed: a real skew matrix is
written from its corner, and one real reduction of that gives kappa2, the
sign of its modified Pfaffian, and a spectrum within a stated eta of B's,
which gives kappa and the measured gap.  Every index of a method
is certified up to ``config.certified_threshold(method)``, the threshold
that the index functions refuse above.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .bott import _eigenbasis_B, _trig_values
from .bounds import guaranteed_gap
from .config import certified_threshold
from .errors import GapClosed, NoGuarantee, NumericalInconsistency
from .linalg import UnitaryPair
from .logmethod import _log_values
from .selfdual import SelfDualPair, _pfaffian_sign
from .winding import DELTA_GATE, winding_number


@dataclass
class IndexReport:
    dim: int
    delta: float
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
        """(name, text) of every field, in field order, for kv and csv."""

        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return f"{v:.9g}"
            return str(v)

        return [(f.name, fmt(getattr(self, f.name))) for f in fields(self)]


def analyze(pair: UnitaryPair, method: str = "trig") -> IndexReport:
    """All indices of the pair, computed whatever delta is, with their status.

    ``method`` is "trig" for B(U, V) or "log" for B_L(U, V), and any other
    raises ValueError before any work; kappa is certified up to
    ``certified_threshold(method)``.  ``gap_guaranteed`` bounds B's gap, so
    it is left empty for "log", whose measured gap is B_L's.  The trig
    threshold is the published 0.206007, past ``bounds.beta_root()`` =
    0.20469759: for delta between the two, ``kappa_certified`` is true on
    the published constant alone and ``gap_guaranteed`` is empty, since
    ``guaranteed_gap`` raises NoGuarantee there.  For a
    ``SelfDualPair`` kappa2 is filled in, certified exactly when kappa is.
    Above the winding gate DELTA_GATE omega is left empty and
    ``omega_valid`` is false.  A closed gap leaves kappa empty; a certified
    kappa that disagrees with omega raises NumericalInconsistency.
    """
    report = IndexReport(delta=pair.delta, dim=pair.dim)
    report.omega_valid = pair.delta <= DELTA_GATE
    report.log_certified = pair.delta <= certified_threshold("log")
    report.kappa_certified = pair.delta <= certified_threshold(method)

    values = _log_values if method == "log" else _trig_values
    if isinstance(pair, SelfDualPair):
        spectrum = _pfaffian_sign(pair, values)
        report.kappa2 = spectrum.sign
    else:
        spectrum = _eigenbasis_B(pair, values)
    report.gap_measured = spectrum.gap
    try:
        report.kappa = spectrum.signature() // 2
    except GapClosed:
        pass
    del spectrum  # a plain request frees B before W's Schur form
    winding = winding_number(pair) if report.omega_valid else None
    if winding is not None:
        report.omega = winding.omega
    if method == "trig":  # beta bounds ||B^2 - I|| for the bump triple only
        try:
            report.gap_guaranteed = guaranteed_gap(pair.delta)
        except NoGuarantee:
            pass
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
