"""Numerical configuration shared across modules.

The gate widths of the structural checks live in ``Tolerances``, whether
one check reads a width or several, and no caller sets one: the thresholds
are theorems about exact unitaries, so nearly unitary input takes its polar
parts (``acbott index --polar``) instead of a wider gate.  One limit stays
beside its check in ``selfdual``: 1e-7 on the anti-self-duality defect of
the block matrix, read from its corner.
The branch cluster at -1 is as wide as the unitarity gate, wider than the
self-duality gate; a self-dual pair's V clusters its angles at twice that
width, so each Kramers pair shares one angle and one side of the cut.
The thresholds, the step budget and the Lipschitz budgets are fixed;
``certified_threshold`` maps a method to its threshold.  The certification
verifies stored coefficient vectors, so it has no search settings; its one
size is the fine grid, ``FINE_GRID``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Certified validity thresholds for the indices.  KAPPA_THRESHOLD gates the
# signature-based index, LOG_THRESHOLD the logarithm-based route.
# KAPPA_THRESHOLD is the published constant; the package's own beta reaches 1
# at bounds.beta_root() = 0.20469759, so for delta in (0.20469759, 0.206007]
# kappa is certified by this constant alone while guaranteed_gap raises
# NoGuarantee.
KAPPA_THRESHOLD = 0.206007
LOG_THRESHOLD = 0.125


def certified_threshold(method: str) -> float:
    """The largest delta at which an index of ``method`` ("trig" or "log")
    is certified; every certified flag and refusal reads it.  Any other
    method raises ValueError."""
    if method not in ("trig", "log"):
        raise ValueError(f"method must be 'trig' or 'log', got {method!r}")
    return LOG_THRESHOLD if method == "log" else KAPPA_THRESHOLD


@dataclass(frozen=True)
class Tolerances:
    """Default gate widths for structural checks."""

    unitary: float = 1e-8          # ||U*U - I|| gate
    hermitian: float = 1e-8        # ||H - H*|| gate
    selfdual: float = 1e-9         # ||X - X^sharp|| gate for validated inputs
    singular: float = 1e-12        # smallest singular value gate for polar part
    rounding_hard: float = 0.01    # residue beyond which the input is broken
    gap_per_dim: float = 1e-8      # signature gap tolerance = gap_per_dim * dim
    branch: float = 1e-8           # half-width of the eigenvalue cluster at -1


DEFAULT_TOL = Tolerances()


# Lipschitz budgets for the error between grid samples of an eta's residual.
# H_LIPSCHITZ is a verified ceiling for the bump function's derivative (true
# sup is about 1.1928), F_LIPSCHITZ is exact for the degree-5 sine
# polynomial.
H_LIPSCHITZ = 1.2
F_LIPSCHITZ = 1.875


# The homotopy certification passes when every mesh point's bound stays
# below CERTIFY_THRESHOLD, on a mesh whose consecutive triples obey the step
# rule ||df|| + ||dg|| + ||dh|| <= STEP_BUDGET.  Each eta's residual is
# measured on FINE_GRID + 1 samples of the half period [0, pi].
CERTIFY_THRESHOLD = 0.95
STEP_BUDGET = math.sqrt(0.05)
FINE_GRID = 2 ** 18
