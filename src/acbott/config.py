"""Numerical configuration shared across modules.

Gate tolerances read by more than one check live in ``Tolerances``; callers
set only the unitarity gate (``unitary_tol``).  Limits that one check owns
stay beside it: 1e-7 in the anti-self-duality and Kramers checks of
``selfdual``.
The thresholds, the step budget and the envelope constants are fixed; a
``CertifyConfig`` holds the certification's mesh and search sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Certified validity thresholds for the indices.  KAPPA_THRESHOLD gates the
# signature-based index, LOG_THRESHOLD the logarithm-based route.
KAPPA_THRESHOLD = 0.206007
LOG_THRESHOLD = 0.125


@dataclass(frozen=True)
class Tolerances:
    """Default gate widths for structural checks."""

    unitary: float = 1e-8          # ||U*U - I|| gate
    hermitian: float = 1e-8        # ||H - H*|| gate
    skew: float = 1e-8             # ||X + X^T|| gate (relative to scale)
    selfdual: float = 1e-9         # ||X - X^sharp|| gate for validated inputs
    singular: float = 1e-12        # smallest singular value gate for polar part
    rounding_hard: float = 0.01    # residue beyond which the input is broken
    gap_per_dim: float = 1e-8      # signature gap tolerance = gap_per_dim * dim
    branch: float = 1e-12          # half-width of the eigenvalue cluster at -1


DEFAULT_TOL = Tolerances()


# Envelope offsets are measured on a uniform grid of ENVELOPE_GRID spacings
# over one period; the between-sample error is folded into the offset using a
# Lipschitz budget.  H_LIPSCHITZ is a verified ceiling for the bump
# function's derivative (true sup is about 1.1928), F_LIPSCHITZ is exact for
# the degree-5 sine polynomial.
ENVELOPE_GRID = 2 ** 20
H_LIPSCHITZ = 1.2
F_LIPSCHITZ = 1.875


# The homotopy certification passes when every mesh point's bound stays
# below CERTIFY_THRESHOLD, on a mesh whose consecutive triples obey the step
# rule ||df|| + ||dg|| + ||dh|| <= STEP_BUDGET.
CERTIFY_THRESHOLD = 0.95
STEP_BUDGET = math.sqrt(0.05)


@dataclass(frozen=True)
class CertifyConfig:
    """Mesh and search sizes of the homotopy certification."""

    # the default mesh starts at this many Chebyshev-Lobatto points and is
    # refined from M to 2M - 1 points until the step rule holds
    mesh_per_stage: int = 17
    max_degree: int = 48                   # degree cap for optimized approximants
    fine_grid: int = 2 ** 18               # half-period samples for offsets
    coarse_points: int = 512               # initial support of the line optimizer


DEFAULT_CERTIFY = CertifyConfig()
