"""Topological indices of almost-commuting unitary pairs.

Three invariants of a pair (U, V) of unitaries with small commutator:

- the winding number omega(U, V) of the multiplicative commutator,
- the signature index kappa(U, V) of a block hermitian matrix, equal to
  omega whenever its certified threshold holds,
- the sign index kappa2(U, V) in {+1, -1} for self-dual pairs, computed
  through a modified Pfaffian.

Alongside the indices, the bounds module turns commutator norms into
certified spectral gaps, distance lower bounds, and the homotopy
certification of the cheaper log-method variant.
"""

from .config import KAPPA_THRESHOLD, LOG_THRESHOLD
from .errors import (
    AlmostCommutingError,
    CertificationFailed,
    GapClosed,
    MeshViolation,
    NoGuarantee,
    NoObstruction,
    NotUnitary,
    NumericalInconsistency,
    ThresholdExceeded,
)
from .linalg import (
    UnitaryPair,
    make_pair,
    operator_norm,
    unitary_part,
)
from .matrixio import read_matrix, write_matrix
from .winding import (
    WindingResult,
    distance_bound_commuting,
    distance_bound_index_change,
    winding_number,
)
from .bott import (
    BottMatrix,
    StandardTriple,
    bott_index,
    build_B,
    eval_f,
    eval_g,
    eval_h,
    signature,
    standard_triple,
)
from .selfdual import (
    SelfDualPair,
    dual,
    make_selfdual_pair,
    pfaffian_bott_index,
    selfdual_distance_bounds,
)
from .logmethod import build_BL, kappa2_log
from .analysis import IndexReport, analyze
from .bounds import (
    BoundEnvelope,
    BoundLine,
    CertificationReport,
    beta,
    beta_root,
    certify_log_path,
    coarse_gap,
    eta_envelope_f,
    eta_envelope_h,
    guaranteed_gap,
    variation_bound,
)
from .generators import (
    PairSpec,
    build_pair,
    commuting_random,
    cyclic_shift_pair,
    perturb,
    perturb_selfdual,
    powered_pair,
    selfdual_doubling,
)

__version__ = "0.1.0"
