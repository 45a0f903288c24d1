"""Error taxonomy shared by every module.

Hard errors signal that a requested quantity is undefined or that the
computation cannot be trusted.  A threshold overrun on an otherwise
well-defined index is an exception as well: above its method's
``config.certified_threshold`` an index function raises ThresholdExceeded,
so it returns only certified values.  ``analysis.analyze`` computes every
index past its threshold and reports whether it is certified; the CLI
prints that report and marks the result uncertified instead of aborting.
"""


class AlmostCommutingError(Exception):
    """Base class for all library errors."""


class InvalidMatrix(AlmostCommutingError):
    """Input is not a finite square complex matrix."""


class DimensionMismatch(AlmostCommutingError):
    """Operands have incompatible shapes."""


class NotUnitary(AlmostCommutingError):
    """Matrix fails the unitarity tolerance."""


class NotHermitian(AlmostCommutingError):
    """Matrix fails the hermiticity tolerance."""


class SingularMatrix(AlmostCommutingError):
    """Polar part requested for a (numerically) singular matrix."""


class InvariantUndefined(AlmostCommutingError):
    """The requested invariant is undefined for this input (e.g. delta >= 2)."""


class NumericalInconsistency(AlmostCommutingError):
    """An exact identity failed by far more than roundoff allows."""


class MeshTooCoarse(AlmostCommutingError):
    """Path discretization too coarse to unwrap phases reliably."""


class NoObstruction(AlmostCommutingError):
    """A distance bound was requested but the indices carry no obstruction."""


class GapClosed(AlmostCommutingError):
    """An eigenvalue sits inside the gap tolerance; signature unreliable."""


class ThresholdExceeded(AlmostCommutingError):
    """delta exceeds the certified threshold for this index.

    ``analysis.analyze`` computes the index anyway and reports it as not
    certified.
    """


class AccuracyNotCertified(UserWarning):
    """Requested accuracy parameters fall below the certified regime."""


class OddDimension(AlmostCommutingError):
    """Pfaffian requested for an odd-dimensional matrix."""


class IllConditionedSign(UserWarning):
    """A sign was extracted from a value whose magnitude disagrees with its
    spectral value, or whose error bound reaches the spectral gap."""


class NotSkewSymmetric(AlmostCommutingError):
    """Matrix fails the skew-symmetry tolerance."""


class NotAntiSelfDual(AlmostCommutingError):
    """Matrix is not anti-self-dual under the block dual operation."""


class NotSelfDual(AlmostCommutingError):
    """Matrix is not self-dual under the dual operation."""


class NoGuarantee(AlmostCommutingError):
    """The bound envelope cannot guarantee a gap at this delta."""


class TableDrift(AlmostCommutingError):
    """A recomputed envelope row drifted away from its stored reference."""


class MeshViolation(AlmostCommutingError):
    """Consecutive certification mesh points are too far apart."""


class CertificationFailed(AlmostCommutingError):
    """Homotopy certification found a bound value at or above threshold."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvalidPolynomial(AlmostCommutingError):
    """A real-valued trigonometric polynomial was required."""
