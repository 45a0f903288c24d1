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


class NoObstruction(AlmostCommutingError):
    """A distance bound was requested but the indices carry no obstruction."""


class GapClosed(AlmostCommutingError):
    """An eigenvalue sits inside the gap tolerance; signature unreliable."""


class ThresholdExceeded(AlmostCommutingError):
    """delta exceeds the certified threshold for this index.

    ``analysis.analyze`` computes the index anyway and reports it as not
    certified.
    """


class IllConditionedSign(UserWarning):
    """A Pfaffian sign was read from a reduction whose error bound on B's
    spectrum reaches that spectrum's gap."""


class NotAntiSelfDual(AlmostCommutingError):
    """Matrix is not anti-self-dual under the block dual operation."""


class NotSelfDual(AlmostCommutingError):
    """Matrix is not self-dual under the dual operation."""


class NoGuarantee(AlmostCommutingError):
    """The bound envelope cannot guarantee a gap at this delta."""


class MeshViolation(AlmostCommutingError):
    """Consecutive certification mesh points are too far apart."""


class CertificationFailed(AlmostCommutingError):
    """Homotopy certification found a bound value at or above threshold."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
