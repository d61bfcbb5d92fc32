"""Exception types raised across the package."""

from __future__ import annotations


class CoeventError(Exception):
    """Base class for all domain errors."""


class NonHermitianError(CoeventError):
    """A matrix required to be Hermitian is not, within tolerance."""


class SpaceTooLargeError(CoeventError):
    """A history space or enumeration exceeds its configured cap."""


class IndexOutOfRangeError(CoeventError, IndexError):
    """An outcome index tuple does not address a valid history."""


class MixedInitialStateError(CoeventError):
    """Amplitudes were requested for a schema whose initial state is mixed."""


class FinalSliceNotRankOneError(CoeventError):
    """Amplitudes were requested but the final slice projector has rank > 1."""


class ImaginaryResidueError(CoeventError):
    """An event measure came out with imaginary part above tolerance."""


class NotAZeroSetError(CoeventError):
    """Zero sets were requested of a decoherence functional that failed validation."""


class InvalidPartitionError(CoeventError):
    """Cells presented as a partition are not disjoint or do not cover Omega."""


class EmptySupportError(CoeventError):
    """A co-event support must be a nonempty event."""


class LabelMismatchError(CoeventError):
    """Co-event sets over different history label sets cannot be combined."""


class ValidationFailedError(CoeventError):
    """A decoherence functional failed a required validation check."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class UnknownScenarioError(CoeventError):
    """The requested scenario name is not registered."""


class MissingParameterError(CoeventError):
    """A scenario parameter is missing or not accepted by the scenario."""
