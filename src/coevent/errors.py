"""Exception types raised across the package."""

from __future__ import annotations


class CoeventError(Exception):
    """Base class for all domain errors."""


class SpaceTooLargeError(CoeventError):
    """A history space or enumeration exceeds its cap."""


class LabelMismatchError(CoeventError):
    """Events or co-event sets over different history label sets cannot be combined."""


class ValidationFailedError(CoeventError):
    """A decoherence functional failed a required validation check."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class UnknownScenarioError(CoeventError):
    """The requested scenario name is not registered."""


class MissingParameterError(CoeventError):
    """A scenario parameter is missing or not accepted by the scenario."""
