"""Quantum measure, decoherence functional, and co-event analysis."""

from .coevents import (
    CoEvent,
    CoEventSet,
    distinguishability_report,
    enumerate_primitive_coevents,
)
from .composition import CompositionReport, composition_anomalies, tensor_df
from .errors import (
    CoeventError,
    LabelMismatchError,
    MissingParameterError,
    SpaceTooLargeError,
    UnknownScenarioError,
    ValidationFailedError,
)
from .histories import (
    DecoherenceFunctional,
    Event,
    HistorySchema,
    HistorySpace,
    Slice,
    ValidationReport,
    build_df,
    enumerate_histories,
    measure,
    raw_df,
    validate_df,
)
from .linalg import (
    ProjectiveDecomposition,
    build_theta_bases,
    build_xi_basis,
    computational_basis,
    tensor,
)
from .measure_analysis import (
    PartitionReport,
    ZeroSetCatalog,
    find_decoherent_partitions,
    find_zero_sets,
)
from .scenarios import (
    TOOL_VERSION as __version__,
    build_scenario,
    emit_report,
    run_scenario,
    scenario_names,
    theta_sweep,
)

__all__ = [
    "CoEvent",
    "CoEventSet",
    "CoeventError",
    "CompositionReport",
    "DecoherenceFunctional",
    "Event",
    "HistorySchema",
    "HistorySpace",
    "LabelMismatchError",
    "MissingParameterError",
    "PartitionReport",
    "ProjectiveDecomposition",
    "Slice",
    "SpaceTooLargeError",
    "UnknownScenarioError",
    "ValidationFailedError",
    "ValidationReport",
    "ZeroSetCatalog",
    "build_df",
    "build_scenario",
    "build_theta_bases",
    "build_xi_basis",
    "composition_anomalies",
    "computational_basis",
    "distinguishability_report",
    "emit_report",
    "enumerate_histories",
    "enumerate_primitive_coevents",
    "find_decoherent_partitions",
    "find_zero_sets",
    "measure",
    "raw_df",
    "run_scenario",
    "scenario_names",
    "tensor",
    "tensor_df",
    "theta_sweep",
    "validate_df",
]
