"""Two-path interferometry with a which-path detector and an asymmetric
recombining beam splitter: state evolution, fringe visibility, which-path
distinguishability, and the complementarity relation between them.

All operations are pure functions on immutable values and are safe to call
concurrently from any number of threads.
"""

from .duality import (
    DualityReport,
    MeasurementBasis,
    PathWeights,
    complementarity_residual,
    distinguishability_closed,
    distinguishability_trace_norm,
    distinguishability_valley,
    duality_report,
    min_error_basis,
    path_weights,
    visibility_closed,
    visibility_peak_fixed_beta,
    visibility_peak_fixed_sx,
    visibility_scan,
)
from .errors import (
    DarkPortError,
    DegenerateBasisError,
    DualityError,
    InvalidInputError,
    NoExtremumError,
    UndefinedVisibilityError,
)
from .interferometer import (
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    PhaseShift,
    bloch_to_density,
    detection_probability_closed,
    detection_probability_numeric,
    evolve,
    evolve_closed_form,
)
from .linalg import (
    DensityOperator,
    hermitian_eig2,
    partial_trace_path,
    trace_norm,
)
from .verify import RunConfig, run_verification

__version__ = "0.1.0"

__all__ = [
    "BeamSplitterAngle",
    "BlochState",
    "DarkPortError",
    "DegenerateBasisError",
    "DensityOperator",
    "DetectorConfig",
    "DualityError",
    "DualityReport",
    "InvalidInputError",
    "MeasurementBasis",
    "NoExtremumError",
    "PathWeights",
    "PhaseShift",
    "RunConfig",
    "UndefinedVisibilityError",
    "bloch_to_density",
    "complementarity_residual",
    "detection_probability_closed",
    "detection_probability_numeric",
    "distinguishability_closed",
    "distinguishability_trace_norm",
    "distinguishability_valley",
    "duality_report",
    "evolve",
    "evolve_closed_form",
    "hermitian_eig2",
    "min_error_basis",
    "partial_trace_path",
    "path_weights",
    "run_verification",
    "trace_norm",
    "visibility_closed",
    "visibility_peak_fixed_beta",
    "visibility_peak_fixed_sx",
    "visibility_scan",
]
