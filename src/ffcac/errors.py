"""Exception hierarchy. Each branch maps to one CLI exit code."""


class FfcacError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ConfigError(FfcacError):
    """Invalid configuration value, key, or experiment plan."""

    exit_code = 2


class PlanError(ConfigError):
    """Session plan cannot be built from the available classes/samples."""


class SamplingError(ConfigError):
    """Episode sampling impossible (too few items per class)."""


class StratificationError(ConfigError):
    """Cross-validation folds cannot be stratified."""


class IngestionError(FfcacError):
    """File-level problem: missing, malformed, or unsupported input."""

    exit_code = 3


class WeightsFormatError(IngestionError):
    """Weight container is corrupt: bad magic, truncation, bad dtype tag."""


class WeightsShapeError(IngestionError):
    """Weight container disagrees with the configured model shapes."""


class NumericError(FfcacError):
    """Numeric-domain failure: singular solve, divergence, zero norms."""

    exit_code = 4


class DimensionError(NumericError):
    """Operand shapes or axes are incompatible."""


class SolverError(NumericError):
    """Linear solve failed (not positive definite even after jitter)."""


class DivergenceError(NumericError):
    """Training diverged: a non-finite loss, or base-session embeddings
    that are not finite after training."""


class UsageError(NumericError):
    """API misuse: non-scalar backward root, empty metric input, etc."""


class ProtocolViolationError(FfcacError):
    """Incremental-learning contract broken (label collisions, frozen
    extractor mutated, unregistered test class)."""

    exit_code = 5
