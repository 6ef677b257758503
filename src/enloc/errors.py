"""Semantic exceptions shared across the package."""


class EnlocError(Exception):
    """Base class for all package-specific errors."""


class InvalidEnsembleSizeError(EnlocError, ValueError):
    """Ensemble size below the minimum required by an estimator."""


class WrongTaperKindError(EnlocError, TypeError):
    """A geometry-based taper was passed where a correlation-based one is required."""


class UndefinedCorrelationError(EnlocError, ValueError):
    """Correlation requested for a zero-variance (constant) sample row."""


class DegenerateStatisticError(EnlocError, ValueError):
    """Test statistic undefined, e.g. |rho| = 1 in the t-statistic."""


class FieldGenerationError(EnlocError, RuntimeError):
    """Random-field covariance not positive definite even after jitter."""


class ForwardModelError(EnlocError, RuntimeError):
    """A forward-model evaluation failed or produced non-finite output."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


class AssimilationError(EnlocError):
    """A run failed inside an assimilation step; the message starts "step k: "."""


class ConfigError(EnlocError, ValueError):
    """Invalid experiment configuration."""
