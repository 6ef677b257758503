"""Semantic exceptions shared across the package, and its finiteness check."""

import math

import numpy as np


class EnlocError(Exception):
    """Base class for all package-specific errors."""


class InvalidEnsembleSizeError(EnlocError, ValueError):
    """Ensemble size below the minimum required by an estimator."""


class WrongTaperKindError(EnlocError, TypeError):
    """A geometry-based taper was passed where a correlation-based one is required."""


class FieldGenerationError(EnlocError, RuntimeError):
    """Random-field covariance not positive definite even after jitter."""


class ForwardModelError(EnlocError, RuntimeError):
    """A forward-model evaluation failed or produced non-finite output."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


class BlockError(EnlocError, ValueError):
    """An update failed in the parameter rows `rows` (a slice) of one row
    block; the message is "rows a:b: <cause>"."""

    def __init__(self, rows: slice, cause: str):
        super().__init__(f"rows {rows.start}:{rows.stop}: {cause}")
        self.rows = rows


class AssimilationError(EnlocError):
    """A run failed inside assimilation step `step`; the message is "step k:
    <cause>". When one row block failed, `rows` is its slice of parameter
    rows and the cause is the BlockError's "rows a:b: <cause>"; else None."""

    def __init__(self, step: int, cause: str, rows: slice | None = None):
        super().__init__(f"step {step}: {cause}")
        self.step, self.rows = step, rows


class ConfigError(EnlocError, ValueError):
    """Invalid experiment configuration."""


def check_finite(name: str, value, above: float = -math.inf) -> None:
    """Raise ValueError naming `name` unless every value is finite and > above.

    The comparisons are phrased so that NaN fails them.
    """
    if isinstance(value, float) and above < value < math.inf:
        return  # the common scalar case (np.float64 too), without an array
    v = np.asarray(value, dtype=float)
    ok = (v > above) & (v < math.inf)
    if not ok.all():
        bound = "" if above == -math.inf else f" and > {above:g}"
        raise ValueError(f"{name} must be finite{bound}, got {float(v[~ok].flat[0])!r}")
