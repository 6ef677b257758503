"""Student-t significance thresholds for standardized correlations.

Under a bivariate-normal null hypothesis of zero correlation, the statistic
T = |rho| sqrt(n_e - 2) / sqrt(1 - rho^2) follows a Student-t distribution
with n_e - 2 degrees of freedom. The two-sided critical value at level phi
gives a statistically motivated default for the taper threshold t0, and the
corresponding critical correlation rho_0 below which estimates are
indistinguishable from sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InvalidEnsembleSizeError

__all__ = [
    "student_t_quantile",
    "critical_t0",
    "critical_rho",
    "adaptive_t0",
    "StudentT0",
    "PercentileT0",
    "T0Strategy",
    "parse_t0_strategy",
    "format_t0_strategy",
]


def student_t_quantile(nu: float, p: float) -> float:
    """Inverse CDF of the Student-t distribution with nu degrees of freedom."""
    # imported here, as it slows import: no shipped config or benchmark workload reads it
    from scipy.special import stdtrit
    if nu < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {nu}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    return float(stdtrit(nu, p))


def critical_t0(n_e: int, phi: float) -> float:
    """Two-sided critical value T_phi = t_{n_e-2, 1-phi/2}."""
    if n_e < 4:
        raise InvalidEnsembleSizeError(f"ensemble size must be >= 4, got {n_e}")
    if not 0.0 < phi < 1.0:
        raise ValueError(f"significance level must be in (0, 1), got {phi}")
    return student_t_quantile(n_e - 2, 1.0 - phi / 2.0)


def critical_rho(n_e: int, phi: float) -> float:
    """Critical correlation rho_0 = T / sqrt(T^2 + (n_e - 2)).

    Correlation magnitudes below rho_0 are not statistically distinguishable
    from zero at level phi; rho_0 decreases approximately as 1/sqrt(n_e).
    """
    t = critical_t0(n_e, phi)
    return t / math.sqrt(t * t + (n_e - 2))


def adaptive_t0(t_values: Sequence[float], p: float = 0.9) -> float:
    """Percentile-based threshold: the p-quantile of observed t values.

    Uses linear interpolation between order statistics. Intended to be
    applied per data source, so each source gets its own threshold that
    tracks the magnitude of its standardized correlations.
    """
    values = np.asarray(t_values, dtype=float)
    if values.size == 0:
        raise ValueError("adaptive threshold requires a non-empty sample")
    if not 0.0 < p < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {p}")
    return float(np.quantile(values, p, method="linear"))


# --- threshold selection strategies for power-law / logistic tapers ---


@dataclass(frozen=True)
class StudentT0:
    phi: float

    def __post_init__(self):
        if not 0.0 < self.phi < 1.0:
            raise ValueError(f"phi must be in (0, 1), got {self.phi}")


@dataclass(frozen=True)
class PercentileT0:
    p: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"percentile must be in (0, 1), got {self.p}")


T0Strategy = Union[StudentT0, PercentileT0]


def parse_t0_strategy(text: str) -> T0Strategy:
    """Parse a threshold strategy: "student:phi=0.05" or "p90".

    A fixed threshold is no strategy but the taper's own t0, as in
    "power:beta=3,t0=2".
    """
    s = text.strip().lower()
    if s.startswith("t0="):
        s = s[3:]
    if s.startswith("student:"):
        body = s.split(":", 1)[1]
        if body.startswith("phi="):
            body = body[4:]
        return StudentT0(float(body))
    if s.startswith("p") and s[1:].replace(".", "").isdigit():
        return PercentileT0(float(s[1:]) / 100.0)
    raise ValueError(
        f"unknown t0 strategy {text!r}: use student:phi=<level> or p<percent>, "
        "or give a fixed t0 in the taper, as in power:beta=3,t0=2"
    )


def format_t0_strategy(strategy: T0Strategy) -> str:
    if isinstance(strategy, StudentT0):
        return f"student:phi={strategy.phi:g}"
    if isinstance(strategy, PercentileT0):
        return f"p{strategy.p * 100:g}"
    raise TypeError(f"unknown t0 strategy {strategy!r}")
