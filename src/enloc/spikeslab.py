"""Spike-and-slab shrinkage of estimated correlations.

Model: an estimated correlation is Gaussian around the true one,
rho_hat | rho ~ N(rho, sigma^2), while the true correlation has prior
(1 - lambda) delta(rho) + lambda N(0, upsilon^2). The posterior mean is a
product of a detection factor (the posterior inclusion probability) and a
linear shrinkage factor, which in standardized form is a scaled logistic
function of t^2. This module carries the verification-grade closed forms;
the production logistic taper (unit asymptote, epsilon-calibrated
steepness) lives in the tapers module.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import check_finite

__all__ = [
    "SpikeSlabParams",
    "LogisticParams",
    "gaussian_prior_taper",
    "inclusion_probability",
    "spike_slab_posterior_mean",
    "taper_spike_slab",
    "to_logistic_params",
    "logistic_from_params",
    "power_taper_prior_odds",
    "bayes_factor_power_taper",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpikeSlabParams:
    """Prior inclusion probability, slab std-dev, and sampling std-dev."""

    lam: float  # P(rho != 0), strictly inside (0, 1)
    upsilon: float  # std-dev of genuine correlations (signal magnitude)
    sigma: float  # sampling std-dev of the estimate (noise magnitude)

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lambda must be in (0, 1), got {self.lam}")
        check_finite("upsilon", self.upsilon, above=0.0)
        check_finite("sigma", self.sigma, above=0.0)

    @property
    def tau(self) -> float:
        """Signal-to-noise ratio upsilon / sigma."""
        return self.upsilon / self.sigma


@dataclass(frozen=True)
class LogisticParams:
    """Parameters of the equivalent scaled-logistic form in t^2.

    The steepness is tied to the asymptote, c = r_max / 2. t0_sq may be
    <= 0 when the prior odds already favor inclusion; that is a valid
    logistic center and is kept as-is.
    """

    r_max: float
    c: float
    t0_sq: float

    def __post_init__(self):
        if not 0.0 < self.r_max < 1.0:
            raise ValueError(f"r_max must be in (0, 1), got {self.r_max}")
        if abs(self.c - self.r_max / 2.0) > 1e-12:
            raise ValueError(f"steepness must equal r_max/2, got {self.c}")


def gaussian_prior_taper(tau):
    """Shrinkage factor tau^2 / (tau^2 + 1) under a pure Gaussian prior.

    Constant in the estimated correlation: the Gaussian prior shrinks every
    estimate by the same signal-to-noise ratio.
    """
    ta = np.asarray(tau, dtype=float)
    if not (ta >= 0.0).all():  # NaN fails too
        raise ValueError("tau must be nonnegative, not NaN")
    u = ta * ta
    with np.errstate(invalid="ignore"):
        r = np.where(np.isinf(u), 1.0, u / (u + 1.0))
    return r[()] if r.ndim == 0 else r


def inclusion_probability(rho_hat, params: SpikeSlabParams):
    """Posterior probability that the correlation belongs to the slab.

    f(rho_hat) = [1 + ((1-lam)/lam) sqrt((sigma^2+ups^2)/sigma^2)
                      exp(-ups^2 rho_hat^2 / (2 sigma^2 (sigma^2+ups^2)))]^-1

    Strictly increasing in |rho_hat| and bounded in (0, 1).
    """
    rho = np.asarray(rho_hat, dtype=float)
    s2 = params.sigma**2
    u2 = params.upsilon**2
    odds = (1.0 - params.lam) / params.lam
    scale = math.sqrt((s2 + u2) / s2)
    expo = np.exp(-u2 * rho * rho / (2.0 * s2 * (s2 + u2)))
    f = 1.0 / (1.0 + odds * scale * expo)
    return f[()] if f.ndim == 0 else f


def spike_slab_posterior_mean(rho_hat, params: SpikeSlabParams):
    """Posterior mean of the true correlation under the spike-and-slab prior.

    Detection times linear shrinkage:
    f(rho_hat) * ups^2/(ups^2 + sigma^2) * rho_hat.
    """
    shrink = params.upsilon**2 / (params.upsilon**2 + params.sigma**2)
    rho = np.asarray(rho_hat, dtype=float)
    m = inclusion_probability(rho, params) * shrink * rho
    return m[()] if m.ndim == 0 else m


def taper_spike_slab(t, lam: float, tau: float):
    """Spike-and-slab taper in standardized form.

    r(t) = tau^2/(tau^2+1) * [1 + ((1-lam)/lam) sqrt(tau^2+1)
                                  exp(-tau^2 t^2 / (2 (1+tau^2)))]^-1

    Depends only on the standardized correlation magnitude t and the pair
    (lam, tau); the large-t asymptote is tau^2/(tau^2+1).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must be in (0, 1), got {lam}")
    check_finite("tau", tau, above=0.0)
    tt = np.asarray(t, dtype=float)
    if not (tt >= 0.0).all():  # NaN fails too
        raise ValueError("t must be nonnegative, not NaN")
    tau2 = tau * tau
    r_max = tau2 / (tau2 + 1.0)
    odds = (1.0 - lam) / lam
    scale = math.sqrt(tau2 + 1.0)
    with np.errstate(over="ignore"):
        expo = np.exp(-tau2 * tt * tt / (2.0 * (1.0 + tau2)))
    r = r_max / (1.0 + odds * scale * expo)
    return r[()] if r.ndim == 0 else r


def to_logistic_params(lam: float, tau: float) -> LogisticParams:
    """Reparameterize (lam, tau) as the scaled-logistic (r_max, c, t0^2).

    r_max = tau^2/(tau^2+1), c = r_max/2, and
    t0^2 = (2 (tau^2+1)/tau^2) ln(((1-lam)/lam) sqrt(tau^2+1)).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must be in (0, 1), got {lam}")
    check_finite("tau", tau, above=0.0)
    tau2 = tau * tau
    r_max = tau2 / (tau2 + 1.0)
    c = r_max / 2.0
    b = (1.0 - lam) / lam * math.sqrt(tau2 + 1.0)
    t0_sq = math.log(b) / c
    if t0_sq <= 0.0:
        logger.info(
            "prior odds favor inclusion (lam=%g, tau=%g): t0^2 = %g <= 0",
            lam,
            tau,
            t0_sq,
        )
    return LogisticParams(r_max=r_max, c=c, t0_sq=t0_sq)


def logistic_from_params(t, p: LogisticParams):
    """Scaled logistic taper r(t) = r_max / (1 + exp(-c (t^2 - t0^2)))."""
    tt = np.asarray(t, dtype=float)
    if not (tt >= 0.0).all():  # NaN fails too
        raise ValueError("t must be nonnegative, not NaN")
    with np.errstate(over="ignore"):
        arg = p.c * (tt * tt - p.t0_sq)
        r = p.r_max / (1.0 + np.exp(-arg))
    return r[()] if r.ndim == 0 else r


def power_taper_prior_odds(t, beta: float, lam: float, b: float):
    """Posterior inclusion probability under a power-law Bayes factor.

    With BF(t) = b t^beta, Bayes' rule gives
    r(t) = lam BF / ((1 - lam) + lam BF), which equals the closed-form
    power-law taper with threshold t0^beta = (1 - lam)/(lam b).
    """
    check_finite("beta", beta, above=0.0)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must be in (0, 1), got {lam}")
    check_finite("b", b, above=0.0)
    tt = np.asarray(t, dtype=float)
    if not (tt >= 0.0).all():  # NaN fails too
        raise ValueError("t must be nonnegative, not NaN")
    with np.errstate(over="ignore", invalid="ignore"):
        bf = lam * b * tt**beta
        r = np.where(np.isinf(bf), 1.0, bf / ((1.0 - lam) + bf))
    return r[()] if r.ndim == 0 else r


def bayes_factor_power_taper(t, beta: float, t0: float):
    """Power-law taper evaluated through the Bayes-factor route.

    Uses even prior odds (lam = 1/2) and b = t0^-beta, so the implied
    threshold matches t0 and the value coincides with the closed form
    t^beta / (t^beta + t0^beta).
    """
    check_finite("t0", t0, above=0.0)
    return power_taper_prior_odds(t, beta, 0.5, t0 ** (-beta))
