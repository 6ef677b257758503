"""Evaluation metrics: data mismatch, variance retention, update footprint.

NV is the mean per-row ratio var(forecast) / var(prior). run_esmda takes
each forecast's row variance from the update pass that reads it, and the
prior's from step 1's, whose forecast is the prior; only the final
forecast's takes a pass of its own (ensemble_variance_per_row).

The taper-dependent aggregates (effective updated-parameter count and
taper histogram) are tallied block by block, so the full taper matrix is
never held. This module keeps only how: one _Tally, which a run's
smoother.TaperField fills from the blocks its first update reads, and
which footprint() fills from every block of a block provider (a callable
RowBlock -> (width x Nd) taper array), keeping none. Without localization
(no provider) the taper is one everywhere and no block is read.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensemble import DEFAULT_BLOCK_WIDTH, Ensemble, PredictedEnsemble, RowBlock, iter_blocks
from .ensemble import ensemble_variance_per_row

__all__ = [
    "MetricReport",
    "objective_function",
    "mean_offset",
    "footprint",
    "chi",
    "HISTOGRAM_BINS",
    "HISTOGRAM_EDGES",
]

HISTOGRAM_BINS = 20
HISTOGRAM_EDGES = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
OBJ_BAND = (0.5, 1.0)  # practical data-match range for a posterior ensemble


@dataclass
class MetricReport:
    """Per-run summary of data match, variance retention, and taper footprint."""

    obj_mean: float
    nv: float
    mean_offset: float
    n_eff: float
    chi: float
    taper_histogram: np.ndarray
    nv_dummy: float | None = None

    @property
    def obj_in_band(self) -> bool:
        """True when the mean objective falls in the practical [0.5, 1] band."""
        return OBJ_BAND[0] <= self.obj_mean <= OBJ_BAND[1]


def objective_function(pred: PredictedEnsemble, obs) -> float:
    """Average normalized data-mismatch objective.

    (1/Ne) sum_k (1/(2 Nd)) sum_j ((d_obs_j - g_j(m_k)) / sigma_e_j)^2.
    Approximately 1/2 for a posterior ensemble in the linear-Gaussian case.
    """
    resid = (obs.d_obs[:, None] - pred.values) / obs.sigma_e[:, None]
    return float(np.mean(np.sum(resid * resid, axis=0) / (2.0 * pred.n_data)))


def mean_offset(
    prior: Ensemble, posterior: Ensemble, prior_var: np.ndarray | None = None
) -> float:
    """Average |posterior mean - prior mean| in units of the prior std.

    prior_var, the prior's row variance when the caller has it (a run's
    EsmdaResult.prior_var), saves a pass over the prior; without it, that
    variance is taken here. Zero-spread prior rows carry no scale and are
    excluded with a warning; only then are the kept rows copied out.
    """
    if prior.values.shape[0] != posterior.values.shape[0]:
        raise ValueError("prior and posterior must have the same parameter count")
    if prior_var is None:
        prior_var = ensemble_variance_per_row(prior)  # a block at a time
    std_prior = np.sqrt(prior_var)  # np.std's
    prior_values, posterior_values = prior.values, posterior.values
    ok = std_prior > 0.0
    if not np.all(ok):
        warnings.warn(
            f"excluding {int(np.sum(~ok))} zero-spread prior rows from mean offset",
            stacklevel=2,
        )
        prior_values, posterior_values = prior_values[ok], posterior_values[ok]
        std_prior = std_prior[ok]
    shift = np.abs(posterior_values.mean(axis=1) - prior_values.mean(axis=1))
    return float(np.mean(shift / std_prior))


class _Tally:
    """A footprint tallied block by block: add(r, start) for each taper block
    of a field, start its first row, then close() for (n_eff, counts).

    Blocks may be added from several threads at once, in any order, and a
    start added again is skipped: each block's partial sum, taken in float64
    whatever r's dtype, and its counts are combined under a lock, and the
    compensated sum does not depend on their order. The tally closes itself
    once every pair is binned; after that, add() does nothing and close()
    returns (n_eff, counts). Before that, close() raises: some pair was
    outside [0, 1] or not added.
    """

    def __init__(self, n_params: int, n_data: int):
        self._pairs, self._n_data = n_params * n_data, n_data
        self._counts = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
        self._partials: dict[int, float] | None = {}  # by start; None once closed
        self._n_eff = math.nan
        self._lock = threading.Lock()

    def add(self, r: np.ndarray, start: int) -> None:
        if self._partials is not None and start not in self._partials:
            partial = float(np.sum(r, dtype=np.float64))
            counts = np.histogram(r, bins=HISTOGRAM_EDGES)[0]
            with self._lock:
                if self._partials is not None and start not in self._partials:
                    self._partials[start] = partial
                    self._counts += counts
                    if self._counts.sum() == self._pairs:  # every pair binned: close
                        self._n_eff = math.fsum(self._partials.values()) / self._n_data
                        self._partials = None

    def close(self) -> tuple[float, np.ndarray]:
        if self._partials is not None:  # some pair was never binned
            binned = int(self._counts.sum())
            raise ValueError(f"taper values outside [0, 1]: binned {binned} of {self._pairs}")
        return self._n_eff, self._counts


def footprint(
    taper_provider: Callable[[RowBlock], np.ndarray] | None,
    n_params: int,
    n_data: int,
    block_width: int = DEFAULT_BLOCK_WIDTH,
) -> tuple[float, np.ndarray]:
    """Effective updated-parameter count and taper histogram, in one pass.

    n_eff = (1/Nd) sum_j sum_i r_ij is the effective number of parameters
    updated per observation; block partial sums are combined with
    compensated summation so it does not depend on the block schedule.
    The histogram counts taper values over HISTOGRAM_BINS equal-width bins
    on [0, 1], right-open except the last, which includes 1.0; counts sum
    to n_params * n_data. taper_provider=None means no localization: the
    taper is one everywhere, so n_eff = n_params exactly, every pair falls
    in the last bin, and no block is read.
    """
    if taper_provider is None:
        counts = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
        counts[-1] = n_params * n_data
        return float(n_params), counts
    tally = _Tally(n_params, n_data)
    for blk in iter_blocks(n_params, block_width):
        tally.add(taper_provider(blk), blk.start)
    return tally.close()


def chi(n_eff_value: float, n_params: int) -> float:
    """Average fraction of model parameters updated per observation."""
    if n_params <= 0:
        raise ValueError("n_params must be positive")
    return n_eff_value / n_params
