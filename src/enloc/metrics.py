"""Evaluation metrics: data mismatch, variance retention, update footprint.

NV is the mean per-row ratio var(forecast) / var(prior). run_esmda takes
each forecast's row variance from the update pass that reads it, and the
prior's from step 1's, whose forecast is the prior; only the final
forecast's takes a pass of its own (ensemble_variance_per_row). Step 1's
update gives the prior's row means as well, so a run's mean offset reads
nothing of the prior, which the run may have updated in place.

The taper-dependent aggregates (effective updated-parameter count and
taper histogram) are a sum of per-block parts, so the full taper matrix is
never held. This module keeps only how: _footprint_part takes one block's
sum and counts, and _combine_parts adds up the parts of every block. A
run's smoother.TaperField takes the parts of the blocks its first update
reads, and footprint() those of every block of a block provider (a
callable RowBlock -> (width x Nd) taper array), keeping no block. Without
localization (no provider) the taper is one everywhere and no block is
read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Collection

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


def mean_offset(prior: Ensemble, posterior: Ensemble) -> float:
    """Average |posterior mean - prior mean| in units of the prior std.

    Zero-spread prior rows carry no scale and are excluded with a warning.
    """
    if prior.values.shape[0] != posterior.values.shape[0]:
        raise ValueError("prior and posterior must have the same parameter count")
    # ensemble_variance_per_row takes a block at a time
    return _mean_offset(prior.values.mean(axis=1), ensemble_variance_per_row(prior), posterior)


def _mean_offset(prior_mean: np.ndarray, prior_var: np.ndarray, posterior: Ensemble) -> float:
    """mean_offset from the prior's row means and variances, such as a run
    takes in step 1's update (EsmdaResult.prior_mean and prior_var), so it
    reads nothing of the prior itself."""
    std_prior = np.sqrt(prior_var)  # np.std's
    shift = np.abs(posterior.values.mean(axis=1) - prior_mean)
    ok = std_prior > 0.0
    if not np.all(ok):
        warnings.warn(
            f"excluding {int(np.sum(~ok))} zero-spread prior rows from mean offset",
            stacklevel=3,
        )
        shift, std_prior = shift[ok], std_prior[ok]
    return float(np.mean(shift / std_prior))


def _footprint_part(r: np.ndarray) -> tuple[float, np.ndarray]:
    """One taper block's part of a footprint: its sum, taken in float64
    whatever r's dtype, and its histogram counts."""
    return float(np.sum(r, dtype=np.float64)), np.histogram(r, bins=HISTOGRAM_EDGES)[0]


def _combine_parts(
    parts: Collection[tuple[float, np.ndarray]], n_params: int, n_data: int
) -> tuple[float, np.ndarray]:
    """(n_eff, counts) from the parts of a field's blocks, each block once.

    math.fsum rounds the sum of the block sums exactly, so n_eff does not
    depend on the order of the parts. ValueError unless every one of the
    n_params * n_data pairs was binned: some pair was outside [0, 1], or
    some block has no part.
    """
    counts = sum((block_counts for _, block_counts in parts), np.zeros(HISTOGRAM_BINS, np.int64))
    if counts.sum() != n_params * n_data:
        raise ValueError(f"taper values outside [0, 1] or unread: binned {int(counts.sum())} "
                         f"of {n_params * n_data} pairs")
    return math.fsum(total for total, _ in parts) / n_data, counts


def footprint(
    taper_provider: Callable[[RowBlock], np.ndarray] | None,
    n_params: int,
    n_data: int,
    block_width: int = DEFAULT_BLOCK_WIDTH,
) -> tuple[float, np.ndarray]:
    """Effective updated-parameter count and taper histogram, in one pass.

    n_eff = (1/Nd) sum_j sum_i r_ij is the effective number of parameters
    updated per observation; the block sums are added up exactly rounded
    (_combine_parts), so it does not depend on the block schedule.
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
    parts = [_footprint_part(taper_provider(blk)) for blk in iter_blocks(n_params, block_width)]
    return _combine_parts(parts, n_params, n_data)


def chi(n_eff_value: float, n_params: int) -> float:
    """Average fraction of model parameters updated per observation."""
    if n_params <= 0:
        raise ValueError("n_params must be positive")
    return n_eff_value / n_params
