"""Ensemble smoother with multiple data assimilation and gain localization.

Each assimilation step applies

    m_k <- m_k + (R o K)(d_obs + sqrt(alpha) e_k - g(m_k)),
    K = C_md (C_dd + alpha C_e)^-1,

where R holds per-pair taper coefficients in [0, 1] and o is the
elementwise product. In ensemble-subspace form K = dM W, with dM the
parameter anomalies and the Ne x Nd operator

    W = dD^T (C_dd + alpha C_e)^-1 / (Ne - 1),

factored and solved once per step. A gain block is then the product of
its centered parameter rows with W; gain entries are produced in
parameter-row blocks, so K is never materialized in full. Without
localization there is no taper and the same loop skips the product with R.
A run copies its prior once and every update writes that copy in place.
Taper coefficients are computed once per run, from the prior ensemble and
its forecast, and kept frozen across steps. A taper block is evaluated and
checked in float64 and rounded once to float32, in which a run keeps and
applies it (its sampling noise, about 1/sqrt(Ne), dwarfs float32's 6e-8).
Each block is evaluated once and kept while a run's kept blocks fit in
TAPER_CACHE_BYTES (32 MiB) plus the bytes of one ensemble, the copy each
update would otherwise make. Blocks past that cap are recomputed, and
rounded alike, on every read, and a block is evaluated in slabs of rows, so
memory stays bounded however large R is.
A field's kernel comes from the tapers module, picked and validated once
per field: MSE, power-law and logistic run their public taper's own body in
place on a slab of correlations, and the other families evaluate their
public taper on the slab. A percentile threshold correlates each block
once, over the CPUs, and rounds its t to float32, leaving a kept block's t
where the run keeps it; every block of such a field maps its t so rounded.
A distance field evaluates one column per distinct well position. A run's
field owns its kept blocks: it evaluates, checks and keeps them, and sums
its footprint metrics from each block's part at the first update's read,
so no separate pass reads them. The field refers to
nothing that refers back to it, so reference counting frees it, its prior
and its kept blocks as soon as the run returns.

An update spreads its row blocks over the CPUs the process may run on: the
calling thread and one helper thread per further CPU take blocks in row order,
the helpers from a pool that lives for that update alone, so no thread
outlives it. A percentile pass runs the same way; the package has no other
parallelism. Each block writes only its own rows, whether a taper block is
kept depends only on where its rows end, and the footprint's block sums are
added up exactly rounded, so a run's results do not depend on the CPU count.
Every block, kept or fresh, is updated on all threads at once. A thread reads a
block's taper, checked once when a kept block is evaluated and at every read of
a fresh one, before it forms the gain, so a thread updating a fresh block holds
that float32 block and its gain, and each helper adds about that much to an
update's memory. Each block takes its rows' forecast variance before it
writes them, so NV, and the prior's variance (step 1's forecast), need no
pass of their own.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import metrics, significance
from .ensemble import (
    DEFAULT_BLOCK_WIDTH,
    Ensemble,
    PredictedEnsemble,
    RowBlock,
    correlation_block,
    ensemble_variance_per_row,
    iter_blocks,
    row_anomalies,
)
from .errors import AssimilationError, BlockError, EnlocError, WrongTaperKindError
from .models import ForwardModel, evaluate_members
from .tapers import (
    DistanceGC,
    Logistic,
    PowerLaw,
    TaperSpec,
    _standardize,
    _taper_kernel,
    taper_distance,
)

__all__ = [
    "MdaSchedule",
    "ObservationSet",
    "LocalizationPolicy",
    "RunSeed",
    "TaperField",
    "make_taper_field",
    "perturb_observations",
    "gain_operator",
    "kalman_gain_block",
    "localized_update_step",
    "StepDiagnostics",
    "EsmdaResult",
    "run_esmda",
]

# Bytes of taper blocks one run in progress keeps on top of the bytes of one
# ensemble, which updating the run's copy in place frees: the float32 blocks
# whose rows end within the first (TAPER_CACHE_BYTES + Nm Ne 8) // (4 Nd)
# rows. A one-layer 60x60 grid field (7200 x 312, 9 MB) fits whole, and so
# does the 8-layer field at Ne = 100 (57 blocks of 1024 rows, 72 MB, within
# 32 MiB plus its 46 MB ensemble); at Ne = 50 that field keeps 44 of its 57
# blocks and recomputes the other 13.
TAPER_CACHE_BYTES = 32 * 2**20

# Entries per slab of rows in which TaperField.block evaluates a taper. Each
# temporary of the taper arithmetic is then at most 512 KiB, so evaluating a
# block costs little more than the block itself.
TAPER_SLAB_ENTRIES = 2**16


@dataclass(frozen=True)
class MdaSchedule:
    """Inflation factors alpha_l, one per assimilation step.

    The inverses must sum to one (the standard multiple-data-assimilation
    consistency condition); alpha_l = N_a for every step satisfies it.
    """

    alphas: tuple[float, ...]

    def __post_init__(self):
        if not self.alphas:
            raise ValueError("schedule needs at least one step")
        if not all(0.0 < a < math.inf for a in self.alphas):
            raise ValueError("inflation factors must be positive and finite")
        total = math.fsum(1.0 / a for a in self.alphas)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(
                f"sum of 1/alpha must be 1 (got {total!r}); "
                "use MdaSchedule.uniform(n) for the standard choice"
            )

    @classmethod
    def uniform(cls, n_steps: int) -> "MdaSchedule":
        """alpha_l = n_steps for each of n_steps assimilation steps."""
        if n_steps < 1:
            raise ValueError("need at least one step")
        return cls(alphas=tuple(float(n_steps) for _ in range(n_steps)))

    @property
    def n_steps(self) -> int:
        return len(self.alphas)


@dataclass
class ObservationSet:
    """Observed data with per-datum error standard deviations (diagonal C_e)."""

    d_obs: np.ndarray
    sigma_e: np.ndarray

    def __post_init__(self):
        self.d_obs = np.asarray(self.d_obs, dtype=float).ravel()
        self.sigma_e = np.asarray(self.sigma_e, dtype=float).ravel()
        if self.sigma_e.shape != self.d_obs.shape:
            raise ValueError("sigma_e must match d_obs in length")
        if not self.d_obs.size:
            raise ValueError("there must be at least one observation")
        if not (np.all(np.isfinite(self.d_obs)) and np.all(np.isfinite(self.sigma_e))):
            raise ValueError("observations must be finite")
        if np.any(self.sigma_e <= 0.0):
            raise ValueError("error std-devs must be strictly positive")

    @property
    def n_data(self) -> int:
        return self.d_obs.size


@dataclass(frozen=True)
class LocalizationPolicy:
    """Which taper to apply and how its threshold is chosen.

    spec=None disables localization (no taper is applied). run_esmda builds
    the taper field once, from the prior ensemble, and keeps it frozen
    across steps. A power-law or logistic spec takes its threshold either
    from its own t0 or from a t0_strategy, exactly one of them, and no other
    spec takes a t0_strategy; any other combination raises ValueError.
    """

    spec: TaperSpec | None
    t0_strategy: significance.T0Strategy | None = None

    def __post_init__(self):
        reads_t0 = isinstance(self.spec, (PowerLaw, Logistic))
        if self.t0_strategy is not None and (not reads_t0 or self.spec.t0 is not None):
            raise ValueError("a t0 strategy needs a power or logistic taper with no t0 of its own")
        if reads_t0 and self.t0_strategy is None and self.spec.t0 is None:
            raise ValueError("a power or logistic taper needs a t0 value or a t0 strategy")


@dataclass(frozen=True)
class RunSeed:
    """Root seed with one derived substream per assimilation step.

    Substreams are numpy PCG64 generators created from SeedSequence spawn
    keys, so an identical seed reproduces a run bit-for-bit on one build.
    """

    seed: int

    def generator(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))


class TaperField:
    """Blockwise per-pair taper coefficients for one ensemble snapshot.

    Correlation-based families compute the block of model-data correlations
    on demand and map them, one slab of rows at a time, through the
    family's kernel from the tapers module. Undefined correlations
    (zero-variance rows) map to taper zero. The kernel is picked, and the
    spec, threshold and ensemble size are checked, once per field. The
    distance family uses parameter coordinates and one taper column per
    distinct well position instead.

    block(blk) gives a block's coefficients in float64. A run reads the
    field through rows(blk), which gives them rounded to float32 once
    block(blk) is checked against [0, 1]. The blocks whose rows end within
    the first keep_rows rows are kept, each in a float32 array made with
    the field, writeable until rows() evaluates, checks and rounds the
    block into it and read-only after (a percentile pass leaves its t
    there, for that read to map). Any other block is evaluated, checked and
    rounded at every read; kept(blk) tells the two apart. rows() takes
    each block's footprint part at its first read; footprint() sums the
    parts. Blocks may be read from several threads at once, each by one
    thread. The field holds no bound method of itself, so reference
    counting alone frees it, its ensembles and its kept blocks.
    """

    def __init__(
        self,
        spec: TaperSpec,
        ens: Ensemble,
        pred: PredictedEnsemble,
        t0_strategy: significance.T0Strategy | None = None,
        block_width: int = DEFAULT_BLOCK_WIDTH,
        keep_rows: int = 0,
    ):
        LocalizationPolicy(spec, t0_strategy)  # rejects a threshold the taper cannot use
        self.spec = spec
        self.n_data = pred.n_data
        self._ens = ens
        self._pred = pred
        self._n_e = ens.n_members
        # the arrays the kept blocks are rounded into are allocated here, on
        # the caller's thread: kept blocks that helper threads allocated pinned
        # memory in the helpers' malloc arenas, which raised the 8-layer grid's
        # peak RSS from 368 to 412 MB (glibc, 2 CPUs)
        self._kept = {
            blk: np.empty((blk.width, self.n_data), dtype=np.float32)
            for blk in iter_blocks(ens.n_params, block_width)
            if blk.stop <= keep_rows
        }
        self._rounds_t = False  # a percentile field maps t rounded to float32 (_rounded_t)
        # footprint parts by block start, each written by the one thread reading that block
        self._parts: dict[int, tuple[float, np.ndarray]] = {}

        if isinstance(spec, DistanceGC):
            if ens.coords is None:
                raise WrongTaperKindError(
                    "distance taper requires parameter grid coordinates"
                )
            if not pred.meta or any(m.well_xy is None for m in pred.meta):
                raise WrongTaperKindError(
                    "distance taper requires datum well positions"
                )
            xy = np.array([m.well_xy for m in pred.meta], dtype=float)
            self._wells, well_of = np.unique(xy, axis=0, return_inverse=True)
            self._well_of = well_of.reshape(-1)  # numpy 2.0.0 returns a column
            self._pred_anoms = None
            self._t0 = None
            return

        self._pred_anoms = row_anomalies(pred.values)
        self._t0 = self._resolve_t0(spec, t0_strategy, block_width)
        self._kernel = _taper_kernel(spec, self._n_e, self._t0)

    def _resolve_t0(
        self, spec: TaperSpec, strategy: significance.T0Strategy | None, block_width: int
    ) -> float | np.ndarray | None:
        """Threshold for power-law/logistic tapers: scalar or per-datum vector."""
        if not isinstance(spec, (PowerLaw, Logistic)):
            return None
        if strategy is None:
            return spec.t0
        if isinstance(strategy, significance.StudentT0):
            return significance.critical_t0(self._n_e, strategy.phi)
        return self._percentile_t0(strategy.p, block_width)

    def _percentile_t0(self, p: float, block_width: int) -> np.ndarray:
        """Per-datum thresholds: the p-quantile of t values per data source.

        One pass over the CPUs, as an update's, standardizes each block's
        correlations to t and rounds them to float32: a kept block's into
        the array it is kept in, for its first read to map, any other's
        finite t into its pools, one per source. Each source's quantile then
        reads its finite t in row order, as float64, one source per thread;
        undefined and t = inf pairs stay out.
        A source whose pool is empty gets the placeholder t0 = 1: none of
        its coefficients reads t0, since an undefined pair maps to 0 and
        t = inf maps to 1 under both families.
        """
        sources = [m.source for m in self._pred.meta] if self._pred.meta else [
            str(j) for j in range(self.n_data)
        ]
        groups: dict[str, list[int]] = {}
        for j, s in enumerate(sources):
            groups.setdefault(s, []).append(j)
        columns = list(groups.values())
        blocks = list(iter_blocks(self._ens.n_params, block_width))
        keep = self._kept
        pooled: dict[RowBlock, list[np.ndarray]] = {}

        def finite(t: np.ndarray, cols: list[int]) -> np.ndarray:
            vals = t[:, cols]
            return vals[np.isfinite(vals)]

        def standardize(blk: RowBlock) -> None:
            t = self._rounded_t(blk)
            if blk in keep:
                keep[blk][...] = t
            else:
                pooled[blk] = [finite(t, cols).astype(np.float32) for cols in columns]

        _each_block(self._ens.n_params, block_width, standardize)
        self._rounds_t = True
        t0_vec = np.ones(self.n_data)

        def threshold(source: RowBlock) -> None:  # "row" i is the i-th source
            cols = columns[source.start]
            pool = np.concatenate(
                [finite(keep[b], cols) if b in keep else pooled[b][source.start] for b in blocks],
                dtype=np.float64,
            )
            if pool.size:
                t0_vec[cols] = significance.adaptive_t0(pool, p)

        _each_block(len(columns), 1, threshold)
        return t0_vec

    def _rounded_t(self, blk: RowBlock) -> np.ndarray:
        """The block's t = |rho| / sigma, each rounded to float32, in a
        float64 array: the t a percentile field pools and maps."""
        t = correlation_block(self._ens, self._pred, blk, self._pred_anoms)
        for rows in _slabs(t.shape):
            _standardize(t[rows], math.sqrt(self._n_e - 1))
            t[rows] = t[rows].astype(np.float32)
        return t

    def block(self, blk: RowBlock) -> np.ndarray:
        """Taper coefficients of one block of rows (width x Nd), in float64.

        Every taper is elementwise, so the block is filled one slab of rows
        at a time: the temporaries of the taper arithmetic scale with
        TAPER_SLAB_ENTRIES, not with the block width. A percentile field
        maps each t rounded to float32, as its thresholds read them: the t
        its pass left in a kept block's array, or the block's own t.
        """
        if isinstance(self.spec, DistanceGC):  # one column per well, taken to its data
            coords, spec = self._ens.coords[blk.slice()], self.spec
            out = np.empty((blk.width, self.n_data))
            for rows in _slabs((blk.width, len(self._wells))):
                dx = coords[rows, 0][:, None] - self._wells[:, 0]
                dy = coords[rows, 1][:, None] - self._wells[:, 1]
                r = taper_distance(dx, dy, spec.len_major, spec.len_minor, spec.angle_deg)
                np.take(r, self._well_of, axis=1, out=out[rows], mode="clip")  # unbuffered
            return out
        if not self._rounds_t:
            out = correlation_block(self._ens, self._pred, blk, self._pred_anoms)
        elif (slot := self._kept.get(blk)) is not None and slot.flags.writeable:
            out = slot.astype(np.float64)  # the t the percentile pass left there
        else:
            out = self._rounded_t(blk)
        for rows in _slabs(out.shape):
            self._kernel(out[rows], self._rounds_t)
        return out

    def rows(self, blk: RowBlock) -> np.ndarray:
        """The checked taper block blk as float32, kept or evaluated afresh
        (see the class docstring); its footprint part taken at the first read."""
        r = self._kept.get(blk)
        if r is None or r.flags.writeable:
            evaluated = _unit_range(self.block(blk))
            if r is None:
                r = evaluated.astype(np.float32)
            else:
                r[...] = evaluated
                r.flags.writeable = False
            del evaluated  # before the footprint part's temporaries
        if blk.start not in self._parts:
            self._parts[blk.start] = metrics._footprint_part(r)
        return r

    def kept(self, blk: RowBlock) -> bool:
        """Whether rows(blk) returns a kept block, checked when evaluated."""
        return blk in self._kept and not self._kept[blk].flags.writeable

    def footprint(self) -> tuple[float, np.ndarray]:
        """(n_eff, histogram counts), as metrics.footprint gives them, of the
        blocks rows() returned; ValueError while some block is unread. Call
        it once the update that reads every block has joined its threads."""
        return metrics._combine_parts(self._parts.values(), self._ens.n_params, self.n_data)


def _unit_range(r: np.ndarray) -> np.ndarray:
    """r, after checking that every taper value lies in [0, 1]."""
    if not (r.min() >= 0.0 and r.max() <= 1.0):  # NaN fails too
        raise ValueError("taper values outside [0, 1]")
    return r


def _slabs(shape: tuple[int, int]) -> Iterator[slice]:
    """Consecutive row slices of a block, TAPER_SLAB_ENTRIES entries each."""
    step = max(1, TAPER_SLAB_ENTRIES // max(1, shape[1]))
    for lo in range(0, shape[0], step):
        yield slice(lo, lo + step)


def make_taper_field(
    policy: LocalizationPolicy,
    ens: Ensemble,
    pred: PredictedEnsemble,
    block_width: int = DEFAULT_BLOCK_WIDTH,
    keep_rows: int = 0,
) -> TaperField | None:
    """Build the taper field for one ensemble snapshot (None when disabled)."""
    if policy.spec is None:
        return None
    return TaperField(policy.spec, ens, pred, policy.t0_strategy, block_width, keep_rows)


def perturb_observations(
    obs: ObservationSet,
    alpha: float,
    run_seed: RunSeed,
    step: int,
    n_members: int,
) -> np.ndarray:
    """Perturbed-data matrix: column k is d_obs + sqrt(alpha) e_k.

    e_k ~ N(0, C_e) comes from the step's stream of the run seed, drawn
    member-major: column k depends only on (seed, step, k), and the draw for
    Ne members is a prefix of the draw for any larger ensemble.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    out = run_seed.generator(step).standard_normal((n_members, obs.n_data)).T
    out *= obs.sigma_e[:, None]
    out *= math.sqrt(alpha)
    out += obs.d_obs[:, None]
    return out


def gain_operator(
    pred: PredictedEnsemble, obs: ObservationSet, alpha: float
) -> np.ndarray:
    """Ne x Nd operator W = dD^T (C_dd + alpha C_e)^-1 / (Ne - 1) of one step.

    The Kalman gain is K = dM W for the parameter anomalies dM, so a gain
    block costs one product; the Nd x Nd system is factored once per step.
    """
    if not np.all(np.isfinite(pred.values)):
        raise ValueError("predicted data must be finite")
    # Fortran order lets the solve overwrite dD in place: W is Ne x Nd, the
    # largest array of a step when Ne >> Nm
    delta_d = np.array(pred.values, order="F")
    with np.errstate(over="ignore", invalid="ignore"):  # finite data can still overflow
        delta_d -= delta_d.mean(axis=1, keepdims=True)
        a = (delta_d @ delta_d.T) / (pred.n_members - 1) + np.diag(alpha * obs.sigma_e**2)
    if not np.all(np.isfinite(a)):
        raise ValueError("predicted-data covariance C_dd + alpha C_e overflows")
    w_t = cho_solve(cho_factor(a, lower=True), delta_d, overwrite_b=True)
    w_t /= pred.n_members - 1
    return w_t.T


def kalman_gain_block(
    ens: Ensemble, block: RowBlock, operator: np.ndarray
) -> np.ndarray:
    """One block of rows of the Kalman gain: centered block rows times W.

    operator is the step's W from gain_operator().
    """
    rows = ens.values[block.slice()]
    if not np.all(np.isfinite(rows)):
        raise ValueError("ensemble rows must be finite")
    return (rows - rows.mean(axis=1, keepdims=True)) @ operator


def localized_update_step(
    ens: Ensemble,
    pred: PredictedEnsemble,
    obs: ObservationSet,
    alpha: float,
    taper: TaperField | None,
    perturbed: np.ndarray,
    block_width: int = DEFAULT_BLOCK_WIDTH,
) -> np.ndarray:
    """One update pass over all parameter rows of ens, in place; taper=None
    is unlocalized. Returns the per-row variance of ens before the update.

    The gain (tapered entrywise by taper.rows when a field is given) is
    formed per block and applied to the innovation columns as
    (K_blk o R_blk) resid; the caller supplies the perturbed-data matrix from
    perturb_observations(). Each block takes its rows' variance, as
    ensemble_variance_per_row does, and writes its rows after its gain block
    has read them, so no Nm x Ne array is allocated. Blocks run as
    _each_block spreads them, kept and fresh taper blocks alike, so the
    field's blocks are read from several threads at once, each block by one
    thread; a kept block is not checked again, a fresh one at every read.
    A block's taper is read, and checked, before its gain block is formed,
    so the taper's temporaries never coexist with the gain. A block whose
    update raises an EnlocError or ValueError, or whose updated rows are not
    finite, fails the step with a BlockError naming its rows.
    """
    if perturbed.shape != (obs.n_data, ens.n_members):
        raise ValueError("perturbed-data matrix has wrong shape")
    resid = perturbed - pred.values
    operator = gain_operator(pred, obs, alpha)
    var = np.empty(ens.n_params)

    def update(blk: RowBlock) -> None:
        rows = ens.values[blk.slice()]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves inf, unwarned
            var[blk.slice()] = np.var(rows, axis=1, ddof=1)
        r = None if taper is None else taper.rows(blk)  # checked before the gain exists
        gain = kalman_gain_block(ens, blk, operator)
        if r is not None:
            if r.shape != gain.shape:
                raise ValueError("taper block shape does not match gain block")
            gain *= r
        del r  # a fresh taper block goes before the product's temporaries
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            rows += gain @ resid
        if not np.all(np.isfinite(rows)):
            raise ValueError("updated ensemble rows must be finite")

    _each_block(ens.n_params, block_width, update)
    return var


def _each_block(n_rows: int, block_width: int, work: Callable[[RowBlock], None]) -> None:
    """Call work once for every row block, on this thread and helper threads.

    The calling thread and up to _helper_count() helper threads, from a pool
    opened for this call and shut down before it returns, take blocks
    in row order until none is left; the caller takes its share, so helpers
    keep no arrays beyond a block. The caller works rather than waiting on
    the helpers because handing every block to two helper threads left the
    run time unchanged but raised the 8-layer grid's peak RSS from 372 to
    458-493 MB, likely as freed block arrays stay in the helpers' malloc
    arenas (not confirmed). work must write only its own block's
    rows. After a failure no further block is taken; once every taken block
    has finished, the failure of the lowest block is raised, as a BlockError
    naming its rows when it is an EnlocError or ValueError. Every block
    below it was taken before it, so the same error surfaces however the
    threads interleave.
    """
    blocks = list(iter_blocks(n_rows, block_width))
    pending = iter(blocks)
    lock = threading.Lock()
    failures: dict[int, tuple[RowBlock, Exception]] = {}
    stopped = False

    def drain() -> None:
        while True:
            with lock:
                blk = None if stopped or failures else next(pending, None)
            if blk is None:
                return
            try:
                work(blk)
            except Exception as exc:  # raised below, once all taken blocks are done
                with lock:
                    failures[blk.start] = blk, exc

    helpers = min(_helper_count(), len(blocks) - 1)
    # a pool starts a thread per submit, so with no helpers it starts none
    with ThreadPoolExecutor(max(1, helpers), thread_name_prefix="enloc-update") as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        try:
            drain()
        finally:
            stopped = True  # an interrupted caller stops the helpers too
    for future in futures:
        future.result()
    if failures:
        blk, exc = failures[min(failures)]
        if isinstance(exc, (EnlocError, ValueError)):
            raise BlockError(blk.slice(), str(exc)) from exc
        raise exc


def _helper_count() -> int:
    """Helper threads per update: one for each further CPU of the process."""
    try:
        return len(os.sched_getaffinity(0)) - 1
    except AttributeError:  # no CPU affinity on this platform
        return (os.cpu_count() or 1) - 1


@dataclass
class StepDiagnostics:
    """Forecast-time metrics for one assimilation step.

    step counts from 1; the entry with step = n_steps + 1 and alpha = None
    describes the final posterior (forecast after the last update).
    """

    step: int
    alpha: float | None
    objective: float
    nv: float
    n_eff: float
    chi: float
    taper_histogram: np.ndarray

    def rows(self) -> list[tuple[int, str, float]]:
        """Long-form (step, metric, value) rows for the diagnostics stream."""
        out = [
            (self.step, "objective", self.objective),
            (self.step, "nv", self.nv),
            (self.step, "n_eff", self.n_eff),
            (self.step, "chi", self.chi),
        ]
        for b, count in enumerate(self.taper_histogram):
            out.append((self.step, f"taper_hist_{b}", float(count)))
        return out


@dataclass
class EsmdaResult:
    """The posterior, one diagnostics entry per forecast, the final
    forecast's per-row variance ratios var(posterior) / var(prior), and the
    prior's row variance, taken by step 1's update. It keeps no taper field,
    so it refers to neither the prior nor any forecast."""

    posterior: Ensemble
    diagnostics: list[StepDiagnostics] = field(default_factory=list)
    nv_rows: np.ndarray | None = None
    prior_var: np.ndarray | None = None


def _diagnostics(
    step: int,
    alpha: float | None,
    pred: PredictedEnsemble,
    obs: ObservationSet,
    nv_rows: np.ndarray,
    footprint: tuple[float, np.ndarray],
) -> StepDiagnostics:
    n_eff, hist = footprint
    return StepDiagnostics(
        step=step,
        alpha=alpha,
        objective=metrics.objective_function(pred, obs),
        nv=float(np.mean(nv_rows)),
        n_eff=n_eff,
        chi=metrics.chi(n_eff, nv_rows.size),
        taper_histogram=hist.copy(),
    )


def run_esmda(
    prior: Ensemble,
    model: ForwardModel,
    obs: ObservationSet,
    schedule: MdaSchedule,
    policy: LocalizationPolicy,
    seed: RunSeed,
    block_width: int = DEFAULT_BLOCK_WIDTH,
) -> EsmdaResult:
    """Run the full multi-step assimilation.

    The run copies the prior once, before step 1, and every step updates
    that copy in place, so the prior is never written (it may be read-only).
    The posterior shares the prior's names list and coords array, which
    nothing writes. Per step: forward-evaluate all members, perturb the
    observations, update blockwise, record diagnostics. Step 1 also builds
    the one taper field of the run from the prior itself and its forecast
    (later steps reuse it), and its update, whose forecast is the prior,
    gives the prior's row variance. A final forward evaluation after the
    last update provides the posterior diagnostics entry.

    The field keeps the float32 taper blocks whose rows end within the first
    (TAPER_CACHE_BYTES + Nm Ne 8) // (4 Nd) rows (TaperField's keep_rows),
    so the bytes of the copy each update would otherwise make go to kept
    blocks; later blocks are recomputed on every read. The field's footprint
    (n_eff and histogram) is added up from the blocks the first update
    reads, so no separate pass reads them; a run without a taper takes
    metrics.footprint(None, Nm, Nd). Runs in flight together each keep
    their own blocks. The field and its kept blocks form no reference
    cycle, so they are freed on return without a garbage-collector pass.

    A prior row with zero variance fails step 1. Each forecast's NV is the
    mean of its row variances over the prior's; the result keeps the final
    forecast's per-row ratios (nv_rows), not those of every step. A failure
    inside step k raises AssimilationError with .step = k and the message
    "step k: <cause>", or "step k: rows a:b: <cause>" with .rows = slice(a,
    b) when the update's row block a:b failed; the final forecast counts as
    step n_steps + 1.
    """
    if obs.n_data != model.n_data:
        raise ValueError("observation set size does not match the model")
    ens = Ensemble(prior.values.copy(), prior.names, prior.coords)
    diagnostics: list[StepDiagnostics] = []

    for step, alpha in enumerate(schedule.alphas, start=1):
        with _failures_name_step(step):
            pred = PredictedEnsemble(
                values=evaluate_members(model, ens.values), meta=model.datum_meta
            )
            if step == 1:  # the run's one taper field
                keep_rows = (TAPER_CACHE_BYTES + prior.values.nbytes) // (4 * obs.n_data)
                taper = make_taper_field(policy, prior, pred, block_width, keep_rows)
            perturbed = perturb_observations(obs, alpha, seed, step, ens.n_members)
            var = localized_update_step(ens, pred, obs, alpha, taper, perturbed, block_width)
            if step == 1:  # step 1's forecast is the prior; its update read every block
                if (zero := np.flatnonzero(var <= 0.0)).size:
                    raise ValueError(f"zero prior variance in {zero.size} of {var.size} rows "
                                     f"(first: row {zero[0]})")
                prior_var = var.copy()  # before var /= prior_var divides it into ones
                footprint = (metrics.footprint(None, ens.n_params, obs.n_data)
                             if taper is None else taper.footprint())
            var /= prior_var  # in place: no step keeps a second Nm array through the next
            diagnostics.append(_diagnostics(step, alpha, pred, obs, var, footprint))

    with _failures_name_step(schedule.n_steps + 1):
        pred = PredictedEnsemble(
            values=evaluate_members(model, ens.values), meta=model.datum_meta
        )
    nv_rows = ensemble_variance_per_row(ens) / prior_var
    diagnostics.append(
        _diagnostics(schedule.n_steps + 1, None, pred, obs, nv_rows, footprint)
    )
    return EsmdaResult(ens, diagnostics, nv_rows, prior_var)


@contextmanager
def _failures_name_step(step: int) -> Iterator[None]:
    """Re-raise a failure inside the block as AssimilationError naming the step."""
    try:
        yield
    except (EnlocError, ValueError) as exc:  # ValueError covers LinAlgError
        rows = exc.rows if isinstance(exc, BlockError) else None
        raise AssimilationError(step, str(exc), rows) from exc
