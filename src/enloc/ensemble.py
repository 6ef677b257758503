"""Ensemble containers and blockwise moment estimation.

An ensemble is an Nm x Ne matrix: one row per model parameter, one column
per realization. Predicted data are the corresponding Nd x Ne forward-model
outputs. Row variances use the unbiased (Ne - 1) normalization, and the
model-data correlation matrix is only ever produced in row blocks so the
full Nm x Nd array need not exist.
"""

from __future__ import annotations

import csv
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BlockError, EnlocError

__all__ = [
    "Ensemble",
    "PredictedEnsemble",
    "DatumMeta",
    "RowBlock",
    "iter_blocks",
    "correlation_block",
    "ensemble_variance_per_row",
    "write_ensemble_csv",
    "row_anomalies",
]

DEFAULT_BLOCK_WIDTH = 1024  # parameter rows per block; memory ~ width x Nd
_DENOM_SLAB_ROWS = 64  # rows per slab of correlation denominators


@dataclass
class Ensemble:
    """Nm x Ne matrix of parameter realizations with optional metadata.

    coords, when present, holds (i, j, k) gridblock indices per parameter
    row; scalar (non-grid) parameters carry no coordinates.
    """

    values: np.ndarray
    names: list[str] | None = None
    coords: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("ensemble values must be a 2-D (Nm x Ne) array")
        if self.values.shape[1] < 2:
            raise ValueError("ensemble needs at least 2 members")
        # NaN and +-inf reach the min or the max; unlike np.isfinite over the
        # values, this allocates no Nm x Ne temporary
        v = self.values
        if v.size and not (np.isfinite(v.min()) and np.isfinite(v.max())):
            raise ValueError("ensemble values must be finite")
        if self.names is not None and len(self.names) != self.values.shape[0]:
            raise ValueError("names length must match parameter count")
        if self.coords is not None:
            self.coords = np.asarray(self.coords)
            if self.coords.shape != (self.values.shape[0], 3):
                raise ValueError("coords must have shape (Nm, 3)")

    @property
    def n_params(self) -> int:
        return self.values.shape[0]

    @property
    def n_members(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DatumMeta:
    """Provenance of one datum: source group (well), kind, and time index."""

    source: str
    kind: str = "obs"
    time: int = 0
    well_xy: tuple[float, float] | None = None


@dataclass
class PredictedEnsemble:
    """Nd x Ne matrix of forward-model outputs paired column-wise with an Ensemble."""

    values: np.ndarray
    meta: list[DatumMeta] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("predicted values must be a 2-D (Nd x Ne) array")
        if self.meta and len(self.meta) != self.values.shape[0]:
            raise ValueError("meta length must match datum count")

    @property
    def n_data(self) -> int:
        return self.values.shape[0]

    @property
    def n_members(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RowBlock:
    """A contiguous range of parameter rows [start, start + width)."""

    start: int
    width: int

    def __post_init__(self):
        if self.start < 0 or self.width <= 0:
            raise ValueError(f"invalid block {self}")

    @property
    def stop(self) -> int:
        return self.start + self.width

    def slice(self) -> slice:
        return slice(self.start, self.stop)


def iter_blocks(n_rows: int, width: int = DEFAULT_BLOCK_WIDTH) -> Iterator[RowBlock]:
    """Partition [0, n_rows) into row blocks of at most `width` rows."""
    if width <= 0:
        raise ValueError("block width must be positive")
    for start in range(0, n_rows, width):
        yield RowBlock(start, min(width, n_rows - start))


def _each_block(n_rows: int, block_width: int, work: Callable[[RowBlock], None]) -> None:
    """Call work once for every row block, on this thread and helper threads.

    It spreads an update's parameter-row blocks and a percentile threshold's
    correlation pass (smoother), and a random-field draw's factor panels,
    one block row of cells each (models.sample_grf); enloc has no other
    parallelism. The calling thread and up to _helper_count() helper
    threads, from a pool opened for this call and shut down before it
    returns, take blocks in row order until none is left; the caller takes
    its share, so helpers
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
    """Helper threads per _each_block call: one for each further CPU of the process."""
    try:
        return len(os.sched_getaffinity(0)) - 1
    except AttributeError:  # no CPU affinity on this platform
        return (os.cpu_count() or 1) - 1


def row_anomalies(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered rows and their Euclidean norms (zero norm marks constant rows).

    Rows that are constant up to floating-point rounding of the mean are
    reported with a norm of exactly zero, since their apparent spread is
    pure round-off, not statistical signal.
    """
    anoms = values - values.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", anoms, anoms))
    scale = np.max(np.abs(values), axis=1)
    tol = 16.0 * np.finfo(float).eps * scale * np.sqrt(values.shape[1])
    norms = np.where(norms <= tol, 0.0, norms)
    return anoms, norms


def correlation_block(
    ens: Ensemble,
    pred: PredictedEnsemble,
    block: RowBlock,
    pred_anomalies: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Correlations between one block of parameter rows and all data rows.

    Returns a (width x Nd) array of sample correlations, clamped to [-1, 1]
    against round-off. Undefined entries (zero-variance parameter or data
    rows) are marked NaN; callers treat them as taper-zero pairs.

    pred_anomalies may carry the precomputed (anomalies, norms) of the
    predicted ensemble so repeated block calls share that work.
    """
    if ens.n_members != pred.n_members:
        raise ValueError("ensemble and predictions must have equal member counts")
    if block.stop > ens.n_params:
        raise ValueError(f"block {block} out of range for {ens.n_params} rows")
    if pred_anomalies is None:
        pred_anomalies = row_anomalies(pred.values)
    ad, nd = pred_anomalies
    am, nm = row_anomalies(ens.values[block.slice()])
    corr = am @ ad.T
    # norms are never negative, so every product is positive when the
    # smallest of each side is, and no pair needs the undefined mask
    masked = not (nm.min() * nd.min() > 0.0)
    # the denominators come a slab of rows at a time, so no second width x Nd
    # array is ever alive; each entry's arithmetic is the same
    for lo in range(0, block.width, _DENOM_SLAB_ROWS):
        rows = corr[lo : lo + _DENOM_SLAB_ROWS]
        denom = np.outer(nm[lo : lo + _DENOM_SLAB_ROWS], nd)
        with np.errstate(invalid="ignore", divide="ignore"):
            rows /= denom
        np.clip(rows, -1.0, 1.0, out=rows)
        if masked:
            rows[~(denom > 0.0)] = np.nan
    return corr


def ensemble_variance_per_row(ens: Ensemble) -> np.ndarray:
    """Unbiased sample variance of each parameter row.

    np.var runs on one DEFAULT_BLOCK_WIDTH block of rows at a time, so its
    temporaries are one block in size; each row's arithmetic is unchanged.
    """
    out = np.empty(ens.n_params)
    for blk in iter_blocks(ens.n_params):
        out[blk.slice()] = np.var(ens.values[blk.slice()], axis=1, ddof=1)
    return out


def write_csv(path: Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a CSV atomically so interrupted runs never leave partial files."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_ensemble_csv(ens: Ensemble, path: str | Path) -> None:
    """Write an ensemble atomically as CSV with header param_id,e1,...,eNe."""
    names = ens.names or [f"p{i}" for i in range(ens.n_params)]
    header = ["param_id"] + [f"e{k + 1}" for k in range(ens.n_members)]
    rows = ([name] + [repr(float(v)) for v in row] for name, row in zip(names, ens.values))
    write_csv(Path(path), header, rows)
