"""Ensemble containers and blockwise moment estimation.

An ensemble is an Nm x Ne matrix: one row per model parameter, one column
per realization. Predicted data are the corresponding Nd x Ne forward-model
outputs. Cross-covariances and correlations use the unbiased (Ne - 1)
normalization throughout, and the model-data correlation matrix is only
ever produced in row blocks so the full Nm x Nd array need not exist.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import UndefinedCorrelationError

__all__ = [
    "Ensemble",
    "PredictedEnsemble",
    "DatumMeta",
    "RowBlock",
    "iter_blocks",
    "cross_covariance",
    "correlation",
    "correlation_block",
    "ensemble_variance_per_row",
    "write_ensemble_csv",
    "read_ensemble_csv",
    "row_anomalies",
]

DEFAULT_BLOCK_WIDTH = 1024  # parameter rows per block; memory ~ width x Nd


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
        if not np.all(np.isfinite(self.values)):
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


def cross_covariance(m_row: Sequence[float], d_row: Sequence[float]) -> float:
    """Unbiased sample covariance between one parameter row and one data row."""
    m = np.asarray(m_row, dtype=float)
    d = np.asarray(d_row, dtype=float)
    if m.shape != d.shape or m.ndim != 1:
        raise ValueError("rows must be 1-D and of equal length")
    if m.size < 2:
        raise ValueError("need at least 2 samples")
    return float((m - m.mean()) @ (d - d.mean()) / (m.size - 1))


def correlation(m_row: Sequence[float], d_row: Sequence[float]) -> float:
    """Sample correlation, clamped to [-1, 1] against round-off.

    Raises UndefinedCorrelationError for a zero-variance row; downstream
    localization maps that case to a taper of zero (no signal, no update).
    """
    m = np.asarray(m_row, dtype=float)
    d = np.asarray(d_row, dtype=float)
    if m.shape != d.shape or m.ndim != 1:
        raise ValueError("rows must be 1-D and of equal length")
    (am, ad), (nm, nd) = row_anomalies(np.vstack([m, d]))
    if nm == 0.0 or nd == 0.0:
        raise UndefinedCorrelationError("correlation undefined for constant row")
    return float(np.clip(am @ ad / (nm * nd), -1.0, 1.0))


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

    Returns a (width x Nd) array, entrywise equal to correlation() on the
    corresponding row pairs. Undefined entries (zero-variance parameter or
    data rows) are marked NaN; callers treat them as taper-zero pairs.

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
    denom = np.outer(nm, nd)
    defined = denom > 0.0
    corr = am @ ad.T
    with np.errstate(invalid="ignore", divide="ignore"):
        corr /= denom
    del denom  # in-place arithmetic: one width x Nd array outlives this line
    np.clip(corr, -1.0, 1.0, out=corr)
    corr[~defined] = np.nan
    return corr


def ensemble_variance_per_row(ens: Ensemble) -> np.ndarray:
    """Unbiased sample variance of each parameter row."""
    return np.var(ens.values, axis=1, ddof=1)


def write_ensemble_csv(ens: Ensemble, path: str | Path) -> None:
    """Write an ensemble as CSV with header param_id,e1,...,eNe."""
    path = Path(path)
    names = ens.names or [f"p{i}" for i in range(ens.n_params)]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param_id"] + [f"e{k + 1}" for k in range(ens.n_members)])
        for name, row in zip(names, ens.values):
            writer.writerow([name] + [repr(float(v)) for v in row])


def read_ensemble_csv(path: str | Path) -> Ensemble:
    """Read an ensemble written by write_ensemble_csv."""
    path = Path(path)
    names: list[str] = []
    rows: list[list[float]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "param_id":
            raise ValueError(f"{path}: not an ensemble CSV")
        for rec in reader:
            names.append(rec[0])
            rows.append([float(v) for v in rec[1:]])
    return Ensemble(values=np.asarray(rows, dtype=float), names=names)
