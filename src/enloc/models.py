"""Desk-scale synthetic forward models and prior-ensemble generators.

Three model families cover the experiment designs:

* LinearModel: d = G m, the oracle model for linear-Gaussian checks.
* ScalarToyModel: a smooth random-feature map of a block of active scalar
  parameters, plus a block of dummy parameters that provably do not enter
  the response. Any posterior variance reduction of the dummies is pure
  sampling error.
* GridFlowProxy: a 2-D/3-D gridded waterflood proxy with five-spot wells.
  Each well's response depends only on the cells along straight-line
  corridors between producer-injector pairs, so the true sensitivity mask
  of every datum is known exactly by construction.

Priors are standard Gaussian for scalar parameters and anisotropic
Gaussian random fields for grid properties. A stationary field's
correlation depends only on the offset between cells, so it is read from
a lag table, and on a regular grid the correlation matrix is block
Toeplitz. Its lower Cholesky factor is computed first by the block Schur
algorithm from the lag table's first block column, then checked: a factor
whose residual on its row norms and last block row is past _SCHUR_RESIDUAL,
or past _SCHUR_ERROR once magnified by an estimate of ||C^-1|| (a nearly
singular C), or whose steps fail, is replaced by the dense factorization at
the same jitter, computed in place over the lower triangle alone. The
factor is cached per geometry, at most two geometries at a time. All layers
of a field are drawn with one triangular product of that factor, and a grid
model builds its parameter names and coordinates once.
"""

from __future__ import annotations

import functools
import math
import mmap
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.linalg

from .ensemble import DatumMeta, Ensemble
from .errors import FieldGenerationError, ForwardModelError, check_finite
from .tapers import _scaled_distance

__all__ = [
    "ForwardModel",
    "LinearModel",
    "ScalarToyModel",
    "GridFlowProxy",
    "GrfPrior",
    "grf_correlation",
    "sample_grf",
    "sample_grid_prior",
    "evaluate_members",
]

MAX_DENSE_CELLS = 20_000  # dense-Cholesky ceiling for random-field sampling

# ScalarToyModel's random-feature map: hidden width, and the scales of the
# input weights and biases and of the output weights
TOY_N_FEATURES = 48
TOY_INPUT_SCALE = 0.5
TOY_OUTPUT_SCALE = 2.0


class ForwardModel(ABC):
    """Deterministic map from a parameter vector to a data vector."""

    datum_meta: list[DatumMeta]

    @property
    @abstractmethod
    def n_params(self) -> int: ...

    @property
    @abstractmethod
    def n_data(self) -> int: ...

    @abstractmethod
    def evaluate_ensemble(self, values: np.ndarray) -> np.ndarray:
        """Map each column of an (Nm x Ne) matrix to (Nd x Ne); pure and repeatable."""

    def evaluate(self, m: np.ndarray) -> np.ndarray:
        """Evaluate one parameter vector."""
        m = np.asarray(m, dtype=float)
        if m.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {m.shape}")
        return self.evaluate_ensemble(m[:, None])[:, 0]


def evaluate_members(model: ForwardModel, values: np.ndarray) -> np.ndarray:
    """Evaluate an ensemble, aborting with the member id on any failure.

    The result shares no memory with values, which the caller may then
    update in place.
    """
    try:
        pred = model.evaluate_ensemble(values)
    except Exception as exc:  # noqa: BLE001 - simulator failures are opaque
        raise ForwardModelError(f"forward model failed: {exc}") from exc
    if np.may_share_memory(pred, values):  # a model that returns a view of its input
        pred = np.array(pred)
    bad = ~np.all(np.isfinite(pred), axis=0)
    if np.any(bad):
        member = int(np.argmax(bad))
        raise ForwardModelError(
            f"forward model produced non-finite output for member {member}",
            member=member,
        )
    return pred


class LinearModel(ForwardModel):
    """d = G m."""

    def __init__(self, G: np.ndarray):
        self.G = np.asarray(G, dtype=float)
        if self.G.ndim != 2 or not self.G.shape[1] or not np.all(np.isfinite(self.G)):
            raise ValueError("G must be a finite 2-D matrix with a column per parameter")
        self.datum_meta = [DatumMeta(source=f"d{j}") for j in range(self.G.shape[0])]

    @property
    def n_params(self) -> int:
        return self.G.shape[1]

    @property
    def n_data(self) -> int:
        return self.G.shape[0]

    def evaluate_ensemble(self, values: np.ndarray) -> np.ndarray:
        return self.G @ values


class ScalarToyModel(ForwardModel):
    """Smooth nonlinear response of scalar parameters with an inert dummy block.

    The response is a fixed, seeded random-feature map of the first
    n_active parameters only:

        d = V tanh(W m_active + b)

    with TOY_N_FEATURES hidden features, W and b of scale TOY_INPUT_SCALE
    and V of scale TOY_OUTPUT_SCALE, so the final n_dummy parameters have
    exactly zero influence. Data are organized as n_series sources
    ("wells") with n_times points each.
    """

    def __init__(
        self,
        n_active: int = 15,
        n_dummy: int = 5,
        n_series: int = 6,
        n_times: int = 50,
        structure_seed: int = 0,
    ):
        if n_active < 1 or n_dummy < 0:
            raise ValueError("need n_active >= 1 and n_dummy >= 0")
        self.n_active = n_active
        self.n_dummy = n_dummy
        self.n_series = n_series
        self.n_times = n_times
        rng = np.random.default_rng(structure_seed)
        nd = n_series * n_times
        self._W = rng.standard_normal((TOY_N_FEATURES, n_active)) * (
            TOY_INPUT_SCALE / math.sqrt(n_active)
        )
        self._b = rng.standard_normal(TOY_N_FEATURES) * TOY_INPUT_SCALE
        self._V = rng.standard_normal((nd, TOY_N_FEATURES)) * (
            TOY_OUTPUT_SCALE / math.sqrt(TOY_N_FEATURES)
        )
        self.datum_meta = [
            DatumMeta(source=f"w{s + 1}", kind="resp", time=t)
            for s in range(n_series)
            for t in range(n_times)
        ]

    @property
    def n_params(self) -> int:
        return self.n_active + self.n_dummy

    @property
    def n_data(self) -> int:
        return self._V.shape[0]

    @property
    def dummy_indices(self) -> np.ndarray:
        return np.arange(self.n_active, self.n_params)

    @property
    def param_names(self) -> list[str]:
        return [f"act_{i + 1}" for i in range(self.n_active)] + [
            f"dummy_{i + 1}" for i in range(self.n_dummy)
        ]

    def evaluate_ensemble(self, values: np.ndarray) -> np.ndarray:
        return self._V @ np.tanh(self._W @ values[: self.n_active, :] + self._b[:, None])

    def sample_prior(self, count: int, seed: int) -> Ensemble:
        """Standard Gaussian prior over all parameters, dummies included."""
        rng = np.random.default_rng(seed)
        return Ensemble(
            values=rng.standard_normal((self.n_params, count)),
            names=self.param_names,
        )


def _bresenham(i0: int, j0: int, i1: int, j1: int) -> list[tuple[int, int]]:
    """Cells on the rasterized segment between two gridblocks, inclusive."""
    cells = []
    di, dj = abs(i1 - i0), abs(j1 - j0)
    si = 1 if i0 < i1 else -1
    sj = 1 if j0 < j1 else -1
    err = di - dj
    i, j = i0, j0
    while True:
        cells.append((i, j))
        if i == i1 and j == j1:
            break
        e2 = 2 * err
        if e2 > -dj:
            err -= dj
            i += si
        if e2 < di:
            err += di
            j += sj
    return cells


class GridFlowProxy(ForwardModel):
    """Waterflood proxy on an nx x ny x n_layers grid with five-spot wells.

    Parameters are two property fields, porosity then log-permeability,
    each ordered layer-major then row-major (index = (k ny + j) nx + i).

    Producers sit on a prod_grid x prod_grid lattice; injectors sit at the
    centers of the producer squares. For every injector-producer pair and
    every layer, a corridor is the set of cells on the straight line
    between the wells. With corridor length L (cell count):

        T      = L / sum(exp(-logk))          harmonic-mean transmissibility
        phibar = mean(porosity)               over corridor cells
        t_bt   = t_ref * L * phibar / T       breakthrough time (months)

    Producer water cut at report time t averages a logistic ramp
    1/(1 + exp(-(t - t_bt)/ramp_width)) over its corridors and layers.
    Injector water rate is the sum of corridor T, scaled by the fixed ramp
    (1 + 0.2 t / t_end). Responses therefore touch corridor cells
    only, which defines the exact per-datum sensitivity masks.
    """

    def __init__(
        self,
        nx: int = 60,
        ny: int = 60,
        n_layers: int = 1,
        prod_grid: int = 3,
        n_times: int = 24,
        t_ref: float = 4.0,
        ramp_width: float = 2.0,
    ):
        if nx < 8 or ny < 8 or n_layers < 1 or prod_grid < 2:
            raise ValueError("grid too small for a five-spot layout")
        self.nx, self.ny, self.n_layers = nx, ny, n_layers
        self.n_times = n_times
        self.t_ref = t_ref
        self.ramp_width = ramp_width
        self.times = np.arange(1, n_times + 1, dtype=float)
        self.t_end = float(n_times)

        sx, sy = nx / prod_grid, ny / prod_grid
        self.producers = [
            (int((r + 0.5) * sx), int((c + 0.5) * sy))
            for r in range(prod_grid)
            for c in range(prod_grid)
        ]
        self.injectors = [
            (int((r + 1.0) * sx), int((c + 1.0) * sy))
            for r in range(prod_grid - 1)
            for c in range(prod_grid - 1)
        ]

        # injector -> 4 surrounding producers in the five-spot pattern
        self._pairs: list[tuple[int, int, list[tuple[int, int]]]] = []
        for ii, (xi, yi) in enumerate(self.injectors):
            dist = [
                (math.hypot(xp - xi, yp - yi), ip)
                for ip, (xp, yp) in enumerate(self.producers)
            ]
            for _, ip in sorted(dist)[:4]:
                xp, yp = self.producers[ip]
                self._pairs.append((ii, ip, _bresenham(xp, yp, xi, yi)))

        self._cells_per_layer = nx * ny
        self._field_size = self._cells_per_layer * n_layers
        self._prod_masks, self._inj_masks = self._build_masks()
        self.datum_meta = []
        for ip, (xp, yp) in enumerate(self.producers):
            for t in range(n_times):
                self.datum_meta.append(
                    DatumMeta(source=f"P{ip + 1}", kind="wct", time=t, well_xy=(xp, yp))
                )
        for ii, (xi, yi) in enumerate(self.injectors):
            for t in range(n_times):
                self.datum_meta.append(
                    DatumMeta(source=f"I{ii + 1}", kind="wir", time=t, well_xy=(xi, yi))
                )

    @property
    def n_params(self) -> int:
        return 2 * self._field_size

    @property
    def n_data(self) -> int:
        return (len(self.producers) + len(self.injectors)) * self.n_times

    @property
    def coords(self) -> np.ndarray:
        """(Nm, 3) gridblock coordinates, repeated for the two fields; read-only."""
        return self._labels[1]

    @property
    def param_names(self) -> list[str]:
        """A new list on each call, so no caller can edit the model's copy."""
        return list(self._labels[0])

    @functools.cached_property
    def _labels(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Parameter names and coordinates, built on first use."""
        k, j, i = np.indices((self.n_layers, self.ny, self.nx)).reshape(3, -1)
        ijk = np.column_stack([i, j, k])
        coords = np.vstack([ijk, ijk])
        coords.setflags(write=False)
        names = tuple(
            f"{field}_{a}_{b}_{c}" for field in ("poro", "logk") for a, b, c in ijk.tolist()
        )
        return names, coords

    def _corridor_indices(self, cells: list[tuple[int, int]]) -> np.ndarray:
        """Flat cell indices of a corridor across all layers, one row per layer."""
        base = np.array([j * self.nx + i for i, j in cells], dtype=int)
        return np.stack(
            [base + k * self._cells_per_layer for k in range(self.n_layers)]
        )

    def _build_masks(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        prod_cells = [set() for _ in self.producers]
        inj_cells = [set() for _ in self.injectors]
        for ii, ip, cells in self._pairs:
            idx = self._corridor_indices(cells).ravel()
            prod_cells[ip].update(idx.tolist())
            inj_cells[ii].update(idx.tolist())
        nm = 2 * self._field_size
        prod_masks = []
        for cs in prod_cells:
            mask = np.zeros(nm, dtype=bool)
            idx = np.fromiter(cs, dtype=int)
            mask[idx] = True  # porosity block
            mask[idx + self._field_size] = True  # log-permeability block
            prod_masks.append(mask)
        inj_masks = []
        for cs in inj_cells:
            mask = np.zeros(nm, dtype=bool)
            idx = np.fromiter(cs, dtype=int)
            mask[idx + self._field_size] = True  # rate senses log-permeability only
            inj_masks.append(mask)
        return prod_masks, inj_masks

    def sensitivity_mask(self, datum: int) -> np.ndarray:
        """Exact parameter-sensitivity mask of one datum (True where it can respond)."""
        meta = self.datum_meta[datum]
        if meta.kind == "wct":
            return self._prod_masks[int(meta.source[1:]) - 1]
        return self._inj_masks[int(meta.source[1:]) - 1]

    def evaluate_ensemble(self, values: np.ndarray) -> np.ndarray:
        poro = values[: self._field_size, :]
        log_perm = values[self._field_size :, :]
        n_e = values.shape[1]
        n_prod, n_inj = len(self.producers), len(self.injectors)

        wct = np.zeros((n_prod, self.n_times, n_e))
        rate = np.zeros((n_inj, self.n_times, n_e))
        corridors_per_prod = np.zeros(n_prod)
        t = self.times[None, :, None]  # broadcast over (layer, time, member)

        for ii, ip, cells in self._pairs:
            idx = self._corridor_indices(cells)  # (n_layers, L)
            length = idx.shape[1]
            # exp on the corridor's rows only: no temporary of a field's size
            trans = length / np.exp(-log_perm[idx, :]).sum(axis=1)  # (n_layers, n_e)
            phibar = poro[idx, :].mean(axis=1)
            t_bt = self.t_ref * length * phibar / trans
            ramp = 1.0 / (1.0 + np.exp(-(t - t_bt[:, None, :]) / self.ramp_width))
            wct[ip] += ramp.sum(axis=0) / self.n_layers
            corridors_per_prod[ip] += 1
            rate[ii] += trans.sum(axis=0)[None, :] * (
                1.0 + 0.2 * self.times[:, None] / self.t_end
            )

        wct /= np.maximum(corridors_per_prod, 1)[:, None, None]
        out = np.concatenate(
            [wct.reshape(-1, n_e), rate.reshape(-1, n_e)], axis=0
        )
        return out


@dataclass(frozen=True)
class GrfPrior:
    """Anisotropic Gaussian-random-field prior for one 2-D grid property.

    The correlation between two cells uses the normalized anisotropic
    distance h (offset rotated by angle_deg, scaled by the ranges):
    exp(-3 h) for the exponential variogram and exp(-3 h^2) for the
    Gaussian one, so correlation drops to ~0.05 at the stated ranges.
    Every number must be finite.
    """

    nx: int
    ny: int
    kind: str = "exponential"
    range_major: float = 20.0
    range_minor: float = 10.0
    angle_deg: float = 0.0
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exponential", "gaussian"):
            raise ValueError(f"unknown variogram kind {self.kind!r}")
        for name in ("range_minor", "range_major", "std"):
            check_finite(name, getattr(self, name), above=0.0)
        for name in ("angle_deg", "mean"):
            check_finite(name, getattr(self, name))
        if not self.range_major >= self.range_minor:
            raise ValueError("require range_major >= range_minor > 0")
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"a grid needs at least one cell each way, got {self.nx} x {self.ny}")
        if self.nx * self.ny > MAX_DENSE_CELLS:
            raise ValueError(
                f"grid has {self.nx * self.ny} cells; dense sampling supports "
                f"at most {MAX_DENSE_CELLS}"
            )


def _lag_windows(prior: GrfPrior) -> np.ndarray:
    """Correlation of cell (j, i) with cell (j', i') as the view [j, i, j', i'].

    The field is stationary, so the kernel is evaluated once per lag on the
    (2 ny - 1) x (2 nx - 1) lag table; the view reads
    lag[j - j', i - i'] out of it without a copy.
    """
    nx, ny = prior.nx, prior.ny
    dx = np.arange(1 - nx, nx, dtype=float)[None, :]
    dy = np.arange(1 - ny, ny, dtype=float)[:, None]
    h = _scaled_distance(dx, dy, prior.range_major, prior.range_minor, prior.angle_deg)
    lag = np.exp(-3.0 * h) if prior.kind == "exponential" else np.exp(-3.0 * h * h)
    return np.lib.stride_tricks.sliding_window_view(lag, (ny, nx))[:, :, ::-1, ::-1]


def grf_correlation(prior: GrfPrior) -> np.ndarray:
    """Cell-to-cell prior correlation matrix (row-major cell order).

    One copy out of the lag table, corr[(j, i), (j', i')] = lag[j - j', i - i'].
    On a grid one cell wide the reshape is a read-only view; that one is copied.
    """
    n = prior.nx * prior.ny
    return np.ascontiguousarray(_lag_windows(prior).reshape(n, n))


def _fill_lower(low: np.ndarray, windows: np.ndarray, jitter: float) -> None:
    """Write the correlation matrix's lower triangle, diagonal 1 + jitter,
    into `low`; nothing above the diagonal is touched."""
    ny, nx = windows.shape[:2]
    cells = low.reshape(ny, nx, ny, nx)
    for j in range(1, ny):  # the blocks left of cell row j's diagonal block
        cells[j, :, :j] = windows[j, :, :j]
    rows = np.arange(ny)
    for i in range(1, nx):  # the diagonal blocks, the same lags in every row
        cells[rows, i, rows, :i] = windows[0, i, 0, :i]
    np.fill_diagonal(low, 1.0 + jitter)


# A block Schur factor stands when |L L^T - C| on the entries its check reads
# is within _SCHUR_RESIDUAL, about 900 units of rounding, and when that
# residual times an estimate of ||C^-1|| is within _SCHUR_ERROR. The factor
# of a nearly singular C is fixed only to about residual ||C^-1||: there two
# backward-stable factors differ far beyond rounding, and the dense one keeps
# the draws the dense path alone gives.
_SCHUR_RESIDUAL = 1e-13
_SCHUR_ERROR = 1e-11


def _schur_factor(low: np.ndarray, windows: np.ndarray, jitter: float) -> tuple[float, float]:
    """Write the block Schur factor of the correlation matrix C, diagonal
    1 + jitter, into `low`'s lower triangle; return its checked residual and
    an estimate of ||C^-1||.

    On a grid of ny rows of nx cells, C is block Toeplitz: block (j, j') is
    T_{j - j'}, with T_{-d} = T_d^T, so its first block column generates it
    (Kailath & Sayed 1995, SIAM Review 37(3)). With T_0 = U^T U, that column
    times U^-1 is L's block column 0. The generator G then has two halves
    side by side, over block rows k to ny - 1 at step k: the first is L's
    block column k - 1 shifted down one block, its diagonal block on top,
    and the second starts as block column 0's part below the diagonal.
    From G's leading blocks a^T (lower triangular) and b^T, step k takes
    the Cholesky factor R of a^T a - b^T b, whose transpose is L's diagonal
    block, and the J-unitary transform
        M = [[R^-T a^T, -R^-T b^T], [-Q^-1 P, Q^-1]],  P = b a^-1,  Q Q^T = I - P P^T;
    one product, G's later block rows times M^T, gives the next G, whose
    first half is L's block column k below the diagonal. Only blocks on and
    below the diagonal are written, the diagonal blocks' lower triangles
    alone.

    The hyperbolic steps lose accuracy on ill-conditioned kernels (Stewart
    & Van Dooren 1997, SIAM J. Matrix Anal. Appl. 18(1)), so the residual
    |L L^T - C| is checked on each row's squared norm, against C's diagonal,
    and on the last block column, L L[-nx:]^T (the last block row,
    transposed), the one triangular product of the check. The estimate of
    ||C^-1||_2 is |L^-1 x|^2 / |x|^2 for a fixed normal x, never above it,
    solved a block column at a time as they are written. Either number may
    be NaN; a step whose matrix is not positive definite raises
    LinAlgError. Either way `low` may hold a partial factor.
    """
    ny, nx = windows.shape[:2]
    n = nx * ny
    diag = np.arange(nx)
    col = np.array(windows[:, :, 0].reshape(n, nx))  # [T_0; T_1; ...; T_{ny-1}]
    col[diag, diag] = 1.0 + jitter
    r = scipy.linalg.cholesky(col[:nx], check_finite=False)  # U, then each R
    below = scipy.linalg.solve_triangular(r, col[nx:].T, trans="T", check_finite=False).T
    gen = np.hstack([below, below])  # shifted at step 0 as at every step
    norms = np.zeros(n)  # each row's squared norm, a block column at a time
    probe = np.random.default_rng(0).standard_normal(n)
    solved = probe.copy()  # L^-1 probe, a block at a time
    eye, lower = np.eye(nx), np.tril_indices(nx)
    for k in range(ny):
        c = k * nx
        low[c : c + nx, c : c + nx][lower] = r.T[lower]
        norms[c : c + nx] += np.einsum("ij,ij->j", r, r)
        solved[c : c + nx] = scipy.linalg.solve_triangular(r, solved[c : c + nx], trans="T",
                                                           check_finite=False)
        if k == ny - 1:
            break
        below = gen[:, :nx]  # block column k under the diagonal
        low[c + nx :, c : c + nx] = below
        norms[c + nx :] += np.einsum("ij,ij->i", below, below)
        solved[c + nx :] -= below @ solved[c : c + nx]
        gen[nx:, :nx] = gen[:-nx, :nx]  # the first half shifted down one block
        gen[:nx, :nx] = r.T
        at, bt = gen[:nx, :nx], gen[:nx, nx:]
        r = scipy.linalg.cholesky(at @ at.T - bt @ bt.T, check_finite=False)
        p = scipy.linalg.solve_triangular(at, bt, lower=True, check_finite=False).T
        q = scipy.linalg.cholesky(eye - p @ p.T, lower=True, check_finite=False)
        transform = np.vstack([
            scipy.linalg.solve_triangular(r, np.hstack([at, -bt]), trans="T",
                                          check_finite=False),
            scipy.linalg.solve_triangular(q, np.hstack([-p, eye]), lower=True,
                                          check_finite=False),
        ])
        gen = gen[nx:] @ transform.T
    # the last block column of L L^T, L L[-nx:]^T, against C's
    last = scipy.linalg.blas.dtrmm(1.0, low.T, low[-nx:].T, trans_a=1)
    last -= windows[:, :, -1].reshape(n, nx)
    last[n - nx + diag, diag] -= jitter
    residual = max(np.max(np.abs(norms - (1.0 + jitter))), np.max(np.abs(last)))
    return float(residual), float(solved @ solved / (probe @ probe))


# Keyed on geometry only, so the porosity and log-permeability fields of one
# grid share a factor; two entries keep both fields' factors when their
# geometries differ.
@functools.lru_cache(maxsize=2)
def _correlation_factor(geometry: GrfPrior) -> np.ndarray:
    """Read-only lower Cholesky factor of the cell-correlation matrix.

    The factor is built on a zero-filled anonymous mapping, lower triangle
    only: pages wholly above the diagonal are never written and so never
    become resident (numpy's own allocation would be advised as transparent
    huge pages, which makes every touched 2 MB region resident).

    Each jitter of the ladder first takes the block Schur factor
    (_schur_factor), from the lag table's first block column alone. If a step
    fails, or its check fails (ill-conditioned kernels, such as Gaussian
    ones of long range: see _SCHUR_RESIDUAL), the triangle is refilled
    from the lag table and factored densely at the same jitter: the
    transpose of the C-ordered buffer is Fortran-ordered, and LAPACK's
    upper factor of it, computed in place without clearing the other
    triangle, is the lower factor in C order. Only a dense failure moves on
    to the next jitter, so a kernel takes the jitter the dense path alone
    would, and a dense-path factor has the bits of the dense path alone.
    """
    n = geometry.nx * geometry.ny
    low = np.frombuffer(mmap.mmap(-1, n * n * 8), dtype=float).reshape(n, n)
    windows = _lag_windows(geometry)
    for jitter in (1e-10, 1e-8, 1e-6):
        try:  # a failing factor may overflow: its residual is then not finite
            with np.errstate(over="ignore", invalid="ignore"):
                residual, inverse_norm = _schur_factor(low, windows, jitter)
        except np.linalg.LinAlgError:
            pass
        else:
            if residual <= _SCHUR_RESIDUAL and residual * inverse_norm <= _SCHUR_ERROR:
                break
        _fill_lower(low, windows, jitter)
        upper, info = scipy.linalg.lapack.dpotrf(low.T, lower=0, clean=0, overwrite_a=1)
        # a copy would bring the whole n x n matrix back into memory
        if not np.shares_memory(upper, low):
            raise RuntimeError("dpotrf did not factor the matrix in place")
        if info == 0:
            break
    else:
        raise FieldGenerationError(
            "correlation matrix not positive definite after jitter"
        )
    low.setflags(write=False)
    return low


def sample_grf(
    prior: GrfPrior,
    count: int,
    seed: int | Sequence[int],
    *,
    labels: bool = True,
    out: np.ndarray | None = None,
) -> Ensemble:
    """Draw `count` independent field realizations as an Ensemble.

    Rows are cells in row-major order (j outer, i inner); coords carry the
    (i, j, 0) gridblock indices. The correlation factor depends on the
    geometry only (grid, variogram, ranges, angle), not on mean or std; it
    comes from the two-entry cache, built from the lag table on a miss.

    A sequence of seeds draws one layer per seed, stacked layer-major, with
    rows named c_i_j_k and coords (i, j, k) for layer k. Layer k's standard
    normals are default_rng(seed_k).standard_normal((cells, count)), as an
    int seed draws them; all layers sit side by side in one matrix, so the
    factor is read once for the whole field, in one triangular product
    written over the normals. A layer equals its one-layer
    draw where the BLAS rounds each column of a product independently of
    the product's width; where it does not (OpenBLAS, for some widths), the
    two differ in the last bits.

    labels=False leaves out the names and coords, for a caller that
    labels the rows itself. out, a C-contiguous (layers x cells) x count
    array, receives the values when given (a caller's slice of a larger
    ensemble); the one copy out of the product's layout writes it.
    """
    if count < 2:
        raise ValueError("need at least 2 realizations")
    layered = np.ndim(seed) > 0
    seeds = list(seed) if layered else [seed]
    factor = _correlation_factor(replace(prior, mean=0.0, std=1.0))
    n = factor.shape[0]
    # on an anonymous mapping, as the factor is, so its pages go back to the
    # system when it is freed, not to a heap that keeps them resident
    width = len(seeds) * count
    z = np.frombuffer(mmap.mmap(-1, max(n * width, 1) * 8), dtype=float, count=n * width)
    z = z.reshape(n, width)
    # a generator fills only contiguous arrays: each layer's normals are drawn
    # 256 KiB of rows at a time into one buffer, with the bits of one draw
    chunk = np.empty((max(1, 2**15 // count), count))
    for k, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        for lo in range(0, n, len(chunk)):
            rows = rng.standard_normal(out=chunk[: n - lo])
            z[lo : lo + len(rows), k * count : (k + 1) * count] = rows
    # x = factor @ z as x^T = z^T factor^T, the BLAS triangular product (half
    # the work of a full one) written over z; the transposes are free views
    x = scipy.linalg.blas.dtrmm(1.0, factor.T, z.T, side=1, overwrite_b=1).T
    values = np.empty((len(seeds) * n, count)) if out is None else out
    layers = values.reshape(len(seeds), n, count)  # a view: values is contiguous
    np.multiply(x.reshape(n, len(seeds), count).transpose(1, 0, 2), prior.std, out=layers)
    layers += prior.mean
    if not labels:
        return Ensemble(values=values)
    k, j, i = np.indices((len(seeds), prior.ny, prior.nx)).reshape(3, -1)
    coords = np.column_stack([i, j, k])
    names = [f"c_{a}_{b}_{c}" if layered else f"c_{a}_{b}" for a, b, c in coords.tolist()]
    return Ensemble(values=values, names=names, coords=coords)


def sample_grid_prior(
    model: GridFlowProxy,
    poro_prior: GrfPrior,
    logk_prior: GrfPrior,
    count: int,
    seed: int,
) -> Ensemble:
    """Sample the full grid-model prior: both fields, all layers.

    Layers are independent draws from the same 2-D prior, one seed per
    layer from SeedSequence(seed); each field is one unlabelled sample_grf
    call over its layers' seeds, written straight into its rows of the
    ensemble, and the model supplies names and coords. The porosity block
    precedes the log-permeability block, matching the model's parameter
    ordering.
    """
    for prior, label in ((poro_prior, "porosity"), (logk_prior, "log-permeability")):
        if (prior.nx, prior.ny) != (model.nx, model.ny):
            raise ValueError(f"{label} prior grid does not match the model grid")
    layer_seeds = np.random.SeedSequence(seed).generate_state(2 * model.n_layers).tolist()
    n_layers, rows = model.n_layers, model.n_layers * model.nx * model.ny
    values = np.empty((2 * rows, count))
    for f, prior in enumerate((poro_prior, logk_prior)):
        seeds = layer_seeds[f * n_layers : (f + 1) * n_layers]
        sample_grf(prior, count, seeds, labels=False, out=values[f * rows : (f + 1) * rows])
    return Ensemble(values=values, names=model.param_names, coords=model.coords)
