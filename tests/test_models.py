"""Forward models: linearity, dummy inertness, proxy locality, field sampling."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from oracles import dense_correlation_factor, pairwise_grf_correlation, per_layer_grid_prior

from enloc import ensemble as ens_mod
from enloc import models as md
from enloc.errors import FieldGenerationError, ForwardModelError


class _ExplodingModel(md.LinearModel):
    def evaluate_ensemble(self, values):
        out = super().evaluate_ensemble(values)
        out[:, 3] = np.nan
        return out


def test_linear_model():
    G = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
    model = md.LinearModel(G)
    assert np.array_equal(model.evaluate(np.zeros(2)), np.zeros(3))
    eye = md.LinearModel(np.eye(4))
    m = np.arange(4.0)
    assert np.array_equal(eye.evaluate(m), m)
    # hand multiply: G @ [2, 5]
    assert np.allclose(model.evaluate(np.array([2.0, 5.0])), [12.0, -5.0, 8.5])
    with pytest.raises(ValueError, match="^G must be a finite 2-D matrix with a column"):
        md.LinearModel(np.zeros((3, 0)))


def test_member_failure_reported_with_id():
    model = _ExplodingModel(np.eye(2))
    with pytest.raises(ForwardModelError) as err:
        md.evaluate_members(model, np.ones((2, 6)))
    assert err.value.member == 3


def test_scalar_toy_dummy_block_is_inert():
    toy = md.ScalarToyModel(n_active=15, n_dummy=5, structure_seed=3)
    rng = np.random.default_rng(0)
    base = rng.standard_normal(20)
    poked = base.copy()
    poked[15:] = rng.standard_normal(5) * 50.0
    assert np.array_equal(toy.evaluate(base), toy.evaluate(poked))


def test_scalar_toy_baseline_deterministic():
    a = md.ScalarToyModel(structure_seed=42)
    b = md.ScalarToyModel(structure_seed=42)
    zero = np.zeros(a.n_params)
    assert np.array_equal(a.evaluate(zero), b.evaluate(zero))
    # different structure seeds give different feature maps
    c = md.ScalarToyModel(structure_seed=43)
    assert not np.array_equal(a.evaluate(zero), c.evaluate(zero))


def test_scalar_toy_dummy_jacobian_zero():
    """Central finite differences of every dummy column vanish exactly."""
    toy = md.ScalarToyModel(structure_seed=1)
    rng = np.random.default_rng(10)
    base = rng.standard_normal(toy.n_params)
    h = 1e-5
    for idx in toy.dummy_indices:
        e = np.zeros(toy.n_params)
        e[idx] = h
        fd = (toy.evaluate(base + e) - toy.evaluate(base - e)) / (2.0 * h)
        assert np.max(np.abs(fd)) <= 1e-8


def test_scalar_toy_batch_matches_loop():
    toy = md.ScalarToyModel(structure_seed=5)
    vals = np.random.default_rng(2).standard_normal((toy.n_params, 9))
    batch = toy.evaluate_ensemble(vals)
    for k in range(9):
        assert np.allclose(batch[:, k], toy.evaluate(vals[:, k]), atol=1e-14)


@pytest.fixture(scope="module")
def proxy():
    return md.GridFlowProxy(nx=30, ny=30, n_layers=2, prod_grid=3, n_times=12)


@pytest.fixture(scope="module")
def proxy_fields(proxy):
    rng = np.random.default_rng(4)
    half = proxy.n_params // 2
    return np.vstack(
        [
            0.2 + 0.05 * rng.standard_normal((half, 6)),
            0.6 * rng.standard_normal((half, 6)),
        ]
    )


def test_proxy_shapes_and_purity(proxy, proxy_fields):
    pred = proxy.evaluate_ensemble(proxy_fields)
    assert pred.shape == (proxy.n_data, 6)
    assert np.all(np.isfinite(pred))
    again = proxy.evaluate_ensemble(proxy_fields)
    assert np.array_equal(pred, again)
    assert np.allclose(proxy.evaluate(proxy_fields[:, 1]), pred[:, 1], atol=0)


def test_proxy_water_cut_bounded(proxy, proxy_fields):
    pred = proxy.evaluate_ensemble(proxy_fields)
    n_wct = len(proxy.producers) * proxy.n_times
    wct = pred[:n_wct]
    assert np.all((wct >= 0.0) & (wct <= 1.0))


def test_proxy_perm_doubling_advances_breakthrough(proxy, proxy_fields):
    pred = proxy.evaluate_ensemble(proxy_fields)
    half = proxy.n_params // 2
    doubled = proxy_fields.copy()
    doubled[half:] += math.log(2.0)
    pred2 = proxy.evaluate_ensemble(doubled)
    n_wct = len(proxy.producers) * proxy.n_times
    # faster corridors: water cut can only come earlier (never decrease)
    assert np.all(pred2[:n_wct] >= pred[:n_wct] - 1e-12)
    assert np.mean(pred2[:n_wct] > pred[:n_wct] + 1e-9) > 0.5


def test_proxy_locality_masks(proxy, proxy_fields):
    pred = proxy.evaluate_ensemble(proxy_fields)
    for datum in (0, proxy.n_times * 2 + 3, proxy.n_data - 1):
        mask = proxy.sensitivity_mask(datum)
        outside = np.where(~mask)[0]
        poked = proxy_fields.copy()
        poked[outside[::997], :] += 4.0
        pred2 = proxy.evaluate_ensemble(poked)
        assert np.array_equal(pred2[datum], pred[datum])


def test_proxy_fd_sensitivity_inside_mask_only(proxy):
    rng = np.random.default_rng(6)
    m = np.concatenate(
        [
            0.2 + 0.02 * rng.standard_normal(proxy.n_params // 2),
            0.4 * rng.standard_normal(proxy.n_params // 2),
        ]
    )
    base = proxy.evaluate(m)
    datum = 5  # producer P1, time 5
    mask = proxy.sensitivity_mask(datum)
    h = 1e-6
    inside = np.where(mask)[0][::37]
    touched = 0
    for idx in inside:
        e = np.zeros(proxy.n_params)
        e[idx] = h
        fd = (proxy.evaluate(m + e)[datum] - proxy.evaluate(m - e)[datum]) / (2 * h)
        touched += abs(fd) > 0.0
    assert touched > 0
    for idx in np.where(~mask)[0][::1501]:
        e = np.zeros(proxy.n_params)
        e[idx] = h
        assert proxy.evaluate(m + e)[datum] == proxy.evaluate(m - e)[datum]


def test_proxy_uniform_fields_closed_form():
    """Hand evaluation of the documented breakthrough formula."""
    proxy = md.GridFlowProxy(nx=20, ny=20, n_layers=1, prod_grid=2, n_times=6)
    half = proxy.n_params // 2
    m = np.concatenate([np.full(half, 0.2), np.zeros(half)])
    pred = proxy.evaluate(m)
    # with unit permeability the harmonic mean is 1, so t_bt = t_ref * L * 0.2
    lengths = {}
    for _, ip, cells in proxy._pairs:
        lengths.setdefault(ip, []).append(len(cells))
    for ip, lens in lengths.items():
        expected = np.mean(
            [
                1.0 / (1.0 + math.exp(-(1.0 - proxy.t_ref * L * 0.2) / proxy.ramp_width))
                for L in lens
            ]
        )
        datum = [
            j
            for j, mt in enumerate(proxy.datum_meta)
            if mt.source == f"P{ip + 1}" and mt.time == 0
        ][0]
        assert pred[datum] == pytest.approx(expected, rel=1e-12)


def test_grf_determinism_and_moments():
    prior = md.GrfPrior(nx=16, ny=16, range_major=6, range_minor=3, angle_deg=30,
                        mean=0.2, std=0.05)
    a = md.sample_grf(prior, 400, 77)
    b = md.sample_grf(prior, 400, 77)
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (256, 400)
    assert a.coords.shape == (256, 3)
    assert abs(a.values.mean() - 0.2) < 0.01
    assert abs(a.values.std() - 0.05) < 0.01


def test_grf_neighbor_correlation_limits():
    ne = 10_000
    tiny = md.GrfPrior(nx=10, ny=10, range_major=1e-4, range_minor=1e-4)
    e = md.sample_grf(tiny, ne, 5)
    rho = np.corrcoef(e.values[0], e.values[1])[0, 1]
    assert abs(rho) < 3.0 / math.sqrt(ne)

    wide = md.GrfPrior(nx=10, ny=10, kind="gaussian", range_major=60, range_minor=60)
    e = md.sample_grf(wide, ne, 5)
    rho = np.corrcoef(e.values[0], e.values[1])[0, 1]
    assert rho >= 0.9


def test_grf_anisotropy_direction():
    """Correlation decays slower along the major axis."""
    prior = md.GrfPrior(nx=24, ny=24, range_major=12, range_minor=3, angle_deg=0)
    e = md.sample_grf(prior, 6000, 9)
    center = 12 * 24 + 12
    along = np.corrcoef(e.values[center], e.values[center + 6])[0, 1]  # +6 in i
    across = np.corrcoef(e.values[center], e.values[center + 6 * 24])[0, 1]  # +6 in j
    assert along > across + 0.2


def test_grf_correlation_matrix_consistency():
    prior = md.GrfPrior(nx=8, ny=8, range_major=4, range_minor=2, angle_deg=45)
    corr = md.grf_correlation(prior)
    assert corr.shape == (64, 64)
    assert np.allclose(np.diag(corr), 1.0)
    assert np.allclose(corr, corr.T)
    e = md.sample_grf(prior, 40_000, 123)
    emp = np.corrcoef(e.values)
    assert np.max(np.abs(emp - corr)) < 0.05


def test_grf_correlation_equals_pairwise_oracle():
    priors = (
        md.GrfPrior(nx=8, ny=8, range_major=4, range_minor=2, angle_deg=45),
        md.GrfPrior(nx=13, ny=7, kind="gaussian", range_major=5, range_minor=2,
                    angle_deg=30),
        md.GrfPrior(nx=10, ny=10, kind="gaussian", range_major=60, range_minor=60),
        md.GrfPrior(nx=60, ny=60, range_major=30, range_minor=15, angle_deg=45),
        md.GrfPrior(nx=1, ny=9, range_major=4, range_minor=2),
        md.GrfPrior(nx=9, ny=1, range_major=4, range_minor=2),
    )
    for prior in priors:
        corr = md.grf_correlation(prior)
        assert np.array_equal(corr, pairwise_grf_correlation(prior))
        assert corr.flags.c_contiguous and corr.flags.writeable


def test_grf_correlation_memory():
    """60 x 60 cells: the matrix itself is the only n x n allocation."""
    n = 3600
    tracemalloc.start()
    try:
        md.grf_correlation(md.GrfPrior(nx=60, ny=60))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


def test_grid_forward_allocates_no_field_sized_array():
    """exp runs on each corridor's rows only, so evaluating a 4-layer grid
    allocates nothing the size of the log-permeability half."""
    grid = md.GridFlowProxy(nx=30, ny=30, n_layers=4, prod_grid=3, n_times=6)
    ne = 40
    values = 0.2 + 0.1 * np.random.default_rng(3).standard_normal((grid.n_params, ne))
    half = values[grid.n_params // 2 :].nbytes
    tracemalloc.start()
    try:
        out = grid.evaluate_ensemble(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < half / 2, (peak, half)
    assert np.array_equal(out[:, 7], grid.evaluate(values[:, 7]))


def test_evaluate_members_never_returns_a_view_of_its_input():
    class Identity(md.LinearModel):
        def evaluate_ensemble(self, values):
            return values

    values = np.arange(12.0).reshape(3, 4)
    out = md.evaluate_members(Identity(np.eye(3)), values)
    assert np.array_equal(out, values) and not np.may_share_memory(out, values)


def _dense(panels) -> np.ndarray:
    """The n x n lower factor that a factor's block-row panels hold."""
    nx = panels[0].shape[0]
    low = np.zeros((nx * len(panels), nx * len(panels)))
    for k, panel in enumerate(panels):
        low[k * nx : (k + 1) * nx, : panel.shape[1]] = panel
    return low


def _packed(low: np.ndarray, nx: int) -> tuple:
    """A dense lower factor's block-row panels, on a zeroed buffer."""
    n = low.shape[0]
    panels = md._panels(np.zeros(n * (n + nx) // 2), nx, n // nx)
    for k, panel in enumerate(panels):
        panel[:] = low[k * nx : (k + 1) * nx, : panel.shape[1]]
    return panels


def test_grf_factor_cache():
    md._correlation_factor.cache_clear()
    poro = md.GrfPrior(nx=9, ny=9, mean=0.2, std=0.05)
    logk = md.GrfPrior(nx=9, ny=9, mean=0.0, std=0.7)
    md.sample_grf(poro, 3, 1)
    md.sample_grf(logk, 3, 2)
    info = md._correlation_factor.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    factor = md._correlation_factor(md.GrfPrior(nx=9, ny=9))
    assert not any(panel.flags.writeable for panel in factor)
    for nx in (10, 11, 12):
        md.sample_grf(md.GrfPrior(nx=nx, ny=9), 3, 1)
    assert md._correlation_factor.cache_info().currsize <= 2


def test_grf_factor_built_in_place():
    """The Schur factor is written straight into its block-row panels, one
    buffer of n (n + nx) / 2 values, and no n x n array exists on that path.

    The panels sit on an anonymous mapping, which tracemalloc does not see,
    so the traced peak, the Schur steps' temporaries (about 0.10 of an
    n x n array), stays below 0.15 of one: no array the size of the
    triangle is on the heap. test_grf_factor_resident_memory measures what
    becomes resident. The dense path's factor is packed the same way.
    """
    md._correlation_factor.cache_clear()
    n = 3600
    tracemalloc.start()
    try:
        md._correlation_factor(md.GrfPrior(nx=60, ny=60, range_major=30, range_minor=15,
                                           angle_deg=45))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.15 * n * n * 8, peak
    prior = md.GrfPrior(nx=20, ny=15, kind="gaussian", range_major=6, range_minor=3,
                        angle_deg=-20)
    panels = md._correlation_factor(prior)
    assert [panel.shape for panel in panels] == [(20, 20 * (k + 1)) for k in range(15)]
    for panel, after in zip(panels, panels[1:]):  # one buffer, panel after panel
        assert panel.ctypes.data + panel.nbytes == after.ctypes.data
    assert all(panel.flags.c_contiguous and not panel.flags.writeable for panel in panels)
    factor = _dense(panels)
    assert np.array_equal(factor, np.tril(factor)) and np.all(np.diag(factor) > 0.0)
    corr = md.grf_correlation(prior)
    np.fill_diagonal(corr, 1.0 + 1e-10)
    assert np.max(np.abs(factor @ factor.T - corr)) < 1e-13
    md._correlation_factor.cache_clear()


# exponential and Gaussian kernels, anisotropic, non-square and one cell wide
_FACTOR_PRIORS = (
    md.GrfPrior(nx=8, ny=8, range_major=4, range_minor=2, angle_deg=45),
    md.GrfPrior(nx=13, ny=7, kind="gaussian", range_major=5, range_minor=2, angle_deg=30),
    md.GrfPrior(nx=7, ny=16, range_major=9, range_minor=3, angle_deg=-60),
    md.GrfPrior(nx=20, ny=15, kind="gaussian", range_major=6, range_minor=3, angle_deg=-20),
    md.GrfPrior(nx=1, ny=30, range_major=6, range_minor=6),
    md.GrfPrior(nx=30, ny=1, kind="gaussian", range_major=4, range_minor=4),
    md.GrfPrior(nx=60, ny=60, range_major=30, range_minor=15, angle_deg=45),
)
# nearly singular Gaussian kernels (smallest eigenvalues 1.0e-10 and 1.3e-7)
# whose Schur residuals, 1.7e-14 and 1.4e-14, are within bound, but whose
# ||C^-1|| magnifies them past _SCHUR_ERROR
_NEARLY_SINGULAR = (
    md.GrfPrior(nx=30, ny=30, kind="gaussian", range_major=20, range_minor=10),
    md.GrfPrior(nx=20, ny=15, kind="gaussian", range_major=6, range_minor=3, angle_deg=45),
)
# the geometries whose block Schur factor fails its check; the first has a
# Schur residual of 9.3e-13
_DENSE_PATH = {_FACTOR_PRIORS[3], *_NEARLY_SINGULAR}


def _shipped_grid_geometries() -> list:
    """The two field geometries of configs/grid_proxy.json."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "grid_proxy.json")
                     .read_text())
    keys = ("kind", "range_major", "range_minor", "angle_deg")
    return [md.GrfPrior(nx=cfg["model"]["nx"], ny=cfg["model"]["ny"],
                        **{k: field[k] for k in keys if k in field})
            for field in cfg["prior"].values()]


# each geometry once: the shipped grid's equals the last of _FACTOR_PRIORS
_PATH_PRIORS = tuple(dict.fromkeys(
    _FACTOR_PRIORS + _NEARLY_SINGULAR + tuple(_shipped_grid_geometries())))


@pytest.fixture
def dense_path(monkeypatch):
    """Every block Schur factor fails its check, after writing its panels,
    so each rung of the jitter ladder fills the triangle and factors it
    densely."""
    schur = md._schur_factor

    def failing(panels, windows, jitter):
        schur(panels, windows, jitter)
        return math.inf, 1.0

    monkeypatch.setattr(md, "_schur_factor", failing)


def _count_dpotrf(monkeypatch) -> list:
    calls = []
    dpotrf = scipy.linalg.lapack.dpotrf

    def counted(a, **kwargs):
        calls.append(a.shape)
        return dpotrf(a, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", counted)
    return calls


def _smallest_eigenvalue(factor: np.ndarray) -> float:
    """lambda_min(L L^T) by 20 steps of inverse iteration on the factor; the
    estimate x^T x / x^T (L L^T)^-1 x is never below lambda_min."""
    x = np.random.default_rng(0).standard_normal(factor.shape[0])
    for _ in range(20):
        y = scipy.linalg.solve_triangular(factor, x, lower=True, check_finite=False)
        estimate = (x @ x) / (y @ y)
        x = scipy.linalg.solve_triangular(factor, y, lower=True, trans="T", check_finite=False)
        x /= np.linalg.norm(x)
    return estimate


def _factor_residuals(schur, dense, prior, slab=360):
    """max |L_s L_s^T - C| and ||L_s L_s^T - L_d L_d^T||_F, C the pairwise
    correlation matrix with diagonal 1 + 1e-10, a slab of rows at a time."""
    n = prior.nx * prior.ny
    corr = pairwise_grf_correlation(prior)
    np.fill_diagonal(corr, 1.0 + 1e-10)
    residual, squares = 0.0, 0.0
    for lo in range(0, n, slab):
        rows = slice(lo, lo + slab)
        gram = schur[rows] @ schur.T
        gram_dense = dense[rows] @ dense.T
        residual = max(residual, float(np.max(np.abs(gram - corr[rows]))))
        gram -= gram_dense
        squares += float(np.sum(gram * gram))
    return residual, math.sqrt(squares)


@pytest.mark.parametrize("prior", _PATH_PRIORS, ids=lambda p: f"{p.kind}-{p.nx}x{p.ny}")
def test_grf_factor_within_derived_tolerance_of_dense_oracle(prior, monkeypatch):
    """Every geometry but the ill-conditioned Gaussian ones of _DENSE_PATH
    takes the block Schur factor: no dpotrf call, a residual within
    _SCHUR_RESIDUAL over the whole matrix and at most twice the checked
    one, and within a derived tolerance of the dense oracle. _DENSE_PATH's
    factors fail the check and are the oracle's, bit for bit.

    The tolerance. The oracle L_d is the exact factor of A = L_d L_d^T, and
    the Schur factor L_s that of A + dA, dA = L_s L_s^T - A. To first order
    L_s - L_d = L_d Phi(L_d^-1 dA L_d^-T), Phi keeping the lower triangle
    and half the diagonal (Sun 1991; Higham 2002, Sec. 10.1.1), so entry
    (i, j) is at most ||L_d[i]|| ||L_d^-1||^2 ||dA||_F
    = sqrt(A_ii) ||dA||_F / lambda_min(A). While ||dA||_F / lambda_min(A)
    is at most 1/2 (asserted) the higher-order terms add at most as much
    again, so the tolerance is twice that, with lambda_min halved from its
    inverse-iteration estimate, which lies above it.
    """
    md._correlation_factor.cache_clear()
    oracle = dense_correlation_factor(prior)
    calls, checked, schur = _count_dpotrf(monkeypatch), [], md._schur_factor

    def recorded(panels, windows, jitter):
        checked.append(schur(panels, windows, jitter))
        return checked[-1]

    monkeypatch.setattr(md, "_schur_factor", recorded)
    panels = md._correlation_factor(prior)
    md._correlation_factor.cache_clear()
    factor = _dense(panels)
    (checked_residual, inverse_norm), = checked
    if prior in _DENSE_PATH:
        assert len(calls) == 1
        assert not (checked_residual <= md._SCHUR_RESIDUAL
                    and checked_residual * inverse_norm <= md._SCHUR_ERROR)
        assert np.array_equal(factor, oracle)
        return
    assert not calls
    assert not any(panel.flags.writeable for panel in panels)
    assert np.array_equal(factor, np.tril(factor)) and np.all(np.diag(factor) > 0.0)
    residual, gap = _factor_residuals(factor, oracle, prior)
    assert residual <= md._SCHUR_RESIDUAL, residual
    # the check's entries stand for the whole matrix (up to rounding in the
    # last unit at the smallest residuals)
    assert residual <= 2.0 * checked_residual + 1e-15, (residual, checked_residual)
    lam = _smallest_eigenvalue(oracle) / 2.0
    assert gap / lam <= 0.5 and inverse_norm <= 1.0 / lam
    tol = 2.0 * math.sqrt(1.0 + 1e-10) * gap / lam
    assert np.max(np.abs(factor - oracle)) <= tol, (np.max(np.abs(factor - oracle)), tol)


def _passing_schur_factor():
    """A 6 x 5 grid's block Schur factor, which passes its check, as a dense
    array, with its lag table; row 14 is a middle row. It is written into
    panels on a plain zeroed buffer."""
    windows = md._lag_windows(md.GrfPrior(nx=6, ny=5, range_major=4, range_minor=2,
                                          angle_deg=30))
    panels = md._panels(np.zeros(30 * 36 // 2), 6, 5)
    residual, _ = md._schur_factor(panels, windows, 1e-10)
    assert residual == md._schur_residual(panels, windows, 1e-10) <= md._SCHUR_RESIDUAL
    return _dense(panels), windows


def test_schur_check_last_block_column_sees_a_sign_flip_that_keeps_the_row_norms():
    """A middle row's off-diagonal part with its sign flipped keeps every
    row norm bit for bit, so only the last block column fails the check."""
    low, windows = _passing_schur_factor()
    bad = low.copy()
    bad[14, :14] *= -1.0
    assert np.array_equal(np.einsum("ij,ij->i", bad, bad), np.einsum("ij,ij->i", low, low))
    assert md._schur_residual(_packed(bad, 6), windows, 1e-10) > 1e3 * md._SCHUR_RESIDUAL


def test_schur_check_row_norms_see_a_change_that_keeps_the_last_block_column():
    """A change to a middle row orthogonal to the last block row's rows
    keeps the last block column L L[-nx:]^T to rounding, so only the row
    norms fail the check."""
    low, windows = _passing_schur_factor()
    last = low[-6:, :15].T  # the last block row's rows, over row 14's columns
    x = np.random.default_rng(3).standard_normal(15)
    v = x - last @ np.linalg.lstsq(last, x, rcond=None)[0]
    bad = low.copy()
    bad[14, :15] += 1e-6 * v / np.linalg.norm(v)
    assert np.max(np.abs(bad @ bad[-6:].T - low @ low[-6:].T)) <= 1e-16
    assert md._schur_residual(_packed(bad, 6), windows, 1e-10) > 1e3 * md._SCHUR_RESIDUAL


@pytest.mark.parametrize("failure", ["check", "nan", "step"])
def test_grf_factor_failed_schur_gives_dense_factor(failure, monkeypatch):
    """A Schur factor past its residual bound, one whose residual is NaN, or
    one whose step raises LinAlgError part way gives way to the dense factor
    at the same jitter, bit for bit: the dense path's panels are copied
    whole over what Schur wrote."""
    prior = _FACTOR_PRIORS[2]
    oracle = dense_correlation_factor(prior)
    schur, cholesky, steps = md._schur_factor, scipy.linalg.cholesky, []

    def nan_residual(panels, windows, jitter):
        schur(panels, windows, jitter)
        return math.nan, 1.0

    def fail_fifth(a, **kwargs):
        steps.append(a.shape)
        if len(steps) == 5:  # U, then R and Q of steps 1 and 2: step 2's Q
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(a, **kwargs)

    if failure == "check":
        monkeypatch.setattr(md, "_SCHUR_RESIDUAL", -1.0)
    elif failure == "nan":
        monkeypatch.setattr(md, "_schur_factor", nan_residual)
    else:
        monkeypatch.setattr(scipy.linalg, "cholesky", fail_fifth)
    calls = _count_dpotrf(monkeypatch)
    md._correlation_factor.cache_clear()
    factor = _dense(md._correlation_factor(prior))
    md._correlation_factor.cache_clear()
    assert len(calls) == 1
    assert np.array_equal(factor, oracle)
    assert len(steps) == (5 if failure == "step" else 0)


@pytest.mark.parametrize("prior", _FACTOR_PRIORS, ids=lambda p: f"{p.kind}-{p.nx}x{p.ny}")
def test_grf_factor_equals_dense_oracle(prior, dense_path):
    """On the dense path, the triangle built from the lag table factors to
    the bits of the full matrix's Cholesky factor, and the draws are that
    factor times their normals."""
    md._correlation_factor.cache_clear()
    oracle = dense_correlation_factor(prior)
    assert np.array_equal(_dense(md._correlation_factor(prior)), oracle)
    z = np.random.default_rng(5).standard_normal((prior.nx * prior.ny, 3))
    assert np.allclose(md.sample_grf(prior, 3, 5).values, oracle @ z, rtol=0.0, atol=1e-12)
    md._correlation_factor.cache_clear()


def test_grf_factor_jitter_ladder(monkeypatch, dense_path):
    """On the dense path, a failed factorization is retried with the next
    jitter on a refilled triangle; three failures raise; a copying dpotrf is
    refused."""
    prior = _FACTOR_PRIORS[1]
    dpotrf = scipy.linalg.lapack.dpotrf
    calls = []

    def fail_first(a, **kwargs):
        calls.append(kwargs)
        if len(calls) == 1:
            a[np.triu_indices(a.shape[0])] = np.nan  # a partial factor, then failure
            return a, 1
        return dpotrf(a, **kwargs)

    md._correlation_factor.cache_clear()
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", fail_first)
    factor = _dense(md._correlation_factor(prior))
    assert len(calls) == 2
    assert np.array_equal(factor, dense_correlation_factor(prior, jitter=1e-8))

    def always_fail(a, **kwargs):
        calls.append(kwargs)
        return a, 1

    calls.clear()
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", always_fail)
    md._correlation_factor.cache_clear()
    with pytest.raises(FieldGenerationError, match="not positive definite"):
        md._correlation_factor(prior)
    assert len(calls) == 3

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda a, **kwargs: (a.copy(), 0))
    with pytest.raises(RuntimeError, match="in place"):
        md._correlation_factor(prior)
    md._correlation_factor.cache_clear()


def _thp_always() -> bool:
    path = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    return path.exists() and "[always]" in path.read_text()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmRSS from /proc")
@pytest.mark.skipif(_thp_always(), reason="huge pages make every touched 2 MB resident")
def test_grf_factor_resident_memory():
    """The 60 x 60 factor is stored as its packed block-row panels, 0.51 of
    one n x n array, and the Schur path builds no n x n array: it grows the
    resident set by under 0.62 of one, where the lower triangle of an n x n
    mapping grew it by about 0.71 and a full matrix by about 1.1. The BLAS
    runs on one thread, so the count of its per-thread buffers does not
    depend on the CPU count."""
    n = 3600
    code = (
        "from enloc import models as md\n"
        "def rss():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(x.split()[1]) for x in f if x.startswith('VmRSS:')) * 1024\n"
        "before = rss()\n"
        "md._correlation_factor(md.GrfPrior(nx=60, ny=60))\n"
        "print(rss() - before)\n"
    )
    src = str(Path(md.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300,
                         capture_output=True, text=True)
    growth = int(out.stdout)
    assert growth < 0.62 * n * n * 8, growth


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
@pytest.mark.skipif(_thp_always(), reason="huge pages make every touched 2 MB resident")
def test_grf_dense_factor_peak_memory():
    """On the dense path the 60 x 60 triangle is factored on an n x n
    mapping, then copied into the panels a panel at a time, and each copied
    range of the mapping's rows goes back to the system at once. So the
    resident set peaks at most one panel (nx n values) above the 0.80 of an
    n x n array that the lower triangle of the mapping, refilled and
    factored in place and kept to the end, reached; keeping the mapping
    whole while the panels are filled would add half an n x n array."""
    n, panel = 3600, 60 * 3600 * 8
    code = (
        "from enloc import models as md\n"
        "def status(key):\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(x.split()[1]) for x in f if x.startswith(key + ':')) * 1024\n"
        "md._SCHUR_RESIDUAL = -1.0  # every Schur factor fails its check\n"
        "before = status('VmRSS')\n"
        "md._correlation_factor(md.GrfPrior(nx=60, ny=60))\n"
        "print(status('VmHWM') - before)\n"
    )
    src = str(Path(md.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300,
                         capture_output=True, text=True)
    peak = int(out.stdout)
    assert peak <= 0.80 * n * n * 8 + panel, peak


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmRSS from /proc")
@pytest.mark.skipif(_thp_always(), reason="huge pages make every touched 2 MB resident")
def test_grf_draw_returns_its_normals_to_the_system():
    """An 8-layer draw's normals, 8 x 3,600 x 100 values (23 MB), sit on an
    anonymous mapping, so none of their pages stay resident once the draw
    is deleted. On the heap they would: freeing the first draw's normals
    raises glibc's mmap threshold past their size, so the next draw's come
    from the heap, which keeps their pages. The first draw also caches the
    factor, and each draw writes into the caller's rows, resident before."""
    layer = 3600 * 100 * 8
    code = (
        "import numpy as np\n"
        "from enloc import models as md\n"
        "def rss():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(x.split()[1]) for x in f if x.startswith('VmRSS:')) * 1024\n"
        "prior, seeds, count = md.GrfPrior(nx=60, ny=60), list(range(8)), 100\n"
        "out = np.zeros((8 * 3600, count))\n"
        "draw = md.sample_grf(prior, count, seeds, labels=False, out=out)\n"
        "del draw\n"
        "before = rss()\n"
        "draw = md.sample_grf(prior, count, seeds, labels=False, out=out)\n"
        "del draw\n"
        "print(rss() - before)\n"
    )
    src = str(Path(md.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300,
                         capture_output=True, text=True)
    growth = int(out.stdout)
    assert growth < 2 * layer, growth  # a quarter of the normals


def test_grf_draw_holds_no_layer_of_normals_on_the_heap():
    """With the factor cached, a draw into the caller's rows allocates less
    than one layer's normals (3,600 x 100 values, 2.9 MB): each layer is
    drawn whole into the normals' mapping, which tracemalloc does not see,
    and each product is written straight into the caller's rows. Block row
    j of layer k is the factor's panel j times standard_normal((cells,
    count)) of seed k, up to that block row, bit for bit, with numpy's BLAS
    on one thread."""
    prior, seeds, count = md.GrfPrior(nx=60, ny=60), [3, 4], 100
    n = prior.nx * prior.ny
    out = np.empty((len(seeds) * n, count))
    md.sample_grf(prior, count, seeds, labels=False, out=out)  # caches the factor
    panels = md._correlation_factor(prior)
    for layer, s in zip(out.reshape(len(seeds), n, count), seeds):
        z = np.random.default_rng(s).standard_normal((n, count))
        with md._one_blas_thread():  # as the draw's products run
            want = np.vstack([panel @ z[: panel.shape[1]] for panel in panels])
        assert np.array_equal(layer, want)
    tracemalloc.start()
    try:
        md.sample_grf(prior, count, seeds, labels=False, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * count * 8, peak


def _python(code: str, blas_threads: str | None) -> str:
    """Run code in a fresh interpreter on this checkout's enloc, with
    OPENBLAS_NUM_THREADS (and OpenMP's and MKL's counts) set to blas_threads
    or unset; return its output."""
    src = str(Path(md.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
        if blas_threads is not None:
            env[var] = blas_threads
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("blas_threads", [None, "1"])
def test_grf_stacked_draw_equals_its_layer_draws_at_every_width(blas_threads):
    """Each layer's block rows are products of their own, so a stacked draw
    on 60 x 60 cells equals its one-layer draws bit for bit however many
    columns the layers make together: 300 at 3 x 100 and at 2 x 150, where
    one product over all layers rounds the trailing columns apart. Checked
    with OPENBLAS_NUM_THREADS unset and set to 1, as the benchmark runs."""
    code = (
        "import numpy as np\n"
        "from enloc import models as md\n"
        "prior = md.GrfPrior(nx=60, ny=60, range_major=30, range_minor=15, angle_deg=45)\n"
        "for n_layers, count in ((3, 100), (2, 150)):\n"
        "    seeds = [11 + 7 * k for k in range(n_layers)]\n"
        "    stacked = md.sample_grf(prior, count, seeds, labels=False).values\n"
        "    layers = [md.sample_grf(prior, count, s, labels=False).values for s in seeds]\n"
        "    print(n_layers, count, np.array_equal(stacked, np.vstack(layers)))\n"
    )
    assert _python(code, blas_threads).split("\n")[:2] == ["3 100 True", "2 150 True"]


def test_grf_draw_equal_for_any_helper_count(monkeypatch):
    """The panels are spread over enloc's threads, each product on one
    thread, so the draw's bits do not depend on how many there are."""
    prior = md.GrfPrior(nx=60, ny=60)
    draws = []
    for helpers in (0, 3):
        monkeypatch.setattr(ens_mod, "_helper_count", lambda helpers=helpers: helpers)
        draws.append(md.sample_grf(prior, 20, [5, 6], labels=False).values)
    assert np.array_equal(*draws)


def test_grf_draw_equal_for_any_blas_thread_count():
    """numpy's BLAS runs on one thread during the draw, so an 8-layer
    60 x 60 draw with OPENBLAS_NUM_THREADS unset, where OpenBLAS takes a
    thread per CPU, has the bits of one with it set to 1."""
    code = (
        "import hashlib\n"
        "from enloc import models as md\n"
        "draw = md.sample_grf(md.GrfPrior(nx=60, ny=60), 100, list(range(8)), labels=False)\n"
        "print(hashlib.sha256(draw.values.tobytes()).hexdigest())\n"
    )
    assert _python(code, None) == _python(code, "1")


def test_grf_factor_is_zero_above_the_diagonal_on_a_dirty_heap(monkeypatch):
    """The panels' buffer is zero-filled, so the diagonal blocks' upper
    triangles, which the Schur steps never write, read zero even where
    freed memory held NaN: the Schur factor passes its check, and no dense
    factorization runs."""
    prior = md.GrfPrior(nx=6, ny=5, range_major=4, range_minor=2, angle_deg=30)
    calls = _count_dpotrf(monkeypatch)
    md._correlation_factor.cache_clear()
    junk = [np.full(30 * 36 // 2, np.nan) for _ in range(16)]
    del junk
    factor = _dense(md._correlation_factor(prior))
    md._correlation_factor.cache_clear()
    assert not calls
    assert np.array_equal(factor, np.tril(factor))


def test_grid_prior_composition():
    proxy = md.GridFlowProxy(nx=20, ny=20, n_layers=3, prod_grid=2, n_times=4)
    poro = md.GrfPrior(nx=20, ny=20, mean=0.2, std=0.05)
    logk = md.GrfPrior(nx=20, ny=20, mean=0.0, std=0.5)
    ens = md.sample_grid_prior(proxy, poro, logk, 12, 31)
    assert ens.values.shape == (proxy.n_params, 12)
    assert ens.coords.shape == (proxy.n_params, 3)
    half = proxy.n_params // 2
    assert abs(ens.values[:half].mean() - 0.2) < 0.02
    assert abs(ens.values[half:].mean()) < 0.2
    # independent layers: correlation across layers is weak
    c = np.corrcoef(ens.values[0], ens.values[400])
    assert abs(c[0, 1]) < 0.9
    again = md.sample_grid_prior(proxy, poro, logk, 12, 31)
    assert np.array_equal(ens.values, again.values)


# Two geometries, so both factor cache entries are in use.
_POROSITY = md.GrfPrior(nx=30, ny=30, range_major=12, range_minor=6, angle_deg=30,
                        mean=0.2, std=0.05)
_LOG_PERM = md.GrfPrior(nx=30, ny=30, kind="gaussian", range_major=8, range_minor=8,
                        mean=0.0, std=0.7)


@pytest.mark.parametrize("count", [2, 12])
@pytest.mark.parametrize("n_layers", [1, 3])
def test_grf_seed_sequence_stacks_layer_draws(n_layers, count):
    md._correlation_factor.cache_clear()
    seeds = [11 + 7 * k for k in range(n_layers)]
    for prior in (_POROSITY, _LOG_PERM):
        ens = md.sample_grf(prior, count, seeds)
        layers = [md.sample_grf(prior, count, s) for s in seeds]
        assert np.array_equal(ens.values, np.vstack([e.values for e in layers]))
        assert ens.names[:2] == ["c_0_0_0", "c_1_0_0"]
        assert ens.names[-1] == f"c_29_29_{n_layers - 1}"
        assert np.array_equal(ens.coords[:, :2], np.vstack([e.coords[:, :2] for e in layers]))
        assert np.array_equal(ens.coords[:, 2], np.repeat(np.arange(n_layers), 900))
        bare = md.sample_grf(prior, count, seeds, labels=False)
        assert np.array_equal(bare.values, ens.values)
        assert bare.names is None and bare.coords is None
    assert md._correlation_factor.cache_info().currsize == 2


@pytest.mark.parametrize("count", [2, 12])
@pytest.mark.parametrize("n_layers", [1, 3])
def test_grid_prior_equals_per_layer_oracle(n_layers, count):
    proxy = md.GridFlowProxy(nx=30, ny=30, n_layers=n_layers, prod_grid=2, n_times=4)
    ens = md.sample_grid_prior(proxy, _POROSITY, _LOG_PERM, count, 31)
    oracle = per_layer_grid_prior(proxy, _POROSITY, _LOG_PERM, count, 31)
    assert np.array_equal(ens.values, oracle)


def test_grid_prior_draws_without_full_size_copies():
    """Each field's draw is written straight into its rows of the ensemble,
    a block row at a time, and its normals sit on an anonymous mapping:
    besides the result, the heap holds less than half a layer's values."""
    proxy = md.GridFlowProxy(nx=30, ny=30, n_layers=4, prod_grid=2, n_times=4)
    count = 40
    md.sample_grid_prior(proxy, _POROSITY, _LOG_PERM, count, 31)  # both factors cached
    tracemalloc.start()
    try:
        ens = md.sample_grid_prior(proxy, _POROSITY, _LOG_PERM, count, 31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layer = 30 * 30 * count * 8
    assert peak <= ens.values.nbytes + layer // 2, peak


def test_grf_seed_sequence_rounding():
    """On a grid under 20 x 20 cells too, layers equal their one-layer draws."""
    prior = md.GrfPrior(nx=9, ny=9, range_major=4, range_minor=2)
    ens = md.sample_grf(prior, 3, [1, 2, 3])
    stacked = np.vstack([md.sample_grf(prior, 3, s).values for s in (1, 2, 3)])
    assert np.array_equal(ens.values, stacked)


def test_grf_prior_rejects_non_finite_values():
    for field in ("range_major", "range_minor", "std", "mean", "angle_deg"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                md.GrfPrior(nx=5, ny=5, **{field: value})


def test_grid_labels_built_once():
    proxy = md.GridFlowProxy(nx=10, ny=8, n_layers=2, prod_grid=2, n_times=4)
    names = proxy.param_names
    expected = [
        f"{field}_{i}_{j}_{k}"
        for field in ("poro", "logk")
        for k in range(2)
        for j in range(8)
        for i in range(10)
    ]
    assert names == expected
    names[0] = "edited"
    assert proxy.param_names == expected  # each call hands out a new list
    coords = proxy.coords
    assert coords is proxy.coords and not coords.flags.writeable
    ijk = np.array([(i, j, k) for k in range(2) for j in range(8) for i in range(10)])
    assert np.array_equal(coords, np.vstack([ijk, ijk]))
    ens = md.sample_grid_prior(proxy, md.GrfPrior(nx=10, ny=8), md.GrfPrior(nx=10, ny=8), 3, 1)
    ens.names[0] = "edited"
    assert proxy.param_names == expected


def test_grf_rejects_oversized_grid():
    with pytest.raises(ValueError):
        md.GrfPrior(nx=200, ny=200)
    for nx, ny in ((0, 3), (3, 0), (-1, 3)):
        with pytest.raises(ValueError, match="at least one cell"):
            md.GrfPrior(nx=nx, ny=ny)
