"""Smoother tests: perturbation moments, gain oracles, update semantics."""

import gc
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    correlation_matrix,
    correlation_taper,
    dense_esmda,
    normalized_variance,
    percentile_thresholds,
)

from enloc import cli, metrics
from enloc import smoother as sm
from enloc import tapers as tp
from enloc.ensemble import (
    DatumMeta,
    Ensemble,
    PredictedEnsemble,
    RowBlock,
    correlation_block,
    ensemble_variance_per_row,
    iter_blocks,
)
from enloc.errors import AssimilationError, BlockError, ForwardModelError
from enloc.models import (
    ForwardModel,
    GrfPrior,
    GridFlowProxy,
    LinearModel,
    ScalarToyModel,
    sample_grid_prior,
)
from enloc.significance import PercentileT0, StudentT0


def _obs(nd=1, value=1.0, std=1.0):
    return sm.ObservationSet(
        d_obs=np.full(nd, value), sigma_e=np.full(nd, std)
    )


def test_schedule_consistency():
    sched = sm.MdaSchedule.uniform(4)
    assert sched.alphas == (4.0, 4.0, 4.0, 4.0)
    assert sum(1.0 / a for a in sched.alphas) == pytest.approx(1.0, abs=1e-12)
    sm.MdaSchedule(alphas=(2.0, 4.0, 4.0))  # 1/2 + 1/4 + 1/4 = 1
    with pytest.raises(ValueError):
        sm.MdaSchedule(alphas=(2.0, 3.0))
    with pytest.raises(ValueError):
        sm.MdaSchedule(alphas=())
    for bad in ((float("nan"),), (float("inf"), 1.0)):  # both pass the sum check
        with pytest.raises(ValueError):
            sm.MdaSchedule(alphas=bad)


def test_observation_set_validation():
    with pytest.raises(ValueError):
        sm.ObservationSet(d_obs=np.array([1.0]), sigma_e=np.array([0.0]))
    with pytest.raises(ValueError):
        sm.ObservationSet(d_obs=np.array([np.inf]), sigma_e=np.array([1.0]))
    with pytest.raises(ValueError, match="^there must be at least one observation$"):
        sm.ObservationSet(d_obs=np.array([]), sigma_e=np.array([]))


def test_perturb_determinism_and_moments():
    obs = sm.ObservationSet(d_obs=np.array([2.0, -1.0]), sigma_e=np.array([0.5, 2.0]))
    seed = sm.RunSeed(42)
    a = sm.perturb_observations(obs, 2.0, seed, 1, 100_000)
    b = sm.perturb_observations(obs, 2.0, seed, 1, 100_000)
    assert np.array_equal(a, b)
    # column mean -> d_obs within 3 sigma / sqrt(N)
    for j in range(2):
        tol = 3.0 * np.sqrt(2.0) * obs.sigma_e[j] / np.sqrt(100_000)
        assert abs(a[j].mean() - obs.d_obs[j]) < tol
        # per-datum sample variance -> alpha sigma^2 within 5%
        assert a[j].var(ddof=1) == pytest.approx(2.0 * obs.sigma_e[j] ** 2, rel=0.05)
    # different steps and seeds give different draws
    c = sm.perturb_observations(obs, 2.0, seed, 2, 10)
    d = sm.perturb_observations(obs, 2.0, sm.RunSeed(43), 1, 10)
    assert not np.array_equal(a[:, :10], c)
    assert not np.array_equal(a[:, :10], d)
    # a smaller ensemble draws a prefix of the same step's stream
    assert np.array_equal(sm.perturb_observations(obs, 2.0, seed, 1, 10), a[:, :10])


def test_scalar_gain_oracle():
    """1 parameter, 1 datum, d = m: gain = v / (v + alpha sigma_e^2)."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((1, 5000))
    ens = Ensemble(values=m)
    pred = PredictedEnsemble(values=m.copy())
    obs = _obs(std=1.5)
    for alpha in (1.0, 4.0):
        v = np.var(m, ddof=1)
        gain = sm.kalman_gain_block(ens, RowBlock(0, 1), sm.gain_operator(pred, obs, alpha))
        assert gain[0, 0] == pytest.approx(v / (v + alpha * 1.5**2), rel=1e-12)


def test_zero_cross_covariance_rows_zero_gain():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 400))
    m[1] = 2.0  # constant row has zero cross-covariance with everything
    ens = Ensemble(values=m)
    pred = PredictedEnsemble(values=rng.standard_normal((5, 400)))
    gain = sm.kalman_gain_block(ens, RowBlock(0, 3), sm.gain_operator(pred, _obs(5), 4.0))
    assert np.array_equal(gain[1], np.zeros(5))


def test_blockwise_gain_equals_dense():
    rng = np.random.default_rng(2)
    ens = Ensemble(values=rng.standard_normal((50, 30)))
    pred = PredictedEnsemble(values=rng.standard_normal((20, 30)))
    obs = _obs(20)
    w = sm.gain_operator(pred, obs, 4.0)
    dense = sm.kalman_gain_block(ens, RowBlock(0, 50), w)
    for width in (1, 7, 50):
        got = np.vstack([sm.kalman_gain_block(ens, blk, w) for blk in iter_blocks(50, width)])
        assert np.max(np.abs(got - dense)) < 1e-10


def test_gain_scaling_invariance():
    """Scaling sigma_e by s and alpha by 1/s^2 leaves the gain unchanged."""
    rng = np.random.default_rng(3)
    ens = Ensemble(values=rng.standard_normal((10, 60)))
    pred = PredictedEnsemble(values=rng.standard_normal((4, 60)))
    rows = RowBlock(0, 10)
    base = sm.kalman_gain_block(ens, rows, sm.gain_operator(pred, _obs(4, std=1.0), 4.0))
    # s = 2 is exact in binary floating point
    scaled = sm.kalman_gain_block(ens, rows, sm.gain_operator(pred, _obs(4, std=2.0), 1.0))
    assert np.array_equal(base, scaled)
    scaled3 = sm.kalman_gain_block(
        ens, rows, sm.gain_operator(pred, _obs(4, std=3.0), 4.0 / 9.0)
    )
    assert np.allclose(base, scaled3, rtol=1e-12)


class _GivenField(sm.TaperField):
    """A run's taper field over ens and pred whose blocks are given(blk), so a
    test chooses the coefficients; it keeps, checks and tallies blocks as
    every field does."""

    def __init__(self, given, ens, pred, keep_rows=0, block_width=sm.DEFAULT_BLOCK_WIDTH):
        super().__init__(tp.Mse(), ens, pred, block_width=block_width, keep_rows=keep_rows)
        self._given = given

    def block(self, blk):
        return self._given(blk)


def _updated(ens, *args, **kwargs):
    """A copy of ens after localized_update_step updates it in place; ens
    itself is not written."""
    out = Ensemble(ens.values.copy())
    sm.localized_update_step(out, *args, **kwargs)
    return out


def test_update_with_zero_and_unit_taper():
    rng = np.random.default_rng(4)
    ens = Ensemble(values=rng.standard_normal((6, 40)))
    model = LinearModel(rng.standard_normal((3, 6)))
    pred = PredictedEnsemble(values=model.evaluate_ensemble(ens.values))
    obs = _obs(3)
    pert = sm.perturb_observations(obs, 4.0, sm.RunSeed(9), 1, 40)

    zero = _GivenField(lambda blk: np.zeros((blk.width, 3)), ens, pred)
    unchanged = _updated(ens, pred, obs, 4.0, zero, pert)
    assert np.array_equal(unchanged.values, ens.values)

    ones = _GivenField(lambda blk: np.ones((blk.width, 3)), ens, pred)
    full = _updated(ens, pred, obs, 4.0, ones, pert)
    gain = sm.kalman_gain_block(ens, RowBlock(0, 6), sm.gain_operator(pred, obs, 4.0))
    expected = ens.values + gain @ (pert - pred.values)
    assert np.allclose(full.values, expected, atol=1e-12)
    unlocalized = _updated(ens, pred, obs, 4.0, None, pert)
    assert np.allclose(unlocalized.values, expected, atol=1e-12)

    for value in (1.5, np.nan):  # the failure names the block
        bad = _GivenField(lambda blk: np.full((blk.width, 3), value), ens, pred)
        with pytest.raises(BlockError, match=r"^rows 0:6: taper values outside \[0, 1\]$") as err:
            _updated(ens, pred, obs, 4.0, bad, pert)
        assert err.value.rows == slice(0, 6)


def test_update_block_schedule_independence():
    rng = np.random.default_rng(5)
    ens = Ensemble(values=rng.standard_normal((37, 25)))
    model = LinearModel(rng.standard_normal((8, 37)))
    pred = PredictedEnsemble(values=model.evaluate_ensemble(ens.values))
    obs = _obs(8)
    pert = sm.perturb_observations(obs, 2.0, sm.RunSeed(5), 1, 25)
    taper = _GivenField(lambda blk: np.full((blk.width, 8), 0.6), ens, pred)
    results = [
        _updated(ens, pred, obs, 2.0, taper, pert, block_width=w)
        for w in (1, 5, 16, 37)
    ]
    for other in results[1:]:
        assert np.allclose(results[0].values, other.values, atol=1e-12)


def test_update_memory_stays_blockwise():
    """Neither path holds an Nm x Nd array (64 MB at these shapes)."""
    rng = np.random.default_rng(10)
    nm, nd, ne = 20_000, 400, 20
    ens = Ensemble(values=rng.standard_normal((nm, ne)))
    pred = PredictedEnsemble(values=rng.standard_normal((nd, ne)))
    obs = _obs(nd)
    pert = sm.perturb_observations(obs, 4.0, sm.RunSeed(3), 1, ne)
    field = sm.TaperField(tp.Mse(), ens, pred)
    for taper in (None, field):
        tracemalloc.start()
        try:
            sm.localized_update_step(ens, pred, obs, 4.0, taper, pert, block_width=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("tapered", [False, True])
def test_update_in_place_allocates_no_ensemble(monkeypatch, tapered):
    """The update writes over its input, block by block, the values a
    copying update gives, and allocates no Nm x Ne array."""
    monkeypatch.setattr(sm, "_helper_count", lambda: 1)
    rng = np.random.default_rng(14)
    nm, nd, ne = 20_000, 40, 30
    ens = Ensemble(values=rng.standard_normal((nm, ne)))
    pred = PredictedEnsemble(values=rng.standard_normal((nd, ne)))
    obs = _obs(nd)
    pert = sm.perturb_observations(obs, 4.0, sm.RunSeed(3), 1, ne)
    half = lambda blk: np.full((blk.width, nd), 0.5)
    taper = _GivenField(half, ens, pred) if tapered else None
    before = Ensemble(ens.values.copy())
    operator = sm.gain_operator(pred, obs, 4.0)
    copied = np.empty_like(before.values)
    for blk in iter_blocks(nm, sm.DEFAULT_BLOCK_WIDTH):
        gain = sm.kalman_gain_block(before, blk, operator)
        if tapered:
            gain *= half(blk)
        copied[blk.slice()] = before.values[blk.slice()] + gain @ (pert - pred.values)
    tracemalloc.start()
    try:
        var = sm.localized_update_step(ens, pred, obs, 4.0, taper, pert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(var, ensemble_variance_per_row(before))
    assert np.array_equal(ens.values, copied)
    assert peak < ens.values.nbytes, peak


@pytest.mark.parametrize("helpers", [0, 1])
def test_update_overflow_names_its_rows(monkeypatch, helpers):
    """Finite rows near 1e307 whose update overflows fail the block that
    holds them, on whichever thread takes it."""
    monkeypatch.setattr(sm, "_helper_count", lambda: helpers)
    rng = np.random.default_rng(15)
    values = rng.standard_normal((16, 10))
    values[8:] = 1e307 * (1.0 + 0.1 * values[8:])
    ens = Ensemble(values)
    pred = PredictedEnsemble(values=rng.standard_normal((3, 10)))
    obs = _obs(3, value=1e10)
    pert = sm.perturb_observations(obs, 4.0, sm.RunSeed(2), 1, 10)
    with pytest.raises(
        BlockError, match=r"^rows 8:16: updated ensemble rows must be finite$"
    ) as err:
        sm.localized_update_step(ens, pred, obs, 4.0, None, pert, block_width=8)
    assert err.value.rows == slice(8, 16)


def test_localization_monotonicity_single_datum():
    """Entrywise larger tapers cannot shrink any update magnitude."""
    rng = np.random.default_rng(6)
    ens = Ensemble(values=rng.standard_normal((30, 50)))
    model = LinearModel(rng.standard_normal((1, 30)))
    pred = PredictedEnsemble(values=model.evaluate_ensemble(ens.values))
    obs = _obs(1)
    pert = sm.perturb_observations(obs, 4.0, sm.RunSeed(7), 1, 50)
    r_b = rng.uniform(0.0, 1.0, size=(30, 1))
    r_a = r_b * rng.uniform(0.0, 1.0, size=(30, 1))
    field_a = _GivenField(lambda blk: r_a[blk.slice()], ens, pred)
    field_b = _GivenField(lambda blk: r_b[blk.slice()], ens, pred)
    upd_a = _updated(ens, pred, obs, 4.0, field_a, pert)
    upd_b = _updated(ens, pred, obs, 4.0, field_b, pert)
    da = np.abs(upd_a.values - ens.values)
    db = np.abs(upd_b.values - ens.values)
    assert np.all(da <= db + 1e-15)


def test_linear_gaussian_posterior():
    """Unlocalized multi-step run matches the analytic Kalman posterior."""
    prior = Ensemble(values=np.random.default_rng(7).standard_normal((1, 50_000)))
    model = LinearModel(np.array([[1.0]]))
    res = sm.run_esmda(
        prior,
        model,
        _obs(),
        sm.MdaSchedule.uniform(4),
        sm.LocalizationPolicy(spec=None),
        sm.RunSeed(99),
    )
    assert res.posterior.values.mean() == pytest.approx(0.5, abs=0.015)
    assert res.posterior.values.var(ddof=1) == pytest.approx(0.5, abs=0.03)
    # single-step schedule agrees too (alpha = 1)
    res1 = sm.run_esmda(
        prior,
        model,
        _obs(),
        sm.MdaSchedule.uniform(1),
        sm.LocalizationPolicy(spec=None),
        sm.RunSeed(100),
    )
    assert res1.posterior.values.mean() == pytest.approx(0.5, abs=0.015)
    assert res1.posterior.values.var(ddof=1) == pytest.approx(0.5, abs=0.03)


def test_run_determinism():
    toy = ScalarToyModel(n_active=4, n_dummy=2, n_series=2, n_times=8, structure_seed=1)
    prior = toy.sample_prior(30, 11)
    obs = sm.ObservationSet(
        d_obs=toy.evaluate(np.zeros(6)) + 0.1, sigma_e=np.full(toy.n_data, 0.1)
    )
    policy = sm.LocalizationPolicy(spec=tp.Logistic(1.5, 2.0))
    kw = dict()
    a = sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(2), policy, sm.RunSeed(21), **kw)
    b = sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(2), policy, sm.RunSeed(21), **kw)
    assert np.array_equal(a.posterior.values, b.posterior.values)
    c = sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(2), policy, sm.RunSeed(22), **kw)
    assert not np.array_equal(a.posterior.values, c.posterior.values)


def test_frozen_tapers_come_from_prior(monkeypatch):
    toy = ScalarToyModel(n_active=4, n_dummy=2, n_series=2, n_times=10, structure_seed=2)
    prior = toy.sample_prior(40, 3)
    obs = sm.ObservationSet(
        d_obs=toy.evaluate(np.zeros(6)) + 0.05, sigma_e=np.full(toy.n_data, 0.1)
    )
    fields = []
    make = sm.make_taper_field

    def capturing(*args, **kwargs):
        fields.append(make(*args, **kwargs))
        return fields[-1]

    monkeypatch.setattr(sm, "make_taper_field", capturing)
    policy = sm.LocalizationPolicy(spec=tp.Logistic(1.5, 2.0))
    res = sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(3), policy, sm.RunSeed(4))
    # one frozen field, and it reproduces tapers computed directly from the prior
    pred0 = PredictedEnsemble(values=toy.evaluate_ensemble(prior.values), meta=toy.datum_meta)
    manual = sm.TaperField(tp.Logistic(1.5, 2.0), prior, pred0)
    blk = RowBlock(0, prior.n_params)
    assert len(fields) == 1
    assert np.array_equal(fields[0].block(blk), manual.block(blk))
    # histogram identical at every step: one field serves every update
    hists = [d.taper_histogram for d in res.diagnostics]
    for h in hists[1:]:
        assert np.array_equal(hists[0], h)


@pytest.fixture
def gc_disabled():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_run_frees_field_prior_and_kept_blocks_without_gc(monkeypatch, gc_disabled):
    """Reference counting alone frees the run's field, its kept blocks and
    the prior when run_esmda returns: nothing of the run forms a cycle."""
    toy, prior, obs = _toy_problem()
    fields, blocks = [], []
    make, rows = sm.make_taper_field, sm.TaperField.rows

    def capturing(*args, **kwargs):
        taper_field = make(*args, **kwargs)
        fields.append(weakref.ref(taper_field))
        return taper_field

    def recording(taper_field, blk):
        r = rows(taper_field, blk)
        if blk.start == 0:
            blocks.append((weakref.ref(r), taper_field.kept(blk)))
        return r

    monkeypatch.setattr(sm, "make_taper_field", capturing)
    monkeypatch.setattr(sm.TaperField, "rows", recording)
    prior_ref = weakref.ref(prior)
    policy = sm.LocalizationPolicy(spec=tp.Logistic(1.5, 2.0))
    res = sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(3), policy, sm.RunSeed(4), 8)
    del prior
    assert res.diagnostics and len(fields) == 1 and len(blocks) == 3  # read at each step
    assert all(kept for _, kept in blocks)
    assert fields[0]() is None
    assert all(block() is None for block, _ in blocks)
    assert prior_ref() is None


@pytest.mark.parametrize("spec", [tp.Mse(), None])
def test_run_leaves_no_cyclic_garbage(monkeypatch, gc_disabled, spec):
    toy, prior, obs = _toy_problem()
    policy = sm.LocalizationPolicy(spec=spec)
    gc.collect()  # what earlier tests left
    saved = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(3), policy, sm.RunSeed(4), 8)
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage[saved:]]
    finally:
        gc.set_debug(0)
        del gc.garbage[saved:]
    assert garbage == []


def _toy_problem():
    toy = ScalarToyModel(n_active=20, n_dummy=4, n_series=2, n_times=8, structure_seed=5)
    obs = sm.ObservationSet(
        d_obs=toy.evaluate(np.zeros(toy.n_params)) + 0.05, sigma_e=np.full(toy.n_data, 0.1)
    )
    return toy, toy.sample_prior(30, 6), obs


def _grid_problem():
    grid = GridFlowProxy(nx=8, ny=8, n_layers=1, prod_grid=2, n_times=4)
    field = GrfPrior(nx=8, ny=8, range_major=4.0, range_minor=2.0)
    prior = sample_grid_prior(grid, field, field, 30, 8)
    truth = sample_grid_prior(grid, field, field, 2, 9).values[:, 0]
    d = grid.evaluate(truth)
    obs = sm.ObservationSet(d_obs=d, sigma_e=np.maximum(0.1 * np.abs(d), 0.01))
    return grid, prior, obs


def _budget_keeping(rows, model, prior):
    """The TAPER_CACHE_BYTES under which a run of prior keeps the float32
    taper blocks that end within its first rows rows: the run adds the
    prior's bytes."""
    return rows * 4 * model.n_data - prior.values.nbytes


def _count_block_reads(monkeypatch):
    """Per-(start, width) counts of TaperField.block calls from now on."""
    calls = {}
    original = sm.TaperField.block

    def counting(field, blk):
        calls[blk.start, blk.width] = calls.get((blk.start, blk.width), 0) + 1
        return original(field, blk)

    monkeypatch.setattr(sm.TaperField, "block", counting)
    return calls


def test_taper_block_evaluated_once_per_field(monkeypatch):
    toy, prior, obs = _toy_problem()  # 24 parameters: blocks of 8, 8 and 8
    calls = _count_block_reads(monkeypatch)
    policy = sm.LocalizationPolicy(spec=tp.Logistic(1.5, 2.0))
    sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(3), policy, sm.RunSeed(4), 8)
    # the one frozen field is built in step 1 and each of its blocks read once
    assert calls == {(0, 8): 1, (8, 8): 1, (16, 8): 1}


def test_taper_blocks_past_the_budget_are_recomputed(monkeypatch):
    toy, prior, obs = _toy_problem()
    n_blocks, steps = 3, 4
    monkeypatch.setattr(sm, "TAPER_CACHE_BYTES", _budget_keeping(8, toy, prior))  # one block
    calls = _count_block_reads(monkeypatch)
    policy = sm.LocalizationPolicy(spec=tp.Mse())
    sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(steps), policy, sm.RunSeed(4), 8)
    # the first update reads every block and tallies the footprint from them;
    # each later update recomputes all but the first
    assert sum(calls.values()) == n_blocks + (steps - 1) * (n_blocks - 1)
    assert calls == {(0, 8): 1, (8, 8): steps, (16, 8): steps}


@pytest.mark.parametrize(
    "problem, policy",
    [
        (_toy_problem, sm.LocalizationPolicy(spec=tp.PowerLaw(3.0, None),
                                             t0_strategy=PercentileT0(0.9))),
        (_grid_problem, sm.LocalizationPolicy(spec=tp.DistanceGC(4.0, 2.0, 30.0))),
    ],
)
def test_kept_taper_blocks_match_recomputed(monkeypatch, problem, policy):
    model, prior, obs = problem()
    tapers = []
    update = sm.localized_update_step

    def recording(*args, **kwargs):
        tapers.append(args[4])
        return update(*args, **kwargs)

    monkeypatch.setattr(sm, "localized_update_step", recording)
    runs = []
    # the whole field kept, then every block recomputed
    for budget in (sm.TAPER_CACHE_BYTES, _budget_keeping(0, model, prior)):
        monkeypatch.setattr(sm, "TAPER_CACHE_BYTES", budget)
        res = sm.run_esmda(prior, model, obs, sm.MdaSchedule.uniform(3), policy,
                           sm.RunSeed(12), 8)
        first = tapers[-1].rows(RowBlock(0, 8))
        runs.append((res, first.flags.writeable))
    (kept, kept_writeable), (fresh, fresh_writeable) = runs
    assert not kept_writeable and fresh_writeable
    assert np.array_equal(kept.posterior.values, fresh.posterior.values)
    assert len(kept.diagnostics) == len(fresh.diagnostics) == 4
    for a, b in zip(kept.diagnostics, fresh.diagnostics):
        assert (a.objective, a.nv, a.n_eff, a.chi) == (b.objective, b.nv, b.n_eff, b.chi)
        assert np.array_equal(a.taper_histogram, b.taper_histogram)


@pytest.mark.parametrize(
    "problem, policy, kept_blocks",
    [
        # a 16-block grid kept whole, then with its first 3 blocks kept
        (_grid_problem, sm.LocalizationPolicy(spec=tp.Logistic(1.5, 2.0)), None),
        (_grid_problem, sm.LocalizationPolicy(spec=tp.Mse()), 3),
        (_toy_problem, sm.LocalizationPolicy(spec=tp.PowerLaw(3.0, None),
                                             t0_strategy=PercentileT0(0.9)), None),
        (_grid_problem, sm.LocalizationPolicy(spec=tp.DistanceGC(4.0, 2.0, 30.0)), None),
        (_grid_problem, sm.LocalizationPolicy(spec=None), None),
    ],
)
def test_run_equal_for_any_helper_count(monkeypatch, problem, policy, kept_blocks):
    model, prior, obs = problem()
    if kept_blocks is not None:
        monkeypatch.setattr(sm, "TAPER_CACHE_BYTES", _budget_keeping(kept_blocks * 8, model, prior))
    runs = []
    for helpers in (0, 1, 3):
        monkeypatch.setattr(sm, "_helper_count", lambda helpers=helpers: helpers)
        runs.append(sm.run_esmda(prior, model, obs, sm.MdaSchedule.uniform(3), policy,
                                 sm.RunSeed(12), 8))
    serial = runs[0]
    for res in runs[1:]:
        assert np.array_equal(res.posterior.values, serial.posterior.values)
        assert np.array_equal(res.nv_rows, serial.nv_rows)
        for a, b in zip(res.diagnostics, serial.diagnostics):
            assert (a.objective, a.nv, a.n_eff, a.chi) == (b.objective, b.nv, b.n_eff, b.chi)
            assert np.array_equal(a.taper_histogram, b.taper_histogram)


def _dense_taper(policy, model, prior):
    """The oracle's whole Nm x Nd taper of policy for prior and its forecast,
    and that taper rounded to float32 as a run rounds its blocks."""
    spec = policy.spec
    if isinstance(spec, tp.DistanceGC):
        wells = np.array([m.well_xy for m in model.datum_meta], dtype=float)
        dx = prior.coords[:, 0][:, None] - wells[:, 0]
        dy = prior.coords[:, 1][:, None] - wells[:, 1]
        r = tp.taper_distance(dx, dy, spec.len_major, spec.len_minor, spec.angle_deg)
    else:
        rho = correlation_matrix(prior.values, model.evaluate_ensemble(prior.values))
        if policy.t0_strategy is None:
            r = correlation_taper(spec, rho, prior.n_members)
        elif isinstance(policy.t0_strategy, StudentT0):
            t0 = scipy.stats.t.ppf(1.0 - policy.t0_strategy.phi / 2.0, prior.n_members - 2)
            r = correlation_taper(spec, rho, prior.n_members, t0)
        else:
            sources = {}
            for j, meta in enumerate(model.datum_meta):
                sources.setdefault(meta.source, []).append(j)
            t0 = percentile_thresholds(rho, prior.n_members, list(sources.values()),
                                       policy.t0_strategy.p)
            r = correlation_taper(spec, rho, prior.n_members, t0, round_t=True)
    return r, r.astype(np.float32)


@pytest.mark.parametrize(
    "policy",
    [
        sm.LocalizationPolicy(tp.Mse()),
        sm.LocalizationPolicy(tp.Logistic(1.5, 2.0)),
        sm.LocalizationPolicy(tp.Logistic(1.5), PercentileT0(0.9)),
        sm.LocalizationPolicy(tp.DistanceGC(4.0, 2.0, 30.0)),
    ],
    ids=["mse", "logistic", "logistic_p90", "distance"],
)
def test_run_matches_dense_oracle(monkeypatch, policy):
    """A localized run is the dense ES-MDA of oracles.dense_esmda, whose
    whole gain is tapered by the oracle's R rounded to float32, within
    float64 round-off; it is the same run, bit for bit, at 0, 1 and 3
    helper threads and with no block, 5 of 16 blocks or every block kept.

    Tolerance: each step solves C_dd + alpha C_e, of condition number kappa,
    with a forward error of about kappa u (u = 2^-53), and moves the
    ensemble by at most max |posterior - prior|, so n_steps kappa u
    max |posterior - prior| bounds what the dense inverse and the blockwise
    Cholesky solve may disagree by. kappa is the prior forecast's, the
    widest spread of the run. The float64-R oracle lies about
    2^-24 max |posterior - prior| away (R's float32 rounding), more than
    a hundred tolerances: the test tells R from its rounding.
    """
    model, prior, obs = _grid_problem()  # 128 parameters in blocks of 8, 20 data
    schedule, seed = sm.MdaSchedule.uniform(3), sm.RunSeed(12)
    r64, r32 = _dense_taper(policy, model, prior)
    want = dense_esmda(prior, model, obs, schedule.alphas, seed, r32)
    runs = []
    for budget in (_budget_keeping(0, model, prior), _budget_keeping(40, model, prior),
                   sm.TAPER_CACHE_BYTES):
        monkeypatch.setattr(sm, "TAPER_CACHE_BYTES", budget)
        for helpers in (0, 1, 3):
            monkeypatch.setattr(sm, "_helper_count", lambda helpers=helpers: helpers)
            runs.append(sm.run_esmda(prior, model, obs, schedule, policy, seed, 8).posterior)
    for res in runs[1:]:
        assert np.array_equal(res.values, runs[0].values)
    forecast = model.evaluate_ensemble(prior.values)
    anomalies = forecast - forecast.mean(axis=1, keepdims=True)
    c_dd = anomalies @ anomalies.T / (prior.n_members - 1)
    kappa = np.linalg.cond(c_dd + schedule.alphas[0] * np.diag(obs.sigma_e**2))
    moved = np.max(np.abs(want - prior.values))
    tol = schedule.n_steps * kappa * np.finfo(float).eps / 2 * moved
    assert np.max(np.abs(runs[0].values - want)) <= tol
    unrounded = np.max(np.abs(dense_esmda(prior, model, obs, schedule.alphas, seed, r64) - want))
    assert 100 * tol < unrounded <= schedule.n_steps * 2.0**-24 * moved, (tol, unrounded)


_ORACLE_POLICIES = {
    "mse": sm.LocalizationPolicy(tp.Mse()),
    "discrepancy": sm.LocalizationPolicy(tp.Discrepancy(0.5)),
    "cgc": sm.LocalizationPolicy(tp.Cgc()),
    "cgc_fixed": sm.LocalizationPolicy(tp.Cgc(0.3)),
    "po": sm.LocalizationPolicy(tp.Po()),
    "mpo": sm.LocalizationPolicy(tp.Mpo()),
    "power": sm.LocalizationPolicy(tp.PowerLaw(3.0, 2.0)),
    "logistic": sm.LocalizationPolicy(tp.Logistic(1.5, 1.0)),
    "power_student": sm.LocalizationPolicy(tp.PowerLaw(4.0), StudentT0(0.05)),
    "logistic_student": sm.LocalizationPolicy(tp.Logistic(2.0), StudentT0(0.5)),
    "power_p50": sm.LocalizationPolicy(tp.PowerLaw(3.0), PercentileT0(0.5)),
    "logistic_p90": sm.LocalizationPolicy(tp.Logistic(1.5), PercentileT0(0.9)),
    "distance": sm.LocalizationPolicy(tp.DistanceGC(2.0, 1.0, 30.0)),
    "distance_narrow": sm.LocalizationPolicy(tp.DistanceGC(1.0, 0.5, 0.5)),
}


@st.composite
def _drawn_problems(draw):
    """A sparse linear model on an nx x ny grid of parameters, with its data
    spread over one to three sources and one well position each, a
    standard-normal prior with grid coordinates, observations and a block
    width."""
    nx, ny, n_data = draw(st.integers(2, 6)), draw(st.integers(2, 6)), draw(st.integers(2, 9))
    n_members, n_sources = draw(st.integers(5, 30)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_params = nx * ny
    g = rng.standard_normal((n_data, n_params)) * (rng.uniform(size=(n_data, n_params)) < 0.3)
    model = LinearModel(g)
    wells = rng.integers(0, (nx, ny), size=(n_data, 2)).astype(float)
    model.datum_meta = [DatumMeta(source=f"s{j % n_sources}", well_xy=tuple(wells[j]))
                        for j in range(n_data)]
    coords = np.array([(i, j, 0) for j in range(ny) for i in range(nx)])
    prior = Ensemble(values=rng.standard_normal((n_params, n_members)), coords=coords)
    d = model.evaluate(rng.standard_normal(n_params))
    obs = sm.ObservationSet(d_obs=d, sigma_e=np.full(n_data, 0.5))
    return model, prior, obs, draw(st.integers(1, n_params))


@pytest.mark.parametrize("policy", list(_ORACLE_POLICIES.values()), ids=list(_ORACLE_POLICIES))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    problem=_drawn_problems(),
    n_steps=st.integers(1, 3),
    helpers=st.sampled_from([0, 1, 3]),
    keep=st.sampled_from(["none", "part", "all"]),
)
def test_drawn_runs_match_dense_oracle(problem, policy, n_steps, helpers, keep):
    """Over drawn shapes, block widths, helper counts, keep budgets and
    every taper family and threshold strategy, a run is bit for bit the
    serial run that keeps its whole field, and it is the dense ES-MDA of
    oracles.dense_esmda tapered by the field's own float32 R (a whole-array
    correlation may round a coefficient to the neighbouring float32).

    That R is checked against _dense_taper's, from
    oracles.correlation_taper, to one float32 ulp, plus 1e-12 for
    coefficients so small that rho's own rounding, about Ne u absolute,
    moves them by more than an ulp (a power-law coefficient of 2e-44 at
    t ~ 1e-15).

    Posterior tolerance, per step, with u = 2^-53: the blockwise Cholesky
    solve of C_dd + alpha C_e and the dense inverse each err by about
    3 Nd kappa u relative to the update (kappa is the prior forecast's
    condition number, the widest spread of the run); the Ne-term anomaly
    products and the Nd-term sums of the gain and of its application add
    (Ne + 2 Nd) u relative to it, the update taken as max |posterior -
    prior|; and each side rounds m + update once, 2 u max |m|. Over 420
    drawn examples the error reached at most 0.21 of this.
    """
    model, prior, obs, width = problem
    n_params = model.n_params
    keep_rows = {"none": 0, "part": n_params // 2, "all": n_params}[keep]
    schedule, seed = sm.MdaSchedule.uniform(n_steps), sm.RunSeed(5)
    with pytest.MonkeyPatch.context() as mp:
        runs = []
        for h, rows in ((0, n_params), (helpers, keep_rows)):
            mp.setattr(sm, "_helper_count", lambda h=h: h)
            mp.setattr(sm, "TAPER_CACHE_BYTES", _budget_keeping(rows, model, prior))
            runs.append(sm.run_esmda(prior, model, obs, schedule, policy, seed, width))
    serial, drawn = runs
    assert np.array_equal(drawn.posterior.values, serial.posterior.values)
    assert np.array_equal(drawn.nv_rows, serial.nv_rows)
    for a, b in zip(drawn.diagnostics, serial.diagnostics, strict=True):
        assert (a.objective, a.nv, a.n_eff, a.chi) == (b.objective, b.nv, b.n_eff, b.chi)
        assert np.array_equal(a.taper_histogram, b.taper_histogram)

    forecast = model.evaluate_ensemble(prior.values)
    field = sm.make_taper_field(policy, prior, PredictedEnsemble(forecast, model.datum_meta), width)
    r = np.vstack([field.rows(blk) for blk in iter_blocks(n_params, width)])
    # a datum that is a multiple of one parameter has |rho| = 1, or one ulp
    # less as the sums round; a percentile pool takes that ulp's t (about
    # 1e8) and leaves t = inf out, so there the thresholds hang on rho's last
    # bit and the oracle's may differ by more than rounding
    collinear = np.any(np.abs(correlation_matrix(prior.values, forecast)) > 1.0 - 1e-12)
    if not (collinear and isinstance(policy.t0_strategy, PercentileT0)):
        r32 = _dense_taper(policy, model, prior)[1]
        assert np.all(np.abs(r - r32) <= np.spacing(np.maximum(r, r32)) + 1e-12)
    want = dense_esmda(prior, model, obs, schedule.alphas, seed, r)
    anomalies = forecast - forecast.mean(axis=1, keepdims=True)
    c_dd = anomalies @ anomalies.T / (prior.n_members - 1)
    kappa = np.linalg.cond(c_dd + schedule.alphas[0] * np.diag(obs.sigma_e**2))
    u, moved = np.finfo(float).eps / 2, np.max(np.abs(want - prior.values))
    n_data, n_members = model.n_data, prior.n_members
    tol = n_steps * u * ((3 * n_data * kappa + n_members + 2 * n_data) * moved
                         + 2 * np.max(np.abs(want)))
    assert np.max(np.abs(serial.posterior.values - want)) <= tol


def _sparse_linear_problem(seed=31, n_params=57, n_data=23, n_members=30):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_data, n_params)) * (rng.uniform(size=(n_data, n_params)) < 0.2)
    model = LinearModel(g)
    prior = Ensemble(values=rng.standard_normal((n_params, n_members)))
    d = model.evaluate(rng.standard_normal(n_params))
    return model, prior, sm.ObservationSet(d_obs=d, sigma_e=np.full(n_data, 0.5))


@pytest.mark.parametrize(
    "policy",
    [
        sm.LocalizationPolicy(None),
        sm.LocalizationPolicy(tp.Mse()),
        sm.LocalizationPolicy(tp.PowerLaw(3.0), StudentT0(0.95)),
        sm.LocalizationPolicy(tp.Logistic(1.5), PercentileT0(0.9)),
        sm.LocalizationPolicy(tp.Cgc()),
        sm.LocalizationPolicy(tp.Mpo()),
    ],
    ids=["none", "mse", "power_student", "logistic_p90", "cgc", "mpo"],
)
def test_scaled_parameter_row_scales_its_posterior_row(policy):
    """Metamorphic relation: prior row i times 4 and model column i times
    1/4 leave every forecast, correlation and taper unchanged, so the
    posterior's row i is 4 times the unscaled run's, and every other row,
    nv_rows, the objectives and the footprint are the same. A power of two
    scales exactly, so every one of these holds bit for bit."""
    model, prior, obs = _sparse_linear_problem()
    row = 12  # inside the second block of 7
    values, g = prior.values.copy(), model.G.copy()
    values[row] *= 4.0
    g[:, row] *= 0.25
    schedule, seed = sm.MdaSchedule.uniform(4), sm.RunSeed(8)
    base = sm.run_esmda(prior, model, obs, schedule, policy, seed, 7)
    scaled = sm.run_esmda(Ensemble(values), LinearModel(g), obs, schedule, policy, seed, 7)
    want = base.posterior.values.copy()
    want[row] *= 4.0
    assert np.array_equal(scaled.posterior.values, want)
    assert not np.array_equal(base.posterior.values[row], prior.values[row])
    assert np.array_equal(scaled.nv_rows, base.nv_rows)
    for a, b in zip(scaled.diagnostics, base.diagnostics, strict=True):
        assert (a.objective, a.nv, a.n_eff, a.chi) == (b.objective, b.nv, b.n_eff, b.chi)
        assert np.array_equal(a.taper_histogram, b.taper_histogram)


@pytest.mark.parametrize(
    "policy",
    [
        sm.LocalizationPolicy(None),
        sm.LocalizationPolicy(tp.Mse()),
        sm.LocalizationPolicy(tp.Logistic(1.5), PercentileT0(0.9)),
    ],
    ids=["none", "mse", "logistic_p90"],
)
def test_data_permuted_within_a_source_leave_the_update(policy):
    """Metamorphic relation: permuting the data within each source, in the
    forecast, the observations, the perturbed data and the field built from
    that forecast, permutes the columns of W, R and the innovations alike,
    so (K o R) resid is unchanged in exact arithmetic and the footprint,
    a sum over pairs of the same float32 values, is bit for bit the same.

    Tolerance: the two updates differ by rounding only, in the Cholesky
    solve of C_dd + alpha C_e taken in another row order (a forward error of
    about Nd kappa u relative to W) and in the order of the Nd-term sums of
    (K o R) resid. Both are bounded by Nd kappa u times the size
    |K o R| |resid| of those sums, with kappa >= 1 the system's condition
    number and u = 2^-53.
    """
    rng = np.random.default_rng(23)
    n_params, n_data, n_members, alpha = 40, 24, 30, 4.0
    sources = [f"w{j // 6}" for j in range(n_data)]  # 4 sources of 6 data
    prior = Ensemble(values=rng.standard_normal((n_params, n_members)))
    forecast = rng.standard_normal((n_data, n_params)) @ prior.values
    forecast += rng.standard_normal(forecast.shape)
    obs = sm.ObservationSet(d_obs=rng.standard_normal(n_data), sigma_e=np.full(n_data, 2.0))
    perturbed = sm.perturb_observations(obs, alpha, sm.RunSeed(6), 1, n_members)
    perm = np.concatenate([6 * s + rng.permutation(6) for s in range(4)])
    assert not np.array_equal(perm, np.arange(n_data))
    runs = []
    for order in (np.arange(n_data), perm):
        pred = PredictedEnsemble(forecast[order], [DatumMeta(sources[j]) for j in order])
        field = sm.make_taper_field(policy, prior, pred, block_width=8, keep_rows=16)
        ens = Ensemble(prior.values.copy())
        obs_o = sm.ObservationSet(obs.d_obs[order], obs.sigma_e[order])
        sm.localized_update_step(ens, pred, obs_o, alpha, field, perturbed[order], 8)
        runs.append((ens.values, field))
    (base, field), (permuted, field_p) = runs
    pred = PredictedEnsemble(forecast, [DatumMeta(s) for s in sources])
    gain = sm.kalman_gain_block(prior, RowBlock(0, n_params), sm.gain_operator(pred, obs, alpha))
    if field is not None:
        gain *= field.block(RowBlock(0, n_params))
        assert field.footprint()[0] == field_p.footprint()[0]
        assert np.array_equal(field.footprint()[1], field_p.footprint()[1])
    size = np.max(np.abs(gain) @ np.abs(perturbed - forecast))
    c = forecast - forecast.mean(axis=1, keepdims=True)
    kappa = np.linalg.cond(c @ c.T / (n_members - 1) + alpha * np.diag(obs.sigma_e**2))
    tol = n_data * kappa * np.finfo(float).eps / 2 * size
    assert np.max(np.abs(permuted - base)) <= tol, tol


def test_tally_closes_once_every_pair_is_binned(monkeypatch):
    """Updates driven directly, with no call to footprint(), bin each block
    of a field once, at its first read: a later update bins nothing, and
    the footprint is that of the blocks the first one read."""
    rng = np.random.default_rng(17)
    prior = Ensemble(values=rng.standard_normal((40, 12)))
    pred = PredictedEnsemble(values=rng.standard_normal((3, 12)))
    obs = _obs(3)
    pert = sm.perturb_observations(obs, 4.0, sm.RunSeed(1), 1, 12)
    field = sm.TaperField(tp.Mse(), prior, pred, block_width=8, keep_rows=16)
    histogram, binned = np.histogram, []
    monkeypatch.setattr(np, "histogram",
                        lambda r, **kw: binned.append(r.shape[0]) or histogram(r, **kw))
    ens = Ensemble(prior.values.copy())
    for _ in range(2):
        sm.localized_update_step(ens, pred, obs, 4.0, field, pert, block_width=8)
    assert binned == [8] * 5
    whole = field.block(RowBlock(0, 40)).astype(np.float32)
    n_eff, hist = metrics.footprint(lambda blk: whole[blk.slice()], 40, 3, block_width=8)
    assert field.footprint()[0] == n_eff
    assert np.array_equal(field.footprint()[1], hist)


def test_footprint_tallies_each_block_once():
    """A block rows() returns again, kept or fresh, is not binned again: the
    footprint is that of the field's blocks, each once."""
    rng = np.random.default_rng(18)
    prior = Ensemble(values=rng.standard_normal((24, 12)))
    pred = PredictedEnsemble(values=rng.standard_normal((3, 12)))
    field = sm.TaperField(tp.Mse(), prior, pred, block_width=8, keep_rows=8)
    blocks = list(iter_blocks(24, 8))
    for blk in (blocks[0], blocks[0], blocks[1], blocks[1], *blocks):  # kept, then fresh
        field.rows(blk)
    assert field.kept(blocks[0]) and not field.kept(blocks[1])
    n_eff, hist = metrics.footprint(lambda blk: field.block(blk).astype(np.float32), 24, 3,
                                    block_width=8)
    assert field.footprint()[0] == n_eff
    assert np.array_equal(field.footprint()[1], hist)


@pytest.mark.parametrize("missing", [0, 1, 2], ids=["kept", "fresh", "last"])
def test_footprint_needs_every_block_read(missing):
    """footprint() raises ValueError while one block of the field, kept or
    not, is still unread; once rows() has read it, the footprint equals
    metrics.footprint's of the field's blocks, bit for bit."""
    rng = np.random.default_rng(19)
    prior = Ensemble(values=rng.standard_normal((24, 12)))
    pred = PredictedEnsemble(values=rng.standard_normal((3, 12)))
    field = sm.TaperField(tp.Mse(), prior, pred, block_width=8, keep_rows=8)
    blocks = list(iter_blocks(24, 8))
    for blk in blocks[:missing] + blocks[missing + 1 :]:
        field.rows(blk)
    with pytest.raises(ValueError):
        field.footprint()
    field.rows(blocks[missing])
    n_eff, hist = metrics.footprint(lambda blk: field.block(blk).astype(np.float32), 24, 3,
                                    block_width=8)
    assert field.footprint()[0] == n_eff
    assert np.array_equal(field.footprint()[1], hist)


def test_blocks_spread_over_helper_threads(monkeypatch):
    monkeypatch.setattr(sm, "_helper_count", lambda: 3)
    threads, done = {}, []

    def work(blk):
        threads[blk.start] = threading.get_ident()
        time.sleep(0.002)  # lets every thread take blocks
        done.append(blk.start)

    sm._each_block(100, 4, work)
    assert sorted(done) == list(range(0, 100, 4))
    assert len(set(threads.values())) > 1


def test_no_helper_thread_outlives_an_update(monkeypatch):
    """Each update shuts its helpers down, also when the helper count grows."""
    toy, prior, obs = _toy_problem()
    policy = sm.LocalizationPolicy(spec=tp.Mse())
    for helpers in (1, 3):
        monkeypatch.setattr(sm, "_helper_count", lambda: helpers)
        sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(2), policy, sm.RunSeed(4), 4)
        alive = [t.name for t in threading.enumerate() if t.name.startswith("enloc-update")]
        assert not alive, (helpers, alive)


def test_footprint_tally_under_thread_contention(monkeypatch):
    """More threads than cores and a short switch interval lose no count,
    whether a field's blocks are kept (the first half) or not."""
    monkeypatch.setattr(sm, "_helper_count", lambda: 3)
    rng = np.random.default_rng(21)
    taper = rng.uniform(0.0, 1.0, (400, 5))
    rows = lambda blk: taper[blk.slice()]
    serial = metrics.footprint(lambda blk: rows(blk).astype(np.float32), 400, 5, block_width=2)
    ens = Ensemble(values=rng.standard_normal((400, 6)))
    field = _GivenField(rows, ens, PredictedEnsemble(rng.standard_normal((5, 6))), 200, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sm._each_block(400, 2, field.rows)
        n_eff, hist = field.footprint()
    finally:
        sys.setswitchinterval(interval)
    assert n_eff == serial[0]
    assert np.array_equal(hist, serial[1])


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_failure_names_the_lowest_failing_block(monkeypatch, helpers):
    """Rows 8:16 fail after rows 24:32 do, and block 0 ends last: the error
    names the lower rows, once every taken block has finished."""
    monkeypatch.setattr(sm, "_helper_count", lambda: helpers)
    rng = np.random.default_rng(7)
    ens = Ensemble(values=rng.standard_normal((48, 12)))
    pred = PredictedEnsemble(values=rng.standard_normal((3, 12)))
    obs = _obs(3)
    pert = sm.perturb_observations(obs, 4.0, sm.RunSeed(1), 1, 12)
    finished = []

    def taper(blk):
        time.sleep({0: 0.06, 8: 0.03}.get(blk.start, 0.0))
        finished.append(blk.start)
        return np.full((blk.width, 3), 1.5 if blk.start in (8, 24) else 0.5)

    field = _GivenField(taper, ens, pred)
    with pytest.raises(BlockError, match=r"^rows 8:16: taper values outside \[0, 1\]$") as err:
        sm.localized_update_step(ens, pred, obs, 4.0, field, pert, block_width=8)
    assert err.value.rows == slice(8, 16)
    assert {0, 8} <= set(finished)


def test_kept_blocks_form_their_gains_at_once(monkeypatch):
    """The caller and a helper form the gains of taper blocks at the same
    time, blocks the field keeps and, past the budget, blocks it evaluates
    afresh alike: neither waits for the other to apply its block."""
    monkeypatch.setattr(sm, "_helper_count", lambda: 1)
    toy, prior, obs = _toy_problem()
    blocks = list(iter_blocks(toy.n_params, 4))
    gain_block, make = sm.kalman_gain_block, sm.make_taper_field
    for budget, kept in ((sm.TAPER_CACHE_BYTES, True), (_budget_keeping(0, toy, prior), False)):
        barrier, calls, fields = threading.Barrier(2, timeout=5), [], []

        def meeting(ens, blk, operator, barrier=barrier, calls=calls):
            calls.append(blk)
            if len(calls) <= 2:  # the first two blocks meet inside the gain
                barrier.wait()
            return gain_block(ens, blk, operator)

        def capturing(*args, fields=fields, **kwargs):
            fields.append(make(*args, **kwargs))
            return fields[-1]

        monkeypatch.setattr(sm, "TAPER_CACHE_BYTES", budget)
        monkeypatch.setattr(sm, "kalman_gain_block", meeting)
        monkeypatch.setattr(sm, "make_taper_field", capturing)
        policy = sm.LocalizationPolicy(spec=tp.Mse())
        sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(2), policy, sm.RunSeed(4), 4)
        assert len(calls) == 2 * len(blocks)
        assert [fields[0].kept(blk) for blk in blocks] == [kept] * len(blocks)


@pytest.mark.parametrize("bad", [1.5, -0.5, np.nan])
@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_kept_block_out_of_range_fails_step_1(monkeypatch, helpers, bad):
    """A kept block is checked once, when it is evaluated: one value outside
    [0, 1] fails step 1 naming the block's rows, and no gain is formed for
    them."""
    monkeypatch.setattr(sm, "_helper_count", lambda: helpers)
    toy, prior, obs = _toy_problem()
    block = sm.TaperField.block

    def spoiled(field, blk):
        r = block(field, blk)
        if blk.start == 8:
            r[1, 0] = bad
        return r

    monkeypatch.setattr(sm.TaperField, "block", spoiled)
    pred = PredictedEnsemble(toy.evaluate_ensemble(prior.values))
    field = sm.TaperField(tp.Mse(), prior, pred, block_width=4, keep_rows=toy.n_params)
    with pytest.raises(ValueError, match=r"^taper values outside \[0, 1\]$"):
        field.rows(RowBlock(8, 4))
    assert not field.kept(RowBlock(8, 4))
    gains = []
    gain_block = sm.kalman_gain_block
    monkeypatch.setattr(sm, "kalman_gain_block",
                        lambda ens, blk, w: gains.append(blk.start) or gain_block(ens, blk, w))
    policy = sm.LocalizationPolicy(spec=tp.Mse())
    with pytest.raises(
        AssimilationError, match=r"^step 1: rows 8:12: taper values outside \[0, 1\]$"
    ) as err:
        sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(2), policy, sm.RunSeed(4), 4)
    assert err.value.rows == slice(8, 12)
    assert 8 not in gains


@pytest.mark.parametrize("writeable", [True, False])
def test_blocks_not_kept_are_checked_at_every_read(monkeypatch, writeable):
    """A field's block past its budget is checked at every update that reads
    it, whether the array is writeable or not."""
    monkeypatch.setattr(sm, "_helper_count", lambda: 1)
    rng = np.random.default_rng(7)
    ens = Ensemble(values=rng.standard_normal((48, 12)))
    pred = PredictedEnsemble(values=rng.standard_normal((3, 12)))
    obs = _obs(3)
    pert = sm.perturb_observations(obs, 4.0, sm.RunSeed(1), 1, 12)
    taper = np.full((48, 3), 0.5)
    field = _GivenField(lambda blk: taper[blk.slice()], ens, pred)  # keeps no block
    taper.flags.writeable = writeable
    sm.localized_update_step(ens, pred, obs, 4.0, field, pert, block_width=8)
    taper.flags.writeable = True
    taper[9, 1] = 1.5
    taper.flags.writeable = writeable
    for _ in range(2):
        with pytest.raises(BlockError, match=r"^rows 8:16: taper values outside \[0, 1\]$"):
            sm.localized_update_step(ens, pred, obs, 4.0, field, pert, block_width=8)
    assert not any(field.kept(blk) for blk in iter_blocks(48, 8))


@pytest.mark.parametrize("width", [1, 5, 37])
def test_update_returns_the_forecast_variance(monkeypatch, width):
    """The update pass returns its input's row variance, bit for bit the
    variance a separate pass takes, at any block width and helper count."""
    rng = np.random.default_rng(16)
    before = Ensemble(values=rng.standard_normal((101, 25)) * rng.uniform(0.1, 9.0, (101, 1)))
    pred = PredictedEnsemble(values=rng.standard_normal((4, 25)))
    obs = _obs(4)
    pert = sm.perturb_observations(obs, 4.0, sm.RunSeed(5), 1, 25)
    for helpers in (0, 1, 3):
        monkeypatch.setattr(sm, "_helper_count", lambda helpers=helpers: helpers)
        ens = Ensemble(before.values.copy())
        taper = _GivenField(lambda blk: np.full((blk.width, 4), 0.25), ens, pred)
        var = sm.localized_update_step(ens, pred, obs, 4.0, taper, pert, block_width=width)
        assert np.array_equal(var, ensemble_variance_per_row(before))
        assert not np.array_equal(ens.values, before.values)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_artifacts_equal_on_one_cpu(monkeypatch, tmp_path):
    """A process pinned to one CPU writes the bytes a multi-thread run does.

    The grid is small enough that the BLAS computes on one thread in both
    processes; on larger grids its own thread count changes the prior's
    rounding, whatever the update does.
    """
    cfg = {
        "model": {"kind": "grid_proxy", "nx": 8, "ny": 8, "n_layers": 2, "prod_grid": 2,
                  "n_times": 4},
        "prior": {
            "porosity": {"kind": "exponential", "mean": 0.2, "std": 0.05,
                         "range_major": 4, "range_minor": 2, "angle_deg": 45},
            "log_perm": {"kind": "exponential", "mean": 0.0, "std": 0.7,
                         "range_major": 4, "range_minor": 2, "angle_deg": 45},
        },
        "observation": {"truth_seed": 3, "noise_seed": 4, "rel_std": 0.1, "floor": 0.02},
        "ensemble_size": 30,
        "schedule": {"n_steps": 3},
        "localization": [
            {"taper": "none"},
            {"taper": "mse"},
            {"taper": "logistic:gamma=1.5,eps=0.01", "t0": "p90", "name": "logistic_p90"},
            {"taper": "distance:major=4,minor=2,angle=45"},
        ],
        "runs": {"count": 2, "base_seed": 40},
        "block_width": 24,
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(sm, "_helper_count", lambda: 3)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "threads")]) == 0
    cpu = min(os.sched_getaffinity(0))
    code = (
        f"import os, sys; os.sched_setaffinity(0, {{{cpu}}}); from enloc import cli; "
        f"sys.exit(cli.main(['run', {str(path)!r}, '--out', {str(tmp_path / 'one')!r}]))"
    )
    src = str(Path(sm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)
    files = sorted(p.relative_to(tmp_path / "threads") for p in (tmp_path / "threads").rglob("*")
                   if p.is_file())
    assert "nv_field.csv" in {str(f) for f in files}
    for f in files:
        assert (tmp_path / "one" / f).read_bytes() == (tmp_path / "threads" / f).read_bytes(), f


@pytest.mark.parametrize(
    "problem, spec, t0_strategy",
    [
        (_toy_problem, tp.PowerLaw(3.0, None), PercentileT0(0.9)),
        (_toy_problem, tp.Cgc(), None),
        (_grid_problem, tp.DistanceGC(4.0, 2.0, 30.0), None),
    ],
)
def test_taper_block_same_in_any_slab(monkeypatch, problem, spec, t0_strategy):
    model, prior, _ = problem()
    pred = PredictedEnsemble(
        values=model.evaluate_ensemble(prior.values), meta=model.datum_meta
    )
    field = sm.TaperField(spec, prior, pred, t0_strategy)
    blk = RowBlock(0, prior.n_params)
    whole = field.block(blk)  # one slab
    monkeypatch.setattr(sm, "TAPER_SLAB_ENTRIES", 5 * model.n_data)
    assert prior.n_params % 5  # the last slab of five rows is partial
    assert np.array_equal(field.block(blk), whole)


def _percentile_oracle(ens, pred, sources, spec):
    """Per-source 0.9-quantile thresholds of the whole matrix's finite t, by
    the public standardization rounded to float32, and the oracle's taper of
    those t at them."""
    corr = correlation_block(ens, pred, RowBlock(0, ens.n_params))
    t0 = percentile_thresholds(corr, ens.n_members, sources, 0.9)
    return t0, correlation_taper(spec, corr, ens.n_members, t0, round_t=True)


def test_percentile_t0_equals_whole_block_oracle(monkeypatch):
    """Slab-wise t pools the same values as standardizing the whole matrix
    and rounding it to float32, at any helper count; in a run that keeps
    some blocks and recomputes the others, the thresholds and every block,
    rounded to float32, equal the oracle's, bit for bit, and the footprint
    the run tallies equals metrics.footprint's of those blocks."""
    rng = np.random.default_rng(12)
    values = rng.standard_normal((50, 40))
    data = rng.standard_normal((6, 40))
    data[3] = 0.7  # constant data row: undefined correlations stay out of the pool
    values[7] = data[1]
    values[9] = 0.2  # constant parameter row
    ens = Ensemble(values=values)
    pred = PredictedEnsemble(values=data, meta=[DatumMeta(source=f"w{j // 3}") for j in range(6)])
    monkeypatch.setattr(sm, "TAPER_SLAB_ENTRIES", 4 * 6)  # partial last slab of each block
    spec = tp.Logistic(1.5)
    expected, _ = _percentile_oracle(ens, pred, ([0, 1, 2], [3, 4, 5]), spec)
    # a linear model whose datum 1 is parameter 7 (t = inf) and datum 3 constant
    g = rng.standard_normal((6, 40))
    g[1], g[3] = np.eye(40)[7], 0.0
    model = LinearModel(g)
    model.datum_meta = pred.meta
    prior = Ensemble(values=rng.standard_normal((40, 30)))
    forecast = PredictedEnsemble(model.evaluate_ensemble(prior.values), meta=model.datum_meta)
    t0, taper = _percentile_oracle(prior, forecast, ([0, 1, 2], [3, 4, 5]), spec)
    monkeypatch.setattr(sm, "TAPER_CACHE_BYTES", _budget_keeping(16, model, prior))
    fields = []
    make = sm.make_taper_field
    monkeypatch.setattr(sm, "make_taper_field", lambda *a: fields.append(make(*a)) or fields[-1])
    policy = sm.LocalizationPolicy(spec, PercentileT0(0.9))
    for helpers in (0, 1, 3):
        monkeypatch.setattr(sm, "_helper_count", lambda helpers=helpers: helpers)
        field = sm.TaperField(spec, ens, pred, PercentileT0(0.9), block_width=16)
        assert np.array_equal(field._t0, expected)
        res = sm.run_esmda(prior, model, _obs(6, 0.3, 0.5), sm.MdaSchedule.uniform(2), policy,
                           sm.RunSeed(3), 8)
        run_field = fields[-1]
        assert np.array_equal(run_field._t0, t0)
        for blk in iter_blocks(40, 8):  # the first two blocks kept, the other three not
            assert run_field.kept(blk) is (blk.stop <= 16)
            assert np.array_equal(run_field.rows(blk), taper[blk.slice()].astype(np.float32))
        n_eff, hist = metrics.footprint(lambda blk: run_field.block(blk).astype(np.float32),
                                        40, 6, block_width=8)
        assert (res.diagnostics[0].n_eff, res.diagnostics[-1].n_eff) == (n_eff, n_eff)
        assert np.array_equal(res.diagnostics[0].taper_histogram, hist)


def test_percentile_run_computes_each_correlation_block_once(monkeypatch):
    """A percentile field that fits the budget takes every block's
    correlations once, for its thresholds and its kept blocks alike."""
    toy, prior, obs = _toy_problem()  # 24 parameters: blocks of 8, 8 and 8
    calls = []
    corr = sm.correlation_block

    def counting(ens, pred, blk, *args):
        calls.append(blk.start)
        return corr(ens, pred, blk, *args)

    monkeypatch.setattr(sm, "correlation_block", counting)
    policy = sm.LocalizationPolicy(tp.PowerLaw(3.0), PercentileT0(0.9))
    sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(3), policy, sm.RunSeed(4), 8)
    assert sorted(calls) == [0, 8, 16]


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_percentile_pass_failure_names_its_rows(monkeypatch, helpers):
    monkeypatch.setattr(sm, "_helper_count", lambda: helpers)
    toy, prior, obs = _toy_problem()
    corr = sm.correlation_block

    def failing(ens, pred, blk, *args):
        if blk.start == 8:
            raise ValueError("no correlations here")
        return corr(ens, pred, blk, *args)

    monkeypatch.setattr(sm, "correlation_block", failing)
    policy = sm.LocalizationPolicy(tp.PowerLaw(3.0), PercentileT0(0.9))
    with pytest.raises(AssimilationError, match=r"^step 1: rows 8:16: no correlations") as err:
        sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(2), policy, sm.RunSeed(4), 8)
    assert (err.value.step, err.value.rows) == (1, slice(8, 16))


def test_percentile_run_memory_holds_no_second_field(monkeypatch):
    """A percentile run that keeps its whole field stays within the same run
    at a fixed t0, plus one block and two of its widest source's pools: the
    pass writes t into the kept blocks and holds no copy of it."""
    monkeypatch.setattr(sm, "_helper_count", lambda: 1)
    nm, nd, ne, width = 8_000, 400, 20, 1024
    model = _EveryKthParameter(nm, nm // nd)
    model.datum_meta = [DatumMeta(source=f"w{j // 50}") for j in range(nd)]  # 8 sources of 50
    prior = Ensemble(values=np.random.default_rng(15).standard_normal((nm, ne)))
    obs = _obs(nd)
    assert nm * nd * 8 < sm.TAPER_CACHE_BYTES + prior.values.nbytes  # the whole field is kept
    peaks = []
    for policy in (sm.LocalizationPolicy(tp.PowerLaw(3.0, 2.0)),
                   sm.LocalizationPolicy(tp.PowerLaw(3.0), PercentileT0(0.9))):
        tracemalloc.start()
        try:
            sm.run_esmda(prior, model, obs, sm.MdaSchedule.uniform(2), policy, sm.RunSeed(2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    fixed, percentile = peaks
    assert percentile <= fixed + width * nd * 8 + 2 * nm * 50 * 8, (fixed, percentile)


@pytest.mark.parametrize("width", [1, 5, 37])
@pytest.mark.parametrize("repeated", [True, False])
def test_distance_field_equals_per_pair_taper(width, repeated):
    """One taper column per distinct well position, taken into the data's
    columns, gives each pair the coefficient of its own offset."""
    coords = np.array([(i, j, k) for k in range(2) for j in range(7) for i in range(9)])
    ens = Ensemble(values=np.random.default_rng(3).standard_normal((len(coords), 5)), coords=coords)
    spots = [(0.0, 0.0), (8.0, 6.0), (3.5, 2.25), (4.0, 6.0)]
    if repeated:  # each well's data interleaved with the others'
        wells = [spots[j % 4] for j in range(12)]
    else:
        wells = [(0.5 * j, 6.0 - 0.4 * j) for j in range(12)]
    meta = [DatumMeta(source=f"w{j}", well_xy=xy) for j, xy in enumerate(wells)]
    pred = PredictedEnsemble(values=np.random.default_rng(4).standard_normal((12, 5)), meta=meta)
    spec = tp.DistanceGC(4.0, 2.0, 30.0)
    field = sm.TaperField(spec, ens, pred)
    got = np.vstack([field.block(blk) for blk in iter_blocks(len(coords), width)])
    want = np.array([
        [tp.taper_distance(x - wx, y - wy, 4.0, 2.0, 30.0) for wx, wy in wells]
        for x, y, _ in coords
    ])
    assert np.array_equal(got, want)
    assert want.max() == 1.0 and want.min() == 0.0 and np.any((want > 0.0) & (want < 1.0))


def test_percentile_threshold_of_a_constant_datum():
    """A source with no finite t (here a constant datum) gets a placeholder
    t0 that none of its coefficients reads, and the run goes on."""
    rng = np.random.default_rng(21)
    g = rng.standard_normal((4, 12))
    g[2] = 0.0  # datum 2 is constant: every pair of its source is undefined
    prior = Ensemble(values=rng.standard_normal((12, 50)))
    policy = sm.LocalizationPolicy(tp.PowerLaw(3.0), PercentileT0(0.9))

    def field_of(model):
        pred = PredictedEnsemble(model.evaluate_ensemble(prior.values), meta=model.datum_meta)
        return sm.make_taper_field(policy, prior, pred)

    field = field_of(LinearModel(g))
    assert np.all(field.block(RowBlock(0, 12))[:, 2] == 0.0)
    # the other sources keep the thresholds they have without the constant datum
    others = LinearModel(g[[0, 1, 3]])
    assert np.array_equal(field._t0[[0, 1, 3]], field_of(others)._t0)
    res = sm.run_esmda(prior, LinearModel(g), _obs(4), sm.MdaSchedule.uniform(2), policy,
                       sm.RunSeed(4))
    assert np.all(np.isfinite(res.posterior.values))


@pytest.mark.parametrize(
    "policy",
    [
        sm.LocalizationPolicy(spec=None),
        sm.LocalizationPolicy(spec=tp.Logistic(1.5, 2.0)),
    ],
)
def test_run_leaves_prior_unchanged(policy):
    """The prior is writable here; every step updates the run's own copy in place."""
    toy, prior, obs = _toy_problem()
    before = prior.values.copy()
    res = sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(2), policy, sm.RunSeed(3), 8)
    assert np.array_equal(prior.values, before)
    assert not np.array_equal(res.posterior.values, before)
    assert not np.may_share_memory(res.posterior.values, prior.values)


@pytest.mark.parametrize(
    "policy",
    [
        sm.LocalizationPolicy(spec=None),
        sm.LocalizationPolicy(spec=tp.Logistic(1.5, 2.0)),
    ],
)
def test_step_nv_equals_normalized_variance(monkeypatch, policy):
    toy, prior, obs = _toy_problem()
    forecasts = []
    evaluate = sm.evaluate_members

    def recording(model, values):
        forecasts.append(Ensemble(values.copy()))  # the run updates values in place
        return evaluate(model, values)

    monkeypatch.setattr(sm, "evaluate_members", recording)
    res = sm.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(3), policy, sm.RunSeed(5), 8)
    assert len(forecasts) == len(res.diagnostics) == 4
    assert [d.nv for d in res.diagnostics] == [normalized_variance(prior, f) for f in forecasts]
    # the run returns the final forecast's per-row ratios, and NV is their mean
    ratios = ensemble_variance_per_row(res.posterior) / ensemble_variance_per_row(prior)
    assert np.array_equal(res.nv_rows, ratios)
    assert float(np.mean(res.nv_rows)) == res.diagnostics[-1].nv


def test_constant_prior_row_fails_the_run():
    toy, prior, obs = _toy_problem()
    values = prior.values.copy()
    values[5] = 0.25
    policy = sm.LocalizationPolicy(spec=tp.Logistic(1.5, 2.0))
    with pytest.raises(
        AssimilationError, match=r"^step 1: zero prior variance in 1 of 24 rows \(first: row 5\)$"
    ) as err:
        sm.run_esmda(Ensemble(values), toy, obs, sm.MdaSchedule.uniform(2), policy, sm.RunSeed(3))
    assert err.value.step == 1
    assert type(err.value.__cause__) is ValueError


def test_failure_inside_a_step_names_the_step():
    toy, prior, obs = _toy_problem()
    calls = []

    class NonFiniteAtStep2(LinearModel):
        def evaluate_ensemble(self, values):
            calls.append(1)
            out = toy.evaluate_ensemble(values)
            return out if len(calls) != 2 else np.full_like(out, np.nan)

    model = NonFiniteAtStep2(np.eye(toy.n_data, toy.n_params))
    model.datum_meta = toy.datum_meta
    policy = sm.LocalizationPolicy(spec=tp.Logistic(1.5, 2.0))
    with pytest.raises(AssimilationError, match="^step 2: forward model produced") as err:
        sm.run_esmda(prior, model, obs, sm.MdaSchedule.uniform(3), policy, sm.RunSeed(3), 8)
    assert err.value.step == 2 and err.value.rows is None
    assert isinstance(err.value.__cause__, ForwardModelError)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_failure_in_a_row_block_names_the_step_and_the_rows():
    """Row 9 of the run's own ensemble turns inf as step 2 reads it: the
    update of rows 8:16 fails, named once."""
    toy, prior, obs = _toy_problem()
    calls = []

    class InfRowAtStep2(LinearModel):
        def evaluate_ensemble(self, values):
            calls.append(1)
            out = toy.evaluate_ensemble(values)
            if len(calls) == 2:
                values[9] = np.inf
            return out

    model = InfRowAtStep2(np.eye(toy.n_data, toy.n_params))
    model.datum_meta = toy.datum_meta
    policy = sm.LocalizationPolicy(spec=tp.Logistic(1.5, 2.0))
    with pytest.raises(
        AssimilationError, match=r"^step 2: rows 8:16: ensemble rows must be finite$"
    ) as err:
        sm.run_esmda(prior, model, obs, sm.MdaSchedule.uniform(3), policy, sm.RunSeed(3), 8)
    assert (err.value.step, err.value.rows) == (2, slice(8, 16))
    assert isinstance(err.value.__cause__, BlockError)


class _EveryKthParameter(ForwardModel):
    """d_j = m_(jk): a cheap model with as many data as wanted."""

    def __init__(self, n_params: int, stride: int):
        self._n_params, self._stride = n_params, stride
        self.datum_meta = [DatumMeta(source=f"d{j}") for j in range(self.n_data)]

    @property
    def n_params(self) -> int:
        return self._n_params

    @property
    def n_data(self) -> int:
        return len(range(0, self._n_params, self._stride))

    def evaluate_ensemble(self, values):
        return values[:: self._stride].copy()


_MEMORY_SHAPE = 20_000, 400, 20  # Nm, Nd, Ne: a 64 MB float64 taper field


def _memory_run_peak(monkeypatch, helpers, keep_rows=None):
    """tracemalloc's peak over a 2-step MSE run of the _MEMORY_SHAPE problem,
    drawn before tracing starts, at helpers helper threads; keep_rows sets
    the budget to keep the blocks that end within that many rows (None: the
    default budget)."""
    monkeypatch.setattr(sm, "_helper_count", lambda: helpers)
    nm, nd, ne = _MEMORY_SHAPE
    model = _EveryKthParameter(nm, nm // nd)
    prior = Ensemble(values=np.random.default_rng(13).standard_normal((nm, ne)))
    if keep_rows is not None:
        monkeypatch.setattr(sm, "TAPER_CACHE_BYTES", _budget_keeping(keep_rows, model, prior))
    policy = sm.LocalizationPolicy(spec=tp.Mse())
    tracemalloc.start()
    try:
        sm.run_esmda(prior, model, _obs(nd), sm.MdaSchedule.uniform(2), policy, sm.RunSeed(2))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_bounded_by_taper_budget(monkeypatch):
    """A 64 MB taper field under the default budget, which keeps it whole
    ((32 MiB + the 3.2 MB ensemble) // (4 Nd) = 22,971 rows >= Nm): no
    Nm x Nd float64 array."""
    nm, nd, ne = _MEMORY_SHAPE
    # the caller and one helper thread, whatever the host
    peak = _memory_run_peak(monkeypatch, 1)
    # at the default block width a block is about one Nm x Ne array here; the
    # kept blocks (the constant plus one Nm x Ne array), the prior, the run's
    # ensemble, updated in place, and about two blocks of taper
    # work stay under six Nm x Ne arrays on top of the constant
    assert peak < sm.TAPER_CACHE_BYTES + 6 * nm * ne * 8, peak
    assert peak < nm * nd * 8, peak


@pytest.mark.parametrize("helpers", [1, 3])
@pytest.mark.parametrize("keep_rows", [0, 10_000], ids=["none_kept", "half_kept"])
def test_run_memory_bounded_past_the_keep_budget(monkeypatch, keep_rows, helpers):
    """Blocks past the keep budget are updated on every thread at once, and
    the peak stays under the kept blocks' bytes, the prior, the run's
    ensemble and two float64 blocks (width x Nd x 8 bytes) per thread.

    A thread updating a fresh block holds at most the float64 block its
    taper is evaluated in next to that block's float32 rounding, or the
    float64 gain next to the float32 taper: 12 bytes an entry; the slabs'
    temporaries, the gain's centered rows and the product stay well inside
    the other 4. Measured at 1 and 3 helpers: 14.3 and 22.8 MB with no
    block kept, 29.0 and 39.2 MB with half the field kept, against bounds
    of 19.5, 32.6, 34.3 and 47.4 MB.
    """
    nm, nd, ne = _MEMORY_SHAPE
    width = sm.DEFAULT_BLOCK_WIDTH
    peak = _memory_run_peak(monkeypatch, helpers, keep_rows)
    kept = keep_rows // width * width * nd * 4
    bound = kept + 2 * nm * ne * 8 + (helpers + 1) * 2 * width * nd * 8
    assert peak < bound, (peak, bound)


def test_taper_field_families_and_thresholds():
    rng = np.random.default_rng(8)
    ens = Ensemble(values=rng.standard_normal((20, 60)))
    vals = rng.standard_normal((6, 60))
    vals[3] = 0.7  # constant data row: undefined correlations -> taper 0
    from enloc.ensemble import DatumMeta

    meta = [DatumMeta(source=f"w{j // 3}", well_xy=(float(j), 0.0)) for j in range(6)]
    pred = PredictedEnsemble(values=vals, meta=meta)
    for spec in (
        tp.Mse(),
        tp.PowerLaw(3.0, 2.0),
        tp.Logistic(1.5, 2.0),
        tp.Discrepancy(0.5),
        tp.Cgc(),
        tp.Po(),
        tp.Mpo(),
    ):
        field = sm.TaperField(spec, ens, pred)
        r = field.block(RowBlock(0, 20))
        assert r.shape == (20, 6)
        assert np.all((r >= 0.0) & (r <= 1.0))
        assert np.all(r[:, 3] == 0.0)

    # per-source percentile thresholds differ between sources
    from enloc.significance import StudentT0
    from enloc.significance import critical_t0

    field = sm.TaperField(tp.PowerLaw(3.0, None), ens, pred, PercentileT0(0.9))
    t0 = field._t0
    assert t0.shape == (6,)
    assert np.all(t0[:3] == t0[0]) and np.all(t0[3:] == t0[3])
    assert t0[0] != t0[3]

    assert sm.TaperField(tp.PowerLaw(3.0, 2.0), ens, pred)._t0 == 2.0
    f_student = sm.TaperField(tp.PowerLaw(3.0, None), ens, pred, StudentT0(0.05))
    assert f_student._t0 == critical_t0(60, 0.05)
    with pytest.raises(ValueError):
        sm.TaperField(tp.PowerLaw(3.0, None), ens, pred)


def test_policy_rejects_a_threshold_strategy_its_taper_cannot_use():
    for spec in (tp.Mse(), tp.PowerLaw(3.0, t0=2.0), tp.Logistic(1.5, 2.0), None):
        with pytest.raises(ValueError, match="^a t0 strategy needs a power or logistic taper"):
            sm.LocalizationPolicy(spec, PercentileT0(0.9))
    sm.LocalizationPolicy(tp.PowerLaw(3.0), PercentileT0(0.9))  # no t0 of its own: accepted
    # a power or logistic taper with neither a t0 nor a strategy has no threshold
    for spec in (tp.PowerLaw(3.0), tp.Logistic(1.5)):
        with pytest.raises(ValueError, match="^a power or logistic taper needs a t0"):
            sm.LocalizationPolicy(spec)
    # a field built directly checks its taper and strategy the same way
    toy, prior, _ = _toy_problem()
    pred = PredictedEnsemble(values=toy.evaluate_ensemble(prior.values), meta=toy.datum_meta)
    with pytest.raises(ValueError, match="^a t0 strategy needs a power or logistic taper"):
        sm.TaperField(tp.Mse(), prior, pred, PercentileT0(0.9))
    with pytest.raises(ValueError, match="^a power or logistic taper needs a t0"):
        sm.TaperField(tp.Logistic(1.5), prior, pred)


def test_field_with_underflowing_threshold_fails_at_construction():
    toy, prior, _ = _toy_problem()
    pred = PredictedEnsemble(values=toy.evaluate_ensemble(prior.values), meta=toy.datum_meta)
    with pytest.raises(ValueError, match="^t0 = 1e-30 too small"):
        sm.TaperField(tp.PowerLaw(11.0, 1e-30), prior, pred)
    with pytest.raises(ValueError, match="^t0 = 1e-200 too small"):
        sm.TaperField(tp.Logistic(2.0, 1e-200), prior, pred)


def test_field_with_overflowing_logistic_threshold_fails_at_construction():
    toy, prior, _ = _toy_problem()
    pred = PredictedEnsemble(values=toy.evaluate_ensemble(prior.values), meta=toy.datum_meta)
    with pytest.raises(ValueError, match=r"^t0 = 1e\+200 too large"):
        sm.TaperField(tp.Logistic(2.0, 1e200), prior, pred)


def test_distance_taper_field():
    rng = np.random.default_rng(9)
    coords = np.array([(i, j, 0) for j in range(5) for i in range(5)])
    ens = Ensemble(values=rng.standard_normal((25, 30)), coords=coords)
    from enloc.ensemble import DatumMeta

    meta = [DatumMeta(source="w1", well_xy=(0.0, 0.0)), DatumMeta(source="w2", well_xy=(4.0, 4.0))]
    pred = PredictedEnsemble(values=rng.standard_normal((2, 30)), meta=meta)
    field = sm.TaperField(tp.DistanceGC(2.0, 1.0, 0.0), ens, pred)
    r = field.block(RowBlock(0, 25))
    assert r[0, 0] == 1.0  # parameter at the well location
    assert r[24, 0] == 0.0  # corner beyond twice the critical length
    assert r[24, 1] == 1.0
    # missing geometry is rejected
    from enloc.errors import WrongTaperKindError

    no_coords = Ensemble(values=rng.standard_normal((25, 30)))
    with pytest.raises(WrongTaperKindError):
        sm.TaperField(tp.DistanceGC(2.0, 1.0, 0.0), no_coords, pred)


def test_dummy_parameter_variance_protection():
    """Frozen logistic localization preserves dummy variance better than none."""
    toy = ScalarToyModel(n_active=6, n_dummy=3, n_series=3, n_times=20, structure_seed=3)
    truth = np.zeros(9)
    obs = sm.ObservationSet(
        d_obs=toy.evaluate(truth), sigma_e=np.maximum(0.1 * np.abs(toy.evaluate(truth)), 0.02)
    )
    wins = 0
    for run in range(10):
        prior = toy.sample_prior(60, 100 + run)
        post_none = sm.run_esmda(
            prior, toy, obs, sm.MdaSchedule.uniform(4),
            sm.LocalizationPolicy(spec=None), sm.RunSeed(100 + run),
        ).posterior
        post_log = sm.run_esmda(
            prior, toy, obs, sm.MdaSchedule.uniform(4),
            sm.LocalizationPolicy(spec=tp.Logistic(1.5, 2.0)), sm.RunSeed(100 + run),
        ).posterior
        dummies = toy.dummy_indices
        nv_none = np.mean(
            np.var(post_none.values[dummies], axis=1, ddof=1)
            / np.var(prior.values[dummies], axis=1, ddof=1)
        )
        nv_log = np.mean(
            np.var(post_log.values[dummies], axis=1, ddof=1)
            / np.var(prior.values[dummies], axis=1, ddof=1)
        )
        wins += nv_log > nv_none
    assert wins >= 9
