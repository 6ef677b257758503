"""Metric definitions against hand-computable cases."""

import numpy as np
import pytest

from enloc import metrics as mt
from enloc.ensemble import Ensemble, PredictedEnsemble
from enloc.smoother import ObservationSet


def _pred(values):
    return PredictedEnsemble(values=np.asarray(values, dtype=float))


def test_objective_function_anchors():
    obs = ObservationSet(d_obs=np.array([1.0, 2.0]), sigma_e=np.array([0.5, 0.25]))
    # predictions identical to observations
    perfect = _pred(np.tile(obs.d_obs[:, None], (1, 4)))
    assert mt.objective_function(perfect, obs) == 0.0
    # every residual exactly one sigma -> 1/2; two sigma -> 2
    one_sig = _pred((obs.d_obs - obs.sigma_e)[:, None] * np.ones((1, 4)))
    assert mt.objective_function(one_sig, obs) == pytest.approx(0.5, rel=1e-14)
    two_sig = _pred((obs.d_obs + 2 * obs.sigma_e)[:, None] * np.ones((1, 4)))
    assert mt.objective_function(two_sig, obs) == pytest.approx(2.0, rel=1e-14)


def test_objective_function_rescaling_invariance():
    rng = np.random.default_rng(0)
    obs = ObservationSet(d_obs=rng.standard_normal(6), sigma_e=rng.uniform(0.1, 1.0, 6))
    pred = _pred(rng.standard_normal((6, 10)))
    base = mt.objective_function(pred, obs)
    scaled_obs = ObservationSet(d_obs=2.0 * obs.d_obs, sigma_e=2.0 * obs.sigma_e)
    scaled_pred = _pred(2.0 * pred.values)
    assert mt.objective_function(scaled_pred, scaled_obs) == pytest.approx(base, rel=1e-12)


def test_normalized_variance():
    rng = np.random.default_rng(1)
    prior = Ensemble(values=rng.standard_normal((8, 50)))
    assert mt.normalized_variance(prior, prior) == 1.0
    collapsed = Ensemble(
        values=np.tile(prior.values.mean(axis=1, keepdims=True), (1, 50)) * 0
        + prior.values.mean(axis=1, keepdims=True)
    )
    # columns are identical; any residual is round-off in np.var's mean
    assert mt.normalized_variance(prior, collapsed) == pytest.approx(0.0, abs=1e-30)
    halfspread = Ensemble(
        values=prior.values.mean(axis=1, keepdims=True)
        + 0.5 * (prior.values - prior.values.mean(axis=1, keepdims=True))
    )
    assert mt.normalized_variance(prior, halfspread) == pytest.approx(0.25, rel=1e-12)
    # adding constants to rows changes nothing
    shifted = Ensemble(values=prior.values + np.arange(8)[:, None])
    assert mt.normalized_variance(prior, shifted) == pytest.approx(1.0, rel=1e-12)
    # subsets select rows
    sub = mt.normalized_variance(prior, halfspread, subset=[0, 3])
    assert sub == pytest.approx(0.25, rel=1e-12)
    flat = Ensemble(values=np.vstack([np.ones(50), rng.standard_normal(50)]))
    with pytest.raises(ValueError):
        mt.normalized_variance(flat, flat)


def test_mean_offset():
    rng = np.random.default_rng(2)
    prior = Ensemble(values=rng.standard_normal((10, 200)))
    assert mt.mean_offset(prior, prior) == 0.0
    std = np.std(prior.values, axis=1, ddof=1)
    shifted = Ensemble(values=prior.values + std[:, None])
    assert mt.mean_offset(prior, shifted) == pytest.approx(1.0, rel=1e-12)
    half = prior.values.copy()
    half[:5] += 2.0 * std[:5, None]
    assert mt.mean_offset(prior, Ensemble(values=half)) == pytest.approx(1.0, rel=1e-12)


def test_mean_offset_excludes_flat_rows():
    vals = np.vstack([np.ones(20), np.random.default_rng(3).standard_normal(20)])
    prior = Ensemble(values=vals)
    post = Ensemble(values=vals + 1.0)
    with pytest.warns(UserWarning):
        off = mt.mean_offset(prior, post)
    std1 = np.std(vals[1], ddof=1)
    assert off == pytest.approx(1.0 / std1, rel=1e-12)


def _const_provider(value, nd):
    return lambda blk: np.full((blk.width, nd), value)


def test_n_eff_and_chi():
    nm, nd = 120, 7
    assert mt.footprint(_const_provider(1.0, nd), nm, nd)[0] == nm
    assert mt.footprint(None, nm, nd)[0] == nm
    assert mt.footprint(_const_provider(0.0, nd), nm, nd)[0] == 0.0
    assert mt.footprint(_const_provider(0.5, nd), nm, nd)[0] == pytest.approx(nm / 2, rel=1e-14)
    assert mt.chi(nm, nm) == 1.0
    assert mt.chi(0.0, nm) == 0.0
    assert mt.chi(nm / 4, nm) == 0.25


def test_n_eff_blockwise_equals_dense():
    rng = np.random.default_rng(4)
    nm, nd = 200, 40
    field = rng.uniform(0.0, 1.0, size=(nm, nd))
    provider = lambda blk: field[blk.slice()]
    dense = field.sum() / nd
    for width in (1, 17, 64, 200):
        got = mt.footprint(provider, nm, nd, block_width=width)[0]
        assert got == pytest.approx(dense, abs=1e-10)


def test_taper_histogram():
    nm, nd = 60, 5
    zeros = mt.footprint(_const_provider(0.0, nd), nm, nd)[1]
    assert zeros[0] == nm * nd and zeros[1:].sum() == 0
    for ones_provider in (_const_provider(1.0, nd), None):
        ones = mt.footprint(ones_provider, nm, nd)[1]
        assert ones[-1] == nm * nd and ones[:-1].sum() == 0

    # uniform grid of taper values bins evenly (brute-force binning oracle)
    values = np.linspace(0.0, 1.0, nm * nd, endpoint=False) + 0.5 / (nm * nd)
    field = values.reshape(nm, nd)
    counts = mt.footprint(lambda blk: field[blk.slice()], nm, nd)[1]
    assert counts.sum() == nm * nd
    assert counts.max() - counts.min() <= 1

    with pytest.raises(ValueError):
        mt.footprint(_const_provider(1.5, nd), nm, nd)


def test_histogram_blockwise_equals_dense():
    rng = np.random.default_rng(5)
    nm, nd = 150, 12
    field = rng.uniform(0.0, 1.0, size=(nm, nd))
    provider = lambda blk: field[blk.slice()]
    dense = np.histogram(field, bins=np.linspace(0.0, 1.0, 21))[0]
    for width in (1, 13, 150):
        got = mt.footprint(provider, nm, nd, block_width=width)[1]
        assert np.array_equal(got, dense)


def test_metric_report_band_flag():
    rep = mt.MetricReport(
        obj_mean=0.7, nv=0.5, mean_offset=0.1, n_eff=10.0, chi=0.1,
        taper_histogram=np.zeros(20, dtype=int),
    )
    assert rep.obj_in_band
    rep2 = mt.MetricReport(
        obj_mean=1.7, nv=0.5, mean_offset=0.1, n_eff=10.0, chi=0.1,
        taper_histogram=np.zeros(20, dtype=int),
    )
    assert not rep2.obj_in_band
