"""Moment estimation: hand oracles, blockwise-equals-dense, serialization."""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import correlation, read_ensemble_csv

from enloc import ensemble as es


def _rho(m_row, d_row):
    """correlation_block on one-row ensembles: the estimate for one pair."""
    ens = es.Ensemble(values=np.asarray(m_row, dtype=float)[None, :])
    pred = es.PredictedEnsemble(values=np.asarray(d_row, dtype=float)[None, :])
    return float(es.correlation_block(ens, pred, es.RowBlock(0, 1))[0, 0])


def test_correlation_values_and_errors():
    # 4 / sqrt(2 * 8) = 1, up to rounding in the norm product
    assert _rho([1.0, 3.0], [2.0, 6.0]) == pytest.approx(1.0, abs=1e-14)
    m = np.random.default_rng(1).standard_normal(40)
    assert _rho(m, -m) == pytest.approx(-1.0, abs=1e-14)
    assert _rho(3.0 * m + 1.0, m) == pytest.approx(1.0, abs=1e-12)
    # a constant row has no correlation: marked NaN, a taper-zero pair
    assert math.isnan(_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


def test_correlation_of_independent_rows_is_small():
    rng = np.random.default_rng(7)
    ne = 1000
    hits = 0
    for _ in range(1000):
        rho = _rho(rng.standard_normal(ne), rng.standard_normal(ne))
        if abs(rho) >= 4.0 / np.sqrt(ne):
            hits += 1
    assert hits <= 2  # P(|rho| > 4 sigma) is ~6e-5 per trial


def test_correlation_affine_sign():
    rng = np.random.default_rng(2)
    m, d = rng.standard_normal((2, 50))
    rho = _rho(m, d)
    assert _rho(-2.0 * m + 0.5, d) == pytest.approx(-rho, abs=1e-12)


def test_correlation_block_matches_scalar():
    rng = np.random.default_rng(3)
    ens = es.Ensemble(values=rng.standard_normal((50, 20)))
    pred = es.PredictedEnsemble(values=rng.standard_normal((8, 20)))
    # full matrix pair by pair (the brute-force oracle)
    full = np.empty((50, 8))
    for i in range(50):
        for j in range(8):
            full[i, j] = correlation(ens.values[i], pred.values[j])
    # single-row blocks reproduce the oracle
    one = es.correlation_block(ens, pred, es.RowBlock(17, 1))
    assert np.allclose(one[0], full[17], atol=1e-13)
    # concatenation over any partition equals the full matrix
    for width in (1, 7, 13, 50):
        parts = [
            es.correlation_block(ens, pred, blk)
            for blk in es.iter_blocks(50, width)
        ]
        assert np.allclose(np.vstack(parts), full, atol=1e-13)


def test_correlation_block_zero_variance_markers():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((5, 12))
    vals[2] = 1.25  # constant parameter row
    ens = es.Ensemble(values=vals)
    pvals = rng.standard_normal((4, 12))
    pvals[1] = -3.0  # constant data row
    pred = es.PredictedEnsemble(values=pvals)
    corr = es.correlation_block(ens, pred, es.RowBlock(0, 5))
    assert np.all(np.isnan(corr[2, :]))
    assert np.all(np.isnan(corr[:, 1]))
    defined = ~np.isnan(corr)
    assert np.all(np.abs(corr[defined]) <= 1.0)


def _whole_block_correlation(ens, pred, block):
    """correlation_block's arithmetic over the whole block at once."""
    am, nm = es.row_anomalies(ens.values[block.slice()])
    ad, nd = es.row_anomalies(pred.values)
    denom = np.outer(nm, nd)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = (am @ ad.T) / denom
    corr = np.clip(corr, -1.0, 1.0)
    corr[~(denom > 0.0)] = np.nan
    return corr


def test_correlation_block_slabs_equal_whole_block():
    """Denominators taken a slab of rows at a time give the whole block's
    bits, with no undefined pair and with constant rows in several slabs."""
    rng = np.random.default_rng(14)
    pred = es.PredictedEnsemble(values=rng.standard_normal((9, 25)))
    defined = es.Ensemble(values=rng.standard_normal((150, 25)))
    vals = rng.standard_normal((150, 25))
    vals[[0, 70, 149]] = 2.5  # the first, a middle and the partial last slab
    for ens in (defined, es.Ensemble(values=vals)):
        for blk in (es.RowBlock(0, 150), es.RowBlock(3, 140)):
            got = es.correlation_block(ens, pred, blk)
            assert np.array_equal(got, _whole_block_correlation(ens, pred, blk), equal_nan=True)
            assert np.isnan(got).any() == (ens is not defined)


def test_variance_per_row():
    ens = es.Ensemble(values=np.array([[0.0, 2.0], [5.0, 5.0]]))
    v = es.ensemble_variance_per_row(ens)
    assert v[0] == 2.0
    assert v[1] == 0.0
    # permuting members leaves variances unchanged
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((6, 30))
    perm = rng.permutation(30)
    a = es.ensemble_variance_per_row(es.Ensemble(values=vals))
    b = es.ensemble_variance_per_row(es.Ensemble(values=vals[:, perm]))
    assert np.allclose(a, b, atol=1e-15)


@pytest.mark.parametrize("order", ["C", "F"])
def test_variance_per_row_peaks_at_about_one_block(order):
    """np.var runs one block of rows at a time, with each row's arithmetic
    unchanged: bit-equal to np.var over the whole array."""
    nm, ne = 20_000, 30
    values = np.random.default_rng(9).standard_normal((nm, ne))
    ens = es.Ensemble(values=np.asarray(values, order=order))
    tracemalloc.start()
    try:
        var = es.ensemble_variance_per_row(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = es.DEFAULT_BLOCK_WIDTH * ne * 8
    assert peak < var.nbytes + 2 * block, (peak, block)
    assert np.array_equal(var, np.var(ens.values, axis=1, ddof=1))


def test_row_shift_invariance():
    rng = np.random.default_rng(6)
    m, d = rng.standard_normal((2, 33))
    assert _rho(m + 100.0, d) == pytest.approx(_rho(m, d), abs=1e-12)


def test_blockwise_dense_agreement_on_larger_toy():
    rng = np.random.default_rng(8)
    ens = es.Ensemble(values=rng.standard_normal((200, 100)))
    pred = es.PredictedEnsemble(values=rng.standard_normal((40, 100)))
    anoms = es.row_anomalies(pred.values)
    dense = es.correlation_block(ens, pred, es.RowBlock(0, 200), anoms)
    for width in (1, 16, 59, 200):
        got = np.vstack(
            [es.correlation_block(ens, pred, blk, anoms) for blk in es.iter_blocks(200, width)]
        )
        assert np.max(np.abs(got - dense)) < 1e-13


def test_ensemble_validation():
    with pytest.raises(ValueError):
        es.Ensemble(values=np.ones((3,)))
    with pytest.raises(ValueError):
        es.Ensemble(values=np.ones((3, 1)))
    with pytest.raises(ValueError):
        es.Ensemble(values=np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        es.Ensemble(values=np.ones((2, 4)), names=["a"])


def test_ensemble_finiteness_check_allocates_no_temporary():
    """An Ensemble over existing float64 values is checked without an
    Nm x Ne temporary (a bool array of np.isfinite would be 800 KB here);
    a NaN, an inf or a -inf anywhere still fails it, and an ensemble with
    no rows still passes it."""
    values = np.random.default_rng(4).standard_normal((20_000, 40))
    tracemalloc.start()
    try:
        es.Ensemble(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.size // 8, peak
    for bad in (np.nan, np.inf, -np.inf):
        spoilt = values.copy()
        spoilt[12_345, 7] = bad
        with pytest.raises(ValueError, match="must be finite"):
            es.Ensemble(spoilt)
    assert es.Ensemble(np.empty((0, 3))).n_params == 0


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    ens = es.Ensemble(
        values=rng.standard_normal((7, 5)), names=[f"par{i}" for i in range(7)]
    )
    path = tmp_path / "ens.csv"
    es.write_ensemble_csv(ens, path)
    header = path.read_text().splitlines()[0]
    assert header == "param_id,e1,e2,e3,e4,e5"
    back = read_ensemble_csv(path)
    assert back.names == ens.names
    assert np.array_equal(back.values, ens.values)  # repr round-trips exactly
