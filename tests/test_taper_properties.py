"""Randomized invariant sweeps over the taper families.

The invariants of the public tapers are swept over thousands of seeded
random parameter combinations, and hypothesis property tests check their
range and monotonicity at the edges: t = 0, subnormal t, t = t0, t = inf
and Ne = 3. Others check, at the edges of their domains, that the public
MSE, power-law and logistic tapers are bit-identical to independent
np.where formulas, and that the kernel TaperField evaluates for each family
is bit-identical to those formulas or to the family's public taper.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
import oracles
from oracles import correlation_taper

from enloc import tapers as tp

N_CASES = 2000
rng = np.random.default_rng(20240817)


def _random_params(n=N_CASES):
    return {
        "t": rng.uniform(0.0, 12.0, n),
        "rho": rng.uniform(-1.0, 1.0, n),
        "beta": rng.uniform(2.0, 8.0, n),
        "t0": rng.uniform(0.2, 5.0, n),
        "gamma": rng.uniform(0.05, 2.0, n),
        "eps": rng.uniform(1e-4, 0.49, n),
        "eta": rng.uniform(0.05, 3.0, n),
        "theta": rng.uniform(1e-3, 0.999, n),
        "ne": rng.integers(3, 2000, n),
    }


# Correlations at the edges: t = inf at |rho| = 1, t = 0 at zero, t near
# its largest finite value next to 1, and subnormal t, where eta / t
# overflows. Thresholds reach the smallest subnormal, where t0^beta
# underflows to 0 or the logistic steepness is not finite, and the largest
# finite floats, where t0^gamma overflows; the logistic taper rejects such a
# t0, and the power law then maps every finite t to 0.
_EDGES = [-1.0, 1.0, 0.0, -0.0, math.nextafter(1.0, 0.0), -1e-300, 5e-324, -2.2e-308]
_RHO = st.sampled_from(_EDGES) | st.floats(-1.0, 1.0, allow_subnormal=True)
_T0 = st.sampled_from([5e-324, 1e-160, 1e-25, 1e-3, 1e200, 1.7e308]) | st.floats(
    5e-324, 1.7e308, allow_subnormal=True
)
_SPECS = st.one_of(
    st.just(tp.Mse()),
    st.builds(tp.PowerLaw, beta=st.just(2.0) | st.floats(2.0, 12.0)),
    st.builds(
        tp.Logistic,
        gamma=st.just(2.0) | st.floats(0.01, 2.0),
        epsilon=st.sampled_from([0.01, 0.5 - 1e-9, math.nextafter(0.5, 0.0)])
        | st.floats(1e-9, 0.5, exclude_max=True),
    ),
    st.builds(tp.Discrepancy, eta=st.floats(1e-3, 10.0)),
    st.builds(tp.Cgc, theta=st.none() | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    st.just(tp.Po()),
    st.just(tp.Mpo()),
)


def test_range_all_families():
    p = _random_params()
    values = []
    for i in range(N_CASES):
        values.extend(
            [
                tp.taper_mse(p["t"][i]),
                tp.taper_power(p["t"][i], p["beta"][i], p["t0"][i]),
                tp.taper_logistic(p["t"][i], p["gamma"][i], p["t0"][i], p["eps"][i]),
                tp.taper_discrepancy(p["t"][i], p["eta"][i]),
                tp.taper_cgc(p["rho"][i], p["theta"][i]),
                tp.taper_po(p["rho"][i], int(p["ne"][i])),
                tp.taper_mpo(p["rho"][i], int(p["ne"][i])),
            ]
        )
    values = np.array(values)
    assert np.all(values >= 0.0) and np.all(values <= 1.0)


def test_monotone_in_t():
    p = _random_params()
    t1 = rng.uniform(0.0, 10.0, N_CASES)
    t2 = t1 + rng.uniform(0.0, 5.0, N_CASES)
    assert np.all(tp.taper_mse(t2) >= tp.taper_mse(t1))
    for i in range(N_CASES):
        args = (p["beta"][i], p["t0"][i])
        assert tp.taper_power(t2[i], *args) >= tp.taper_power(t1[i], *args)
        largs = (p["gamma"][i], p["t0"][i], p["eps"][i])
        assert tp.taper_logistic(t2[i], *largs) >= tp.taper_logistic(t1[i], *largs)
        assert tp.taper_discrepancy(t2[i], p["eta"][i]) >= tp.taper_discrepancy(
            t1[i], p["eta"][i]
        )


# A ratio such as u / (u + t0^beta) can step back where its sum rounds up,
# and the Gaspari-Cohn polynomial sums five rounded terms: monotone up to
# a few ulps of 1.
_ROUNDING = 8 * np.finfo(float).eps
# t at its edges: 0, subnormal (t -> 0) and inf, then any t in between
_T = st.sampled_from([0.0, 5e-324, 1e-300, math.inf]) | st.floats(0.0, math.inf)
_THRESHOLD = st.floats(1e-3, 1e3)  # t0^beta and the logistic steepness stay finite


@st.composite
def _t_tapers(draw):
    """(r, t0, r(t0)): a taper of t from each t family, with its threshold."""
    family = draw(st.sampled_from(["mse", "power", "logistic", "discrepancy"]))
    t0 = draw(_THRESHOLD)
    if family == "mse":
        return tp.taper_mse, 1.0, 0.5
    if family == "power":
        beta = draw(st.floats(2.0, 12.0))
        return (lambda t: tp.taper_power(t, beta, t0)), t0, 0.5
    if family == "logistic":
        gamma = draw(st.floats(0.01, 2.0))
        eps = draw(st.floats(1e-9, 0.5, exclude_max=True))
        return (lambda t: tp.taper_logistic(t, gamma, t0, eps)), t0, 0.5
    return (lambda t: tp.taper_discrepancy(t, t0)), t0, 0.0  # hard threshold eta = t0


@settings(max_examples=300, deadline=None)
@given(_t_tapers(), st.lists(_T, max_size=6))
def test_range_and_monotone_in_t_at_the_edges(taper, ts):
    r_of, t0, at_t0 = taper
    t = np.sort(np.array(ts + [0.0, 5e-324, t0, math.inf]))
    r = r_of(t)
    assert np.all((r >= 0.0) & (r <= 1.0))
    assert np.all(np.diff(r) >= -_ROUNDING)
    assert r_of(t0) == at_t0 and r[-1] == 1.0  # t = t0 and t = inf


@settings(max_examples=300, deadline=None)
@given(_SPECS, st.just(3) | st.integers(3, 5000), st.lists(_RHO, max_size=8), _THRESHOLD)
def test_range_and_monotone_in_rho_every_family(spec, n_e, rhos, t0):
    """Every family, from |rho| = 0 (t = 0) to |rho| = 1 (t = inf), Ne = 3 too."""
    rho = np.array(rhos + [0.0, 5e-324, -1.0, 1.0])
    rho = rho[np.argsort(np.abs(rho), kind="stable")]
    t0 = t0 if isinstance(spec, (tp.PowerLaw, tp.Logistic)) else None
    r = tp.evaluate_taper(spec, tp.CorrelationStats.from_rho(rho, n_e), t0)
    assert np.all((r >= 0.0) & (r <= 1.0))
    assert np.all(np.diff(r) >= -_ROUNDING)


def test_monotone_in_ensemble_size():
    """Larger ensembles mean smaller sigma, hence no more tapering."""
    rho = rng.uniform(0.01, 0.99, N_CASES)
    n1 = rng.integers(3, 500, N_CASES)
    n2 = n1 + rng.integers(1, 1500, N_CASES)

    def t_of(rho_i, n):
        return tp.standardize(rho_i, tp.sampling_std(rho_i, int(n)))

    for i in range(N_CASES):
        ta, tb = t_of(rho[i], n1[i]), t_of(rho[i], n2[i])
        assert tp.taper_mse(tb) >= tp.taper_mse(ta)
        assert tp.taper_power(tb, 3.0, 2.0) >= tp.taper_power(ta, 3.0, 2.0)
        assert tp.taper_logistic(tb, 1.5, 2.0) >= tp.taper_logistic(ta, 1.5, 2.0)
        assert tp.taper_discrepancy(tb, 0.5) >= tp.taper_discrepancy(ta, 0.5)
        assert tp.taper_po(rho[i], int(n2[i])) >= tp.taper_po(rho[i], int(n1[i]))
        assert tp.taper_mpo(rho[i], int(n2[i])) >= tp.taper_mpo(rho[i], int(n1[i]))
        sa = tp.sampling_std(rho[i], int(n1[i]))
        sb = tp.sampling_std(rho[i], int(n2[i]))
        if 0.0 < sb <= sa < 1.0:
            assert tp.taper_cgc(rho[i], sb) >= tp.taper_cgc(rho[i], sa) - 1e-15


def test_power_reduces_to_mse():
    t = rng.uniform(0.0, 50.0, 5 * N_CASES)
    assert np.array_equal(tp.taper_power(t, 2.0, 1.0), tp.taper_mse(t))


def test_half_point_identities():
    beta = rng.uniform(2.0, 10.0, N_CASES)
    t0 = rng.uniform(0.05, 8.0, N_CASES)
    gamma = rng.uniform(0.05, 2.0, N_CASES)
    eps = rng.uniform(1e-5, 0.49, N_CASES)
    for i in range(N_CASES):
        assert tp.taper_power(t0[i], beta[i], t0[i]) == 0.5
        assert tp.taper_logistic(t0[i], gamma[i], t0[i], eps[i]) == 0.5


def test_hard_thresholds():
    t = rng.uniform(0.0, 4.0, N_CASES)
    eta = rng.uniform(0.05, 2.0, N_CASES)
    disc = np.array([tp.taper_discrepancy(t[i], eta[i]) for i in range(N_CASES)])
    assert np.array_equal(disc == 0.0, t <= eta)

    rho = rng.uniform(0.0, 1.0, N_CASES)
    ne = rng.integers(3, 900, N_CASES)
    mpo = np.array([tp.taper_mpo(rho[i], int(ne[i])) for i in range(N_CASES)])
    below = rho * np.sqrt(ne) <= 1.0
    assert np.array_equal(mpo == 0.0, below)


def test_even_in_rho():
    rho = rng.uniform(0.0, 1.0, N_CASES)
    ne = rng.integers(3, 500, N_CASES)
    theta = rng.uniform(1e-3, 0.99, N_CASES)
    for i in range(N_CASES):
        n = int(ne[i])
        stats_p = tp.CorrelationStats.from_rho(rho[i], n)
        stats_m = tp.CorrelationStats.from_rho(-rho[i], n)
        for spec in (
            tp.Mse(),
            tp.PowerLaw(3.0, 2.0),
            tp.Logistic(1.5, 2.0),
            tp.Discrepancy(0.5),
            tp.Cgc(),
            tp.Po(),
            tp.Mpo(),
        ):
            assert tp.evaluate_taper(spec, stats_p) == tp.evaluate_taper(spec, stats_m)
        assert tp.taper_cgc(rho[i], theta[i]) == tp.taper_cgc(-rho[i], theta[i])


@st.composite
def _slabs(draw):
    """(spec, n_e, rho, t0): a correlation slab with NaN rows and columns."""
    spec = draw(_SPECS)
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 7))
    rho = draw(hnp.arrays(float, (rows, cols), elements=_RHO))
    rho[draw(st.lists(st.integers(0, rows - 1), max_size=2)), :] = np.nan
    rho[:, draw(st.lists(st.integers(0, cols - 1), max_size=2))] = np.nan
    t0 = None
    if isinstance(spec, (tp.PowerLaw, tp.Logistic)):
        t0 = draw(_T0 | hnp.arrays(float, cols, elements=_T0))  # scalar or per datum
    return spec, draw(st.just(3) | st.integers(3, 5000)), rho, t0


@settings(max_examples=300, deadline=None)
@given(_slabs())
def test_taper_kernel_equals_public_tapers(case):
    """The field kernel equals the oracle formulas, which the public tapers
    equal bit for bit (below), and the public taper of every other family."""
    spec, n_e, rho, t0 = case
    try:
        tp.evaluate_taper(spec, tp.CorrelationStats.from_rho(0.0, n_e), t0)
    except ValueError as exc:  # a threshold the taper rejects: the kernel says the same
        with pytest.raises(ValueError) as err:
            tp._taper_kernel(spec, n_e, t0)
        assert str(err.value) == str(exc)
        return
    want = correlation_taper(spec, rho, n_e, t0)
    got = rho.copy()
    kernel = tp._taper_kernel(spec, n_e, t0)
    kernel(got)
    assert np.array_equal(got, want)
    if tp._in_place(spec, t0) is not None:  # t left by a percentile pass
        got = tp._standardize(rho.copy(), math.sqrt(n_e - 1))
        kernel(got, standardized=True)
        assert np.array_equal(got, want)


_T_EDGES = st.sampled_from([0.0, 5e-324, 2.2e-308, 1e-160, math.inf]) | st.floats(
    0.0, math.inf, allow_subnormal=True
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["mse", "power", "logistic"]),
    _T_EDGES | hnp.arrays(float, st.integers(1, 6), elements=_T_EDGES),
    st.floats(2.0, 12.0),
    st.floats(0.01, 2.0),
    st.floats(1e-9, 0.5, exclude_max=True),
    st.data(),
)
def test_public_tapers_equal_oracle_formulas(family, t, beta, gamma, eps, data):
    """MSE, power-law and logistic on a fresh copy of t, bit for bit with
    the np.where formulas: scalar or array t, scalar or per-datum t0 array,
    t = 0, subnormal t and t = inf. A scalar t gives a scalar."""
    n = np.size(t) if np.ndim(t) else data.draw(st.integers(1, 6))
    t0 = 1.0 if family == "mse" else data.draw(
        _THRESHOLD | hnp.arrays(float, n, elements=_THRESHOLD)
    )
    if family == "mse":
        got, want = tp.taper_mse(t), oracles.taper_mse(t)
    elif family == "power":
        got, want = tp.taper_power(t, beta, t0), oracles.taper_power(t, beta, t0)
    else:
        got = tp.taper_logistic(t, gamma, t0, eps)
        want = oracles.taper_logistic(t, gamma, t0, eps)
    assert isinstance(got, np.ndarray) == (np.ndim(t) + np.ndim(t0) > 0)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
