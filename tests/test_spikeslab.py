"""Spike-and-slab closed forms against an independent quadrature oracle."""

import math

import numpy as np
import pytest
from oracles import quadrature_posterior_mean

from enloc import spikeslab as ss

# grids used by the oracle-equivalence suite
LAM_GRID = (0.05, 0.1, 0.3, 0.5)
TAU_GRID = (0.5, 1.0, 3.0, 10.0)
SIGMA_GRID = (0.05, 0.1, 0.2)
RHO_GRID = np.round(np.arange(-0.9, 0.95, 0.1), 10)


def test_gaussian_prior_taper():
    assert ss.gaussian_prior_taper(1.0) == 0.5
    assert ss.gaussian_prior_taper(0.0) == 0.0
    assert ss.gaussian_prior_taper(3.0) == pytest.approx(0.9, rel=1e-15)
    assert ss.gaussian_prior_taper(math.inf) == 1.0


def test_inclusion_probability_values():
    # even prior odds with an uninformative slab: f(0) -> 1/2
    p = ss.SpikeSlabParams(lam=0.5, upsilon=1e-9, sigma=1.0)
    assert ss.inclusion_probability(0.0, p) == pytest.approx(0.5, abs=1e-9)
    # 1 / (1 + 9 sqrt(10)) at rho = 0, lam = 0.1, tau = 3
    p = ss.SpikeSlabParams(lam=0.1, upsilon=3.0, sigma=1.0)
    assert ss.inclusion_probability(0.0, p) == pytest.approx(
        1.0 / (1.0 + 9.0 * math.sqrt(10.0)), rel=1e-12
    )


def test_inclusion_probability_monotone_bounded():
    # parameters chosen so the (0, 1) bounds stay resolvable in floats;
    # sharper settings saturate f to 1 - O(1e-19), which rounds to 1.0
    p = ss.SpikeSlabParams(lam=0.2, upsilon=0.3, sigma=0.2)
    rho = np.linspace(0.0, 0.99, 200)
    f = ss.inclusion_probability(rho, p)
    assert np.all(np.diff(f) > 0.0)
    assert np.all((f > 0.0) & (f < 1.0))
    assert np.array_equal(ss.inclusion_probability(-rho, p), f)


def test_posterior_mean_basics():
    p = ss.SpikeSlabParams(lam=0.1, upsilon=0.3, sigma=0.1)
    assert ss.spike_slab_posterior_mean(0.0, p) == 0.0
    rho = np.linspace(-0.9, 0.9, 37)
    m = ss.spike_slab_posterior_mean(rho, p)
    assert np.all(np.sign(m[rho != 0]) == np.sign(rho[rho != 0]))


def test_posterior_mean_against_quadrature_spot():
    p = ss.SpikeSlabParams(lam=0.1, upsilon=0.3, sigma=0.1)
    closed = ss.spike_slab_posterior_mean(0.4, p)
    oracle = quadrature_posterior_mean(0.4, 0.1, 0.3, 0.1)
    assert closed == pytest.approx(oracle, abs=1e-8)


def test_posterior_mean_against_quadrature_grid():
    worst = 0.0
    for lam in LAM_GRID:
        for tau in TAU_GRID:
            for sigma in SIGMA_GRID:
                upsilon = tau * sigma
                p = ss.SpikeSlabParams(lam=lam, upsilon=upsilon, sigma=sigma)
                closed = ss.spike_slab_posterior_mean(RHO_GRID, p)
                oracle = np.array(
                    [
                        quadrature_posterior_mean(r, lam, upsilon, sigma)
                        for r in RHO_GRID
                    ]
                )
                worst = max(worst, float(np.max(np.abs(closed - oracle))))
    assert worst < 1e-8


def test_standardized_taper_consistent_with_posterior_mean():
    """r(t) * rho equals the posterior mean when (t, tau) match (rho, ups, sigma)."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        lam = rng.uniform(0.02, 0.98)
        sigma = rng.uniform(0.02, 0.3)
        tau = rng.uniform(0.1, 12.0)
        rho = rng.uniform(-0.95, 0.95)
        p = ss.SpikeSlabParams(lam=lam, upsilon=tau * sigma, sigma=sigma)
        t = abs(rho) / sigma
        lhs = ss.taper_spike_slab(t, lam, tau) * rho
        rhs = ss.spike_slab_posterior_mean(rho, p)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_standardized_taper_asymptote_and_example():
    # detection factor at t=0 times the shrinkage: 0.9 / (1 + 9 sqrt(10))
    expected = 0.9 / (1.0 + 9.0 * math.sqrt(10.0))
    assert ss.taper_spike_slab(0.0, 0.1, 3.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.030549, abs=1e-6)
    # sup over t equals the Gaussian-prior taper (checked deep in the tail)
    for lam in LAM_GRID:
        for tau in TAU_GRID:
            assert ss.taper_spike_slab(50.0, lam, tau) == pytest.approx(
                ss.gaussian_prior_taper(tau), rel=1e-10
            )
            t = np.linspace(0.0, 50.0, 400)
            assert np.all(
                ss.taper_spike_slab(t, lam, tau) <= ss.gaussian_prior_taper(tau) + 1e-15
            )


def test_lambda_to_one_recovers_gaussian_prior():
    t = np.linspace(0.0, 10.0, 101)
    for tau in TAU_GRID:
        r = ss.taper_spike_slab(t, 1.0 - 1e-12, tau)
        assert np.max(np.abs(r - ss.gaussian_prior_taper(tau))) < 1e-6


def test_logistic_reparameterization():
    p = ss.to_logistic_params(0.1, 3.0)
    assert p.r_max == pytest.approx(0.9, rel=1e-15)
    assert p.c == pytest.approx(0.45, rel=1e-15)
    assert p.t0_sq == pytest.approx((20.0 / 9.0) * math.log(9.0 * math.sqrt(10.0)), rel=1e-14)
    assert p.t0_sq == pytest.approx(7.441149, abs=1e-6)
    assert math.sqrt(p.t0_sq) == pytest.approx(2.7279, abs=1e-4)
    # lam = 0.5: t0^2 = (20/9) ln(sqrt(10)) still positive
    p2 = ss.to_logistic_params(0.5, 3.0)
    assert p2.t0_sq == pytest.approx((20.0 / 9.0) * math.log(math.sqrt(10.0)), rel=1e-14)
    assert p2.t0_sq > 0.0


def test_logistic_r_max_matches_prior_taper():
    rng = np.random.default_rng(11)
    for _ in range(100):
        lam = rng.uniform(0.01, 0.99)
        tau = rng.uniform(0.05, 20.0)
        assert ss.to_logistic_params(lam, tau).r_max == ss.gaussian_prior_taper(tau)


def test_logistic_equivalence_grid():
    """Scaled-logistic form reproduces the direct formula to 1e-12."""
    t = np.linspace(0.0, 8.0, 100)
    for lam in LAM_GRID:
        for tau in TAU_GRID:
            p = ss.to_logistic_params(lam, tau)
            direct = ss.taper_spike_slab(t, lam, tau)
            logistic = ss.logistic_from_params(t, p)
            assert np.max(np.abs(direct - logistic)) < 1e-12
            assert ss.logistic_from_params(math.sqrt(abs(p.t0_sq)), p) == pytest.approx(
                p.r_max / 2.0, rel=1e-12
            ) or p.t0_sq < 0.0


def test_logistic_midpoint_and_tail():
    p = ss.to_logistic_params(0.05, 2.0)
    assert ss.logistic_from_params(math.sqrt(p.t0_sq), p) == pytest.approx(
        p.r_max / 2.0, rel=1e-12
    )
    deep = ss.LogisticParams(r_max=0.8, c=0.4, t0_sq=400.0)
    assert ss.logistic_from_params(0.0, deep) < 1e-30


def test_negative_t0_sq_is_legal():
    # prior odds already favor inclusion: (1-lam) sqrt(tau^2+1) / lam < 1
    p = ss.to_logistic_params(0.9, 1.0)
    assert p.t0_sq < 0.0
    t = np.linspace(0.0, 5.0, 50)
    assert np.max(np.abs(ss.logistic_from_params(t, p) - ss.taper_spike_slab(t, 0.9, 1.0))) < 1e-12


def test_bayes_factor_power_route():
    t = np.linspace(0.0, 10.0, 333)
    from enloc.tapers import taper_power

    for beta in (2.0, 3.0, 5.0):
        for t0 in (0.5, 1.0, 2.0):
            assert np.max(
                np.abs(ss.bayes_factor_power_taper(t, beta, t0) - taper_power(t, beta, t0))
            ) < 1e-12
    # even odds with unit constant: threshold lands at 1 and r(1) = 1/2
    assert ss.power_taper_prior_odds(1.0, 3.0, 0.5, 1.0) == 0.5
    # explicit prior odds: t0^beta = (1-lam)/(lam b)
    lam, b, beta, t = 0.2, 2.0, 3.0, 3.0
    t0 = ((1.0 - lam) / (lam * b)) ** (1.0 / beta)
    route = ss.power_taper_prior_odds(t, beta, lam, b)
    closed = t**beta / (t**beta + t0**beta)
    assert route == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: ss.SpikeSlabParams(0.5, v, 1.0),
        lambda v: ss.SpikeSlabParams(0.5, 1.0, v),
        lambda v: ss.taper_spike_slab(1.0, 0.5, v),
        lambda v: ss.to_logistic_params(0.5, v),
        lambda v: ss.power_taper_prior_odds(1.0, v, 0.5, 1.0),
        lambda v: ss.power_taper_prior_odds(1.0, 3.0, 0.5, v),
        lambda v: ss.bayes_factor_power_taper(1.0, 3.0, v),
    ],
    ids=["upsilon", "sigma", "spike_slab_tau", "logistic_tau", "beta", "b", "t0"],
)
def test_non_finite_or_nonpositive_parameters_are_rejected(call, value):
    # a non-finite parameter would make every taper value NaN
    with pytest.raises(ValueError, match="must be finite and > 0"):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        ss.gaussian_prior_taper,
        lambda v: ss.taper_spike_slab(v, 0.5, 1.0),
        lambda v: ss.logistic_from_params(v, ss.to_logistic_params(0.1, 3.0)),
        lambda v: ss.power_taper_prior_odds(v, 3.0, 0.5, 1.0),
    ],
    ids=["gaussian_tau", "spike_slab_t", "logistic_t", "prior_odds_t"],
)
def test_nan_magnitude_is_rejected(call):
    with pytest.raises(ValueError, match="must be nonnegative, not NaN"):
        call(np.array([1.0, math.nan]))
