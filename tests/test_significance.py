"""Student-t thresholds against the published golden table and inverse relations."""

import math

import numpy as np
import pytest
from scipy.special import ndtri
from oracles import T0_RHO0_TABLE as GOLDEN

from enloc import significance as sig
from enloc.errors import DegenerateStatisticError, InvalidEnsembleSizeError


@pytest.mark.parametrize("ne,phi", sorted(GOLDEN))
def test_golden_thresholds(ne, phi):
    t0_ref, rho0_ref = GOLDEN[(ne, phi)]
    assert sig.critical_t0(ne, phi) == pytest.approx(t0_ref, abs=1e-3)
    assert sig.critical_rho(ne, phi) == pytest.approx(rho0_ref, abs=1e-3)


def test_quantile_examples():
    assert sig.student_t_quantile(98, 0.975) == pytest.approx(1.984, abs=1e-3)
    assert sig.student_t_quantile(48, 0.975) == pytest.approx(2.011, abs=1e-3)
    assert sig.student_t_quantile(998, 0.995) == pytest.approx(2.581, abs=1e-3)


def test_quantile_symmetry_and_median():
    assert sig.student_t_quantile(10, 0.5) == 0.0
    q = sig.student_t_quantile(10, 0.9)
    assert sig.student_t_quantile(10, 0.1) == pytest.approx(-q, rel=1e-12)


def test_quantile_roundtrips_cdf():
    for nu in (1, 2, 5, 30, 300):
        for p in (0.6, 0.9, 0.975, 0.999):
            q = sig.student_t_quantile(nu, p)
            assert sig.student_t_cdf(q, nu) == pytest.approx(p, abs=1e-10)


def test_quantile_gaussian_limit():
    assert abs(sig.student_t_quantile(10**6, 0.975) - 1.959964) < 1e-3
    # just above the median the quantile is tiny; relative accuracy still holds
    p = 0.5 + 1e-7
    assert sig.student_t_quantile(10**6, p) == pytest.approx(ndtri(p), rel=1e-5)


def test_quantile_domain_errors():
    with pytest.raises(ValueError):
        sig.student_t_quantile(10, 0.0)
    with pytest.raises(ValueError):
        sig.student_t_quantile(10, 1.0)
    with pytest.raises(ValueError):
        sig.student_t_quantile(0, 0.5)


def test_critical_rho_scaling():
    """rho0 decreases approximately as 1/sqrt(Ne)."""
    for ne in (50, 100, 400):
        for phi in (0.10, 0.05, 0.01):
            ratio = sig.critical_rho(4 * ne, phi) / sig.critical_rho(ne, phi)
            assert 0.45 <= ratio <= 0.55


def test_t_statistic():
    assert sig.t_statistic(0.0, 50) == 0.0
    assert sig.t_statistic(0.197, 100) == pytest.approx(1.984, abs=0.01)
    assert sig.t_statistic(0.5, 100) == pytest.approx(
        0.5 * math.sqrt(98) / math.sqrt(0.75), rel=1e-12
    )
    with pytest.raises(DegenerateStatisticError):
        sig.t_statistic(1.0, 50)
    with pytest.raises(InvalidEnsembleSizeError):
        sig.t_statistic(0.5, 3)


def test_t_statistic_inverts_critical_rho():
    for ne in (10, 50, 100, 1000):
        for phi in (0.10, 0.05, 0.01):
            rho0 = sig.critical_rho(ne, phi)
            assert sig.t_statistic(rho0, ne) == pytest.approx(
                sig.critical_t0(ne, phi), abs=1e-9
            )


def test_adaptive_t0():
    assert sig.adaptive_t0([2.0, 2.0, 2.0, 2.0], 0.9) == 2.0
    assert sig.adaptive_t0([3.3], 0.9) == 3.3
    # brute-force oracle: sort + linear interpolation between order statistics
    values = list(range(11))
    p = 0.9
    h = (len(values) - 1) * p
    lo, hi = int(math.floor(h)), int(math.ceil(h))
    expected = values[lo] + (h - lo) * (values[hi] - values[lo])
    assert sig.adaptive_t0(values, p) == pytest.approx(expected, abs=0)
    assert expected == 9.0

    rng = np.random.default_rng(3)
    sample = rng.gamma(2.0, 1.0, size=257)
    srt = np.sort(sample)
    h = (sample.size - 1) * 0.9
    lo = int(math.floor(h))
    oracle = srt[lo] + (h - lo) * (srt[lo + 1] - srt[lo])
    assert sig.adaptive_t0(sample, 0.9) == pytest.approx(oracle, rel=1e-14)
    with pytest.raises(ValueError):
        sig.adaptive_t0([], 0.9)


def test_strategy_encoding():
    assert sig.parse_t0_strategy("t0=fixed:2") == sig.FixedT0(2.0)
    assert sig.parse_t0_strategy("fixed:2") == sig.FixedT0(2.0)
    assert sig.parse_t0_strategy("t0=student:phi=0.05") == sig.StudentT0(0.05)
    assert sig.parse_t0_strategy("t0=p90") == sig.PercentileT0(0.9)
    assert sig.parse_t0_strategy("p95") == sig.PercentileT0(0.95)
    for strat in (sig.FixedT0(2.0), sig.StudentT0(0.05), sig.PercentileT0(0.9)):
        assert sig.parse_t0_strategy(sig.format_t0_strategy(strat)) == strat
    with pytest.raises(ValueError):
        sig.parse_t0_strategy("q90")
