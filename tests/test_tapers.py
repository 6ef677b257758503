"""Unit tests for the taper functions against hand and high-precision values."""

import math

import numpy as np
import pytest

from enloc import tapers as tp
from enloc.errors import InvalidEnsembleSizeError, WrongTaperKindError
from enloc.significance import PercentileT0, StudentT0


def test_sampling_std_values():
    assert tp.sampling_std(0.0, 101) == pytest.approx(0.1, abs=0)
    assert tp.sampling_std(0.5, 101) == pytest.approx(0.075, abs=0)
    assert tp.sampling_std(1.0, 50) == 0.0
    assert tp.sampling_std(-1.0, 50) == 0.0


def test_sampling_std_rejects_small_ensembles():
    with pytest.raises(InvalidEnsembleSizeError):
        tp.sampling_std(0.1, 2)


def test_standardize():
    assert tp.standardize(0.3, 0.1) == pytest.approx(3.0, rel=1e-15)
    assert tp.standardize(0.0, 0.1) == 0.0
    assert tp.standardize(-0.2, 0.1) == pytest.approx(2.0, rel=1e-15)
    assert tp.standardize(0.7, 0.0) == math.inf


def test_taper_mse():
    assert tp.taper_mse(0.0) == 0.0
    assert tp.taper_mse(1.0) == 0.5
    assert tp.taper_mse(3.0) == pytest.approx(0.9, rel=1e-15)
    assert tp.taper_mse(math.inf) == 1.0


def test_taper_power():
    assert tp.taper_power(2.0, 3.0, 2.0) == 0.5
    assert tp.taper_power(0.0, 3.0, 2.0) == 0.0
    # 4^3 / (4^3 + 2^3) = 64/72, direct high-precision evaluation
    assert tp.taper_power(4.0, 3.0, 2.0) == pytest.approx(64.0 / 72.0, rel=1e-15)
    with pytest.raises(ValueError):
        tp.taper_power(1.0, 1.5, 2.0)
    with pytest.raises(ValueError):
        tp.taper_power(1.0, 3.0, 0.0)


def test_taper_logistic():
    # r(0) = epsilon by construction of the steepness
    assert tp.taper_logistic(0.0, 1.5, 2.0, 0.01) == pytest.approx(0.01, rel=1e-12)
    assert tp.taper_logistic(2.0, 1.5, 2.0, 0.01) == 0.5
    # c = ln(99) / 2^1.5
    c = tp.logistic_steepness(1.5, 2.0, 0.01)
    assert c == pytest.approx(math.log(99.0) / 2.0**1.5, rel=1e-15)
    assert c == pytest.approx(1.62462, abs=1e-5)
    with pytest.raises(ValueError):
        tp.taper_logistic(1.0, 2.5, 2.0, 0.01)
    with pytest.raises(ValueError):
        tp.taper_logistic(1.0, 1.5, 2.0, 0.7)


def test_taper_discrepancy():
    assert tp.taper_discrepancy(0.5, 0.5) == 0.0
    assert tp.taper_discrepancy(1.0, 0.5) == 0.5
    assert tp.taper_discrepancy(5.0, 0.5) == pytest.approx(0.9, rel=1e-15)
    assert tp.taper_discrepancy(0.0, 0.5) == 0.0
    assert tp.taper_discrepancy(math.inf, 0.5) == 1.0


def test_threshold_whose_power_underflows_is_rejected():
    # t0^beta underflows to 0, which made r(0) = 0/0
    with pytest.raises(ValueError, match=r"^t0 = 1e-30 too small: t0\^11 underflows to 0$"):
        tp.taper_power(0.0, 11.0, 1e-30)
    # c = ln(99) / t0^2 overflows for t0 = 1e-160 and divides by 0 for t0 = 1e-200
    for t0 in (1e-160, 1e-200):
        with pytest.raises(ValueError, match=f"^t0 = {t0!r} too small: logistic steepness"):
            tp.taper_logistic(np.array([0.0, 1.0, math.inf]), 2.0, t0)
    # a per-datum threshold names the rejected entry
    with pytest.raises(ValueError, match="^t0 = 1e-200 too small"):
        tp.taper_logistic(1.0, 2.0, np.array([2.0, 1e-200]))


def test_logistic_threshold_whose_power_overflows_is_rejected():
    # where t0^2 overflows, c = 0 and every correlation would pass with r = 1
    with pytest.raises(ValueError, match=r"^t0 = 1e\+200 too large: t0\^2 overflows$"):
        tp.taper_logistic(np.array([0.0, 1.0, 5.0]), 2.0, 1e200)
    with pytest.raises(ValueError, match=r"^t0 = 1e\+200 too large"):
        tp.taper_logistic(1.0, 2.0, np.array([2.0, 1e200]))
    r = tp.taper_logistic(np.array([0.0, 1.0, 5.0]), 2.0, 1e150)
    assert r == pytest.approx(0.01, rel=1e-12)


def test_non_finite_taper_parameters_are_rejected():
    nan, inf = math.nan, math.inf
    for text in ("power:beta=3,t0=nan", "discrepancy:eta=nan", "power:beta=inf,t0=2",
                 "discrepancy:eta=inf", "distance:major=inf,minor=2", "logistic:gamma=1,t0=inf"):
        with pytest.raises(ValueError):
            tp.parse_taper(text)
    t = np.array([0.5, 1.0, 1.5, 1.99, 2.0, 3.0])
    for beta, t0 in ((inf, 2.0), (nan, 2.0), (3.0, nan), (3.0, inf)):
        with pytest.raises(ValueError):
            tp.taper_power(t, beta, t0)
    with pytest.raises(ValueError):
        tp.taper_power(t, 3.0, np.array([2.0, nan]))
    for eta in (nan, inf):
        with pytest.raises(ValueError):
            tp.taper_discrepancy(t, eta)
    with pytest.raises(ValueError, match=r"^theta must lie in \[0, 1\)$"):
        tp.taper_cgc(0.5, nan)
    with pytest.raises(ValueError):
        tp.taper_distance(1.0, 1.0, inf, 2.0, 0.0)


@pytest.mark.parametrize(
    "taper",
    [
        tp.taper_mse,
        lambda t: tp.taper_power(t, 3.0, 2.0),
        lambda t: tp.taper_logistic(t, 1.5, 2.0),
        lambda t: tp.taper_discrepancy(t, 0.5),
        tp.gaspari_cohn,
    ],
    ids=["mse", "power", "logistic", "discrepancy", "gaspari_cohn"],
)
@pytest.mark.parametrize("t", [math.nan, np.array([0.5, math.nan])], ids=["scalar", "array"])
def test_nan_t_is_rejected(taper, t):
    # NaN is no magnitude: it must not pass as a full update or as none
    with pytest.raises(ValueError, match="must be nonnegative, not NaN"):
        taper(t)


def test_standardize_rejects_nan_sigma():
    with pytest.raises(ValueError, match="sigma must be nonnegative, not NaN"):
        tp.standardize(0.5, math.nan)


_VALID_ARGS = {
    tp.PowerLaw: dict(beta=3.0, t0=2.0),
    tp.Logistic: dict(gamma=1.5, t0=2.0, epsilon=0.01),
    tp.Discrepancy: dict(eta=0.5),
    tp.Cgc: dict(theta=0.2),
    tp.DistanceGC: dict(len_major=5.0, len_minor=2.0, angle_deg=30.0),
    StudentT0: dict(phi=0.05),
    PercentileT0: dict(p=0.9),
}
_FIELDS = [(cls, field) for cls, args in _VALID_ARGS.items() for field in args]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, field", _FIELDS, ids=[f"{c.__name__}.{f}" for c, f in _FIELDS])
def test_every_spec_and_strategy_rejects_non_finite_numbers(cls, field, value):
    cls(**_VALID_ARGS[cls])
    with pytest.raises(ValueError):
        cls(**dict(_VALID_ARGS[cls], **{field: value}))


def test_power_threshold_whose_power_overflows_is_rejected():
    # t0^beta = inf made r = 0 below t0 and r = 1 from t0 on: r(t0) = 1, not 1/2
    with pytest.raises(ValueError, match=r"^t0 = 2\.0 too large: t0\^1e\+06 overflows$"):
        tp.taper_power(np.array([0.5, 1.0, 2.0, 3.0]), 1e6, 2.0)
    with pytest.raises(ValueError, match=r"^t0 = 1e\+200 too large: t0\^2 overflows$"):
        tp.PowerLaw(2.0, 1e200)
    assert tp.taper_power(2.0, 1000.0, 2.0) == 0.5


def test_undefined_correlation_is_rejected():
    # a NaN correlation would map to t = inf, and every t taper to r = 1
    with pytest.raises(ValueError, match="correlation must be a number"):
        tp.sampling_std(math.nan, 50)
    with pytest.raises(ValueError, match="correlation must be a number"):
        tp.CorrelationStats.from_rho(np.array([0.1, math.nan]), 50)
    with pytest.raises(ValueError, match="correlation must be a number"):
        tp.taper_cgc(math.nan, 0.2)


def test_discrepancy_of_subnormal_t_is_zero_without_warning():
    # eta / t overflows to inf; the taper is 1 - inf, clipped to 0
    assert tp.taper_discrepancy(1e-308, 6.0) == 0.0
    assert np.array_equal(tp.taper_discrepancy(np.array([5e-324, 12.0]), 6.0), [0.0, 0.5])


def test_gaspari_cohn_anchors():
    assert tp.gaspari_cohn(0.0) == 1.0
    assert tp.gaspari_cohn(2.0) == 0.0
    assert tp.gaspari_cohn(5.0) == 0.0
    # direct evaluation of the z = 1 branch: 1 - 5/3 + 5/8 + 1/2 - 1/4 = 5/24
    assert tp.gaspari_cohn(1.0) == pytest.approx(5.0 / 24.0, rel=1e-14)


def test_gaspari_cohn_continuity():
    eps = 1e-9
    for z0 in (1.0, 2.0):
        lo = tp.gaspari_cohn(z0 - eps)
        hi = tp.gaspari_cohn(z0 + eps)
        assert abs(lo - hi) < 1e-7
    # tighter limit comparison at the knots themselves
    assert abs(tp.gaspari_cohn(np.nextafter(1.0, 0.0)) - tp.gaspari_cohn(1.0)) < 1e-12
    assert abs(tp.gaspari_cohn(np.nextafter(2.0, 1.0)) - tp.gaspari_cohn(2.0)) < 1e-12


def test_taper_cgc():
    assert tp.taper_cgc(1.0, 0.1) == 1.0
    for theta in (0.05, 0.3, 0.8):
        assert tp.taper_cgc(theta, theta) == pytest.approx(5.0 / 24.0, rel=1e-14)
    # at rho = 0 the argument is 1/(1 - theta) < 2: taper stays nonzero
    val = tp.taper_cgc(0.0, 0.1)
    assert val == pytest.approx(tp.gaspari_cohn(1.0 / 0.9), rel=1e-14)
    assert val > 0.0
    with pytest.raises(ValueError):
        tp.taper_cgc(0.5, 1.0)


def test_taper_po():
    assert tp.taper_po(0.0, 100) == 0.0
    assert tp.taper_po(1.0, 100) == pytest.approx(1.0 / 1.02, rel=1e-14)
    assert tp.taper_po(0.5, 100) == pytest.approx(0.25 / 0.2625, rel=1e-14)
    with pytest.raises(InvalidEnsembleSizeError):
        tp.taper_po(0.5, 2)


def test_taper_mpo():
    assert tp.taper_mpo(0.1, 100) == 0.0  # boundary 1/rho^2 = n_e
    assert tp.taper_mpo(0.05, 100) == 0.0  # clipped region
    assert tp.taper_mpo(0.0, 100) == 0.0
    assert tp.taper_mpo(0.5, 100) == pytest.approx(96.0 / 101.0, rel=1e-14)
    with pytest.raises(InvalidEnsembleSizeError):
        tp.taper_mpo(0.5, 2)


def test_taper_distance():
    assert tp.taper_distance(0.0, 0.0, 90.0, 45.0, 45.0) == 1.0
    # beyond twice the critical length along the major axis: compact support
    a = math.radians(45.0)
    assert tp.taper_distance(181.0 * math.cos(a), 181.0 * math.sin(a), 90, 45, 45) == 0.0
    # isotropic case reduces to gaspari_cohn(euclidean / len)
    rng = np.random.default_rng(0)
    for _ in range(20):
        dx, dy = rng.normal(size=2) * 30
        angle = rng.uniform(0, 360)
        iso = tp.taper_distance(dx, dy, 25.0, 25.0, angle)
        assert iso == pytest.approx(tp.gaspari_cohn(math.hypot(dx, dy) / 25.0), abs=1e-12)


def test_correlation_stats_consistency():
    stats = tp.CorrelationStats.from_rho(0.4, 120)
    assert stats.sigma == tp.sampling_std(0.4, 120)
    assert stats.t == tp.standardize(0.4, stats.sigma)
    assert stats.n_e == 120


def test_evaluate_taper_dispatch():
    stats = tp.CorrelationStats(rho_hat=0.3, sigma=0.3, t=1.0, n_e=50)
    assert tp.evaluate_taper(tp.Mse(), stats) == 0.5
    # PowerLaw(2, 1) is identical to Mse for any stats
    rng = np.random.default_rng(1)
    arr = tp.CorrelationStats.from_rho(rng.uniform(-0.99, 0.99, size=200), 80)
    assert np.array_equal(
        tp.evaluate_taper(tp.PowerLaw(2.0, 1.0), arr), tp.evaluate_taper(tp.Mse(), arr)
    )
    po = tp.evaluate_taper(tp.Po(), tp.CorrelationStats.from_rho(0.5, 100))
    assert po == pytest.approx(0.25 / 0.2625, rel=1e-14)
    with pytest.raises(WrongTaperKindError):
        tp.evaluate_taper(tp.DistanceGC(90, 45, 45), stats)
    with pytest.raises(ValueError):
        tp.evaluate_taper(tp.PowerLaw(3.0, None), stats)


def test_cgc_from_sigma_at_perfect_correlation():
    # |rho| = 1 gives sigma = 0 and the taper must hit the f_GC(0) = 1 limit
    stats = tp.CorrelationStats.from_rho(np.array([1.0, -1.0]), 60)
    vals = tp.evaluate_taper(tp.Cgc(), stats)
    assert np.all(vals == 1.0)


def test_parse_and_format_roundtrip():
    encodings = [
        "mse",
        "po",
        "mpo",
        "power:beta=3,t0=2",
        "logistic:gamma=1.5,t0=2,eps=0.01",
        "discrepancy:eta=0.5",
        "cgc:theta=sigma",
        "cgc:theta=0.2",
        "distance:major=90,minor=45,angle=45",
    ]
    for text in encodings:
        spec = tp.parse_taper(text)
        assert tp.parse_taper(tp.format_taper(spec)) == spec


def test_parse_taper_defaults_and_errors():
    spec = tp.parse_taper("logistic:gamma=1.5,t0=2")
    assert isinstance(spec, tp.Logistic) and spec.epsilon == 0.01
    spec = tp.parse_taper("power:beta=3")
    assert isinstance(spec, tp.PowerLaw) and spec.t0 is None
    assert tp.parse_taper("cgc") == tp.Cgc(theta=None)
    with pytest.raises(ValueError):
        tp.parse_taper("power:t0=2")
    with pytest.raises(ValueError):
        tp.parse_taper("frobnicate:x=1")
    with pytest.raises(ValueError):
        tp.parse_taper("power:beta=3,bogus=1")
