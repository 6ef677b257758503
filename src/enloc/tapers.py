"""Correlation-based and distance-based localization taper functions.

Every taper maps an estimated model-data correlation (or a pseudo-distance
derived from it) to a coefficient in [0, 1] multiplying the Kalman gain.
All functions accept scalars or numpy arrays and evaluate elementwise.

Conventions
-----------
sigma : sampling standard deviation of an estimated correlation,
        sigma = (1 - rho^2) / sqrt(n_e - 1).
t     : standardized correlation |rho| / sigma (signal-to-noise measure);
        t = +inf when sigma = 0 (|rho| = 1), in which case every taper
        whose large-t limit is 1 returns exactly 1.

The power law (MSE is its beta = 2, t0 = 1 case) and the logistic taper
each have one in-place body, run by the public taper on a copy of t and by
a TaperField's kernel on each slab of correlations, standardized in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import InvalidEnsembleSizeError, WrongTaperKindError, check_finite

__all__ = [
    "CorrelationStats",
    "Mse",
    "PowerLaw",
    "Logistic",
    "Discrepancy",
    "Cgc",
    "Po",
    "Mpo",
    "DistanceGC",
    "TaperSpec",
    "sampling_std",
    "standardize",
    "taper_mse",
    "taper_power",
    "taper_logistic",
    "taper_discrepancy",
    "gaspari_cohn",
    "taper_cgc",
    "taper_po",
    "taper_mpo",
    "taper_distance",
    "evaluate_taper",
    "parse_taper",
    "format_taper",
]


def sampling_std(rho_hat, n_e: int):
    """Sampling standard deviation of an estimated correlation.

    sigma = (1 - rho_hat^2) / sqrt(n_e - 1), using the estimate itself as
    plug-in value. Zero only at |rho_hat| = 1.

    Parameters
    ----------
    rho_hat : float or ndarray
        Estimated correlation(s) in [-1, 1].
    n_e : int
        Ensemble size, at least 3.
    """
    if n_e < 3:
        raise InvalidEnsembleSizeError(f"ensemble size must be >= 3, got {n_e}")
    rho = np.asarray(rho_hat, dtype=float)
    if not np.all(np.abs(rho) <= 1.0 + 1e-12):  # NaN fails too
        raise ValueError("correlation must be a number in [-1, 1]")
    return (1.0 - rho * rho) / math.sqrt(n_e - 1)


def standardize(rho_hat, sigma):
    """Standardized correlation t = |rho_hat| / sigma; +inf where sigma = 0."""
    rho = np.abs(np.asarray(rho_hat, dtype=float))
    sig = np.asarray(sigma, dtype=float)
    if not (sig >= 0.0).all():  # NaN fails too
        raise ValueError("sigma must be nonnegative, not NaN")
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(sig > 0.0, rho / np.where(sig > 0.0, sig, 1.0), np.inf)
    return t[()] if t.ndim == 0 else t


def taper_mse(t):
    """MSE-optimal taper r(t) = t^2 / (t^2 + 1): the power law at beta = 2, t0 = 1."""
    return _on_copy(Mse(), t, 1.0)


def taper_power(t, beta: float, t0):
    """Generalized power-law taper r(t) = t^beta / (t^beta + t0^beta).

    Reduces to the MSE taper for beta = 2, t0 = 1, and satisfies
    r(t0) = 1/2 exactly. beta >= 2 sharpens the transition at t0.
    """
    spec = PowerLaw(beta)  # checks beta as the spec does
    check_finite("t0", t0, above=0.0)
    return _on_copy(spec, t, t0)


def power_of_t0(t0, exponent: float) -> np.ndarray:
    """t0^exponent; raises ValueError where it underflows to 0 (r(0) = 0/0)
    or overflows (r = 0 below t0 and 1 from t0 on, so r(t0) = 1, not 1/2)."""
    t0 = np.asarray(t0, dtype=float)
    with np.errstate(over="ignore"):
        out = t0**exponent
    _reject_t0(t0, out == 0.0, f"too small: t0^{exponent:g} underflows to 0")
    _reject_t0(t0, np.isinf(out), f"too large: t0^{exponent:g} overflows")
    return out


def logistic_steepness(gamma: float, t0, epsilon: float):
    """Steepness c = ln((1 - eps)/eps) / t0^gamma enforcing r(0) = eps.

    c must be finite, and t0^gamma too: where it overflows, c = 0 and every
    correlation would pass with r = 1. Either case raises ValueError.
    """
    t0 = np.asarray(t0, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        t0_gamma = t0**gamma
        c = math.log((1.0 - epsilon) / epsilon) / t0_gamma
    _reject_t0(
        t0, ~np.isfinite(c), f"too small: logistic steepness is not finite for gamma = {gamma:g}"
    )
    _reject_t0(t0, np.isinf(t0_gamma), f"too large: t0^{gamma:g} overflows")
    return c


def taper_logistic(t, gamma: float, t0, epsilon: float = 0.01):
    """Logistic taper r(t) = 1 / (1 + exp(-c (t^gamma - t0^gamma))).

    The steepness c is fixed by the tolerance condition r(0) = epsilon,
    so the single free pair (t0, gamma) controls the transition point and
    its smoothness. r(t0) = 1/2 exactly; r -> 1 as t -> inf.

    Parameters
    ----------
    t : float or ndarray
        Standardized correlation(s), >= 0.
    gamma : float
        Transition exponent in (0, 2].
    t0 : float or ndarray
        Threshold where the taper crosses 1/2; broadcastable against t.
    epsilon : float
        Value at t = 0, in (0, 0.5).
    """
    spec = Logistic(gamma, epsilon=epsilon)  # checks gamma and epsilon as the spec does
    check_finite("t0", t0, above=0.0)
    return _on_copy(spec, t, t0)


def _power_law(u: np.ndarray, beta: float, t0_beta) -> None:
    """The power law's one body: t -> t^beta / (t^beta + t0_beta) in place, 1
    where t^beta overflows; t0_beta = power_of_t0(t0, beta). MSE is beta = 2
    and t0_beta = 1, since u**2 is u*u exactly."""
    with np.errstate(invalid="ignore", over="ignore"):
        u **= beta
        inf = np.isinf(u)
        u /= u + t0_beta
    np.copyto(u, 1.0, where=inf)


def _logistic(u: np.ndarray, gamma: float, t0_gamma, minus_c) -> None:
    """The logistic taper's one body: t -> 1 / (1 + exp(-c (t^gamma - t0^gamma)))
    in place, with c = logistic_steepness(gamma, t0, epsilon)."""
    with np.errstate(invalid="ignore", over="ignore"):
        u **= gamma
        u -= t0_gamma
        u *= minus_c  # -(c x): negation commutes with rounding
        np.copyto(u, -np.inf, where=np.isnan(u))  # inf - inf counts as +inf
        np.exp(u, out=u)
    u += 1.0
    np.divide(1.0, u, out=u)


def _in_place(spec, t0) -> tuple[Callable[..., None], tuple] | None:
    """(body, args) of spec's family at threshold t0, where body(t, *args)
    maps t to the taper in place; None for a family with no such body."""
    if isinstance(spec, Mse):
        return _power_law, (2.0, 1.0)
    if isinstance(spec, PowerLaw):
        return _power_law, (spec.beta, power_of_t0(t0, spec.beta))
    if isinstance(spec, Logistic):
        minus_c = -logistic_steepness(spec.gamma, t0, spec.epsilon)
        return _logistic, (spec.gamma, np.asarray(t0, dtype=float) ** spec.gamma, minus_c)
    return None


def _on_copy(spec, t, t0):
    """spec's in-place body run on a fresh copy of t broadcast against t0;
    a scalar for a scalar."""
    tt = np.asarray(t, dtype=float)
    _check_nonneg(tt, "t")
    body, args = _in_place(spec, t0)
    shape = np.shape(t0)
    u = np.empty(np.broadcast_shapes(tt.shape, shape) if shape else tt.shape)
    u[...] = tt
    body(u, *args)
    return u[()] if u.ndim == 0 else u


def taper_discrepancy(t, eta: float):
    """Discrepancy-principle taper r(t) = max(0, 1 - eta/t); 0 at t = 0.

    Hard threshold at t = eta: standardized correlations at or below the
    expected noise factor are fully suppressed.
    """
    Discrepancy(eta)  # checks eta as the spec does
    tt = np.asarray(t, dtype=float)
    _check_nonneg(tt, "t")
    with np.errstate(divide="ignore", over="ignore"):  # eta/t overflows for subnormal t
        r = np.where(tt > 0.0, 1.0 - eta / np.where(tt > 0.0, tt, 1.0), 0.0)
    r = np.maximum(r, 0.0)
    return r[()] if r.ndim == 0 else r


def gaspari_cohn(z):
    """Gaspari-Cohn compactly supported fifth-order correlation function.

    For 0 <= z <= 1:
        1 - (5/3) z^2 + (5/8) z^3 + (1/2) z^4 - (1/4) z^5
    for 1 < z < 2:
        4 - 5 z + (5/3) z^2 + (5/8) z^3 - (1/2) z^4 + (1/12) z^5 - 2/(3 z)
    and 0 for z >= 2. Continuous at z = 1 and z = 2.
    """
    za = np.asarray(z, dtype=float)
    _check_nonneg(za, "z")
    out = np.zeros_like(za)
    inner = za <= 1.0
    zi = za[inner]
    out[inner] = (
        1.0 - (5.0 / 3.0) * zi**2 + (5.0 / 8.0) * zi**3 + 0.5 * zi**4 - 0.25 * zi**5
    )
    outer = (za > 1.0) & (za < 2.0)
    zo = za[outer]
    out[outer] = (
        4.0
        - 5.0 * zo
        + (5.0 / 3.0) * zo**2
        + (5.0 / 8.0) * zo**3
        - 0.5 * zo**4
        + (1.0 / 12.0) * zo**5
        - 2.0 / (3.0 * zo)
    )
    return out[()] if out.ndim == 0 else out


def taper_cgc(rho_hat, theta):
    """Correlation-based Gaspari-Cohn taper f_GC((1 - |rho|) / (1 - theta)).

    theta rescales the pseudo-distance; with the default theta = sigma the
    taper adapts to the sampling noise level. The taper is never hard-zeroed
    below theta: at rho = 0 the argument is 1/(1 - theta) < 2, so a nonzero
    coefficient remains.

    theta = 0 is accepted as the continuous |rho| = 1 limit of the
    theta = sigma rule (where the taper equals f_GC(0) = 1).
    """
    rho = np.abs(np.asarray(rho_hat, dtype=float))
    if not np.all(rho <= 1.0 + 1e-12):  # NaN fails too
        raise ValueError("correlation must be a number in [-1, 1]")
    th = np.asarray(theta, dtype=float)
    if not np.all((th >= 0.0) & (th < 1.0)):  # NaN fails too
        raise ValueError("theta must lie in [0, 1)")
    z = (1.0 - np.minimum(rho, 1.0)) / (1.0 - th)
    r = gaspari_cohn(z)
    return r[()] if np.ndim(r) == 0 else r


def taper_po(rho_hat, n_e: int):
    """Pseudo-optimal taper r = rho^2 / (rho^2 + (1 + rho^2)/n_e)."""
    if n_e < 3:
        raise InvalidEnsembleSizeError(f"ensemble size must be >= 3, got {n_e}")
    rho = np.asarray(rho_hat, dtype=float)
    r2 = rho * rho
    r = r2 / (r2 + (1.0 + r2) / n_e)
    return r[()] if r.ndim == 0 else r


def taper_mpo(rho_hat, n_e: int):
    """Modified pseudo-optimal taper r = max(0, (n_e - 1/rho^2)/(n_e + 1)).

    Hard threshold at |rho| = 1/sqrt(n_e); rho = 0 maps to 0 as the limit
    of the clipped expression.
    """
    if n_e < 3:
        raise InvalidEnsembleSizeError(f"ensemble size must be >= 3, got {n_e}")
    rho = np.asarray(rho_hat, dtype=float)
    r2 = rho * rho
    # threshold test phrased so the boundary |rho| = 1/sqrt(n_e) is exact
    above = np.abs(rho) * math.sqrt(n_e) > 1.0
    with np.errstate(divide="ignore"):
        raw = (n_e - 1.0 / np.where(above, r2, 1.0)) / (n_e + 1.0)
    r = np.where(above, np.maximum(raw, 0.0), 0.0)
    return r[()] if r.ndim == 0 else r


def taper_distance(dx, dy, len_major: float, len_minor: float, angle_deg: float):
    """Anisotropic distance-based Gaspari-Cohn taper.

    The offset (dx, dy) in gridblock units is rotated into the principal
    frame (major axis at angle_deg from the x axis), scaled by the critical
    lengths, and passed to the Gaspari-Cohn function, so the taper reaches
    zero at twice the critical length along each principal direction.
    """
    DistanceGC(len_major, len_minor, angle_deg)  # checks the lengths as the spec does
    a = math.radians(angle_deg)
    dxa = np.asarray(dx, dtype=float)
    dya = np.asarray(dy, dtype=float)
    xr = dxa * math.cos(a) + dya * math.sin(a)
    yr = -dxa * math.sin(a) + dya * math.cos(a)
    z = np.sqrt((xr / len_major) ** 2 + (yr / len_minor) ** 2)
    r = gaspari_cohn(z)
    return r[()] if np.ndim(r) == 0 else r


@dataclass(frozen=True)
class CorrelationStats:
    """An estimated correlation with its sampling-noise context.

    Fields are scalars or same-shaped arrays: rho_hat in [-1, 1], the
    sampling std sigma = (1 - rho_hat^2)/sqrt(n_e - 1), the standardized
    magnitude t = |rho_hat|/sigma (+inf where sigma = 0), and n_e >= 3.
    """

    rho_hat: Union[float, np.ndarray]
    sigma: Union[float, np.ndarray]
    t: Union[float, np.ndarray]
    n_e: int

    @classmethod
    def from_rho(cls, rho_hat, n_e: int) -> "CorrelationStats":
        sigma = sampling_std(rho_hat, n_e)
        return cls(rho_hat=rho_hat, sigma=sigma, t=standardize(rho_hat, sigma), n_e=n_e)


# --- taper specifications (tagged union) ---


@dataclass(frozen=True)
class Mse:
    pass


@dataclass(frozen=True)
class PowerLaw:
    beta: float
    t0: float | None = None  # None until resolved by a threshold strategy

    def __post_init__(self):
        if not 2.0 <= self.beta < math.inf:
            raise ValueError(f"power-law beta must be finite and >= 2, got {self.beta}")
        if self.t0 is not None:
            check_finite("t0", self.t0, above=0.0)
            power_of_t0(self.t0, self.beta)


@dataclass(frozen=True)
class Logistic:
    gamma: float
    t0: float | None = None
    epsilon: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.gamma <= 2.0:
            raise ValueError(f"gamma must be in (0, 2], got {self.gamma}")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if self.t0 is not None:
            check_finite("t0", self.t0, above=0.0)
            logistic_steepness(self.gamma, self.t0, self.epsilon)


@dataclass(frozen=True)
class Discrepancy:
    eta: float

    def __post_init__(self):
        check_finite("eta", self.eta, above=0.0)


@dataclass(frozen=True)
class Cgc:
    theta: float | None = None  # None selects theta = sigma per pair

    def __post_init__(self):
        if self.theta is not None and not 0.0 < self.theta < 1.0:
            raise ValueError(f"fixed theta must be in (0, 1), got {self.theta}")


@dataclass(frozen=True)
class Po:
    pass


@dataclass(frozen=True)
class Mpo:
    pass


@dataclass(frozen=True)
class DistanceGC:
    len_major: float
    len_minor: float
    angle_deg: float = 0.0

    def __post_init__(self):
        for name in ("len_minor", "len_major"):
            check_finite(name, getattr(self, name), above=0.0)
        check_finite("angle_deg", self.angle_deg)
        if not self.len_major >= self.len_minor:
            raise ValueError("require len_major >= len_minor > 0")


TaperSpec = Union[Mse, PowerLaw, Logistic, Discrepancy, Cgc, Po, Mpo, DistanceGC]


def evaluate_taper(spec: TaperSpec, stats: CorrelationStats, t0=None):
    """Evaluate a correlation-based taper for the given correlation stats.

    Single dispatch point over the taper families; accepts array-valued
    stats for blockwise evaluation. t0, a resolved scalar or per-datum
    threshold broadcastable against stats.t, overrides the spec's own t0
    for the power-law and logistic families. DistanceGC is rejected because
    it needs geometry rather than correlation statistics.
    """
    if isinstance(spec, Mse):
        return taper_mse(stats.t)
    if isinstance(spec, (PowerLaw, Logistic)):
        t0 = spec.t0 if t0 is None else t0
        if t0 is None:
            raise ValueError("t0 unresolved; apply a threshold strategy first")
        if isinstance(spec, PowerLaw):
            return taper_power(stats.t, spec.beta, t0)
        return taper_logistic(stats.t, spec.gamma, t0, spec.epsilon)
    if isinstance(spec, Discrepancy):
        return taper_discrepancy(stats.t, spec.eta)
    if isinstance(spec, Cgc):
        theta = stats.sigma if spec.theta is None else spec.theta
        return taper_cgc(stats.rho_hat, theta)
    if isinstance(spec, Po):
        return taper_po(stats.rho_hat, stats.n_e)
    if isinstance(spec, Mpo):
        return taper_mpo(stats.rho_hat, stats.n_e)
    if isinstance(spec, DistanceGC):
        raise WrongTaperKindError(
            "distance taper requires geometry, not correlation statistics"
        )
    raise TypeError(f"unknown taper spec {spec!r}")


def _standardize(rho: np.ndarray, root: float) -> np.ndarray:
    """rho -> t = |rho| / sigma in place, as CorrelationStats.from_rho.

    sigma = (1 - rho^2) / root with root = sqrt(n_e - 1), as sampling_std
    computes it; t = inf where |rho| = 1, and NaN stays NaN. Returns rho,
    now holding t.
    """
    sigma = np.square(rho)  # rho * rho, without the two-operand loop
    np.subtract(1.0, sigma, out=sigma)
    sigma /= root
    np.abs(rho, out=rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho /= sigma
    return rho


def _taper_kernel(
    spec: TaperSpec, n_e: int, t0: float | np.ndarray | None
) -> Callable[[np.ndarray], None]:
    """In-place map of a correlation slab to taper coefficients for spec.

    MSE, power-law and logistic standardize the slab in place and run the
    same body as their public taper, so their coefficients are bit-identical
    to it. Every other family evaluates its public taper on the slab.
    Undefined (NaN) pairs map to 0. Correlations must lie in [-1, 1], as
    correlation_block clips them; kernel(slab, standardized=True) takes a
    slab that _standardize already mapped to t, for a family with a body.
    The public taper checks spec, t0 and n_e here, once per kernel.
    """
    evaluate_taper(spec, CorrelationStats.from_rho(0.0, n_e), t0)
    in_place = _in_place(spec, t0)
    root = math.sqrt(n_e - 1)

    def kernel(slab: np.ndarray, standardized: bool = False) -> None:
        undefined = np.isnan(slab)
        if in_place is None:
            stats = CorrelationStats.from_rho(np.nan_to_num(slab), n_e)
            slab[...] = evaluate_taper(spec, stats, t0)
        else:
            body, args = in_place
            body(slab if standardized else _standardize(slab, root), *args)
        np.copyto(slab, 0.0, where=undefined)

    return kernel


# --- canonical textual encoding, e.g. "logistic:gamma=1.5,t0=2,eps=0.01" ---


def _parse_kv(body: str, allowed: dict[str, str]) -> dict[str, str]:
    out: dict[str, str] = {}
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise ValueError(f"malformed taper parameter {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in allowed:
            raise ValueError(f"unknown taper parameter {key!r}")
        out[allowed[key]] = val.strip()
    return out


def parse_taper(text: str) -> TaperSpec:
    """Parse the canonical taper encoding used in config files.

    Examples: "mse", "po", "mpo", "power:beta=3,t0=2",
    "logistic:gamma=1.5,t0=2,eps=0.01", "discrepancy:eta=0.5",
    "cgc:theta=sigma", "distance:major=90,minor=45,angle=45".
    """
    name, _, body = text.strip().partition(":")
    name = name.strip().lower()
    if name == "mse":
        return Mse()
    if name == "po":
        return Po()
    if name == "mpo":
        return Mpo()
    if name == "power":
        kv = _parse_kv(body, {"beta": "beta", "t0": "t0"})
        if "beta" not in kv:
            raise ValueError("power taper requires beta")
        t0 = float(kv["t0"]) if "t0" in kv else None
        return PowerLaw(beta=float(kv["beta"]), t0=t0)
    if name == "logistic":
        kv = _parse_kv(body, {"gamma": "gamma", "t0": "t0", "eps": "epsilon"})
        if "gamma" not in kv:
            raise ValueError("logistic taper requires gamma")
        t0 = float(kv["t0"]) if "t0" in kv else None
        eps = float(kv["epsilon"]) if "epsilon" in kv else 0.01
        return Logistic(gamma=float(kv["gamma"]), t0=t0, epsilon=eps)
    if name == "discrepancy":
        kv = _parse_kv(body, {"eta": "eta"})
        if "eta" not in kv:
            raise ValueError("discrepancy taper requires eta")
        return Discrepancy(eta=float(kv["eta"]))
    if name == "cgc":
        kv = _parse_kv(body, {"theta": "theta"})
        theta = kv.get("theta", "sigma")
        return Cgc(theta=None if theta == "sigma" else float(theta))
    if name == "distance":
        kv = _parse_kv(body, {"major": "major", "minor": "minor", "angle": "angle"})
        if "major" not in kv or "minor" not in kv:
            raise ValueError("distance taper requires major and minor lengths")
        return DistanceGC(
            len_major=float(kv["major"]),
            len_minor=float(kv["minor"]),
            angle_deg=float(kv.get("angle", 0.0)),
        )
    raise ValueError(f"unknown taper family {name!r}")


def format_taper(spec: TaperSpec) -> str:
    """Canonical textual encoding of a taper spec (inverse of parse_taper)."""
    if isinstance(spec, Mse):
        return "mse"
    if isinstance(spec, Po):
        return "po"
    if isinstance(spec, Mpo):
        return "mpo"
    if isinstance(spec, PowerLaw):
        t0 = "" if spec.t0 is None else f",t0={spec.t0:g}"
        return f"power:beta={spec.beta:g}{t0}"
    if isinstance(spec, Logistic):
        t0 = "" if spec.t0 is None else f",t0={spec.t0:g}"
        return f"logistic:gamma={spec.gamma:g}{t0},eps={spec.epsilon:g}"
    if isinstance(spec, Discrepancy):
        return f"discrepancy:eta={spec.eta:g}"
    if isinstance(spec, Cgc):
        theta = "sigma" if spec.theta is None else f"{spec.theta:g}"
        return f"cgc:theta={theta}"
    if isinstance(spec, DistanceGC):
        return (
            f"distance:major={spec.len_major:g},minor={spec.len_minor:g},"
            f"angle={spec.angle_deg:g}"
        )
    raise TypeError(f"unknown taper spec {spec!r}")


def _check_nonneg(arr: np.ndarray, name: str) -> None:
    if not (arr >= 0.0).all():  # NaN fails too
        raise ValueError(f"{name} must be nonnegative, not NaN")


def _reject_t0(t0: np.ndarray, bad: np.ndarray, why: str) -> None:
    if bad.any():
        raise ValueError(f"t0 = {float(t0[bad].flat[0])!r} {why}")
