"""Shared independent oracles used by unit and acceptance tests."""

import math

import numpy as np
import scipy.linalg

# published (t0, rho0) thresholds per (ensemble size, two-sided level)
T0_RHO0_TABLE = {
    (50, 0.10): (1.677, 0.235),
    (50, 0.05): (2.011, 0.279),
    (50, 0.01): (2.682, 0.361),
    (100, 0.10): (1.660, 0.165),
    (100, 0.05): (1.984, 0.197),
    (100, 0.01): (2.626, 0.256),
    (200, 0.10): (1.653, 0.117),
    (200, 0.05): (1.972, 0.139),
    (200, 0.01): (2.601, 0.182),
    (1000, 0.10): (1.646, 0.052),
    (1000, 0.05): (1.962, 0.062),
    (1000, 0.01): (2.581, 0.081),
}


def quadrature_posterior_mean(rho_hat, lam, upsilon, sigma):
    """Posterior mean by numerical integration of the mixture posterior.

    The spike's point mass enters the normalizer analytically; the slab
    integrals use composite Gauss-Legendre panels narrower than half the
    sharper Gaussian scale. Independent of every closed form it checks.
    """
    lo, hi = -1.0 - 8.0 * upsilon, 1.0 + 8.0 * upsilon
    width = min(sigma, upsilon) / 2.0
    n_panels = int(math.ceil((hi - lo) / width))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()

    like = np.exp(-((rho_hat - x) ** 2) / (2.0 * sigma**2)) / (
        sigma * math.sqrt(2.0 * math.pi)
    )
    slab = np.exp(-(x**2) / (2.0 * upsilon**2)) / (upsilon * math.sqrt(2.0 * math.pi))
    slab_marginal = float(np.sum(w * like * slab))
    slab_first_moment = float(np.sum(w * x * like * slab))
    spike_like = math.exp(-(rho_hat**2) / (2.0 * sigma**2)) / (
        sigma * math.sqrt(2.0 * math.pi)
    )
    denom = (1.0 - lam) * spike_like + lam * slab_marginal
    return lam * slab_first_moment / denom


def pairwise_grf_correlation(prior):
    """Random-field correlation matrix from n x n pairwise cell offsets.

    The direct formula: every cell pair's offset is rotated, scaled by the
    ranges and mapped through the variogram, with no use of stationarity.
    """
    x = np.tile(np.arange(prior.nx, dtype=float), prior.ny)  # i inner
    y = np.repeat(np.arange(prior.ny, dtype=float), prior.nx)  # j outer
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    a = math.radians(prior.angle_deg)
    xr = dx * math.cos(a) + dy * math.sin(a)
    yr = -dx * math.sin(a) + dy * math.cos(a)
    h = np.sqrt((xr / prior.range_major) ** 2 + (yr / prior.range_minor) ** 2)
    return np.exp(-3.0 * h) if prior.kind == "exponential" else np.exp(-3.0 * h * h)


def dense_correlation_factor(prior, jitter=1e-10):
    """Lower Cholesky factor of the full correlation matrix, diagonal 1 + jitter.

    The whole symmetric matrix is built and handed to scipy.linalg.cholesky,
    which clears the triangle it does not reference; its transpose is
    Fortran-ordered, so the upper factor transposed back is C-ordered.
    """
    corr = pairwise_grf_correlation(prior)
    np.fill_diagonal(corr, 1.0 + jitter)
    return scipy.linalg.cholesky(corr.T, overwrite_a=True, check_finite=False).T


def taper_mse(t):
    """MSE taper t^2 / (t^2 + 1) by np.where; 1 where t^2 overflows."""
    tt = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        u = tt * tt
        r = np.where(np.isinf(u), 1.0, u / (u + 1.0))
    return r[()] if r.ndim == 0 else r


def taper_power(t, beta, t0):
    """Power-law taper t^beta / (t^beta + t0^beta) by np.where."""
    tt = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        u = tt**beta
        r = np.where(np.isinf(u), 1.0, u / (u + np.asarray(t0, dtype=float) ** beta))
    return r[()] if r.ndim == 0 else r


def taper_logistic(t, gamma, t0, epsilon=0.01):
    """Logistic taper 1 / (1 + exp(-c (t^gamma - t0^gamma))), c from r(0) = eps."""
    tt = np.asarray(t, dtype=float)
    t0_gamma = np.asarray(t0, dtype=float) ** gamma
    with np.errstate(over="ignore", invalid="ignore"):
        arg = math.log((1.0 - epsilon) / epsilon) / t0_gamma * (tt**gamma - t0_gamma)
        arg = np.where(np.isnan(arg), np.inf, arg)  # inf - inf from t = t0 = inf
        r = 1.0 / (1.0 + np.exp(-arg))
    return r[()] if r.ndim == 0 else r


def correlation_taper(spec, rho, n_e, t0=None, round_t=False):
    """Taper coefficients of a correlation array.

    CorrelationStats.from_rho, then the formulas above for MSE, power-law
    and logistic and evaluate_taper for the other families, with undefined
    (NaN) correlations evaluated at 0 and their coefficients set to 0.
    round_t rounds t to float32 before the power-law and logistic formulas,
    as a percentile field rounds it.
    """
    from enloc import tapers as tp

    undefined = np.isnan(rho)
    stats = tp.CorrelationStats.from_rho(np.where(undefined, 0.0, rho), n_e)
    t = stats.t.astype(np.float32).astype(float) if round_t else stats.t
    t0 = getattr(spec, "t0", None) if t0 is None else t0
    if isinstance(spec, tp.Mse):
        r = taper_mse(t)
    elif isinstance(spec, tp.PowerLaw):
        r = taper_power(t, spec.beta, t0)
    elif isinstance(spec, tp.Logistic):
        r = taper_logistic(t, spec.gamma, t0, spec.epsilon)
    else:
        r = tp.evaluate_taper(spec, stats, t0)
    r = np.array(r, dtype=float)
    r[undefined] = 0.0
    return r


def percentile_thresholds(rho, n_e, sources, p):
    """Per-source p-quantiles (np.quantile, linear) of the finite t of a
    correlation array, each t rounded to float32 as a percentile field rounds
    it; 1 for a source with no finite t. sources lists each source's columns."""
    from enloc import tapers as tp

    undefined = np.isnan(rho)
    t = tp.CorrelationStats.from_rho(np.where(undefined, 0.0, rho), n_e).t
    t = np.where(undefined, np.nan, t.astype(np.float32).astype(float))
    t0 = np.ones(rho.shape[1])
    for cols in sources:
        pool = t[:, cols].ravel()
        pool = pool[np.isfinite(pool)]
        if pool.size:
            t0[cols] = np.quantile(pool, p)
    return t0


def correlation_matrix(m, d):
    """Sample correlations of every row of m with every row of d, the whole
    array at once, clamped to [-1, 1]; NaN where either row has zero spread."""
    am = m - m.mean(axis=1, keepdims=True)
    ad = d - d.mean(axis=1, keepdims=True)
    norms = np.outer(np.sqrt(np.sum(am * am, axis=1)), np.sqrt(np.sum(ad * ad, axis=1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.clip((am @ ad.T) / norms, -1.0, 1.0)
    rho[norms == 0.0] = np.nan
    return rho


def dense_esmda(prior, model, obs, alphas, seed, taper):
    """ES-MDA with the whole gain at every step: K = C_md (C_dd + alpha C_e)^-1
    through np.linalg.inv, times taper (Nm x Nd) entrywise, applied to the
    product's perturb_observations draws. Returns the posterior values."""
    from enloc.smoother import perturb_observations

    m = np.array(prior.values, dtype=float)
    n_e = m.shape[1]
    for step, alpha in enumerate(alphas, start=1):
        d = model.evaluate_ensemble(m)
        dm = m - m.mean(axis=1, keepdims=True)
        dd = d - d.mean(axis=1, keepdims=True)
        c_md = dm @ dd.T / (n_e - 1)
        c_dd = dd @ dd.T / (n_e - 1)
        gain = c_md @ np.linalg.inv(c_dd + alpha * np.diag(obs.sigma_e**2)) * taper
        m = m + gain @ (perturb_observations(obs, alpha, seed, step, n_e) - d)
    return m


def per_layer_grid_prior(model, poro_prior, logk_prior, count, seed):
    """Grid prior values drawn with one sample_grf call per field and layer."""
    from enloc.models import sample_grf

    layer_seeds = np.random.SeedSequence(seed).generate_state(2 * model.n_layers)
    blocks = []
    for f, prior in enumerate((poro_prior, logk_prior)):
        for k in range(model.n_layers):
            seed_k = int(layer_seeds[f * model.n_layers + k])
            blocks.append(sample_grf(prior, count, seed_k).values)
    return np.vstack(blocks)


def correlation(m_row, d_row):
    """Sample correlation of two rows, clamped to [-1, 1] against round-off.

    NaN when either row has exactly zero spread, as correlation_block marks
    an undefined pair.
    """
    am = np.asarray(m_row, dtype=float) - np.mean(m_row)
    ad = np.asarray(d_row, dtype=float) - np.mean(d_row)
    nm, nd = math.sqrt(am @ am), math.sqrt(ad @ ad)
    if nm == 0.0 or nd == 0.0:
        return math.nan
    return float(np.clip(am @ ad / (nm * nd), -1.0, 1.0))


def normalized_variance(prior, posterior):
    """Mean per-row var(posterior) / var(prior), by np.var over whole arrays."""
    var_prior = np.var(prior.values, axis=1, ddof=1)
    return float(np.mean(np.var(posterior.values, axis=1, ddof=1) / var_prior))


def t_statistic(rho, n_e):
    """Zero-correlation test statistic |rho| sqrt(n_e - 2) / sqrt(1 - rho^2)."""
    return abs(rho) * math.sqrt(n_e - 2) / math.sqrt(1.0 - rho * rho)


def read_ensemble_csv(path):
    """Read an ensemble CSV (header param_id,e1,...,eNe) with the csv module."""
    import csv

    from enloc.ensemble import Ensemble

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader)[0] == "param_id"
        rows = list(reader)
    return Ensemble(
        values=np.array([[float(v) for v in r[1:]] for r in rows]), names=[r[0] for r in rows]
    )
