"""Shared independent oracles used by unit and acceptance tests."""

import math

import numpy as np

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


def correlation_taper(spec, rho, n_e, t0=None):
    """Taper coefficients of a correlation array through the public tapers.

    CorrelationStats.from_rho then evaluate_taper, with undefined (NaN)
    correlations evaluated at 0 and their coefficients set to 0.
    """
    from enloc.tapers import CorrelationStats, evaluate_taper

    undefined = np.isnan(rho)
    stats = CorrelationStats.from_rho(np.where(undefined, 0.0, rho), n_e)
    r = np.asarray(evaluate_taper(spec, stats, t0), dtype=float)
    r[undefined] = 0.0
    return r


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
