"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every criterion reports a single PASS/FAIL line in the pytest terminal
summary (see conftest.pytest_terminal_summary). The two experiment-scale
criteria share their runs with the data-match criterion through
module-scoped fixtures so the whole suite stays inside the runtime
budgets.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES
from oracles import T0_RHO0_TABLE, quadrature_posterior_mean

from enloc import cli
from enloc import metrics as mt
from enloc import smoother as sm
from enloc import spikeslab as ss
from enloc import tapers as tp
from enloc.ensemble import Ensemble, PredictedEnsemble, RowBlock, iter_blocks
from enloc.harness import (
    build_model,
    build_prior_sampler,
    config_from_dict,
    run_experiment,
    sweep_layers,
    t0_table_rows,
)
from enloc.models import GrfPrior, LinearModel, evaluate_members, grf_correlation


@contextmanager
def criterion(cid: int, name: str, budget_s: float, fixture_s: float = 0.0):
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        ACCEPTANCE_LINES.append(f"criterion {cid:2d} FAIL {name}: {exc}")
        raise
    elapsed = time.perf_counter() - start + fixture_s
    line = f"criterion {cid:2d} PASS {name} ({elapsed:.1f}s, budget {budget_s:.0f}s)"
    ACCEPTANCE_LINES.append(line)
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"


def test_criterion_01_threshold_table_golden():
    with criterion(1, "threshold-table golden values", 1.0):
        rows = t0_table_rows([50, 100, 200, 1000], [0.10, 0.05, 0.01])
        assert len(rows) == 12  # 24 numbers: t0 and rho0 per cell
        for ne, phi, t0, rho0 in rows:
            t0_ref, rho0_ref = T0_RHO0_TABLE[(ne, phi)]
            assert abs(t0 - t0_ref) <= 1e-3, (ne, phi, t0, t0_ref)
            assert abs(rho0 - rho0_ref) <= 1e-3, (ne, phi, rho0, rho0_ref)


def test_criterion_02_unlocalized_footprint_exact(tmp_path):
    with criterion(2, "chi = 1.000 exactly without localization", 10.0):
        raw = {
            "model": {"kind": "grid_proxy", "nx": 24, "ny": 24, "n_layers": 1,
                       "prod_grid": 2, "n_times": 6},
            "prior": {
                "porosity": {"mean": 0.2, "std": 0.05, "range_major": 8, "range_minor": 4},
                "log_perm": {"mean": 0.0, "std": 0.5, "range_major": 8, "range_minor": 4},
            },
            "observation": {"truth_seed": 3, "noise_seed": 4, "rel_std": 0.1, "floor": 0.02},
            "ensemble_size": 24,
            "schedule": {"n_steps": 2},
            "localization": [{"taper": "none"}],
            "runs": {"count": 1, "base_seed": 42},
            "output_dir": str(tmp_path / "layers"),
            "emit_nv_field": False,
        }
        reports = sweep_layers(config_from_dict(raw), [1, 4, 8])
        for layers, report in reports.items():
            for run in report.by_taper("none"):
                assert run.status == "ok"
                assert run.report.chi == 1.0, (layers, run.report.chi)
                assert run.report.n_eff == 2 * 24 * 24 * layers


def test_criterion_03_linear_gaussian_oracle():
    with criterion(3, "linear-Gaussian ES-MDA vs analytic posterior", 30.0):
        prior = Ensemble(values=np.random.default_rng(7).standard_normal((1, 100_000)))
        obs = sm.ObservationSet(d_obs=np.array([1.0]), sigma_e=np.array([1.0]))
        res = sm.run_esmda(
            prior,
            LinearModel(np.array([[1.0]])),
            obs,
            sm.MdaSchedule.uniform(4),
            sm.LocalizationPolicy(spec=None),
            sm.RunSeed(99),
        )
        # analytic Kalman posterior for prior N(0,1), d = m, d_obs = 1, sigma = 1
        mean = float(res.posterior.values.mean())
        var = float(res.posterior.values.var(ddof=1))
        assert abs(mean - 0.5) <= 0.01, mean
        assert abs(var - 0.5) <= 0.02, var


def test_criterion_04_spike_slab_oracle_suite():
    with criterion(4, "spike-and-slab quadrature + logistic equivalence", 5.0):
        rho_grid = np.round(np.arange(-0.9, 0.95, 0.1), 10)
        worst = 0.0
        for lam in (0.05, 0.1, 0.3, 0.5):
            for tau in (0.5, 1.0, 3.0, 10.0):
                for sigma in (0.05, 0.1, 0.2):
                    params = ss.SpikeSlabParams(lam=lam, upsilon=tau * sigma, sigma=sigma)
                    closed = ss.spike_slab_posterior_mean(rho_grid, params)
                    oracle = np.array(
                        [
                            quadrature_posterior_mean(r, lam, tau * sigma, sigma)
                            for r in rho_grid
                        ]
                    )
                    worst = max(worst, float(np.max(np.abs(closed - oracle))))
        assert worst < 1e-8, worst

        t_grid = np.linspace(0.0, 8.0, 100)
        worst_logistic = 0.0
        for lam in (0.05, 0.1, 0.3, 0.5):
            for tau in (0.5, 1.0, 3.0, 10.0):
                direct = ss.taper_spike_slab(t_grid, lam, tau)
                via_logistic = ss.logistic_from_params(
                    t_grid, ss.to_logistic_params(lam, tau)
                )
                worst_logistic = max(
                    worst_logistic, float(np.max(np.abs(direct - via_logistic)))
                )
        assert worst_logistic < 1e-12, worst_logistic


def test_criterion_05_taper_invariants_randomized():
    with criterion(5, "taper invariant sweep, 10^4 randomized cases", 5.0):
        rng = np.random.default_rng(31)
        n = 10_000
        t = rng.uniform(0.0, 12.0, n)
        dt = rng.uniform(0.0, 6.0, n)
        rho = rng.uniform(-1.0, 1.0, n)
        beta = rng.uniform(2.0, 8.0, n)
        t0 = rng.uniform(0.2, 5.0, n)
        gamma = rng.uniform(0.05, 2.0, n)
        eps = rng.uniform(1e-4, 0.49, n)
        eta = rng.uniform(0.05, 3.0, n)
        theta = rng.uniform(1e-3, 0.999, n)
        ne = rng.integers(3, 2000, n)
        ne2 = ne + rng.integers(1, 1500, n)

        def in01(x):
            return np.all((x >= 0.0) & (x <= 1.0))

        # range [0, 1] for every family, all parameters randomized per case
        power_all = np.array([tp.taper_power(t[i], beta[i], t0[i]) for i in range(n)])
        logistic_all = np.array(
            [tp.taper_logistic(t[i], gamma[i], t0[i], eps[i]) for i in range(n)]
        )
        disc_all = np.array([tp.taper_discrepancy(t[i], eta[i]) for i in range(n)])
        cgc_all = np.array([tp.taper_cgc(rho[i], theta[i]) for i in range(n)])
        po_all = np.array([tp.taper_po(rho[i], int(ne[i])) for i in range(n)])
        mpo_all = np.array([tp.taper_mpo(rho[i], int(ne[i])) for i in range(n)])
        for arr in (tp.taper_mse(t), power_all, logistic_all, disc_all, cgc_all, po_all, mpo_all):
            assert in01(arr)

        # monotone in t for fixed parameters
        assert np.all(tp.taper_mse(t + dt) >= tp.taper_mse(t))
        assert np.all(tp.taper_power(t + dt, 3.0, t0) >= tp.taper_power(t, 3.0, t0))
        assert np.all(
            tp.taper_logistic(t + dt, 1.5, t0, 0.01) >= tp.taper_logistic(t, 1.5, t0, 0.01)
        )
        disc_hi = np.array([tp.taper_discrepancy(t[i] + dt[i], eta[i]) for i in range(n)])
        assert np.all(disc_hi >= disc_all)

        # monotone in ensemble size via sigma(n_e)
        rpos = np.abs(rho) * 0.98 + 0.01
        for fam in (
            lambda tt: tp.taper_mse(tt),
            lambda tt: tp.taper_power(tt, 3.0, 2.0),
            lambda tt: tp.taper_logistic(tt, 1.5, 2.0, 0.01),
            lambda tt: tp.taper_discrepancy(tt, 0.5),
        ):
            lo = np.array(
                [fam(tp.standardize(rpos[i], tp.sampling_std(rpos[i], int(ne[i])))) for i in range(500)]
            )
            hi = np.array(
                [fam(tp.standardize(rpos[i], tp.sampling_std(rpos[i], int(ne2[i])))) for i in range(500)]
            )
            assert np.all(hi >= lo)
        po_hi = np.array([tp.taper_po(rho[i], int(ne2[i])) for i in range(n)])
        mpo_hi = np.array([tp.taper_mpo(rho[i], int(ne2[i])) for i in range(n)])
        assert np.all(po_hi >= po_all)
        assert np.all(mpo_hi >= mpo_all)

        # half-point identities hold exactly
        for i in range(n):
            assert tp.taper_power(t0[i], beta[i], t0[i]) == 0.5
            assert tp.taper_logistic(t0[i], gamma[i], t0[i], eps[i]) == 0.5

        # hard thresholds: discrepancy at eta, modified-pseudo-optimal at 1/sqrt(Ne)
        assert np.array_equal(disc_all == 0.0, t <= eta)
        assert np.array_equal(mpo_all == 0.0, np.abs(rho) * np.sqrt(ne) <= 1.0)

        # beta = 2, t0 = 1 reduces the power law to the MSE taper exactly
        assert np.array_equal(tp.taper_power(t, 2.0, 1.0), tp.taper_mse(t))


@pytest.fixture(scope="module")
def dummy_experiment(tmp_path_factory):
    """Scalar-parameter experiment: 10 seeded runs, logistic vs none, big reference."""
    out = tmp_path_factory.mktemp("dummy_exp")
    raw = {
        "model": {"kind": "scalar_toy", "n_active": 15, "n_dummy": 5, "n_series": 6,
                   "n_times": 50, "structure_seed": 7},
        "observation": {"truth_seed": 11, "noise_seed": 22, "rel_std": 0.10, "floor": 0.02},
        "ensemble_size": 100,
        "schedule": {"n_steps": 4},
        "localization": [
            {"taper": "none"},
            {"taper": "logistic:gamma=1.5,t0=2,eps=0.01"},
        ],
        "runs": {"count": 10, "base_seed": 700},
        "reference": {"ensemble_size": 5000, "seed": 99},
        "output_dir": str(out),
        "emit_nv_field": False,
    }
    start = time.perf_counter()
    report = run_experiment(config_from_dict(raw))
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def locality_experiment(tmp_path_factory):
    """Grid-proxy experiment with exact sensitivity masks: mse vs logistic."""
    out = tmp_path_factory.mktemp("locality_exp")
    prior_kw = dict(kind="exponential", range_major=30.0, range_minor=15.0, angle_deg=45.0)
    raw = {
        "model": {"kind": "grid_proxy", "nx": 60, "ny": 60, "n_layers": 1,
                   "prod_grid": 3, "n_times": 24},
        "prior": {
            "porosity": dict(prior_kw, mean=0.2, std=0.05),
            "log_perm": dict(prior_kw, mean=0.0, std=0.7),
        },
        "observation": {"truth_seed": 5, "noise_seed": 6, "rel_std": 0.10, "floor": 0.02},
        "ensemble_size": 100,
        "schedule": {"n_steps": 4},
        "localization": [
            {"taper": "mse"},
            {"taper": "logistic:gamma=1.5,t0=2,eps=0.01"},
        ],
        "runs": {"count": 10, "base_seed": 900},
        "output_dir": str(out),
        "emit_nv_field": False,
    }
    cfg = config_from_dict(raw)
    start = time.perf_counter()
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - start

    model = build_model(cfg)
    corr = grf_correlation(GrfPrior(nx=60, ny=60, **prior_kw))
    fsize = model.nx * model.ny

    def mask_union_halo(j):
        mask = model.sensitivity_mask(j)
        cells = np.where(mask[:fsize] | mask[fsize:])[0]
        halo_cells = np.any(corr[:, cells] >= 0.05, axis=1)
        combined = np.zeros(2 * fsize, dtype=bool)
        combined[:fsize] = halo_cells
        combined[fsize:] = halo_cells
        return combined | mask

    allowed = np.stack([mask_union_halo(j) for j in range(model.n_data)])

    def outside_fraction(field):
        total = np.zeros(model.n_data)
        outside = np.zeros(model.n_data)
        for blk in iter_blocks(model.n_params, 1024):
            r = field.block(blk)
            total += r.sum(axis=0)
            outside += (r * (~allowed[:, blk.slice()].T)).sum(axis=0)
        return float(np.mean(outside / np.maximum(total, 1e-300)))

    # each run's frozen field, rebuilt from (config, run seed) as run_esmda builds it
    sampler = build_prior_sampler(cfg, model)
    fractions: dict[str, dict[int, float]] = {"mse": {}, "logistic": {}}
    for r in range(cfg.run_count):
        prior = sampler(cfg.ensemble_size, cfg.base_seed + r)
        pred = PredictedEnsemble(evaluate_members(model, prior.values), meta=model.datum_meta)
        for taper, policy in cfg.localization.items():
            field = sm.make_taper_field(policy, prior, pred, cfg.block_width)
            fractions[taper][r] = outside_fraction(field)
    return report, fractions, elapsed


def test_criterion_06_dummy_parameter_experiment(dummy_experiment):
    report, elapsed = dummy_experiment
    with criterion(6, "dummy-parameter variance protection", 300.0, fixture_s=elapsed):
        none_runs = {r.run: r for r in report.by_taper("none")}
        log_runs = {r.run: r for r in report.by_taper("logistic")}
        assert len(none_runs) == 10 and len(log_runs) == 10
        assert all(r.status == "ok" for r in report.runs)
        wins = sum(
            log_runs[i].report.nv_dummy > none_runs[i].report.nv_dummy for i in range(10)
        )
        assert wins >= 9, f"logistic beat no-localization in only {wins}/10 runs"
        assert report.reference.report.nv_dummy > 0.9, report.reference.report.nv_dummy


def test_criterion_07_locality_experiment(locality_experiment):
    report, fractions, elapsed = locality_experiment
    with criterion(7, "taper mass stays near true sensitivity regions", 600.0, fixture_s=elapsed):
        assert all(r.status == "ok" for r in report.runs)
        for run in range(10):
            assert fractions["logistic"][run] < fractions["mse"][run], (
                run,
                fractions["logistic"][run],
                fractions["mse"][run],
            )


def test_criterion_08_data_match_band(dummy_experiment, locality_experiment):
    scalar_report, _ = dummy_experiment
    grid_report, _, _ = locality_experiment
    with criterion(8, "localized runs keep the data match acceptable", 10.0):
        localized = [r for r in scalar_report.runs if r.taper == "logistic"]
        localized += [r for r in grid_report.runs if r.taper in ("logistic", "mse")]
        assert len(localized) == 30
        for run in localized:
            assert run.report.obj_mean <= 1.5, (run.taper, run.run, run.report.obj_mean)


def test_criterion_09_blockwise_equals_dense():
    with criterion(9, "blockwise computation matches dense oracles", 5.0):
        rng = np.random.default_rng(17)
        nm, nd, ne = 200, 100, 50
        ens = Ensemble(values=rng.standard_normal((nm, ne)))
        pred = PredictedEnsemble(values=rng.standard_normal((nd, ne)))
        obs = sm.ObservationSet(
            d_obs=rng.standard_normal(nd), sigma_e=rng.uniform(0.5, 1.5, nd)
        )
        alpha = 4.0

        # dense correlation oracle
        dm = ens.values - ens.values.mean(axis=1, keepdims=True)
        dd = pred.values - pred.values.mean(axis=1, keepdims=True)
        corr_dense = (dm @ dd.T) / np.outer(
            np.linalg.norm(dm, axis=1), np.linalg.norm(dd, axis=1)
        )
        # dense gain oracle
        c_md = dm @ dd.T / (ne - 1)
        c_dd = dd @ dd.T / (ne - 1)
        gain_dense = c_md @ np.linalg.inv(c_dd + alpha * np.diag(obs.sigma_e**2))

        from enloc.ensemble import correlation_block

        w = sm.gain_operator(pred, obs, alpha)
        for width in (1, 33, 128, 200):
            corr_blocks = []
            gain_blocks = []
            for blk in iter_blocks(nm, width):
                corr_blocks.append(correlation_block(ens, pred, blk))
                gain_blocks.append(sm.kalman_gain_block(ens, blk, w))
            assert np.max(np.abs(np.vstack(corr_blocks) - corr_dense)) < 1e-10
            assert np.max(np.abs(np.vstack(gain_blocks) - gain_dense)) < 1e-10

        # streamed footprint metrics vs dense sums over an actual taper field
        field = sm.TaperField(tp.Logistic(1.5, 2.0), ens, pred)
        dense_taper = field.block(RowBlock(0, nm))
        neff_dense = dense_taper.sum() / nd
        hist_dense = np.histogram(dense_taper, bins=np.linspace(0.0, 1.0, 21))[0]
        for width in (1, 33, 128, 200):
            neff, hist = mt.footprint(field.block, nm, nd, block_width=width)
            assert abs(neff - neff_dense) < 1e-10
            assert np.array_equal(hist, hist_dense)


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "identical config and seed give byte-identical artifacts", 60.0):
        raw = {
            "model": {"kind": "scalar_toy", "n_active": 6, "n_dummy": 2, "n_series": 3,
                       "n_times": 12, "structure_seed": 5},
            "observation": {"truth_seed": 1, "noise_seed": 2, "rel_std": 0.1, "floor": 0.02},
            "ensemble_size": 50,
            "schedule": {"n_steps": 4},
            "localization": [
                {"taper": "none"},
                {"taper": "logistic:gamma=1.5,t0=2,eps=0.01"},
                {"taper": "power:beta=3", "t0": "p90"},
            ],
            "runs": {"count": 2, "base_seed": 11},
            "save_posterior": True,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli.main(["run", str(cfg_path), "--out", str(out_b)]) == 0

        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*.csv"))
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*.csv"))
        assert files_a == files_b and len(files_a) >= 4
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
