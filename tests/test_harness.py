"""Experiment harness: config handling, artifacts, determinism, CLI."""

import csv
import gc
import json
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import enloc.harness as hn
from enloc import cli
from enloc.errors import ConfigError
from enloc.models import ForwardModel, LinearModel
from enloc.significance import FixedT0, PercentileT0, StudentT0

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def tiny_config(out_dir, **overrides):
    raw = {
        "model": {
            "kind": "scalar_toy",
            "n_active": 5,
            "n_dummy": 2,
            "n_series": 3,
            "n_times": 10,
            "structure_seed": 7,
        },
        "observation": {"truth_seed": 11, "noise_seed": 22, "rel_std": 0.1, "floor": 0.02},
        "ensemble_size": 40,
        "schedule": {"n_steps": 2},
        "localization": [
            {"taper": "none"},
            {"taper": "logistic:gamma=1.5,t0=2,eps=0.01"},
        ],
        "runs": {"count": 2, "base_seed": 500},
        "reference": {"ensemble_size": 300, "seed": 77},
        "output_dir": str(out_dir),
    }
    raw.update(overrides)
    return raw


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_shipped_configs_parse():
    for name in ("scalar_toy.json", "grid_proxy.json", "linear_smoke.json"):
        cfg = hn.load_config(CONFIG_DIR / name)
        assert cfg.run_count >= 1
        assert cfg.localization


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        hn.config_from_dict({"model": {"kind": "nope"}})
    base = tiny_config(tmp_path)

    bad = json.loads(json.dumps(base))
    del bad["observation"]["truth_seed"]
    with pytest.raises(ConfigError):
        hn.config_from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["localization"] = []
    with pytest.raises(ConfigError):
        hn.config_from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["localization"] = [{"taper": "frobnicate"}]
    with pytest.raises(ConfigError):
        hn.config_from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["localization"] = [{"name": "missing-taper-key"}]
    with pytest.raises(ConfigError):
        hn.config_from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["localization"] = [{"taper": "mse"}, {"taper": "mse"}]
    with pytest.raises(ConfigError):
        hn.config_from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["schedule"] = {"alphas": [2, 3]}
    with pytest.raises(ConfigError):
        hn.config_from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["ensemble_size"] = 2
    with pytest.raises(ConfigError):
        hn.config_from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["localization"] = [{"taper": "none", "name": "reference"}]
    with pytest.raises(ConfigError):
        hn.config_from_dict(bad)

    # a t0 strategy needs a taper that reads t0 and that does not set one itself
    for entry in (
        {"taper": "mse", "t0": "student:phi=0.05"},
        {"taper": "mse", "t0": "p90"},
        {"taper": "none", "t0": "p90"},
        {"taper": "power:beta=3,t0=2", "t0": "p90"},
    ):
        bad = json.loads(json.dumps(base))
        bad["localization"] = [entry]
        with pytest.raises(ConfigError):
            hn.config_from_dict(bad)

    # wrongly typed or out-of-range values: ConfigError, never another exception
    for key, value in (
        ("runs", 5),
        ("runs", {"count": "x"}),
        ("runs", {"base_seed": -1}),
        ("schedule", 4),
        ("schedule", {"n_steps": None}),
        ("schedule", {"n_steps": 4.5}),
        ("schedule", {"n_steps": hn.MAX_SCHEDULE_STEPS + 1}),
        ("schedule", {"n_steps": 1.8e308}),
        ("schedule", {"alphas": [float(hn.MAX_SCHEDULE_STEPS + 1)] * (hn.MAX_SCHEDULE_STEPS + 1)}),
        ("schedule", {"alphas": "4444"}),
        ("schedule", {"alphas": [float("nan")]}),
        ("ensemble_size", None),
        ("ensemble_size", 20.5),
        ("threads", "two"),
        ("threads", 0),
        ("block_width", 0),
        ("block_width", float("inf")),
        ("model", [1]),
        ("observation", [1]),
        ("prior", "x"),
        ("reference", 5),
        ("reference", {"ensemble_size": "big"}),
        ("reference", {"ensemble_size": 2}),
        ("reference", {"seed": -1}),
        ("reference", {"seed": 1.5}),
    ):
        bad = json.loads(json.dumps(base))
        bad[key] = value
        with pytest.raises(ConfigError):
            hn.config_from_dict(bad)
    # with no seed of its own the reference seed is runs.base_seed - 1, here -1
    bad = dict(base, runs={"base_seed": 0}, reference={"ensemble_size": 50})
    with pytest.raises(ConfigError):
        hn.config_from_dict(bad)
    cfg = hn.config_from_dict(dict(bad, runs={"base_seed": 1}))
    for field, value in (("base_seed", 0), ("threads", 0), ("ensemble_size", 2)):
        with pytest.raises(ConfigError):
            replace(cfg, **{field: value})

    with pytest.raises(ConfigError):
        hn.load_config(tmp_path / "missing.json")
    # an integer longer than Python converts, and bytes that are not UTF-8
    for name, data in (("long.json", b'{"a": 1' + b"0" * 5000 + b"}"), ("bin.json", b"\xff{")):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ConfigError):
            hn.load_config(tmp_path / name)


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_KEYS = st.sampled_from([
    "model", "prior", "observation", "localization", "ensemble_size", "schedule",
    "runs", "reference", "output_dir", "save_posterior", "emit_nv_field",
    "block_width", "threads",
])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    top=st.dictionaries(_KEYS | st.text(max_size=8), _JSON, max_size=3),
    nested=st.dictionaries(
        st.sampled_from(["model", "observation", "runs", "schedule", "reference"]),
        st.dictionaries(
            st.sampled_from(["kind", "truth_seed", "count", "base_seed", "n_steps",
                             "alphas", "ensemble_size"]) | st.text(max_size=8),
            _JSON,
            max_size=3,
        ),
        max_size=2,
    ),
    localization=st.none() | st.lists(
        st.text(max_size=12)
        | st.dictionaries(st.sampled_from(["taper", "t0", "name"]), _JSON, max_size=3)
        | st.fixed_dictionaries(
            {"taper": st.sampled_from(["mse", "power:beta=3", "logistic:gamma=1.5", "none"])},
            optional={"t0": st.text(max_size=8) | _JSON, "name": _JSON},
        ),
        max_size=3,
    ),
)
def test_config_parser_raises_only_config_error(top, nested, localization):
    """Any JSON edit of a valid config parses or raises ConfigError."""
    raw = tiny_config("out")
    for key, edits in nested.items():
        raw[key] = {**raw[key], **edits}
    if localization is not None:
        raw["localization"] = localization
    raw.update(top)
    try:
        cfg = hn.config_from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, hn.ExperimentConfig)
    assert cfg.ensemble_size >= 3 and cfg.run_count >= 1
    assert cfg.block_width >= 1 and cfg.threads >= 1


def test_localization_parsing():
    name, policy = hn._parse_localization({"taper": "power:beta=3", "t0": "p90"})
    assert name == "power_p90"
    assert policy.t0_strategy == PercentileT0(0.9)
    name, policy = hn._parse_localization({"taper": "logistic:gamma=1.5,t0=2"})
    assert name == "logistic" and policy.t0_strategy is None
    name, policy = hn._parse_localization({"taper": "logistic:gamma=1.5", "t0": "student:phi=0.05"})
    assert policy.t0_strategy == StudentT0(0.05)
    name, policy = hn._parse_localization({"taper": "none"})
    assert policy.spec is None and name == "none"
    name, policy = hn._parse_localization({"taper": "power:beta=3", "t0": "fixed:2", "name": "pw"})
    assert name == "pw" and policy.t0_strategy == FixedT0(2.0)
    assert hn._parse_localization("mpo")[0] == "mpo"


def test_run_experiment_artifacts(tmp_path):
    cfg = hn.config_from_dict(tiny_config(tmp_path / "out", save_posterior=True))
    report = hn.run_experiment(cfg)
    assert all(r.status == "ok" for r in report.runs)
    assert report.reference is not None and report.reference.status == "ok"
    # the reference run is unlocalized: full update footprint
    assert report.reference.report.chi == 1.0

    out = tmp_path / "out"
    for name in ("report.csv", "metrics.csv", "histogram.csv", "aggregate.csv"):
        assert (out / name).is_file()

    rows = read_csv(out / "report.csv")
    assert len(rows) == 2 * 2 + 1  # tapers x runs + reference
    # aggregates recompute exactly from per-run rows
    agg = {
        (r["taper"], r["metric"]): (float(r["mean"]), int(r["n_runs"]))
        for r in read_csv(out / "aggregate.csv")
    }
    for taper in ("none", "logistic"):
        vals = [float(r["obj_mean"]) for r in rows if r["taper"] == taper]
        mean, n = agg[(taper, "obj_mean")]
        assert n == len(vals)
        assert mean == pytest.approx(np.mean(vals), rel=1e-15)

    # per-run artifacts: long-form diagnostics and readable posterior
    run_dir = out / "runs" / "logistic" / "run0"
    diag = read_csv(run_dir / "diagnostics.csv")
    steps = {int(r["step"]) for r in diag}
    assert steps == {1, 2, 3}  # 2 assimilation steps + final state
    metrics_seen = {r["metric"] for r in diag}
    assert {"objective", "nv", "n_eff", "chi"} <= metrics_seen
    assert any(m.startswith("taper_hist_") for m in metrics_seen)

    from enloc.ensemble import read_ensemble_csv

    post = read_ensemble_csv(run_dir / "posterior.csv")
    assert post.values.shape == (7, 40)

    # histogram counts account for every model-data pair
    hist = read_csv(out / "histogram.csv")
    for taper in ("none", "logistic"):
        total = sum(int(r["count"]) for r in hist if r["taper"] == taper and r["run"] == "0")
        assert total == 7 * 30


def test_single_run_linear_smoke(tmp_path):
    raw = {
        "model": {"kind": "linear", "n_params": 4, "n_data": 6, "structure_seed": 1},
        "observation": {"truth_seed": 2, "noise_seed": 3, "rel_std": 0.1, "floor": 0.05},
        "ensemble_size": 30,
        "schedule": {"n_steps": 2},
        "localization": [{"taper": "mse"}],
        "runs": {"count": 1, "base_seed": 7},
        "output_dir": str(tmp_path / "one"),
    }
    report = hn.run_experiment(hn.config_from_dict(raw))
    assert len(report.runs) == 1
    assert report.runs[0].status == "ok"
    assert np.isfinite(report.runs[0].report.obj_mean)


def test_run_experiment_deterministic(tmp_path):
    raw = tiny_config(tmp_path / "a")
    hn.run_experiment(hn.config_from_dict(raw))
    raw2 = tiny_config(tmp_path / "b")
    hn.run_experiment(hn.config_from_dict(raw2))
    for name in ("report.csv", "metrics.csv", "histogram.csv", "aggregate.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_run_failure_recorded(tmp_path):
    cfg = hn.config_from_dict(tiny_config(tmp_path / "out"))
    model = hn.build_model(cfg)
    sampler = hn.build_prior_sampler(cfg, model)
    obs, _ = hn.build_observations(cfg, model, sampler)

    class Exploding(LinearModel):
        def evaluate_ensemble(self, values):
            raise RuntimeError("simulator crashed")

    bad_model = Exploding(np.eye(model.n_params))
    bad_obs_values = np.zeros(model.n_params)
    from enloc.smoother import ObservationSet

    bad_obs = ObservationSet(
        d_obs=bad_obs_values, sigma_e=np.ones(model.n_params)
    )
    out = tmp_path / "out"

    def statuses(model, sampler, obs):
        runs = hn._run_seed(cfg, model, sampler, obs, out, cfg.localization, 0, 10, 1)
        assert [r.taper for r in runs] == ["none", "logistic"]
        assert all(r.report is None and not r.diagnostics for r in runs)
        return [r.status for r in runs]

    crashed = "failed: step 1: forward model failed: simulator crashed"
    assert statuses(bad_model, sampler, bad_obs) == [crashed, crashed]

    # finite outputs whose C_dd overflows fail before the solve, naming the covariance
    overflow = LinearModel(np.full((3, 4), 1e200))
    overflow_obs = ObservationSet(d_obs=np.zeros(3), sigma_e=np.ones(3))
    overflow_sampler = hn.build_prior_sampler(cfg, overflow)
    failed = "failed: step 1: predicted-data covariance C_dd + alpha C_e overflows"
    assert statuses(overflow, overflow_sampler, overflow_obs) == [failed, failed]

    # a draw that raises fails every setting of its seed with the cause
    def bad_draw(count, seed):
        raise ValueError("bad draw")

    assert statuses(model, bad_draw, obs) == ["failed: bad draw", "failed: bad draw"]
    assert not (out / "runs").exists()


class _NonFiniteFromStep(ForwardModel):
    """The wrapped model, until its step-th ensemble evaluation turns inf."""

    def __init__(self, inner, step):
        self._inner, self._step, self._calls = inner, step, 0
        self.datum_meta = inner.datum_meta

    n_params = property(lambda self: self._inner.n_params)
    n_data = property(lambda self: self._inner.n_data)

    def evaluate_ensemble(self, values):
        self._calls += 1
        out = self._inner.evaluate_ensemble(values)
        return out if self._calls < self._step else out + np.inf


def test_run_failing_at_step_3_names_it_and_the_matrix_completes(tmp_path, monkeypatch):
    run_esmda = hn.run_esmda

    def flaky(prior, model, obs, schedule, policy, *args):
        if policy.spec is None and prior.n_members == 40:  # "none", not the reference
            model = _NonFiniteFromStep(model, 3)
        return run_esmda(prior, model, obs, schedule, policy, *args)

    monkeypatch.setattr(hn, "run_esmda", flaky)
    raw = tiny_config(tmp_path / "out", schedule={"n_steps": 4})
    report = hn.run_experiment(hn.config_from_dict(raw))
    rows = read_csv(tmp_path / "out" / "report.csv")
    status = {(r["taper"], r["run"]): r["status"] for r in rows}
    failed = "failed: step 3: forward model produced non-finite output for member 0"
    assert status == {
        ("none", "0"): failed, ("none", "1"): failed,
        ("logistic", "0"): "ok", ("logistic", "1"): "ok",
        ("reference", "0"): "ok",
    }
    assert [r.taper for r in report.all_runs if r.report is None] == ["none", "none"]
    assert cli._exit_code([report]) == cli.EXIT_RUN


def test_sweep_ensemble_size(tmp_path):
    raw = tiny_config(tmp_path / "sweep", **{"reference": None})
    cfg = hn.config_from_dict(raw)
    reports = hn.sweep_ensemble_size(cfg, [20, 40])
    assert set(reports) == {20, 40}
    trend = read_csv(tmp_path / "sweep" / "ne_trend.csv")
    assert {r["ensemble_size"] for r in trend} == {"20", "40"}
    # a single size reduces to run_experiment with identical artifacts
    solo_dir = tmp_path / "solo"
    solo = hn.config_from_dict(tiny_config(solo_dir, **{"reference": None, "ensemble_size": 40}))
    hn.run_experiment(solo)
    a = (tmp_path / "sweep" / "ne_40" / "report.csv").read_bytes()
    b = (solo_dir / "report.csv").read_bytes()
    assert a == b


GRID30 = {
    "model": {"kind": "grid_proxy", "nx": 30, "ny": 30, "n_layers": 1,
               "prod_grid": 3, "n_times": 12},
    "prior": {
        "porosity": {"mean": 0.2, "std": 0.05, "range_major": 15, "range_minor": 8,
                      "angle_deg": 45},
        "log_perm": {"mean": 0.0, "std": 0.7, "range_major": 15, "range_minor": 8,
                      "angle_deg": 45},
    },
    "observation": {"truth_seed": 5, "noise_seed": 6, "rel_std": 0.10, "floor": 0.02},
    "ensemble_size": 50,
    "schedule": {"n_steps": 4},
    "runs": {"count": 2, "base_seed": 400},
    "emit_nv_field": False,
}


def test_sweep_ensemble_size_trends(tmp_path):
    """Qualitative sweep behavior on the grid proxy.

    Distance localization buys a better data match than the logistic taper
    at every ensemble size, and both tapers retain more posterior variance
    as the ensemble grows.
    """
    raw = dict(
        GRID30,
        localization=[
            {"taper": "logistic:gamma=1.5,t0=2,eps=0.01"},
            {"taper": "distance:major=15,minor=8,angle=45"},
        ],
        output_dir=str(tmp_path / "sweep"),
    )
    reports = hn.sweep_ensemble_size(hn.config_from_dict(raw), [30, 60])
    agg = {
        size: {(t, m): v for t, m, v, _, _ in rep.aggregates()}
        for size, rep in reports.items()
    }
    for size in (30, 60):
        assert agg[size][("distance", "obj_mean")] < agg[size][("logistic", "obj_mean")]
    for taper in ("logistic", "distance"):
        assert agg[60][(taper, "nv")] > agg[30][(taper, "nv")]
    trend = read_csv(tmp_path / "sweep" / "ne_trend.csv")
    assert {(r["ensemble_size"], r["taper"], r["metric"]) for r in trend} == {
        (str(s), t, m)
        for s in (30, 60)
        for t in ("logistic", "distance")
        for m in ("obj_mean", "nv")
    }


def test_sweep_sizes_linear_objective_band(tmp_path):
    """Unlocalized linear-Gaussian runs stay near the theoretical obj of 1/2."""
    raw = {
        "model": {"kind": "linear", "n_params": 6, "n_data": 10, "structure_seed": 3},
        "observation": {"truth_seed": 1, "noise_seed": 2, "rel_std": 0.10, "floor": 0.05},
        "schedule": {"n_steps": 4},
        "localization": [{"taper": "none"}, {"taper": "mse"}],
        "runs": {"count": 3, "base_seed": 100},
        "output_dir": str(tmp_path / "lin"),
    }
    reports = hn.sweep_ensemble_size(hn.config_from_dict(raw), [50, 100])
    for size, report in reports.items():
        for run in report.by_taper("none"):
            assert 0.3 <= run.report.obj_mean <= 0.8, (size, run.report.obj_mean)
        for run in report.by_taper("mse"):
            assert run.report.obj_mean <= 1.6, (size, run.report.obj_mean)


def test_sweep_layers_percentile_chi_stable(tmp_path):
    """The adaptive-threshold footprint stays roughly flat as layers grow."""
    raw = dict(
        GRID30,
        localization=[
            {"taper": "none"},
            {"taper": "logistic:gamma=1.5,eps=0.01", "t0": "p90", "name": "logistic_p90"},
        ],
        output_dir=str(tmp_path / "layers"),
    )
    raw["runs"] = {"count": 2, "base_seed": 300}
    reports = hn.sweep_layers(hn.config_from_dict(raw), [1, 4])
    chi = {
        layers: {(t, m): v for t, m, v, _, _ in rep.aggregates()}[("logistic_p90", "chi")]
        for layers, rep in reports.items()
    }
    assert 0.5 <= chi[4] / chi[1] <= 1.15
    for rep in reports.values():
        assert all(r.report.chi == 1.0 for r in rep.by_taper("none"))


def test_sweep_layers_chi_exact(tmp_path):
    raw = {
        "model": {"kind": "grid_proxy", "nx": 20, "ny": 20, "n_layers": 1,
                   "prod_grid": 2, "n_times": 6},
        "prior": {
            "porosity": {"mean": 0.2, "std": 0.05, "range_major": 8, "range_minor": 4},
            "log_perm": {"mean": 0.0, "std": 0.5, "range_major": 8, "range_minor": 4},
        },
        "observation": {"truth_seed": 3, "noise_seed": 4, "rel_std": 0.1, "floor": 0.02},
        "ensemble_size": 20,
        "schedule": {"n_steps": 2},
        "localization": [{"taper": "none"}, {"taper": "logistic:gamma=1.5,t0=2"}],
        "runs": {"count": 1, "base_seed": 50},
        "output_dir": str(tmp_path / "layers"),
        "emit_nv_field": False,
    }
    cfg = hn.config_from_dict(raw)
    reports = hn.sweep_layers(cfg, [1, 2])
    for layers, report in reports.items():
        none_runs = report.by_taper("none")
        assert all(r.report.chi == 1.0 for r in none_runs), layers
        model_nm = 2 * 20 * 20 * layers
        assert all(r.report.n_eff == model_nm for r in none_runs)
    table = read_csv(tmp_path / "layers" / "neff_table.csv")
    none_rows = [r for r in table if r["taper"] == "none"]
    assert {r["layers"] for r in none_rows} == {"1", "2"}
    assert all(float(r["chi"]) == 1.0 for r in none_rows)
    with pytest.raises(ConfigError):
        hn.sweep_layers(hn.config_from_dict(tiny_config(tmp_path / "x")), [1])


def test_nv_field_emitted_for_grid(tmp_path):
    raw = {
        "model": {"kind": "grid_proxy", "nx": 16, "ny": 16, "n_layers": 1,
                   "prod_grid": 2, "n_times": 4},
        "prior": {
            "porosity": {"mean": 0.2, "std": 0.05, "range_major": 6, "range_minor": 3},
            "log_perm": {"mean": 0.0, "std": 0.5, "range_major": 6, "range_minor": 3},
        },
        "observation": {"truth_seed": 3, "noise_seed": 4, "rel_std": 0.1, "floor": 0.02},
        "ensemble_size": 15,
        "schedule": {"n_steps": 1},
        "localization": [{"taper": "mse"}],
        "runs": {"count": 1, "base_seed": 10},
        "output_dir": str(tmp_path / "grid"),
    }
    hn.run_experiment(hn.config_from_dict(raw))
    rows = read_csv(tmp_path / "grid" / "nv_field.csv")
    assert len(rows) == 2 * 16 * 16  # both fields, every cell
    assert {r["field"] for r in rows} == {"poro", "logk"}


def test_t0_table(tmp_path):
    rows = hn.t0_table_rows([50, 100, 200, 1000], [0.10, 0.05, 0.01])
    assert len(rows) == 12
    lookup = {(ne, phi): (t0, rho0) for ne, phi, t0, rho0 in rows}
    assert lookup[(1000, 0.05)][0] == pytest.approx(1.962, abs=1e-3)
    assert lookup[(50, 0.01)][1] == pytest.approx(0.361, abs=1e-3)
    path = tmp_path / "t0.csv"
    hn.emit_t0_table([50, 100], [0.05], path)
    got = read_csv(path)
    assert len(got) == 2
    assert float(got[0]["t0"]) == pytest.approx(2.011, abs=1e-3)


def test_cli_run_and_exit_codes(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "cli_out", **{"reference": None})))
    assert cli.main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "cli_out" / "report.csv").is_file()

    # --out / --seed overrides
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "o2"), "--seed", "9"]) == 0
    assert (tmp_path / "o2" / "report.csv").is_file()

    # config error -> 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert cli.main(["run", str(missing)]) == 2

    # t0 table command
    assert cli.main(["t0-table", "--ne", "50,100", "--phi", "0.05",
                     "--out", str(tmp_path / "t0.csv")]) == 0
    assert cli.main(["t0-table", "--ne", "50", "--phi", "",
                     "--out", str(tmp_path / "t0_empty.csv")]) == 0
    assert (tmp_path / "t0_empty.csv").read_text().strip() == "ne,phi,t0,rho0"

    # forward-model failure -> 3
    def exploding_build(cfg):
        class Boom(LinearModel):
            def evaluate_ensemble(self, values):
                out = super().evaluate_ensemble(values)
                out[:, 0] = np.nan
                return out

        return Boom(np.ones((4, 7)))

    # overrides take the checks of the config file -> 2
    o4 = ["--out", str(tmp_path / "o4")]
    for flags in (["--threads", "0"], ["--threads", "-3"], ["--seed", "-1"]):
        assert cli.main(["run", str(cfg_path), *o4, *flags]) == 2
    monkeypatch.setenv("ENLOC_THREADS", "two")
    assert cli.main(["run", str(cfg_path), *o4]) == 2
    monkeypatch.delenv("ENLOC_THREADS")
    assert cli.main(["sweep-ne", str(cfg_path), "--sizes", "2", *o4]) == 2
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps(tiny_config(tmp_path / "o4", reference={"ensemble_size": 50})))
    assert cli.main(["run", str(ref_path), "--seed", "0"]) == 2  # reference seed -1
    assert not (tmp_path / "o4" / "report.csv").exists()

    monkeypatch.setattr(hn, "build_model", exploding_build)
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "o3")]) == 3


def test_run_time_config_values_exit_2(tmp_path):
    """Values the config parser passes through fail as config errors when used."""
    grid = dict(GRID30, localization=[{"taper": "mse"}], output_dir=str(tmp_path / "g"))
    cases = []
    for section, key, value in (
        ("model", "n_params", "x"),
        ("observation", "rel_std", "high"),
        ("observation", "noise_seed", None),
    ):
        raw = tiny_config(tmp_path / "t")
        raw["model"] = {"kind": "linear", "n_params": 4, "n_data": 6}
        raw[section] = dict(raw[section], **{key: value})
        cases.append((raw, "run"))
    cases.append((dict(grid, model=dict(grid["model"], nx=4)), "run"))
    cases.append((dict(grid, prior=dict(grid["prior"], porosity=5)), "run"))
    cases.append((dict(grid, prior=dict(grid["prior"], log_perm={"std": "wide"})), "run"))
    cases.append((grid, "sweep-layers"))
    for i, (raw, command) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(raw))
        cfg = hn.load_config(path)
        with pytest.raises(ConfigError):
            if command == "sweep-layers":
                hn.sweep_layers(cfg, [0])
            else:
                hn.run_experiment(cfg)
        extra = ["--layers", "0"] if command == "sweep-layers" else []
        assert cli.main([command, str(path), *extra]) == 2, raw


def test_row_variance_once_per_run(tmp_path, monkeypatch):
    """One prior and one forecast row variance per step: n_steps + 2 per run."""
    calls = []
    var = np.var

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return var(*args, **kwargs)

    monkeypatch.setattr(np, "var", counting)
    toy = tiny_config(tmp_path / "toy", reference=None, schedule={"n_steps": 4})
    toy.update(localization=[{"taper": "mse"}], runs={"count": 1, "base_seed": 5})
    grid = dict(GRID30, localization=[{"taper": "mse"}], output_dir=str(tmp_path / "grid"))
    grid.update(runs={"count": 1, "base_seed": 5}, emit_nv_field=True)
    grid["model"] = dict(grid["model"], nx=12, ny=12, n_times=4)
    for raw in (toy, grid):  # nv_dummy, then nv_field.csv
        calls.clear()
        hn.run_experiment(hn.config_from_dict(raw))
        assert len(calls) == 4 + 2, calls


def test_threaded_run_with_reference_matches_serial(tmp_path):
    for threads in (1, 2):
        raw = tiny_config(tmp_path / f"t{threads}", threads=threads)
        report = hn.run_experiment(hn.config_from_dict(raw))
        assert report.reference is not None and report.reference.taper == "reference"
    for name in ("report.csv", "metrics.csv", "histogram.csv", "aggregate.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


def _shared_prior_grid(out_dir, threads, localization=None):
    raw = dict(GRID30, output_dir=str(out_dir), threads=threads, emit_nv_field=True)
    raw["model"] = dict(raw["model"], nx=12, ny=12, n_times=4)
    raw["localization"] = localization or [
        {"taper": "none"},
        {"taper": "logistic:gamma=1.5,t0=2,eps=0.01"},
        {"taper": "distance:major=15,minor=8,angle=45"},
    ]
    raw["reference"] = {"ensemble_size": 80, "seed": 9}
    return hn.config_from_dict(raw)


def _count_draws(monkeypatch):
    """(count, seed) of every prior draw from now on, the truth's excepted."""
    draws = []
    build = hn.build_prior_sampler

    def counting_build(cfg, model):
        inner = build(cfg, model)

        def sampler(count, seed):
            if seed != cfg.observation["truth_seed"]:
                draws.append((count, seed))
            return inner(count, seed)

        return sampler

    monkeypatch.setattr(hn, "build_prior_sampler", counting_build)
    return draws


def test_run_seed_prior_drawn_once_and_shared(tmp_path, monkeypatch):
    draws = _count_draws(monkeypatch)
    priors = {}
    run_esmda = hn.run_esmda

    def recording(prior, *args, **kwargs):
        priors.setdefault(prior.n_members, []).append(prior)
        return run_esmda(prior, *args, **kwargs)

    monkeypatch.setattr(hn, "run_esmda", recording)
    for threads in (1, 2):
        draws.clear()
        priors.clear()
        report = hn.run_experiment(_shared_prior_grid(tmp_path / f"t{threads}", threads))
        # 3 settings x 2 runs and the reference: one draw per (size, seed)
        assert sorted(draws) == [(50, 400), (50, 401), (80, 9)]
        assert [(r.taper, r.run) for r in report.all_runs] == [
            (taper, run) for taper in ("none", "logistic", "distance") for run in (0, 1)
        ] + [("reference", 0)]
        assert all(r.status == "ok" for r in report.all_runs)
        assert len(priors[50]) == 6 and len({id(p) for p in priors[50]}) == 2
        for prior in priors[50] + priors[80]:
            with pytest.raises(ValueError, match="read-only"):
                prior.values[0, 0] = 0.0
    names = ["report.csv", "metrics.csv", "histogram.csv", "aggregate.csv", "nv_field.csv"]
    names += [f"runs/{r.taper}/run{r.run}/diagnostics.csv" for r in report.all_runs]
    for name in names:
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


def test_shared_prior_released_after_its_last_job(tmp_path, monkeypatch):
    # a localized setting too: its taper field must not keep the prior alive
    settings = [{"taper": "none"}, {"taper": "logistic:gamma=1.5,t0=2,eps=0.01"}]
    cfg = _shared_prior_grid(tmp_path / "out", 1, settings)
    priors, posteriors = [], []
    run_esmda = hn.run_esmda

    def recording(prior, *args, **kwargs):
        gc.collect()
        # the only live prior is this run seed's; every earlier posterior is gone
        assert all(ref() is None or ref() is prior for ref in priors)
        assert all(ref() is None for ref in posteriors)
        priors.append(weakref.ref(prior))
        result = run_esmda(prior, *args, **kwargs)
        posteriors.append(weakref.ref(result.posterior))
        return result

    monkeypatch.setattr(hn, "run_esmda", recording)
    report = hn.run_experiment(cfg)
    assert len(priors) == 5 and all(r.status == "ok" for r in report.all_runs)
    gc.collect()  # the report is still held, and keeps summaries only
    assert all(ref() is None for ref in priors + posteriors)
    assert all(r.diagnostics and r.nv_rows is not None for r in report.all_runs)


def test_cli_threads_env_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path / "thr", **{"reference": None})))
    monkeypatch.setenv("ENLOC_THREADS", "2")
    assert cli.main(["run", str(cfg_path), "--threads", "1"]) == 0
    # threaded and serial execution produce identical artifacts
    monkeypatch.delenv("ENLOC_THREADS")
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "thr_serial")]) == 0
    a = (tmp_path / "thr" / "report.csv").read_bytes()
    b = (tmp_path / "thr_serial" / "report.csv").read_bytes()
    assert a == b
