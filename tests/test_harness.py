"""Experiment harness: config handling, artifacts, determinism, CLI."""

import argparse
import csv
import gc
import importlib.util
import io
import json
import re
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import read_ensemble_csv

import enloc.harness as hn
from enloc import cli, metrics
from enloc import ensemble as ens_mod
from enloc import smoother as sm
from enloc.ensemble import Ensemble, ensemble_variance_per_row
from enloc.errors import ConfigError
from enloc.metrics import MetricReport
from enloc.models import ForwardModel, LinearModel, ScalarToyModel
from enloc.significance import PercentileT0, StudentT0
from enloc.tapers import Logistic

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
    """Every shipped config and every benchmark workload's config loads, and
    every python example of the README runs."""
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert {p.name for p in paths} >= {"scalar_toy.json", "grid_proxy.json", "linear_smoke.json"}
    for path in paths:
        cfg = hn.load_config(path)
        assert cfg.run_count >= 1
        assert cfg.localization
    spec = importlib.util.spec_from_file_location(
        "workloads", CONFIG_DIR.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for small in (True, False):
            assert hn.config_from_dict(workloads.make_config(workload, 1, 0, small)).localization
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


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

    # a t0 strategy needs a taper that reads t0 and that does not set one
    # itself, and such a taper needs one of the two
    for entry in (
        {"taper": "mse", "t0": "student:phi=0.05"},
        {"taper": "mse", "t0": "p90"},
        {"taper": "none", "t0": "p90"},
        {"taper": "power:beta=3,t0=2", "t0": "p90"},
        {"taper": "power:beta=3"},
        {"taper": "logistic:gamma=1.5,eps=0.01"},
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
    for field, value in (("base_seed", 0), ("ensemble_size", 2)):
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
_TOP_KEYS = tuple(hn._SCHEMA["config"])


def _schema_keys(tables):
    """Every key of the tables and of the tables nested in them."""
    keys = set()
    for table in tables:
        keys |= set(table) | _schema_keys(t for t, _d, _l in table.values() if isinstance(t, dict))
    return keys


_SCHEMA_KEYS = sorted(_schema_keys(hn._SCHEMA.values()))


def _edit(raw, where, edits):
    """raw with the block at where ("section" or "section.block") updated by edits."""
    section, _, block = where.partition(".")
    target = raw.setdefault(section, {})
    if block and isinstance(target, dict):
        target = target.setdefault(block, {})
    if isinstance(target, dict):
        target.update(edits)


def _assert_read(block, table):
    """block holds exactly the keys of table, each of the table's type."""
    assert set(block) == set(table)
    for key, (kind, _default, _least) in table.items():
        if isinstance(kind, dict):
            _assert_read(block[key], kind)
        elif kind in (int, float) and block[key] is not None:
            assert type(block[key]) is kind, (key, block[key])


def _typed(spec):
    """Values of the type a (type, default, least) spec reads, at or above
    its least; a block gets a subset of its keys."""
    typ, _default, least = spec
    lo = least or 0
    if isinstance(typ, tuple):
        return st.sampled_from(typ)
    if isinstance(typ, dict):
        return st.fixed_dictionaries({}, optional={k: _typed(v) for k, v in typ.items()})
    return {
        int: st.integers(lo, lo + 50),
        float: st.floats(lo, lo + 50) if least is not None else st.floats(-50, 50),
        bool: st.booleans(),
        str: st.text(min_size=max(lo, 1), max_size=8),
    }[typ]


def _junk(keys):
    """Up to three of keys or any text, each with any JSON value."""
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=8), _JSON, max_size=3)


def _mostly(typed, junk):
    """typed seven times in eight, else junk (one_of would draw each half the time)."""
    return st.sampled_from(range(8)).flatmap(lambda i: typed if i < 7 else junk)


def _edits(table):
    """Edits of a block: mostly a subset of its own keys with values of
    their types, else schema keys or any text with any JSON."""
    return _mostly(_typed((table, None, None)), _junk(_SCHEMA_KEYS))


_SCHEDULES = st.integers(1, 6).flatmap(lambda n: st.fixed_dictionaries(
    {}, optional={"n_steps": st.just(n), "alphas": st.just([float(n)] * n)}))
_BLOCKS = {"observation": _edits(hn._SCHEMA["observation"]), "runs": _edits(hn._RUNS),
           "schedule": _mostly(_SCHEDULES, _junk(_SCHEMA_KEYS)),
           "reference": _edits(hn._SCHEMA["reference"])}
_MODEL_BLOCKS = {  # the kind stays: another kind's keys are unknown to it
    kind: _edits({k: v for k, v in hn._SCHEMA[kind].items() if k != "kind"})
    for kind in ("scalar_toy", "grid_proxy")
}
_PRIOR_BLOCKS = {False: {"prior": _edits(hn._SCHEMA["prior"])},
                 True: {"prior": _edits(hn._SCHEMA["grid_prior"]),
                        "prior.porosity": _edits(hn._GRF), "prior.log_perm": _edits(hn._GRF)}}
_TOP = {k: v for k, v in hn._SCHEMA["config"].items() if v[0] in (int, str, bool)}
_ENTRY = st.sampled_from(["mse", "none", "power:beta=3,t0=2"]) | st.fixed_dictionaries(
    {"taper": st.sampled_from(["power:beta=3", "logistic:gamma=1.5"]),
     "t0": st.sampled_from(["p90", "student:phi=0.05"])},
    optional={"name": st.text(min_size=1, max_size=8)},
)
_LOCALIZATION = st.none() | st.lists(
    _mostly(_ENTRY, st.text(max_size=12)
            | st.dictionaries(st.sampled_from(["taper", "t0", "name"]) | st.text(max_size=4),
                              _JSON, max_size=3)
            | st.fixed_dictionaries(
                {"taper": st.sampled_from(["mse", "power:beta=3", "logistic:gamma=1.5", "none"])},
                optional={"t0": st.text(max_size=8) | _JSON, "name": _JSON})),
    min_size=1, max_size=3, unique_by=repr,
)


def test_config_parser_raises_only_config_error():
    """Any JSON edit of a valid config, of a toy or a grid model, parses or
    raises ConfigError; a parsed config holds only the schema's keys, with
    every integer an int. Edits are mostly well typed, so at least half of
    the drawn configs parse."""
    parsed = []

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(grid=st.booleans(), data=st.data())
    def check(grid, data):
        kind = "grid_proxy" if grid else "scalar_toy"
        blocks = dict(_BLOCKS, model=_MODEL_BLOCKS[kind], **_PRIOR_BLOCKS[grid])
        top = data.draw(_mostly(_typed((_TOP, None, None)), _junk(_TOP_KEYS)), "top")
        nested = dict(data.draw(st.lists(st.sampled_from(sorted(blocks)).flatmap(
            lambda where: st.tuples(st.just(where), blocks[where])), max_size=3), "nested"))
        localization = data.draw(_LOCALIZATION, "localization")
        raw = tiny_config("out")
        if grid:
            raw.update(model=dict(GRID30["model"]), prior=json.loads(json.dumps(GRID30["prior"])))
        for where, edits in nested.items():
            _edit(raw, where, edits)
        if localization is not None:
            raw["localization"] = localization
        raw.update(top)
        try:
            cfg = hn.config_from_dict(raw)
        except ConfigError:
            parsed.append(False)
            return
        parsed.append(True)
        assert isinstance(cfg, hn.ExperimentConfig)
        assert cfg.ensemble_size >= 3 and cfg.run_count >= 1
        assert cfg.block_width >= 1
        assert set(raw) <= set(_TOP_KEYS)  # an unknown key is a typo
        for name in ("ensemble_size", "run_count", "base_seed", "block_width"):
            assert type(getattr(cfg, name)) is int, name
        assert all(type(a) is float for a in cfg.schedule.alphas)
        assert isinstance(cfg.save_posterior, bool) and isinstance(cfg.emit_nv_field, bool)
        assert isinstance(cfg.output_dir, str) and cfg.output_dir
        kind = cfg.model["kind"]
        _assert_read(cfg.model, hn._SCHEMA["linear_matrix" if "matrix" in cfg.model else kind])
        _assert_read(cfg.prior, hn._SCHEMA["grid_prior" if kind == "grid_proxy" else "prior"])
        _assert_read(cfg.observation, hn._SCHEMA["observation"])
        if cfg.reference is not None:
            _assert_read(cfg.reference, hn._SCHEMA["reference"])
        for entry in raw["localization"]:
            assert isinstance(entry, str) or set(entry) <= set(hn._SCHEMA["localization"])
        for name in cfg.localization:  # each names one directory under runs/
            assert name not in ("", ".", "..") and not set(name) & set("/\\\0"), name

    check()
    assert 2 * sum(parsed) >= len(parsed), f"{sum(parsed)} of {len(parsed)} configs parse"


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
    name, policy = hn._parse_localization({"taper": "power:beta=3,t0=2", "name": "pw"})
    assert name == "pw" and policy.spec.t0 == 2.0 and policy.t0_strategy is None
    assert hn._parse_localization("mpo")[0] == "mpo"


def test_setting_name_is_one_path_component(tmp_path, capsys):
    """A name that would put a run directory outside runs/, or is not one
    line of non-blank text without surrounding spaces, exits 2 and writes
    nothing; an absent or null name is derived from the taper."""
    for bad in ("..", ".", "../../escaped", "a/b", "/abs", "a\\b", "a\0b",
                "", 0, False, [], {}, [1], " ", "a\n", "\tp90", "p90 "):
        raw = tiny_config(tmp_path / "out" / "sub", localization=[{"taper": "mse", "name": bad}])
        with pytest.raises(ConfigError, match="must be one path component"):
            hn.config_from_dict(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2, bad
        assert "must be one path component" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    for good in ("...", "a.b", "p 90"):
        assert hn._parse_localization({"taper": "mse", "name": good})[0] == good
    assert hn._parse_localization({"taper": "mse", "name": None})[0] == "mse"
    assert hn._parse_localization({"taper": "mse"})[0] == "mse"


def test_fixed_t0_strategy_is_a_config_error(tmp_path, capsys):
    """A fixed threshold is the taper's own t0; "fixed:2" is no strategy."""
    path = tmp_path / "cfg.json"
    entry = {"taper": "power:beta=3", "t0": "fixed:2"}
    path.write_text(json.dumps(tiny_config(tmp_path / "out", localization=[entry])))
    assert cli.main(["run", str(path)]) == 2
    assert "as in power:beta=3,t0=2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_percentile_threshold_with_a_constant_datum_runs(tmp_path):
    matrix = np.random.default_rng(3).standard_normal((5, 6))
    matrix[1] = 0.0  # datum 1 is constant: its source has no finite t
    cfg = {
        "model": {"kind": "linear", "matrix": matrix.tolist()},
        "prior": {"kind": "standard_normal"},
        "observation": {"truth_seed": 1, "noise_seed": 2, "rel_std": 0.1, "floor": 0.05},
        "ensemble_size": 50,
        "schedule": {"n_steps": 2},
        "localization": [{"taper": "power:beta=3", "t0": "p90"}],
        "runs": {"count": 1, "base_seed": 100},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 0
    assert [r["status"] for r in read_csv(tmp_path / "out" / "report.csv")] == ["ok"]


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

    post = read_ensemble_csv(run_dir / "posterior.csv")
    assert post.values.shape == (7, 40)

    # histogram counts account for every model-data pair
    hist = read_csv(out / "histogram.csv")
    for taper in ("none", "logistic"):
        total = sum(int(r["count"]) for r in hist if r["taper"] == taper and r["run"] == "0")
        assert total == 7 * 30


def test_aggregates_of_equal_values_are_that_value_with_no_spread():
    """Ten equal values aggregate to that value with a half-width of 0.0,
    which np.mean and np.std of them miss by round-off."""
    rep = MetricReport(obj_mean=0.6, nv=0.3, mean_offset=0.1, n_eff=1361.8105566111165,
                       chi=0.5, taper_histogram=np.zeros(20, dtype=np.int64))
    runs = [hn.RunResult("mse", k, "ok", rep) for k in range(10)]
    runs.append(hn.RunResult("po", 0, "ok", rep))
    runs += [hn.RunResult("po", 1, "ok", replace(rep, n_eff=1361.0))]
    agg = {(t, m): (mean, half, n) for t, m, mean, half, n in hn.ExperimentReport(runs).aggregates()}
    assert agg[("mse", "n_eff")] == (1361.8105566111165, 0.0, 10)
    assert agg[("mse", "obj_mean")] == (0.6, 0.0, 10)
    assert agg[("po", "obj_mean")] == (0.6, 0.0, 2)
    mean, half, n = agg[("po", "n_eff")]  # unequal values keep the sample mean and spread
    assert (mean, n) == (np.mean([1361.8105566111165, 1361.0]), 2)
    assert half == 1.96 * np.std([1361.8105566111165, 1361.0], ddof=1) / np.sqrt(2)
    assert ("mse", "nv_dummy") not in agg  # no values, no row


def test_posterior_write_failing_part_way_leaves_no_file(tmp_path, monkeypatch):
    """posterior.csv is written atomically: a write that fails at its third
    row leaves neither the file nor its temporary."""

    class Unwritable:
        def __str__(self):
            raise OSError("no space left on device")

    run_esmda = hn.run_esmda

    def failing_third_row(prior, *args, **kwargs):
        result = run_esmda(prior, *args, **kwargs)
        result.posterior.names = ["p0", "p1", Unwritable()] + [
            f"p{i}" for i in range(3, result.posterior.n_params)
        ]
        return result

    monkeypatch.setattr(hn, "run_esmda", failing_third_row)
    raw = tiny_config(tmp_path / "out", save_posterior=True, reference=None)
    with pytest.raises(OSError, match="no space left"):
        hn.run_experiment(hn.config_from_dict(raw))
    run_dir = tmp_path / "out" / "runs" / "none" / "run0"
    assert [p.name for p in run_dir.iterdir()] == ["diagnostics.csv"]


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


class _InfRowAtStep2(ForwardModel):
    """The wrapped model, but its second evaluation sets parameter row `row`
    of the ensemble it reads to inf: the run's own ensemble, which the
    step's update then writes in place."""

    def __init__(self, inner, row):
        self._inner, self._row, self._calls = inner, row, 0
        self.datum_meta = inner.datum_meta

    n_params = property(lambda self: self._inner.n_params)
    n_data = property(lambda self: self._inner.n_data)

    def evaluate_ensemble(self, values):
        self._calls += 1
        out = self._inner.evaluate_ensemble(values)
        if self._calls == 2:
            values[self._row] = np.inf
        return out


# the inf row's variance, taken before the update fails, is NaN
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_run_failing_in_block_2_names_its_rows_and_the_matrix_completes(tmp_path, monkeypatch):
    run_esmda = hn.run_esmda

    def flaky(prior, model, obs, schedule, policy, *args):
        if policy.spec is not None:  # "logistic" only
            model = _InfRowAtStep2(model, 5)
        return run_esmda(prior, model, obs, schedule, policy, *args)

    monkeypatch.setattr(hn, "run_esmda", flaky)
    # 7 parameters in blocks 0:2, 2:4, 4:6 and 6:7
    raw = tiny_config(tmp_path / "out", block_width=2, schedule={"n_steps": 3})
    report = hn.run_experiment(hn.config_from_dict(raw))
    rows = read_csv(tmp_path / "out" / "report.csv")
    status = {(r["taper"], r["run"]): r["status"] for r in rows}
    failed = "failed: step 2: rows 4:6: ensemble rows must be finite"
    assert status == {
        ("none", "0"): "ok", ("none", "1"): "ok",
        ("logistic", "0"): failed, ("logistic", "1"): failed,
        ("reference", "0"): "ok",
    }
    assert [r.taper for r in report.all_runs if r.report is None] == ["logistic", "logistic"]
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
        "model": {"kind": "grid_proxy", "nx": 16, "ny": 16, "n_layers": 2,
                   "prod_grid": 2, "n_times": 4},
        "prior": {
            "porosity": {"mean": 0.2, "std": 0.05, "range_major": 6, "range_minor": 3},
            "log_perm": {"mean": 0.0, "std": 0.5, "range_major": 6, "range_minor": 3},
        },
        "observation": {"truth_seed": 3, "noise_seed": 4, "rel_std": 0.1, "floor": 0.02},
        "ensemble_size": 15,
        "schedule": {"n_steps": 1},
        "localization": [{"taper": "mse"}, {"taper": "none"}],
        "runs": {"count": 2, "base_seed": 10},
        "output_dir": str(tmp_path / "grid"),
    }
    cfg = hn.config_from_dict(raw)
    report = hn.run_experiment(cfg)
    rows = read_csv(tmp_path / "grid" / "nv_field.csv")
    assert len(rows) == 4 * 2 * 16 * 16 * 2  # every run, both fields, every cell
    assert {r["field"] for r in rows} == {"poro", "logk"}
    # the bytes a writer of one row at a time gives
    model, fsize = hn.build_model(cfg), 16 * 16 * 2
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["taper", "run", "field", "i", "j", "k", "value"])
    for r in report.all_runs:
        for p, nv in enumerate(r.nv_rows):
            i, j, k = model.coords[p]
            field = "poro" if p < fsize else "logk"
            writer.writerow([r.taper, r.run, field, int(i), int(j), int(k), repr(float(nv))])
    assert (tmp_path / "grid" / "nv_field.csv").read_bytes() == expected.getvalue().encode()


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
    assert cli.main(["run", str(cfg_path), *o4, "--seed", "-1"]) == 2
    assert cli.main(["sweep-ne", str(cfg_path), "--sizes", "2", *o4]) == 2
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps(tiny_config(tmp_path / "o4", reference={"ensemble_size": 50})))
    assert cli.main(["run", str(ref_path), "--seed", "0"]) == 2  # reference seed -1
    assert not (tmp_path / "o4" / "report.csv").exists()

    monkeypatch.setattr(hn, "build_model", exploding_build)
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "o3")]) == 3


def _synopsis_flags(text):
    """{command: --flags named} over the lines of text that start `enloc <command>`."""
    named = {}
    for command, rest in re.findall(r"^\s*enloc ([a-z0-9-]+)(.*)$", text, flags=re.M):
        named.setdefault(command, set()).update(re.findall(r"--[a-z][a-z0-9-]*", rest))
    return named


def test_cli_docs_name_what_the_parser_accepts():
    """README.md and the cli docstring name exactly the parser's commands and flags."""
    commands = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    accepted = {
        name: {f for f in sub._option_string_actions if f.startswith("--") and f != "--help"}
        for name, sub in commands.choices.items()
    }
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    assert _synopsis_flags(readme) == accepted
    assert _synopsis_flags(cli.__doc__) == accepted


def test_readme_schema_names_every_config_key():
    """The README's config schema names every key of every schema table, and
    each key it gives a value is one."""
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    block = re.search(r"### Config schema\n\n```jsonc\n(.*?)^```", readme, flags=re.M | re.S)[1]
    assert [key for key in _SCHEMA_KEYS if not re.search(rf"\b{key}\b", block)] == []
    assert set(re.findall(r'"(\w+)":', block)) <= set(_SCHEMA_KEYS)


def test_bad_sweep_and_table_arguments_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys):
    """An empty sweep list is a usage error; a sweep with one bad size or
    layer count, and a t0-table level or ensemble size the table cannot
    take, are config errors. None of them writes anything."""
    monkeypatch.chdir(tmp_path)
    toy, grid = tmp_path / "toy.json", tmp_path / "grid.json"
    toy.write_text(json.dumps(tiny_config("out", reference=None)))
    grid.write_text(json.dumps(dict(GRID30, localization=["mse"], output_dir="out")))
    for args in (["sweep-ne", str(toy), "--sizes", ","],
                 ["sweep-layers", str(grid), "--layers", ""]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
    for args, named in (
        (["sweep-ne", str(toy), "--sizes", "20,2"], "ensemble_size"),
        (["sweep-layers", str(grid), "--layers", "1,0"], "grid too small"),
        (["t0-table", "--phi", "1.5", "--out", "t0/t0.csv"], "significance level"),
        (["t0-table", "--ne", "50,3", "--out", "t0/t0.csv"], "ensemble size"),
    ):
        capsys.readouterr()
        assert cli.main(args) == 2, args
        assert named in capsys.readouterr().err, args
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json", "toy.json"], args


def test_run_time_config_values_exit_2(tmp_path):
    """Values the config parser rejects fail when parsed; values it passes
    through fail as config errors when used."""
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
        cases.append((raw, "parse"))
    cases.append((dict(grid, prior=dict(grid["prior"], porosity=5)), "parse"))
    cases.append((dict(grid, prior=dict(grid["prior"], log_perm={"std": "wide"})), "parse"))
    toy = tiny_config(tmp_path / "t")["model"]
    for model in ({"kind": "linear", "n_params": 4, "n_data": 0}, dict(toy, n_times=0),
                  dict(toy, n_series=0),  # no data
                  {"kind": "linear", "n_params": 0, "n_data": 6}):  # no parameters
        cases.append((tiny_config(tmp_path / "t", model=model), "run"))
    cases.append((dict(grid, model=dict(grid["model"], n_times=0)), "run"))
    cases.append((dict(grid, model=dict(grid["model"], nx=4)), "run"))
    cases.append((grid, "sweep-layers"))
    for i, (raw, command) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(raw))
        if command == "parse":
            with pytest.raises(ConfigError):
                hn.load_config(path)
            command = "run"
        else:
            cfg = hn.load_config(path)
            with pytest.raises(ConfigError):
                if command == "sweep-layers":
                    hn.sweep_layers(cfg, [0])
                else:
                    hn.run_experiment(cfg)
        extra = ["--layers", "0"] if command == "sweep-layers" else []
        assert cli.main([command, str(path), *extra]) == 2, raw


_TOY = tiny_config("out")["model"]
_LINEAR = {"kind": "linear", "n_params": 4, "n_data": 6, "structure_seed": 3}
_OBSERVATION = tiny_config("out")["observation"]
_MISSPELT_POROSITY = dict(GRID30["prior"]["porosity"], angel_deg=45)
_SWEEPS = {"sweep-ne": ["--sizes", "20"], "sweep-layers": ["--layers", "1"]}
_MATRIX = [[1.0, 0.5], [0.0, 2.0], [1.0, 1.0]]


@pytest.mark.parametrize(
    "edit, extra, named",
    [
        ({"ensemble_sise": 7}, [], "'ensemble_sise'"),
        ({"save_posterior": "false"}, [], "save_posterior"),
        ({"emit_nv_field": 1}, [], "emit_nv_field"),
        ({"output_dir": None}, [], "output_dir"),
        ({"output_dir": ""}, [], "output_dir"),
        ({}, ["--out", ""], "output_dir"),
        ({"runs": {"count": True, "base_seed": 500}}, [], "runs.count"),
        ({"block_width": True}, [], "block_width"),
        ({"model": dict(_LINEAR, n_data=True)}, [], "model.n_data"),
        ({"model": dict(_LINEAR, n_params=4.5)}, [], "model.n_params"),
        ({"model": dict(_TOY, n_active=5.5)}, [], "model.n_active"),
        ({"model": dict(_TOY, structure_seed=False)}, [], "model.structure_seed"),
        ({"model": dict(GRID30["model"], nx=12.9), "prior": GRID30["prior"]}, [], "model.nx"),
        ({"model": dict(GRID30["model"], n_layers=True), "prior": GRID30["prior"]}, [],
         "model.n_layers"),
        # misspelt nested keys, and strings, fractions and booleans for numbers
        ({"model": {"kind": "linear", "n_param": 9, "n_data": 6}}, [], "'model.n_param'"),
        ({"observation": dict(_OBSERVATION, truth_sed=5)}, [], "'observation.truth_sed'"),
        ({"observation": dict(_OBSERVATION, truth_seed=5.7)}, [], "observation.truth_seed"),
        ({"observation": dict(_OBSERVATION, truth_seed=True)}, [], "observation.truth_seed"),
        ({"ensemble_size": "40"}, [], "ensemble_size"),
        ({"runs": {"count": "2", "base_seed": 500}}, [], "runs.count"),
        ({"observation": dict(_OBSERVATION, rel_std="0.1")}, [], "observation.rel_std"),
        ({"prior": {"kind": "bogus"}}, [], "prior.kind"),
        ({"schedule": {"n_step": 2}}, [], "'schedule.n_step'"),
        ({"localization": [{"taper": "mse"}, {"taper": "power:beta=3,t0=2", "tO": "p90"}]}, [],
         "'localization.tO'"),
        ({"model": GRID30["model"], "prior": dict(GRID30["prior"], porosity=_MISSPELT_POROSITY)},
         [], "'prior.porosity.angel_deg'"),
        # schedule keys that disagree, a matrix entry that is no number, and a
        # size or seed beside a matrix
        ({"schedule": {"n_steps": 8, "alphas": [4, 4, 4, 4]}}, [], "schedule.n_steps"),
        ({"schedule": {"n_steps": 1, "alphas": [2, 2]}}, [], "schedule.n_steps"),
        ({"model": {"kind": "linear", "matrix": [[True, "2"], [1, 0]]}}, [], "model.matrix"),
        ({"model": {"kind": "linear", "matrix": [[1, 0], ["2", 1]]}}, [], "model.matrix"),
        ({"model": {"kind": "linear", "matrix": [1, 2]}}, [], "model.matrix"),
        ({"model": {"kind": "linear", "matrix": _MATRIX, "n_params": 2}}, [], "'model.n_params'"),
        ({"model": {"kind": "linear", "matrix": _MATRIX, "n_data": 3}}, [], "'model.n_data'"),
        ({"model": {"kind": "linear", "matrix": _MATRIX, "structure_seed": 0}}, [],
         "'model.structure_seed'"),
        # a taper family checks its keys too
        ({"localization": [{"taper": "mse:beta=3"}]}, [], "unknown mse taper parameter 'beta'"),
    ],
)
def test_bad_config_value_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, edit,
                                                     extra, named):
    """Unknown keys at any depth, non-boolean flags, an empty or non-string
    output_dir, booleans, strings or fractions for numbers, n_steps beside
    alphas of another length and a size or seed beside a matrix are config
    errors that name the key, raised before any file is written: under run,
    sweep-ne and, for a grid model, sweep-layers."""
    monkeypatch.chdir(tmp_path)  # a relative or empty output_dir would land here
    path = tmp_path / "cfg.json"
    raw = dict(tiny_config("out", reference=None), **edit)
    path.write_text(json.dumps(raw))
    commands = {"run": [], **_SWEEPS}
    if raw["model"]["kind"] != "grid_proxy":
        del commands["sweep-layers"]
    for command, args in commands.items():
        assert cli.main([command, str(path), *args, *extra]) == 2, command
        assert named in capsys.readouterr().err, command
        assert list(tmp_path.iterdir()) == [path], command


def test_matching_schedule_keys_and_a_matrix_parse():
    """n_steps equal to the number of alphas is accepted, and a matrix's
    entries are read as floats."""
    raw = tiny_config("out", schedule={"n_steps": 3, "alphas": [3, 3.0, 3]},
                      model={"kind": "linear", "matrix": [[1, 0.5], [0, 2], [1, 1]]})
    cfg = hn.config_from_dict(raw)
    assert cfg.schedule.alphas == (3.0, 3.0, 3.0)
    assert cfg.model == {"kind": "linear", "matrix": _MATRIX}
    assert all(type(x) is float for row in cfg.model["matrix"] for x in row)
    assert replace(cfg, ensemble_size=50).model == cfg.model
    assert np.array_equal(hn.build_model(cfg).G, np.array(_MATRIX))


def test_non_finite_values_exit_2(tmp_path, capsys):
    """NaN, inf and overflowing taper and prior values are config errors."""
    for taper in ("power:beta=3,t0=nan", "discrepancy:eta=nan", "power:beta=inf,t0=2",
                  "power:beta=1e6,t0=2"):
        raw = tiny_config(tmp_path / "t", localization=[{"taper": taper}])
        with pytest.raises(ConfigError):
            hn.config_from_dict(raw)
        path = tmp_path / "taper.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2, taper
    for block, key, value in (
        ("log_perm", "range_major", float("inf")),
        ("porosity", "std", float("nan")),
        ("porosity", "mean", float("-inf")),
        ("log_perm", "angle_deg", float("nan")),
    ):
        prior = dict(GRID30["prior"], **{block: dict(GRID30["prior"][block], **{key: value})})
        raw = dict(GRID30, prior=prior, localization=["mse"], output_dir=str(tmp_path / "g"))
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(raw))  # as Infinity and NaN
        capsys.readouterr()
        assert cli.main(["run", str(path)]) == 2, (block, key)
        assert f"{key} must be finite" in capsys.readouterr().err


def test_row_variance_once_per_run(tmp_path, monkeypatch):
    """One forecast row variance per step and one for the final forecast:
    n_steps + 1 per run. The prior's is step 1's forecast's, which the mean
    offset reads too."""
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
        assert len(calls) == 4 + 1, calls


def _shared_prior_grid(out_dir, localization=None):
    raw = dict(GRID30, output_dir=str(out_dir), emit_nv_field=True)
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


def _report_rows(out_dir, name):
    return [r for r in read_csv(out_dir / "report.csv") if r["taper"] == name]


# the shared prior's grid with every correlation field past its keep budget:
# the blocks that end within the first 128 of its 288 rows are kept, the
# other three of its five 64-row blocks recomputed from the prior at every read
_PAST_BUDGET = [
    {"taper": "mse"},
    {"taper": "logistic:gamma=1.5,eps=0.01", "t0": "p90", "name": "logistic_p90"},
    {"taper": "power:beta=3,t0=2"},
]


def test_run_seed_prior_drawn_once_and_shared(tmp_path, monkeypatch):
    """One draw per run seed. The settings before a seed's last share its
    prior read-only and copy it; the last is handed the prior, writeable,
    to update in place. Neither route changes a byte of any setting's
    diagnostics or report rows, the last setting's included, whether the
    taper fields keep every block or recompute some from the prior."""
    draws = _count_draws(monkeypatch)
    calls = {}
    run_esmda = hn.run_esmda

    def recording(prior, *args):
        calls.setdefault(prior.n_members, []).append(
            (prior, prior.values.flags.writeable, args[-1]))
        return run_esmda(prior, *args)

    monkeypatch.setattr(hn, "run_esmda", recording)
    for past_budget in (False, True):
        draws.clear()
        calls.clear()
        out = tmp_path / ("past_budget" if past_budget else "kept")
        cfg = _shared_prior_grid(out / "shared", _PAST_BUDGET if past_budget else None)
        with monkeypatch.context() as mp:
            if past_budget:
                cfg = replace(cfg, block_width=64)
                nm, ne, nd = 2 * 12 * 12, 50, 13 * 4
                model = hn.build_model(cfg)
                assert (model.n_params, model.n_data, cfg.ensemble_size) == (nm, nd, ne)
                mp.setattr(sm, "TAPER_CACHE_BYTES", 128 * 4 * nd - nm * ne * 8)
            _assert_shared_prior(cfg, out, draws, calls)


def _assert_shared_prior(cfg, out, draws, calls):
    report = hn.run_experiment(cfg)
    names = list(cfg.localization)
    # 3 settings x 2 runs and the reference: one draw per (size, seed)
    assert sorted(draws) == [(50, 400), (50, 401), (80, 9)]
    assert [(r.taper, r.run) for r in report.all_runs] == [
        (taper, run) for taper in names for run in (0, 1)
    ] + [("reference", 0)]
    assert all(r.status == "ok" for r in report.all_runs)
    assert len(calls[50]) == 6 and len({id(p) for p, _, _ in calls[50]}) == 2
    # per seed: read-only and copied, read-only and copied, then handed over
    for seed_calls in (calls[50][:3], calls[50][3:], calls[80]):
        assert len({id(p) for p, _, _ in seed_calls}) == 1
        *shared, (_, last_writeable, last_in_place) = seed_calls
        assert all(not writeable and not in_place for _, writeable, in_place in shared)
        assert last_writeable and last_in_place
    # sharing changes no byte: each setting alone, on a prior of its own, and
    # so run in place, as the last setting runs in the shared job
    for name, policy in cfg.localization.items():
        alone = replace(cfg, localization={name: policy}, reference=None)
        hn.run_experiment(alone, out / name)
        for run in (0, 1):
            file = f"runs/{name}/run{run}/diagnostics.csv"
            shared = (out / "shared" / file).read_bytes()
            assert (out / name / file).read_bytes() == shared, (name, run)
        assert _report_rows(out / name, name) == _report_rows(out / "shared", name)


def _one_setting_job(tmp_path, policy):
    """A one-setting job's arguments to _run_seed, its sampler handing out
    a prior drawn beforehand: a linear model of 20,000 parameters and 8
    data, at Ne = 40 (a 6.4 MB ensemble)."""
    nm, nd, ne = 20_000, 8, 40
    rng = np.random.default_rng(21)
    model = LinearModel(rng.standard_normal((nd, nm)) / np.sqrt(nm))
    prior = Ensemble(values=rng.standard_normal((nm, ne)))
    obs = sm.ObservationSet(d_obs=model.evaluate(np.ones(nm)), sigma_e=np.full(nd, 0.1))
    raw = {"model": {"kind": "linear", "n_params": 1, "n_data": 1},
           "observation": {"truth_seed": 1, "noise_seed": 2}, "ensemble_size": ne,
           "schedule": {"n_steps": 2}, "localization": ["mse"]}
    cfg = hn.config_from_dict(raw)
    args = (cfg, model, lambda count, seed: prior, obs, tmp_path, {"one": policy}, 0, ne, 3)
    return prior, args


@pytest.mark.parametrize("policy", [
    sm.LocalizationPolicy(spec=None),
    sm.LocalizationPolicy(spec=Logistic(1.5, 2.0)),
], ids=["none", "logistic"])
def test_one_setting_seed_holds_no_second_ensemble(tmp_path, monkeypatch, policy):
    """A seed with one setting updates its prior in place: its job, run
    and run directory included, allocates less than one Nm x Ne ensemble
    on top of the prior (a copy of it alone would be one)."""
    monkeypatch.setattr(ens_mod, "_helper_count", lambda: 1)
    prior, args = _one_setting_job(tmp_path, policy)
    tracemalloc.start()
    try:
        (run,) = hn._run_seed(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.status == "ok"
    assert peak < prior.values.nbytes, peak


def test_shared_prior_released_after_its_last_job(tmp_path, monkeypatch):
    # a localized setting too: its taper field must not keep the prior alive
    settings = [{"taper": "none"}, {"taper": "logistic:gamma=1.5,t0=2,eps=0.01"}]
    cfg = _shared_prior_grid(tmp_path / "out", settings)
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


def test_final_report_takes_no_pass_over_the_prior(monkeypatch):
    """A run handed its prior updates it into the posterior, and the report
    reads nothing of the prior: the mean offset comes from the row mean and
    variance that step 1's update took, each bit-identical to a pass over
    the prior of its own."""
    toy = ScalarToyModel(n_active=6, n_dummy=2, n_series=2, n_times=8, structure_seed=3)
    prior = toy.sample_prior(30, 4)
    before = Ensemble(prior.values.copy())
    obs = sm.ObservationSet(d_obs=toy.evaluate(np.zeros(toy.n_params)) + 0.1,
                            sigma_e=np.full(toy.n_data, 0.1))
    result = hn.run_esmda(prior, toy, obs, sm.MdaSchedule.uniform(2),
                          sm.LocalizationPolicy(spec=Logistic(1.5, 2.0)), sm.RunSeed(5), 4, True)
    assert result.posterior is prior and not np.array_equal(prior.values, before.values)
    assert np.array_equal(result.prior_mean, before.values.mean(axis=1))
    assert np.array_equal(result.prior_var, ensemble_variance_per_row(before))
    expected = metrics.mean_offset(before, result.posterior)

    def no_pass(ens):
        raise AssertionError("a variance pass over an ensemble")

    monkeypatch.setattr(metrics, "ensemble_variance_per_row", no_pass)
    assert hn._final_report(toy, result).mean_offset == expected
