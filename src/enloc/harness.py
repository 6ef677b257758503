"""Experiment orchestration: repeated seeded runs, sweeps, and CSV reports.

A JSON config describes one experiment: a forward model, its prior, how
the synthetic truth and noisy observations are generated, the assimilation
schedule, a list of localization settings to compare, and how many
repeated runs (with distinct initial ensembles) to perform. Every random
quantity is tied to an explicit seed, so a config maps to byte-identical
artifacts.

Artifacts written to the output directory:

* report.csv      one row per (taper, run): final metrics and status
* metrics.csv     one row per (taper, run, step): forecast metrics
* histogram.csv   taper-value counts per (taper, run), 20 bins on [0, 1]
* aggregate.csv   per-(taper, metric) mean and 95% confidence half-width
* nv_field.csv    per-cell normalized variance (grid models)
* runs/<taper>/run<k>/diagnostics.csv   long-form (step, metric, value)
* runs/<taper>/run<k>/posterior.csv     posterior ensemble (optional)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import metrics as metrics_mod
from . import significance
from .ensemble import DEFAULT_BLOCK_WIDTH, Ensemble, write_csv, write_ensemble_csv
from .errors import ConfigError, EnlocError
from .models import (
    ForwardModel,
    GrfPrior,
    GridFlowProxy,
    LinearModel,
    ScalarToyModel,
    evaluate_members,
    sample_grid_prior,
)
from .smoother import (
    EsmdaResult,
    LocalizationPolicy,
    MdaSchedule,
    ObservationSet,
    RunSeed,
    StepDiagnostics,
)

# Every run goes through this one name, which the benchmark (perfbench) wraps:
# smoother.run_esmda with a last argument, in_place, that hands a run the
# prior to update in place.
from .smoother import _run_esmda as run_esmda
from .tapers import format_taper, parse_taper

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "RunResult",
    "load_config",
    "run_experiment",
    "sweep_ensemble_size",
    "sweep_layers",
    "emit_t0_table",
    "t0_table_rows",
]

# Longest accepted ES-MDA schedule. Every step is a forward run and an update
# of all members, and the schedule is built while the config is parsed, so a
# longer one is a typo that would otherwise cost time and memory up front.
MAX_SCHEDULE_STEPS = 1000

# the per-run metrics of report.csv, in column order, and of aggregate.csv
AGGREGATE_METRICS = ("obj_mean", "nv", "nv_dummy", "mean_offset", "n_eff", "chi")


_REFERENCE = {"reference": LocalizationPolicy(spec=None)}  # the large-ensemble run

# The config schema. Each section's table maps a key to (type, default,
# least); a key outside its table is a typo. _REQUIRED marks a key with no
# default, and a key whose default is None may be absent or null. An int
# takes a whole-valued float (4.0 reads as 4) and a float takes an int;
# neither takes a boolean or a string. A tuple of strings as the type lists
# the accepted values, a table as the type is a block read through it, [spec]
# is a list whose items are read through spec, and object takes any value.
# The least of a string or a list is its length.
# The models, GrfPrior, MdaSchedule and parse_taper check the rest.
_REQUIRED = object()
_KINDS = ("linear", "scalar_toy", "grid_proxy")
_KIND = (_KINDS, _REQUIRED, None)
_NUMBER = (float, _REQUIRED, None)
_RUNS = {"count": (int, 1, 1), "base_seed": (int, 1000, 0)}
_GRF = {"kind": (str, "exponential", None), "range_major": (float, 20.0, None),
        "range_minor": (float, 10.0, None), "angle_deg": (float, 0.0, None),
        "mean": (float, 0.0, None), "std": (float, 1.0, None)}
_SCHEMA = {
    "config": {  # model, prior, observation and reference are read by ExperimentConfig
        "model": (dict, _REQUIRED, None),
        "prior": (dict, {}, None),
        "observation": (dict, _REQUIRED, None),
        "localization": (list, _REQUIRED, 1),
        "ensemble_size": (int, 100, 3),
        "schedule": ({"n_steps": (int, 4, 1), "alphas": ([_NUMBER], None, 1)}, {}, None),
        "runs": (_RUNS, {}, None),
        "reference": (dict, None, None),
        "output_dir": (str, "out", 1),
        "save_posterior": (bool, False, None),
        "emit_nv_field": (bool, True, None),
        "block_width": (int, DEFAULT_BLOCK_WIDTH, 1),
    },
    # one table per model kind ("model" when the kind is missing or unknown,
    # "linear_matrix" for a linear model given its rows); the models check
    # their own lower bounds
    "model": {"kind": _KIND},
    "linear": {"kind": _KIND, "n_params": (int, 4, 0), "n_data": (int, 6, 0),
               "structure_seed": (int, 0, 0)},
    "linear_matrix": {"kind": _KIND, "matrix": ([([_NUMBER], _REQUIRED, 1)], _REQUIRED, 1)},
    "scalar_toy": {"kind": _KIND, "n_active": (int, 15, 0), "n_dummy": (int, 5, 0),
                   "n_series": (int, 6, 0), "n_times": (int, 50, 0), "structure_seed": (int, 0, 0)},
    "grid_proxy": {"kind": _KIND, "nx": (int, 60, 0), "ny": (int, 60, 0), "n_layers": (int, 1, 0),
                   "prod_grid": (int, 3, 0), "n_times": (int, 24, 0), "t_ref": (float, 4.0, None),
                   "ramp_width": (float, 2.0, None)},
    "prior": {"kind": (("standard_normal",), "standard_normal", None)},
    "grid_prior": {"porosity": (_GRF, _REQUIRED, None), "log_perm": (_GRF, _REQUIRED, None)},
    # build_observations checks floor > 0
    "observation": {"truth_seed": (int, _REQUIRED, 0), "noise_seed": (int, _REQUIRED, 0),
                    "rel_std": (float, 0.10, 0.0), "floor": (float, 0.01, None)},
    "reference": {"ensemble_size": (int, 1000, 3), "seed": (int, None, 0)},
    # a bare string is {"taper": <string>}; the name is checked as a path component
    "localization": {"taper": (str, _REQUIRED, None), "t0": (str, None, None),
                     "name": (object, None, None)},
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               dict: "a JSON object", list: "a list"}


@dataclass
class ExperimentConfig:
    """One experiment. Construction, dataclasses.replace included, reads the
    scalar fields and the model, prior, observation and reference blocks
    through the config schema; reference.seed defaults to base_seed - 1 at
    run time. localization maps each setting's name to its policy, in config
    order."""

    model: dict[str, Any]
    prior: dict[str, Any]
    observation: dict[str, Any]
    localization: dict[str, LocalizationPolicy]
    ensemble_size: int = 100
    schedule: MdaSchedule = field(default_factory=lambda: MdaSchedule.uniform(4))
    run_count: int = 1
    base_seed: int = 1000
    reference: dict[str, Any] | None = None
    output_dir: str = "out"
    save_posterior: bool = False
    emit_nv_field: bool = True
    block_width: int = DEFAULT_BLOCK_WIDTH

    def __post_init__(self):
        for name in ("ensemble_size", "output_dir", "save_posterior", "emit_nv_field",
                     "block_width"):
            setattr(self, name, _value(getattr(self, name), _SCHEMA["config"][name], name))
        self.run_count = _value(self.run_count, _RUNS["count"], "runs.count")
        self.base_seed = _value(self.base_seed, _RUNS["base_seed"], "runs.base_seed")
        kind = self.model.get("kind") if isinstance(self.model, dict) else None
        table = "linear_matrix" if kind == "linear" and "matrix" in self.model else kind
        self.model = _read(self.model, _SCHEMA[table if kind in _KINDS else "model"], "model.")
        prior = "grid_prior" if kind == "grid_proxy" else "prior"
        self.prior = _read(self.prior, _SCHEMA[prior], "prior.")
        self.observation = _read(self.observation, _SCHEMA["observation"], "observation.")
        if self.reference:  # an empty block asks for no reference run
            self.reference = _read(self.reference, _SCHEMA["reference"], "reference.")
            if self.reference["seed"] is None and self.base_seed < 1:
                raise ConfigError("reference.seed defaults to runs.base_seed - 1, here -1")
        else:
            self.reference = None


@dataclass
class RunResult:
    taper: str
    run: int
    status: str  # "ok" or "failed: <reason>"
    report: metrics_mod.MetricReport | None
    # what the cross-run CSVs read of the run's EsmdaResult (empty if failed)
    diagnostics: list[StepDiagnostics] = field(default_factory=list)
    nv_rows: np.ndarray | None = None


@dataclass
class ExperimentReport:
    runs: list[RunResult]
    reference: RunResult | None = None

    @property
    def all_runs(self) -> list[RunResult]:
        """The (taper x run) matrix, then the reference run if there is one."""
        return self.runs + ([self.reference] if self.reference else [])

    def by_taper(self, name: str) -> list[RunResult]:
        return [r for r in self.runs if r.taper == name]

    def aggregates(self) -> list[tuple[str, str, float, float, int]]:
        """(taper, metric, mean, ci95 half-width, n) over successful runs."""
        out = []
        tapers = sorted({r.taper for r in self.runs})
        for taper in tapers:
            ok = [r.report for r in self.by_taper(taper) if r.report is not None]
            for metric in AGGREGATE_METRICS:
                vals = [getattr(rep, metric) for rep in ok]
                vals = [v for v in vals if v is not None]
                if not vals:
                    continue
                if len(set(vals)) == 1:  # np.mean of equal values can miss them by an ulp
                    mean, half = float(vals[0]), 0.0
                else:
                    mean = float(np.mean(vals))
                    half = 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
                out.append((taper, metric, mean, half, len(vals)))
        return out


# --- config parsing ---


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a JSON experiment config."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # JSON, UTF-8 and int-size errors
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict[str, Any]) -> ExperimentConfig:
    """Read a parsed JSON config through the schema; any malformed value
    raises ConfigError naming its key."""
    top = _read(raw, _SCHEMA["config"], "")
    settings = []
    for entry in top.pop("localization"):
        try:
            settings.append(_parse_localization(entry))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad localization entry {entry!r}: {exc}") from exc
    names = [name for name, _policy in settings]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate localization names: {names}")
    if "reference" in names:
        raise ConfigError('"reference" is reserved for the large-ensemble run')

    sched, runs = top.pop("schedule"), top.pop("runs")
    alphas = sched["alphas"]
    n_steps = sched["n_steps"] if alphas is None else len(alphas)
    if n_steps != sched["n_steps"] and "n_steps" in raw["schedule"]:  # alphas disagree
        raise ConfigError(f"schedule.n_steps is {sched['n_steps']}, but alphas has {n_steps} steps")
    if n_steps > MAX_SCHEDULE_STEPS:
        raise ConfigError(f"a schedule has at most {MAX_SCHEDULE_STEPS} steps, got {n_steps}")
    try:
        schedule = MdaSchedule(tuple(alphas)) if alphas else MdaSchedule.uniform(n_steps)
    except ValueError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc
    # ExperimentConfig reads the model, prior, observation and reference blocks
    return ExperimentConfig(
        localization=dict(settings),
        schedule=schedule,
        run_count=runs["count"],
        base_seed=runs["base_seed"],
        **top,
    )


def _read(section: Any, table: dict[str, tuple], prefix: str) -> dict[str, Any]:
    """Every key of table, read from one JSON-object block of the config."""
    if not isinstance(section, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'} must be a JSON object, got {section!r}")
    out = {key: _value(section.get(key, _REQUIRED), spec, prefix + key)
           for key, spec in table.items()}
    unknown = sorted(set(section) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(repr(prefix + k) for k in unknown)}")
    return out


def _value(value: Any, spec: tuple, key: str) -> Any:
    """One config value (_REQUIRED if absent) read through its (type,
    default, least) spec."""
    typ, default, least = spec
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise ConfigError(f"{key} is required")
        value = default
    if value is None and default is None:
        return None
    if isinstance(typ, dict):
        return _read(value, typ, key + ".")
    if isinstance(typ, list):
        return [_value(item, typ[0], key) for item in _value(value, (list, _REQUIRED, least), key)]
    if isinstance(typ, tuple):
        if value not in typ:
            raise ConfigError(f"{key} must be one of {', '.join(map(repr, typ))}, got {value!r}")
        return value
    if typ is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    elif typ is float and type(value) is int:  # too large for a float: infinite, as 1e400 is
        value = float(value) if abs(value) < 1e308 else math.copysign(math.inf, value)
    if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
        raise ConfigError(f"{key} must be {_TYPE_NAMES[typ]}, got {value!r}")
    sized = isinstance(value, (str, list))
    if least is not None and (len(value) if sized else value) < least:
        long = " long" if sized else ""
        raise ConfigError(f"{key} must be at least {least}{long}, got {value!r}")
    return value


def _parse_localization(entry: Any) -> tuple[str, LocalizationPolicy]:
    if isinstance(entry, str):
        entry = {"taper": entry}
    entry = _read(entry, _SCHEMA["localization"], "localization.")
    taper_text = entry["taper"].strip()
    spec = None if taper_text.lower() == "none" else parse_taper(taper_text)
    t0 = entry["t0"]
    strategy = None if t0 is None else significance.parse_t0_strategy(t0)
    policy = LocalizationPolicy(spec=spec, t0_strategy=strategy)
    name = entry["name"]
    if name is None:
        name = "none" if spec is None else format_taper(spec).split(":")[0]
        if strategy is not None:
            suffix = significance.format_t0_strategy(strategy)
            name = f"{name}_{suffix}".replace(":", "-").replace("=", "-")
    # the name is the run directory under <out>/runs and a CSV value
    if (
        not isinstance(name, str)
        or not name.isprintable()
        or name != name.strip()
        or name in ("", ".", "..")
        or any(c in name for c in "/\\")
    ):
        raise ValueError(
            f"name {name!r} must be one path component: non-empty printable "
            "text, no surrounding spaces"
        )
    return name, policy


# --- model / prior / observation builders ---


def build_model(cfg: ExperimentConfig) -> ForwardModel:
    m = dict(cfg.model)
    kind = m.pop("kind")
    if kind == "linear":
        if "matrix" in m:
            return LinearModel(np.asarray(m["matrix"]))
        rng = np.random.default_rng(m["structure_seed"])
        return LinearModel(rng.standard_normal((m["n_data"], m["n_params"])))
    return (ScalarToyModel if kind == "scalar_toy" else GridFlowProxy)(**m)


def build_prior_sampler(
    cfg: ExperimentConfig, model: ForwardModel
) -> Callable[[int, int], Ensemble]:
    """Return sampler(count, seed) -> Ensemble for the configured prior."""
    if isinstance(model, GridFlowProxy):
        poro = GrfPrior(model.nx, model.ny, **cfg.prior["porosity"])
        logk = GrfPrior(model.nx, model.ny, **cfg.prior["log_perm"])
        return lambda count, seed: sample_grid_prior(model, poro, logk, count, seed)
    if isinstance(model, ScalarToyModel):
        return lambda count, seed: model.sample_prior(count, seed)

    def gaussian(count: int, seed: int) -> Ensemble:
        rng = np.random.default_rng(seed)
        return Ensemble(values=rng.standard_normal((model.n_params, count)))

    return gaussian


def build_observations(
    cfg: ExperimentConfig,
    model: ForwardModel,
    sampler: Callable[[int, int], Ensemble],
) -> tuple[ObservationSet, np.ndarray]:
    """Generate the synthetic truth and its noisy observations.

    Noise is zero-mean Gaussian with std = max(rel_std * |value|, floor),
    mirroring a relative error with an explicit absolute floor for
    near-zero data. Returns the observation set and the truth parameters.
    """
    ob = cfg.observation
    if not ob["floor"] > 0:
        raise ConfigError(f"observation.floor must be > 0, got {ob['floor']!r}")
    truth_m = sampler(2, ob["truth_seed"]).values[:, 0]
    truth_d = evaluate_members(model, truth_m[:, None])[:, 0]
    sigma_e = np.maximum(ob["rel_std"] * np.abs(truth_d), ob["floor"])
    rng = np.random.default_rng(ob["noise_seed"])
    d_obs = truth_d + sigma_e * rng.standard_normal(truth_d.size)
    return ObservationSet(d_obs=d_obs, sigma_e=sigma_e), truth_m


# --- the experiment driver ---


def _run_seed(
    cfg: ExperimentConfig,
    model: ForwardModel,
    sampler: Callable[[int, int], Ensemble],
    obs: ObservationSet,
    out: Path,
    settings: dict[str, LocalizationPolicy],
    run_index: int,
    n_members: int,
    seed: int,
) -> list[RunResult]:
    """Run every setting on the one prior of this seed, drawn once.

    The settings before the last share the prior read-only, and each of
    their runs copies it. The last setting's run is handed the prior to
    update in place (smoother._run_esmda's in_place), since nothing reads it
    afterwards: a seed with one setting, such as the reference job, then
    holds one Nm x Ne ensemble instead of two, unless its taper field is
    past the keep budget and the run copies the prior after all. A draw
    that raises fails every setting with its cause.
    """
    try:
        prior = sampler(n_members, seed)
    except (EnlocError, ValueError) as exc:
        return [RunResult(name, run_index, f"failed: {exc}", None) for name in settings]
    *shared, last = settings.items()
    prior.values.flags.writeable = False  # shared by the settings: a write raises
    runs = [_run_one(cfg, model, prior, obs, out, *s, run_index, seed, False) for s in shared]
    prior.values.flags.writeable = True
    return runs + [_run_one(cfg, model, prior, obs, out, *last, run_index, seed, True)]


def _run_one(
    cfg: ExperimentConfig,
    model: ForwardModel,
    prior: Ensemble,
    obs: ObservationSet,
    out: Path,
    name: str,
    policy: LocalizationPolicy,
    run_index: int,
    seed: int,
    in_place: bool,
) -> RunResult:
    """One run, reduced to its summary: its run directory is written here and
    the posterior is dropped on return. With in_place the run may update the
    prior in place; the summary reads nothing of the prior."""
    try:
        result = run_esmda(
            prior,
            model,
            obs,
            cfg.schedule,
            policy,
            RunSeed(seed),
            cfg.block_width,
            in_place,
        )
        report = _final_report(model, result)
    except (EnlocError, ValueError) as exc:  # ValueError covers LinAlgError
        return RunResult(name, run_index, f"failed: {exc}", None)
    run_dir = out / "runs" / name / f"run{run_index}"
    run_dir.mkdir(parents=True, exist_ok=True)
    rows = [[step, metric, repr(v)] for d in result.diagnostics for step, metric, v in d.rows()]
    write_csv(run_dir / "diagnostics.csv", ["step", "metric", "value"], rows)
    if cfg.save_posterior:
        write_ensemble_csv(result.posterior, run_dir / "posterior.csv")
    return RunResult(name, run_index, "ok", report, result.diagnostics, result.nv_rows)


def _final_report(model: ForwardModel, result: EsmdaResult) -> metrics_mod.MetricReport:
    """The run's summary, from its result alone: the mean offset reads the
    prior's row mean and variance that step 1's update took."""
    final = result.diagnostics[-1]
    nv_dummy = None
    if isinstance(model, ScalarToyModel) and model.n_dummy > 0:
        nv_dummy = float(np.mean(result.nv_rows[model.dummy_indices]))
    return metrics_mod.MetricReport(
        obj_mean=final.objective,
        nv=final.nv,
        mean_offset=metrics_mod._mean_offset(result.prior_mean, result.prior_var,
                                             result.posterior),
        n_eff=final.n_eff,
        chi=final.chi,
        taper_histogram=final.taper_histogram,
        nv_dummy=nv_dummy,
    )


def _build(
    cfg: ExperimentConfig,
) -> tuple[ForwardModel, Callable[[int, int], Ensemble], ObservationSet]:
    """The model, prior sampler and observations of cfg; a value they reject
    is a config error."""
    try:
        model = build_model(cfg)
        sampler = build_prior_sampler(cfg, model)
        return model, sampler, build_observations(cfg, model, sampler)[0]
    except EnlocError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model, prior or observation settings: {exc}") from exc


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentReport:
    """Run the full (taper x run) matrix and write all CSV artifacts.

    One job per run seed: run r of every setting starts from the same prior
    (seed base_seed + r), which the job draws once and shares read-only with
    every setting but the last, whose run may update it in place (see
    _run_seed); the reference run is a job of its own. Each run is
    reduced to its summary as it finishes (its run directory is written
    then), so no prior or posterior outlives its job. Jobs run one after
    another in the calling thread; each update spreads its own blocks over
    the process's CPUs. The report and every CSV keep the setting-major
    order.
    """
    model, sampler, obs = _build(cfg)
    out = Path(out_dir if out_dir is not None else cfg.output_dir)  # made once the config holds
    out.mkdir(parents=True, exist_ok=True)

    jobs = [
        (cfg.localization, r, cfg.ensemble_size, cfg.base_seed + r) for r in range(cfg.run_count)
    ]
    if cfg.reference:
        seed = cfg.reference["seed"]
        seed = cfg.base_seed - 1 if seed is None else seed
        jobs.append((_REFERENCE, 0, cfg.reference["ensemble_size"], seed))

    by_seed = [_run_seed(cfg, model, sampler, obs, out, *job) for job in jobs]
    reference = by_seed.pop()[0] if cfg.reference else None
    runs = [seed_runs[s] for s in range(len(cfg.localization)) for seed_runs in by_seed]
    report = ExperimentReport(runs=runs, reference=reference)
    _write_artifacts(cfg, model, report, out)
    return report


def _write_artifacts(
    cfg: ExperimentConfig,
    model: ForwardModel,
    report: ExperimentReport,
    out: Path,
) -> None:
    ok_runs = [r for r in report.all_runs if r.report is not None]
    rows = []
    for r in report.all_runs:
        values = [getattr(r.report, m, None) for m in AGGREGATE_METRICS]  # blank if failed
        rows.append([r.taper, r.run, r.status] + ["" if v is None else repr(v) for v in values])
    write_csv(out / "report.csv", ["taper", "run", "status", *AGGREGATE_METRICS], rows)

    rows = [
        [r.taper, r.run, d.step, repr(d.objective), repr(d.nv), repr(d.n_eff), repr(d.chi)]
        for r in ok_runs
        for d in r.diagnostics
    ]
    header = ["taper", "run", "step", "objective", "nv", "n_eff", "chi"]
    write_csv(out / "metrics.csv", header, rows)

    edges = [repr(float(e)) for e in metrics_mod.HISTOGRAM_EDGES]
    rows = [
        [r.taper, r.run, edges[b], edges[b + 1], int(count)]
        for r in ok_runs
        for b, count in enumerate(r.report.taper_histogram)
    ]
    write_csv(out / "histogram.csv", ["taper", "run", "bin_lo", "bin_hi", "count"], rows)

    rows = [
        [taper, metric, repr(mean), repr(half), n]
        for taper, metric, mean, half, n in report.aggregates()
    ]
    write_csv(out / "aggregate.csv", ["taper", "metric", "mean", "ci95_half", "n_runs"], rows)

    if cfg.emit_nv_field and isinstance(model, GridFlowProxy):
        _write_nv_field(model, report, out / "nv_field.csv")


def _write_nv_field(model: GridFlowProxy, report: ExperimentReport, path: Path) -> None:
    """One row per (run, parameter): the cell columns are built once per
    model and zipped with each ok run's ratios, column by column."""
    fsize = model.nx * model.ny * model.n_layers
    field_names = ["poro"] * fsize + ["logk"] * (model.n_params - fsize)
    i, j, k = model.coords.T.tolist()
    rows = chain.from_iterable(
        zip(repeat(r.taper), repeat(r.run), field_names, i, j, k, map(repr, r.nv_rows.tolist()))
        for r in report.all_runs
        if r.report is not None
    )
    write_csv(path, ["taper", "run", "field", "i", "j", "k", "value"], rows)


# --- sweeps and tables ---


def _sweep(
    cfg: ExperimentConfig,
    subs: list[tuple[int, ExperimentConfig]],
    out_dir: str | Path | None,
    prefix: str,
) -> tuple[list[tuple[int, ExperimentReport]], Path]:
    """Run each (key, sub-config) into <out>/<prefix>_<key>; out is made once
    every sub-config has built. Returns the (key, report) pairs and out."""
    for _key, sub in subs:
        _build(sub)
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return [(key, run_experiment(sub, out / f"{prefix}_{key}")) for key, sub in subs], out


def sweep_ensemble_size(
    cfg: ExperimentConfig, sizes: Sequence[int], out_dir: str | Path | None = None
) -> dict[int, ExperimentReport]:
    """Repeat the experiment for each ensemble size; emit a trend CSV."""
    runs, out = _sweep(cfg, [(n, replace(cfg, ensemble_size=n)) for n in sizes], out_dir, "ne")
    rows = [
        [size, taper, metric, repr(mean)]
        for size, report in runs
        for taper, metric, mean, _half, _n in report.aggregates()
        if metric in ("obj_mean", "nv")
    ]
    write_csv(out / "ne_trend.csv", ["ensemble_size", "taper", "metric", "mean"], rows)
    return dict(runs)


def sweep_layers(
    cfg: ExperimentConfig, layer_counts: Sequence[int], out_dir: str | Path | None = None
) -> dict[int, ExperimentReport]:
    """Repeat the grid experiment per layer count; emit the footprint table."""
    if cfg.model["kind"] != "grid_proxy":
        raise ConfigError("layer sweep requires a grid_proxy model")
    subs = [(n, replace(cfg, model=dict(cfg.model, n_layers=n))) for n in layer_counts]
    runs, out = _sweep(cfg, subs, out_dir, "layers")
    rows = []
    for layers, report in runs:
        agg = {(taper, metric): mean for taper, metric, mean, _h, _n in report.aggregates()}
        for taper in sorted({r.taper for r in report.runs}):
            rows.append([taper, int(layers), repr(agg[taper, "n_eff"]), repr(agg[taper, "chi"])])
    write_csv(out / "neff_table.csv", ["taper", "layers", "n_eff", "chi"], rows)
    return dict(runs)


def t0_table_rows(
    ne_list: Sequence[int], phi_list: Sequence[float]
) -> list[tuple[int, float, float, float]]:
    """(n_e, phi, t0, rho0) for every combination, in input order."""
    return [
        (ne, phi, significance.critical_t0(ne, phi), significance.critical_rho(ne, phi))
        for ne in ne_list
        for phi in phi_list
    ]


def emit_t0_table(
    ne_list: Sequence[int], phi_list: Sequence[float], path: str | Path
) -> None:
    """Write the significance-threshold table as CSV. An ensemble size or
    level it cannot take is a config error, raised before anything is made."""
    try:
        table = t0_table_rows(ne_list, phi_list)
    except ValueError as exc:  # InvalidEnsembleSizeError too
        raise ConfigError(f"bad t0-table argument: {exc}") from exc
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [[ne, repr(float(phi)), f"{t0:.6f}", f"{rho0:.6f}"] for ne, phi, t0, rho0 in table]
    write_csv(path, ["ne", "phi", "t0", "rho0"], rows)
