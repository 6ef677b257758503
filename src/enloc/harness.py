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
    run_esmda,
)
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

# Integer fields of ExperimentConfig: their config key and least accepted value
_CONFIG_INTS = {
    "ensemble_size": ("ensemble_size", 3),
    "run_count": ("runs.count", 1),
    "base_seed": ("runs.base_seed", 0),
    "block_width": ("block_width", 1),
}

# every top-level config key; any other is a typo and a config error
_CONFIG_KEYS = frozenset({
    "model", "prior", "observation", "localization", "ensemble_size", "schedule",
    "runs", "reference", "output_dir", "save_posterior", "emit_nv_field", "block_width",
})

# the integer keys of each model kind, with their defaults
_MODEL_INTS = {
    "linear": {"structure_seed": 0, "n_params": 4, "n_data": 6},
    "scalar_toy": {
        "n_active": 15, "n_dummy": 5, "n_series": 6, "n_times": 50, "structure_seed": 0,
    },
    "grid_proxy": {"nx": 60, "ny": 60, "n_layers": 1, "prod_grid": 3, "n_times": 24},
}


@dataclass
class ExperimentConfig:
    """One experiment. Construction, dataclasses.replace included, checks the
    integer fields, the boolean flags, output_dir and the reference block
    (seed default: base_seed - 1). localization maps each setting's name to
    its policy, in config order."""

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
        for name, (key, minimum) in _CONFIG_INTS.items():
            setattr(self, name, _config_int(getattr(self, name), key, minimum))
        for name in ("save_posterior", "emit_nv_field"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError(f"output_dir must be a non-empty string, got {self.output_dir!r}")
        if self.reference is not None:
            ref = _section(self.reference, "reference")
            if ref:  # an empty block asks for no reference run
                size = ref.get("ensemble_size", 1000)
                ref["ensemble_size"] = _config_int(size, "reference.ensemble_size", 3)
                if "seed" in ref:
                    ref["seed"] = _config_int(ref["seed"], "reference.seed", 0)
                elif self.base_seed < 1:
                    raise ConfigError("reference.seed defaults to runs.base_seed - 1, here -1")
            self.reference = ref or None


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
                mean = float(np.mean(vals))
                half = (
                    1.96 * float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
                    if len(vals) > 1
                    else 0.0
                )
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
    """Validate a parsed JSON config; any malformed value raises ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(map(repr, unknown))}")
    try:
        model = _section(raw["model"], "model")
        observation = _section(raw["observation"], "observation")
        loc_raw = raw["localization"]
    except KeyError as exc:
        raise ConfigError(f"config missing required key {exc}") from exc
    prior = _section(raw.get("prior", {"kind": "standard_normal"}), "prior")

    if model.get("kind") not in ("linear", "scalar_toy", "grid_proxy"):
        raise ConfigError(f"unknown model kind {model.get('kind')!r}")
    for key in ("truth_seed", "noise_seed"):
        if key not in observation:
            raise ConfigError(f"observation block needs explicit {key}")

    settings = []
    if not isinstance(loc_raw, list) or not loc_raw:
        raise ConfigError("localization must be a non-empty list")
    for entry in loc_raw:
        try:
            settings.append(_parse_localization(entry))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad localization entry {entry!r}: {exc}") from exc
    names = [name for name, _policy in settings]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate localization names: {names}")
    if "reference" in names:
        raise ConfigError('"reference" is reserved for the large-ensemble run')

    sched_raw = _section(raw.get("schedule", {"n_steps": 4}), "schedule")
    if "alphas" in sched_raw:
        alphas = sched_raw["alphas"]
        if not isinstance(alphas, list):
            raise ConfigError("schedule.alphas must be a list")
        n_steps = len(alphas)
    else:
        alphas = None
        n_steps = _config_int(sched_raw.get("n_steps", 4), "schedule.n_steps", 1)
    if n_steps > MAX_SCHEDULE_STEPS:
        raise ConfigError(f"a schedule has at most {MAX_SCHEDULE_STEPS} steps, got {n_steps}")
    try:
        if alphas is None:
            schedule = MdaSchedule.uniform(n_steps)
        else:
            schedule = MdaSchedule(alphas=tuple(float(a) for a in alphas))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc

    runs_raw = _section(raw.get("runs", {}), "runs")
    # ExperimentConfig checks the integers, the flags, output_dir and the reference
    return ExperimentConfig(
        model=model,
        prior=prior,
        observation=observation,
        localization=dict(settings),
        ensemble_size=raw.get("ensemble_size", 100),
        schedule=schedule,
        run_count=runs_raw.get("count", 1),
        base_seed=runs_raw.get("base_seed", 1000),
        reference=raw.get("reference"),
        output_dir=raw.get("output_dir", "out"),
        save_posterior=raw.get("save_posterior", False),
        emit_nv_field=raw.get("emit_nv_field", True),
        block_width=raw.get("block_width", DEFAULT_BLOCK_WIDTH),
    )


def _section(value: Any, key: str) -> dict[str, Any]:
    """A copy of one JSON-object block of the config."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    return dict(value)


def _config_int(value: Any, key: str, minimum: int) -> int:
    """A whole-number config value, at least minimum; a JSON boolean is none."""
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean")
        out = int(value)
        if out != value and not isinstance(value, str):
            raise ValueError("not a whole number")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from exc
    if out < minimum:
        raise ConfigError(f"{key} must be >= {minimum}")
    return out


def _parse_localization(entry: Any) -> tuple[str, LocalizationPolicy]:
    if isinstance(entry, str):
        entry = {"taper": entry}
    taper_text = str(entry["taper"]).strip()
    spec = None if taper_text.lower() == "none" else parse_taper(taper_text)
    strategy = None
    if "t0" in entry and entry["t0"] is not None:
        strategy = significance.parse_t0_strategy(str(entry["t0"]))
    policy = LocalizationPolicy(spec=spec, t0_strategy=strategy)
    name = entry.get("name")
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
    m = cfg.model
    kind = m["kind"]
    if kind == "linear" and "matrix" in m:
        return LinearModel(np.asarray(m["matrix"], dtype=float))
    # the models check their own lower bounds
    ints = {k: _config_int(m.get(k, v), f"model.{k}", 0) for k, v in _MODEL_INTS[kind].items()}
    if kind == "linear":
        rng = np.random.default_rng(ints["structure_seed"])
        return LinearModel(rng.standard_normal((ints["n_data"], ints["n_params"])))
    if kind == "scalar_toy":
        return ScalarToyModel(**ints)
    return GridFlowProxy(
        **ints,
        t_ref=float(m.get("t_ref", 4.0)),
        ramp_width=float(m.get("ramp_width", 2.0)),
    )


def _grf_from_dict(model: GridFlowProxy, d: dict[str, Any]) -> GrfPrior:
    return GrfPrior(
        nx=model.nx,
        ny=model.ny,
        kind=str(d.get("kind", "exponential")),
        range_major=float(d.get("range_major", 20.0)),
        range_minor=float(d.get("range_minor", 10.0)),
        angle_deg=float(d.get("angle_deg", 0.0)),
        mean=float(d.get("mean", 0.0)),
        std=float(d.get("std", 1.0)),
    )


def build_prior_sampler(
    cfg: ExperimentConfig, model: ForwardModel
) -> Callable[[int, int], Ensemble]:
    """Return sampler(count, seed) -> Ensemble for the configured prior."""
    if isinstance(model, GridFlowProxy):
        try:
            poro = _grf_from_dict(model, _section(cfg.prior["porosity"], "prior.porosity"))
            logk = _grf_from_dict(model, _section(cfg.prior["log_perm"], "prior.log_perm"))
        except KeyError as exc:
            raise ConfigError(f"grid prior needs block {exc}") from exc
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
    truth_seed = int(ob["truth_seed"])
    noise_seed = int(ob["noise_seed"])
    rel = float(ob.get("rel_std", 0.10))
    floor = float(ob.get("floor", 0.01))
    if rel < 0 or floor <= 0:
        raise ConfigError("need rel_std >= 0 and floor > 0")
    truth_m = sampler(2, truth_seed).values[:, 0]
    truth_d = evaluate_members(model, truth_m[:, None])[:, 0]
    sigma_e = np.maximum(rel * np.abs(truth_d), floor)
    rng = np.random.default_rng(noise_seed)
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
    """Run every setting on the one prior of this seed, drawn once, read-only.

    A draw that raises fails every setting with its cause.
    """
    try:
        prior = sampler(n_members, seed)
    except (EnlocError, ValueError) as exc:
        return [RunResult(name, run_index, f"failed: {exc}", None) for name in settings]
    prior.values.flags.writeable = False  # shared by the settings: a write raises
    return [_run_one(cfg, model, prior, obs, out, *s, run_index, seed) for s in settings.items()]


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
) -> RunResult:
    """One run, reduced to its summary: its run directory is written here and
    the posterior is dropped on return."""
    try:
        result = run_esmda(
            prior,
            model,
            obs,
            cfg.schedule,
            policy,
            RunSeed(seed),
            cfg.block_width,
        )
        report = _final_report(model, prior, result)
    except (EnlocError, ValueError) as exc:  # ValueError covers LinAlgError
        return RunResult(name, run_index, f"failed: {exc}", None)
    run_dir = out / "runs" / name / f"run{run_index}"
    run_dir.mkdir(parents=True, exist_ok=True)
    rows = [[step, metric, repr(v)] for d in result.diagnostics for step, metric, v in d.rows()]
    write_csv(run_dir / "diagnostics.csv", ["step", "metric", "value"], rows)
    if cfg.save_posterior:
        write_ensemble_csv(result.posterior, run_dir / "posterior.csv")
    return RunResult(name, run_index, "ok", report, result.diagnostics, result.nv_rows)


def _final_report(
    model: ForwardModel,
    prior: Ensemble,
    result: EsmdaResult,
) -> metrics_mod.MetricReport:
    final = result.diagnostics[-1]
    nv_dummy = None
    if isinstance(model, ScalarToyModel) and model.n_dummy > 0:
        nv_dummy = float(np.mean(result.nv_rows[model.dummy_indices]))
    return metrics_mod.MetricReport(
        obj_mean=final.objective,
        nv=final.nv,
        mean_offset=metrics_mod.mean_offset(prior, result.posterior),
        n_eff=final.n_eff,
        chi=final.chi,
        taper_histogram=final.taper_histogram,
        nv_dummy=nv_dummy,
    )


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentReport:
    """Run the full (taper x run) matrix and write all CSV artifacts.

    One job per run seed: run r of every setting starts from the same prior
    (seed base_seed + r), which the job draws once and shares read-only, and
    the reference run is a job of its own. Each run is reduced to its summary
    as it finishes (its run directory is written then), so no prior or
    posterior outlives its job. Jobs run one after another in the calling
    thread; each update spreads its own blocks over the process's CPUs. The
    report and every CSV keep the setting-major order.
    """
    try:
        model = build_model(cfg)
        sampler = build_prior_sampler(cfg, model)
        obs, _truth = build_observations(cfg, model, sampler)
    except EnlocError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model, prior or observation settings: {exc}") from exc
    out = Path(out_dir if out_dir is not None else cfg.output_dir)  # made once the config holds
    out.mkdir(parents=True, exist_ok=True)

    jobs = [
        (cfg.localization, r, cfg.ensemble_size, cfg.base_seed + r) for r in range(cfg.run_count)
    ]
    if cfg.reference:
        seed = cfg.reference.get("seed", cfg.base_seed - 1)
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

    edges = [repr(float(e)) for e in np.linspace(0.0, 1.0, metrics_mod.HISTOGRAM_BINS + 1)]
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


def sweep_ensemble_size(
    cfg: ExperimentConfig, sizes: Sequence[int], out_dir: str | Path | None = None
) -> dict[int, ExperimentReport]:
    """Repeat the experiment for each ensemble size; emit a trend CSV."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports: dict[int, ExperimentReport] = {}
    rows = []
    for size in sizes:
        sub = replace(cfg, ensemble_size=size)
        reports[size] = run_experiment(sub, out / f"ne_{size}")
        for taper, metric, mean, _half, _n in reports[size].aggregates():
            if metric in ("obj_mean", "nv"):
                rows.append([size, taper, metric, repr(mean)])
    write_csv(out / "ne_trend.csv", ["ensemble_size", "taper", "metric", "mean"], rows)
    return reports


def sweep_layers(
    cfg: ExperimentConfig, layer_counts: Sequence[int], out_dir: str | Path | None = None
) -> dict[int, ExperimentReport]:
    """Repeat the grid experiment per layer count; emit the footprint table."""
    if cfg.model.get("kind") != "grid_proxy":
        raise ConfigError("layer sweep requires a grid_proxy model")
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports: dict[int, ExperimentReport] = {}
    rows = []
    for layers in layer_counts:
        model_cfg = dict(cfg.model, n_layers=layers)
        sub = replace(cfg, model=model_cfg)
        reports[layers] = run_experiment(sub, out / f"layers_{layers}")
        agg = {
            (taper, metric): mean
            for taper, metric, mean, _h, _n in reports[layers].aggregates()
        }
        tapers = sorted({r.taper for r in reports[layers].runs})
        for taper in tapers:
            rows.append(
                [
                    taper,
                    int(layers),
                    repr(agg[(taper, "n_eff")]),
                    repr(agg[(taper, "chi")]),
                ]
            )
    write_csv(out / "neff_table.csv", ["taper", "layers", "n_eff", "chi"], rows)
    return reports


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
    """Write the significance-threshold table as CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [
        [ne, repr(float(phi)), f"{t0:.6f}", f"{rho0:.6f}"]
        for ne, phi, t0, rho0 in t0_table_rows(ne_list, phi_list)
    ]
    write_csv(path, ["ne", "phi", "t0", "rho0"], rows)
