"""Benchmark of enloc's ES-MDA experiments, run from the root of a checkout.

    python3 perfbench/run.py --workload grid_locality --seed 1 --seconds 30 --trace 0

Each workload (see workloads.py) is an experiment config generated from
``--seed``; the benchmark runs it in this process through
``enloc.cli.main(["run", ...])``, against the package under ``src/``.

* Set-up: a cold process, timed from ``import enloc`` to the start of the
  first assimilation run, three times (this process plus two fresh ones).
* Then the whole experiment is repeated with fresh run seeds until
  ``--seconds`` have passed. Geometry caches are warm by then, as in a
  user's sweep.
* Every run is checked (checks.py); a run that fails a check counts as
  failed.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics. With ``--trace 1`` repetitions alternate between
untraced and traced (spans.py), and the per-layer metrics come from the
traced ones; ``trace.overhead_s`` is the difference of their medians.
The lines before it give the environment and a readable metric table.
``--self-check`` runs every workload at tiny shapes in both modes.

BLAS is pinned to one thread: on a 2-core host two OpenBLAS threads made a
run slower and noisier. Exit codes: 0 a result was printed (``correct``
says whether every check passed), 1 the self-check failed, 2 no enloc
checkout in the working directory.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_experiment  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, make_config, shape  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROCESSES = 3
PROBE_TIMEOUT_S = 60

# Metric names and units are declared once, in BENCHMARK.json.
DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
# Per-layer counts derived from shapes and calls; they repeat exactly for
# one config. The other per-layer metrics are measured.
COMPUTED = {
    "models.prior.calls",
    "models.forward.members",
    "smoother.perturb.draws",
    "smoother.dd_factor.calls",
    "smoother.dd_factor.gflop",
    "smoother.gain.blocks",
    "smoother.gain.gflop",
    "ensemble.corr.blocks",
    "ensemble.corr.gflop",
    "tapers.block.evals",
    "tapers.block.reuse",
    "tapers.ones.blocks",
    "significance.pooled_values",
    "harness.artifact_bytes",
}


class SetupReached(BaseException):
    """Stops a set-up probe at its first assimilation run.

    A BaseException, so that no handler in the harness that contains a
    failing run can swallow it.
    """


def _import_enloc():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import enloc.cli

    origin = Path(enloc.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"imported enloc from {origin}, not from {SRC}")
    return enloc.cli


def _run_cli(cli, cfg_path: Path, out_dir: Path) -> int:
    # The CLI prints where the artifacts went; keep stdout for the result.
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(["run", str(cfg_path), "--out", str(out_dir)])


def measure_setup(cfg_path: Path, out_dir: Path, rec: Recorder | None = None) -> float:
    """Seconds from ``import enloc`` to the first ``run_esmda`` call.

    Cold only when enloc has not been imported in this process yet.
    """
    t0 = time.perf_counter()
    cli = _import_enloc()
    import enloc.harness

    if rec is not None:
        rec.install(layers=True)
    inner = enloc.harness.run_esmda

    def stop(*args, **kwargs):
        raise SetupReached

    enloc.harness.run_esmda = stop
    try:
        _run_cli(cli, cfg_path, out_dir)
    except SetupReached:
        return time.perf_counter() - t0
    finally:
        enloc.harness.run_esmda = inner
        if rec is not None:
            rec.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
    raise RuntimeError("the experiment finished without an assimilation run")


def _cold_setups(cfg_path: Path, work: Path, n: int) -> list[float]:
    values = []
    for i in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", str(cfg_path),
             "--probe-out", str(work / f"probe{i}")],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def _cache_sizes() -> dict[str, int]:
    """Data and unified cache sizes of cpu0 in bytes, by level, from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError, ValueError):
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            text = (index / "size").read_text().strip()  # e.g. "2048K"
            scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1], 1)
            sizes[f"l{level}_bytes"] = int(text.rstrip("KMG")) * scale
    return sizes


def environment() -> dict:
    """Host and library facts that the timings depend on."""
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = {}
    with contextlib.suppress(Exception):  # the build-info layout varies across numpy versions
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples above it.

    With fewer than 20 samples that percentile would sit below the median,
    so the maximum (percentile 100) is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    work = OUT / f"{workload}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def config_file(rep: int) -> tuple[Path, dict]:
        cfg = make_config(workload, seed, rep, small)
        path = work / f"config{rep}.json"
        path.write_text(json.dumps(cfg))
        return path, cfg

    n_params, n_data = shape(make_config(workload, seed, 0, small))
    rec = Recorder()
    setup_cfg, _ = config_file(-1)
    setups = [] if trace else _cold_setups(setup_cfg, work, SETUP_PROCESSES - 1)
    rec.rep = -1
    setups.append(measure_setup(setup_cfg, work / "setup", rec if trace else None))
    cli = _import_enloc()

    attempted = failed = 0
    problems: list[str] = []
    exp_s: dict[str, list[float]] = {"untraced": [], "traced": []}
    run_s: list[list[float]] = []  # per repetition
    layers: list[dict[str, float]] = []
    t_start = time.perf_counter()
    rep = 0
    while True:
        traced = trace and rep % 2 == 1
        mode = "traced" if traced else "untraced"
        cfg_path, cfg = config_file(rep)
        out_dir = work / f"rep{rep}"
        rec.rep = rep
        rec.reset_counts()
        rec.install(layers=traced)
        t0 = time.perf_counter()
        try:
            code = _run_cli(cli, cfg_path, out_dir)
        except Exception as exc:  # noqa: BLE001 - a crash fails this repetition's runs
            code = repr(exc)
        finally:
            rec.uninstall()
        exp_s[mode].append(time.perf_counter() - t0)

        expected = len(cfg["localization"]) * cfg["runs"]["count"] + bool(cfg.get("reference"))
        verdicts = check_experiment(out_dir, n_params, n_data)
        rep_problems = [v for v in verdicts if v]
        attempted += expected
        failed += min(expected, len(rep_problems) + abs(expected - len(verdicts)))
        if code != 0:
            rep_problems.append(f"exit {code}")
        if len(verdicts) != expected:
            rep_problems.append(f"{len(verdicts)} runs reported, want {expected}")
        problems += [f"rep {rep}: {p}" for p in rep_problems]
        run_s.append([s.duration for s in rec.spans if s.rep == rep and s.name == "smoother.run"])
        if traced:
            layers.append(_layer_metrics(rec, rep, _dir_bytes(out_dir)))
        shutil.rmtree(out_dir, ignore_errors=True)
        rep += 1
        if time.perf_counter() - t_start >= seconds and (rep >= 2 or not trace):
            break

    if trace:
        rec.write_jsonl(OUT / f"trace-{workload}-seed{seed}.jsonl")
    shutil.rmtree(work, ignore_errors=True)

    # The tail of one experiment's runs, median over repetitions: a pooled
    # tail would rest on a handful of scheduler hiccups.
    tails = [_tail(runs) for runs in run_s]
    all_runs = [x for runs in run_s for x in runs]
    if trace:
        metrics = {
            name: statistics.median(m[name] for m in layers) for name in PER_LAYER_UNITS
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(exp_s["traced"]) - statistics.median(
            exp_s["untraced"]
        )
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "experiment_s": statistics.median(exp_s["untraced"]),
            "run_s_p50": statistics.median(all_runs),
            "run_s_tail": statistics.median(t for t, _ in tails),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "repetitions": {k: len(v) for k, v in exp_s.items()},
        "setup_samples": setups,
        "experiment_samples": exp_s,
        "run_samples": len(all_runs),
        "run_s_tail_percentile": statistics.median(p for _, p in tails),
        "failed_frac": failed / attempted,
        "problems": problems,
        "not_instrumented": sorted(rec.missing),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted,
        "failed": failed,
    }


def _layer_metrics(rec: Recorder, rep: int, artifact_bytes: int) -> dict[str, float]:
    tot = rec.totals(rep)
    setup = rec.totals(-1)
    c = rec.counts
    evals = c.get("tapers.block.evals", 0.0)
    out = {
        "setup.models.prior.s": setup.get("models.prior.s", 0.0),
        "smoother.update.peak_alloc_mb": rec.peaks.get("smoother.update", 0.0) / 2**20,
        "tapers.block.reuse": c.get("tapers.block.distinct", 0.0) / evals if evals else 0.0,
        "harness.self_s": tot.get("harness.experiment.self_s", 0.0),
        "harness.artifact_bytes": float(artifact_bytes),
    }
    for name in PER_LAYER_UNITS:
        if name not in out and name != "trace.overhead_s":
            out[name] = c[name] if name in c else tot.get(name, 0.0)
    return out


def _report(result: dict, env: dict) -> None:
    print("environment " + json.dumps(env))
    print(
        f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
        f"repetitions {result['repetitions']}, {result['run_samples']} runs, "
        f"failed_frac {result['failed_frac']:.4g}, run_s_tail at "
        f"p{result['run_s_tail_percentile']:.4g} of each repetition, "
        f"setup samples {result['setup_samples']}, "
        f"experiment samples {result['experiment_samples']}"
    )
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    if result["not_instrumented"]:
        print(f"not instrumented, reads zero: {result['not_instrumented']}")
    for name, m in result["metrics"].items():
        source = "computed" if name in COMPUTED else "measured"
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:8s} {source}")


def self_check() -> int:
    """Every workload at tiny shapes, untraced and traced twice; 0 when all
    checks pass, every metric is reported and computed counts repeat."""
    status = 0
    for workload in WORKLOADS:
        results = [
            run_workload(workload, seed=1, seconds=0.0, trace=trace, small=True)
            for trace in (False, True, True)
        ]
        untraced, traced, again = (
            {k: m["value"] for k, m in r["metrics"].items()} for r in results
        )
        problems = [f"failed runs: {r['problems']}" for r in results if r["failed"]]
        problems += [f"not instrumented: {r['not_instrumented']}" for r in results
                     if r["not_instrumented"]]
        if set(untraced) != set(END_TO_END_UNITS) or set(traced) != set(PER_LAYER_UNITS):
            problems.append("metric names differ from the declared ones")
        problems += [
            f"{k} differs between traced runs: {traced[k]} vs {again[k]}"
            for k in sorted(COMPUTED)
            if traced[k] != again[k]
        ]
        print(f"self-check {workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        status = status or int(bool(problems))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--probe-setup", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--probe-out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "enloc" / "__init__.py").is_file():
        print(f"error: no enloc package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        print(json.dumps({"setup_s": measure_setup(args.probe_setup, args.probe_out)}))
        return 0
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), small=False)
    env = environment()
    _report(result, env)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, environment=env), indent=1)
    )
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
