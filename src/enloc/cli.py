"""Command-line entry points.

Commands
--------
enloc run <config.json> [--out DIR] [--seed N] [--threads N]
enloc sweep-ne <config.json> --sizes 50,100,200 [--out DIR] [--seed N] [--threads N]
enloc sweep-layers <config.json> --layers 1,4,8 [--out DIR] [--seed N] [--threads N]
enloc t0-table --ne 50,100,200,1000 --phi 0.10,0.05,0.01 [--out FILE]

Exit codes: 0 success, 2 configuration error, 3 run failure. The env var
ENLOC_THREADS, when set, overrides --threads.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .errors import ConfigError, EnlocError
from .harness import (
    ExperimentReport,
    emit_t0_table,
    load_config,
    run_experiment,
    sweep_ensemble_size,
    sweep_layers,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="enloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="experiment config (JSON)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="base seed (overrides config)")
        p.add_argument("--threads", type=int, help="parallel runs (default 1)")

    p_run = sub.add_parser("run", help="run one experiment config")
    add_common(p_run)

    p_ne = sub.add_parser("sweep-ne", help="repeat the experiment over ensemble sizes")
    add_common(p_ne)
    p_ne.add_argument("--sizes", type=_int_list, required=True, help="e.g. 50,100,200")

    p_layers = sub.add_parser("sweep-layers", help="repeat over grid layer counts")
    add_common(p_layers)
    p_layers.add_argument("--layers", type=_int_list, required=True, help="e.g. 1,4,8")

    p_t0 = sub.add_parser("t0-table", help="emit the significance-threshold table")
    p_t0.add_argument("--ne", type=_int_list, default=[50, 100, 200, 1000])
    p_t0.add_argument("--phi", type=_float_list, default=[0.10, 0.05, 0.01])
    p_t0.add_argument("--out", default="t0_table.csv", help="output CSV path")
    return parser


def _load(args):
    cfg = load_config(args.config)
    updates = {}
    if args.out is not None:
        updates["output_dir"] = args.out
    if args.seed is not None:
        updates["base_seed"] = args.seed
    threads = os.environ.get("ENLOC_THREADS", args.threads)
    if threads is not None:
        updates["threads"] = threads
    # ExperimentConfig checks the overrides as it checks the config file
    return replace(cfg, **updates) if updates else cfg


def _exit_code(reports: list[ExperimentReport]) -> int:
    failed = any(r.status != "ok" for report in reports for r in report.all_runs)
    return EXIT_RUN if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "t0-table":
            emit_t0_table(args.ne, args.phi, args.out)
            print(f"wrote {args.out}")
            return EXIT_OK

        cfg = _load(args)
        if args.command == "run":
            report = run_experiment(cfg)
            code = _exit_code([report])
        elif args.command == "sweep-ne":
            reports = sweep_ensemble_size(cfg, args.sizes)
            code = _exit_code(list(reports.values()))
        else:
            reports = sweep_layers(cfg, args.layers)
            code = _exit_code(list(reports.values()))
        print(f"artifacts in {cfg.output_dir}")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnlocError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    raise SystemExit(main())
