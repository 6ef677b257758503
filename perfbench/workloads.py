"""Experiment configs for each benchmark workload, generated from a seed.

Shapes follow the shipped example configs and stay fixed; only the seeds of
the synthetic truth, the observation noise, the runs and the reference run
come from the workload seed. Repetition ``rep`` shifts the run and
reference seeds, so no run of one repetition repeats a run of another.

* grid_locality: the paper's locality experiment, the six localization
  settings of the grid-proxy example, one run each. Taper blocks, gain
  blocks and the footprint metrics dominate; it covers the percentile-t0
  and distance paths.
* grid_deep: the same grid with eight layers (Nm = 57 600) and the
  logistic taper only. Its full taper field (144 MB) exceeds the L3 cache,
  and its prior takes 16 random-field draws per run.
* scalar_dummy: the paper's dummy-parameter experiment as shipped, eight
  taper families x 10 runs at Ne = 100 plus the Ne = 5 000 reference.
  Perturbation and the Nd x Nd factorization dominate; Ne >> Nm. It is
  not in BENCHMARK.json: its interpreter-bound runs drift too much with
  the host's load to gate a change (see README.md).

``small=True`` gives tiny shapes of the same structure, for the self-check.
"""

from __future__ import annotations

import random

WORKLOADS = ("grid_locality", "grid_deep", "scalar_dummy")

_GRF = {"kind": "exponential", "range_major": 30, "range_minor": 15, "angle_deg": 45}
_LOGISTIC = {"taper": "logistic:gamma=1.5,t0=2,eps=0.01"}
_GRID_SETTINGS = [
    {"taper": "none"},
    {"taper": "mse"},
    {"taper": "power:beta=3,t0=2"},
    _LOGISTIC,
    {"taper": "logistic:gamma=1.5,eps=0.01", "t0": "p90", "name": "logistic_p90"},
    {"taper": "distance:major=30,minor=15,angle=45"},
]
_SCALAR_SETTINGS = [
    {"taper": "none"},
    {"taper": "mse"},
    {"taper": "power:beta=3,t0=2"},
    _LOGISTIC,
    {"taper": "discrepancy:eta=0.5"},
    {"taper": "cgc:theta=sigma"},
    {"taper": "po"},
    {"taper": "mpo"},
]


def _seeds(workload: str, seed: int) -> dict[str, int]:
    rng = random.Random(f"{workload}:{seed}")
    return {k: rng.randrange(1, 2**31) for k in ("truth", "noise", "runs", "reference")}


def make_config(workload: str, seed: int, rep: int, small: bool = False) -> dict:
    """The JSON config of repetition ``rep`` of ``workload`` under ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    s = _seeds(workload, seed)
    cfg = {
        "observation": {
            "truth_seed": s["truth"],
            "noise_seed": s["noise"],
            "rel_std": 0.10,
            "floor": 0.02,
        },
        "ensemble_size": 100,
        "schedule": {"n_steps": 4},
        # runs.count is at most 10, so a stride of 100 keeps repetitions apart
        "runs": {"count": 1, "base_seed": s["runs"] + 100 * rep},
    }
    if workload == "scalar_dummy":
        cfg["model"] = {
            "kind": "scalar_toy",
            "n_active": 15,
            "n_dummy": 5,
            "n_series": 6,
            "n_times": 50,
            "structure_seed": 7,
        }
        cfg["prior"] = {"kind": "standard_normal"}
        cfg["localization"] = _SCALAR_SETTINGS
        cfg["runs"]["count"] = 10
        cfg["reference"] = {"ensemble_size": 5000, "seed": s["reference"] + rep}
        if small:
            cfg["model"].update(n_active=4, n_dummy=2, n_series=2, n_times=5)
            cfg["localization"] = _SCALAR_SETTINGS[:3]
            cfg["runs"]["count"] = 2
            cfg["ensemble_size"] = 20
            cfg["reference"]["ensemble_size"] = 200
        return cfg

    nx = 12 if small else 60
    cfg["model"] = {
        "kind": "grid_proxy",
        "nx": nx,
        "ny": nx,
        "n_layers": 8 if workload == "grid_deep" else 1,
        "prod_grid": 3,
        "n_times": 4 if small else 24,
    }
    cfg["prior"] = {
        "porosity": dict(_GRF, mean=0.2, std=0.05),
        "log_perm": dict(_GRF, mean=0.0, std=0.7),
    }
    cfg["localization"] = _GRID_SETTINGS if workload == "grid_locality" else [_LOGISTIC]
    if small:
        cfg["model"]["n_layers"] = 2 if workload == "grid_deep" else 1
        cfg["ensemble_size"] = 20
        cfg["block_width"] = 64
    return cfg


def shape(cfg: dict) -> tuple[int, int]:
    """(Nm, Nd) of a generated config, from the model formulas."""
    m = cfg["model"]
    if m["kind"] == "scalar_toy":
        return m["n_active"] + m["n_dummy"], m["n_series"] * m["n_times"]
    n_prod = m["prod_grid"] ** 2
    n_inj = (m["prod_grid"] - 1) ** 2
    return 2 * m["nx"] * m["ny"] * m["n_layers"], (n_prod + n_inj) * m["n_times"]
