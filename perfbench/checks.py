"""Workload checks on the artifacts an experiment wrote.

They hold for every seed, so a failure means the program is wrong, not
that the data were unlucky. Outputs are not compared byte for byte with an
older commit: a later change may re-draw the perturbations on purpose.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path

REPORT_FLOATS = ("obj_mean", "nv", "mean_offset", "n_eff", "chi")
DUMMY_NV_FLOOR = 0.9


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_experiment(out_dir: Path, n_params: int, n_data: int) -> list[str]:
    """One entry per run in report.csv: "" if it passed, else the reason.

    No entries when the experiment wrote no report.
    """
    if not (out_dir / "report.csv").is_file():
        return []
    hist: dict[tuple[str, str], int] = defaultdict(int)
    for row in _rows(out_dir / "histogram.csv"):
        hist[(row["taper"], row["run"])] += int(row["count"])

    verdicts = []
    for row in _rows(out_dir / "report.csv"):
        key = (row["taper"], row["run"])
        verdicts.append(_check_run(row, hist.get(key, 0), n_params, n_data))
    return verdicts


def _check_run(row: dict[str, str], hist_total: int, n_params: int, n_data: int) -> str:
    label = f"{row['taper']} run {row['run']}"
    if row["status"] != "ok":
        return f"{label}: status {row['status']!r}"
    values = {k: float(row[k]) for k in REPORT_FLOATS}
    if row["nv_dummy"]:
        values["nv_dummy"] = float(row["nv_dummy"])
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        return f"{label}: non-finite {bad}"
    chi, n_eff = values["chi"], values["n_eff"]
    if row["taper"] in ("none", "reference"):
        if chi != 1.0 or n_eff != n_params:
            return f"{label}: unlocalized chi={chi!r} n_eff={n_eff!r}, want 1.0 and {n_params}"
    elif not 0.0 < chi <= 1.0:
        return f"{label}: chi={chi!r} outside (0, 1]"
    if hist_total != n_params * n_data:
        return f"{label}: histogram counts {hist_total}, want {n_params * n_data}"
    if row["taper"] == "reference" and "nv_dummy" in values:
        if not values["nv_dummy"] > DUMMY_NV_FLOOR:
            return f"{label}: dummy NV {values['nv_dummy']!r} <= {DUMMY_NV_FLOOR}"
    return ""
