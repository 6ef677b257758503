"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the
root of a checkout."""

import subprocess
import sys
from pathlib import Path

from checks import _check_run

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_self_check_passes():
    proc = _bench("--self-check")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_directory_without_enloc(tmp_path):
    proc = _bench("--workload", "scalar_dummy", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""


def _row(taper, chi, n_eff, status="ok", nv_dummy=""):
    return {"taper": taper, "run": "0", "status": status, "obj_mean": "1.0", "nv": "0.5",
            "nv_dummy": nv_dummy, "mean_offset": "0.1", "n_eff": repr(n_eff), "chi": repr(chi)}


def test_checks_flag_each_broken_invariant():
    nm, nd = 20, 300
    assert _check_run(_row("none", 1.0, 20.0), nm * nd, nm, nd) == ""
    assert _check_run(_row("mse", 0.4, 8.0), nm * nd, nm, nd) == ""
    broken = [
        (_row("none", 1.0, 20.0, status="failed: boom"), nm * nd),
        (_row("none", 0.999, 20.0), nm * nd),
        (_row("none", 1.0, 19.0), nm * nd),
        (_row("mse", 0.0, 0.0), nm * nd),
        (_row("mse", float("nan"), 8.0), nm * nd),
        (_row("mse", 0.4, 8.0), nm * nd - 1),
        (_row("reference", 1.0, 20.0, nv_dummy="0.85"), nm * nd),
    ]
    for row, hist_total in broken:
        assert _check_run(row, hist_total, nm, nd), row
