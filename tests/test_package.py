"""The package's export lists name only what its modules define."""

import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import enloc

MODULES = sorted(m.name for m in pkgutil.iter_modules(enloc.__path__, "enloc."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_cli_import_defers_scipy_special(tmp_path):
    """Importing the CLI loads no scipy.special, which only the Student-t
    quantile reads, and the default t0-table keeps its bytes."""
    src = str(Path(enloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, enloc.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
    table = tmp_path / "t0.csv"
    subprocess.run([sys.executable, "-m", "enloc.cli", "t0-table", "--out", str(table)],
                   env=env, check=True, capture_output=True, timeout=120)
    digest = hashlib.sha256(table.read_bytes()).hexdigest()
    assert digest == "ac37f884b6eb8742bfc7d60ea80bbeeb129df8b184cb73d2855ee6e19b00aff1"
