"""The package's export lists name only what its modules define."""

import importlib
import pkgutil

import pytest

import enloc

MODULES = sorted(m.name for m in pkgutil.iter_modules(enloc.__path__, "enloc."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
