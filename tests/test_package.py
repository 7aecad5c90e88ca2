"""The public surface: every name a module exports exists."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import clutterstats

MODULES = ["clutterstats"] + [
    f"clutterstats.{info.name}"
    for info in pkgutil.iter_modules(clutterstats.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_bound_attributes(name):
    module = importlib.import_module(name)
    unbound = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert unbound == []


def test_console_scripts_import_to_callables():
    tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
