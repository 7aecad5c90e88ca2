"""The public surface: every name a module exports exists."""

import importlib
import pkgutil

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
