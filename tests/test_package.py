"""The public surface: every name a module exports exists."""

import importlib
import pkgutil
import tomllib
from pathlib import Path

import pytest

import clutterstats
from clutterstats import distributions, sampling, specfun

MODULES = ["clutterstats"] + [
    f"clutterstats.{info.name}"
    for info in pkgutil.iter_modules(clutterstats.__path__)]


# the package's names are its own imports and cli is the command line;
# every other module lists its exports, so none is checked vacuously
UNLISTED = ["clutterstats", "clutterstats.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_bound_attributes(name):
    # an unbound name in __all__ breaks ``from <module> import *``
    module = importlib.import_module(name)
    assert hasattr(module, "__all__") == (name not in UNLISTED)
    unbound = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert unbound == []


def test_every_spec_class_has_a_tag():
    # the specs are the subclasses of DistributionSpec, each with its tag
    assert set(distributions._TAG_OF) == set(
        distributions.DistributionSpec.__subclasses__())


def test_console_scripts_import_to_callables():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


# every public entry point that takes an integer argument without a cap:
# the call, the least value it takes (None: any integer) and its message
# before the value (a capped order, as polygamma's, is tested below)
INTEGER_ARGUMENTS = {
    "classical_moment order": (
        lambda v: distributions.classical_moment(
            distributions.GammaPower(1.0, 1.0), v), 0,
        "moment order must be an integer >= 0, got "),
    "SplitMix64 count": (lambda v: sampling.SplitMix64(1).raw(v), 0,
                         "count must be an integer >= 0, got "),
    "sample count": (
        lambda v: sampling.sample(distributions.GammaPower(1.0, 1.0), v, 1),
        1, "sample count must be an integer >= 1, got "),
    "seed": (lambda v: sampling.SplitMix64(v), None,
             "seed must be an integer, got "),
}


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_reject_bools_fractions_and_small_values(name):
    call, least, message = INTEGER_ARGUMENTS[name]
    bad = [True, 1.5] + ([] if least is None else [least - 1])
    for value in bad:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == message + repr(value)


@pytest.mark.parametrize("order", [0, 9, True, 1.5])
def test_polygamma_takes_the_orders_check_order_takes(order):
    # an order outside 1..MAX_ORDER gets check_order's one message
    message = (f"unsupported order {order!r} for polygamma: orders are "
               "integers from 1 to 8")
    with pytest.raises(ValueError) as info:
        specfun.polygamma(order, 1.0)
    assert str(info.value) == message
