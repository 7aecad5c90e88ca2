"""The public surface: every name a module exports exists."""

import importlib
import pkgutil
import sys
import tomllib
from pathlib import Path

import pytest

import clutterstats
from clutterstats import distributions, sampling, specfun

MODULES = ["clutterstats"] + [
    f"clutterstats.{info.name}"
    for info in pkgutil.iter_modules(clutterstats.__path__)]


# cli is the command line; every other module, the package included,
# lists its exports, so none is checked vacuously
UNLISTED = ["clutterstats.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_bound_attributes(name):
    # an unbound name in __all__ breaks ``from <module> import *``
    module = importlib.import_module(name)
    assert hasattr(module, "__all__") == (name not in UNLISTED)
    unbound = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert unbound == []


# what `from clutterstats import *` gave when the package imported every
# module eagerly: the exports and the six modules that define them
PACKAGE_MODULES = {"distributions", "estimation", "mellin", "sampling",
                   "specfun", "sweep"}
PACKAGE_NAMES = PACKAGE_MODULES | {
    "DistributionSpec", "EmpiricalLogStats", "Fisher", "FitResult",
    "GammaGamma", "GammaPower", "InverseGamma", "KAmplitude", "LogStats",
    "Maxwell", "MomentDoesNotExistError", "Nakagami", "NoSolutionError",
    "NonConvergenceError", "NonFiniteSamplesError", "OutOfRangeError",
    "Rayleigh", "SampleBatch", "SolverNonConvergenceError", "SplitMix64",
    "StripError", "SweepRow", "TooFewSamplesError", "TransformTable",
    "Weibull", "WeibullNakagami", "ZeroSamplesError", "central_log_moments",
    "chf2_analytic", "classical_moment", "components",
    "cumulants_to_moments", "default_m_grid", "digamma",
    "empirical_log_stats", "fit_molc", "ln_gamma", "log_chf2_analytic",
    "log_cumulants_analytic", "log_moments_numeric", "make_spec",
    "mellin_numeric", "mellin_table", "moments_to_cumulants", "pdf",
    "polygamma", "sample", "sample_compound", "strip",
    "texture_log_cumulants", "texture_sweep"}


def test_star_import_gives_the_package_names():
    namespace = {}
    exec("from clutterstats import *", namespace)
    assert set(namespace) - {"__builtins__"} == PACKAGE_NAMES
    assert set(clutterstats.__all__) == PACKAGE_NAMES
    assert PACKAGE_NAMES <= set(dir(clutterstats))


@pytest.mark.parametrize("name", sorted(PACKAGE_NAMES - PACKAGE_MODULES))
def test_each_package_name_is_its_defining_modules_object(name):
    # served lazily, a name is still the object its module defines
    value = getattr(clutterstats, name)
    assert value is getattr(sys.modules[value.__module__], name)
    module = importlib.import_module(
        f"clutterstats.{clutterstats._HOME[name]}")
    assert value is getattr(module, name)


def test_every_submodule_is_a_package_attribute():
    for module in MODULES[1:]:
        name = module.rpartition(".")[2]
        assert getattr(clutterstats, name) is importlib.import_module(module)
        assert name in dir(clutterstats)
    assert clutterstats.pdf is clutterstats.distributions.pdf
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        clutterstats.nothing


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
