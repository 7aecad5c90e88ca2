"""Second-kind (Mellin) statistics for simple and compound clutter models.

Importing the package loads no numerical code (and so not numpy): each
name below is imported from its module on first use (PEP 562), and so is
each submodule (``clutterstats.verify``).  ``from clutterstats import *``
gives every name and the six modules that define them.
"""

import importlib

# module -> the names the package serves from it
_EXPORTS = {
    "distributions": (
        "DistributionSpec", "Fisher", "GammaGamma", "GammaPower",
        "InverseGamma", "KAmplitude", "Maxwell", "MomentDoesNotExistError",
        "Nakagami", "Rayleigh", "StripError", "Weibull", "WeibullNakagami",
        "chf2_analytic", "classical_moment", "components",
        "log_chf2_analytic", "log_cumulants_analytic", "make_spec", "pdf",
        "strip"),
    "estimation": (
        "EmpiricalLogStats", "FitResult", "NonFiniteSamplesError",
        "NoSolutionError", "OutOfRangeError", "SolverNonConvergenceError",
        "TooFewSamplesError", "ZeroSamplesError", "empirical_log_stats",
        "fit_molc", "texture_log_cumulants"),
    "mellin": (
        "LogStats", "NonConvergenceError", "TransformTable",
        "central_log_moments", "cumulants_to_moments", "log_moments_numeric",
        "mellin_numeric", "mellin_table", "moments_to_cumulants"),
    "sampling": ("SampleBatch", "SplitMix64", "sample", "sample_compound"),
    "specfun": ("digamma", "ln_gamma", "polygamma"),
    "sweep": ("SweepRow", "default_m_grid", "texture_sweep"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "verify", "_catalog", "_csv", "_quad")

__all__ = [*_HOME, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
        globals()[name] = value   # bound once, as an eager import binds it
        return value
    if name in _SUBMODULES:   # the import binds it as an attribute
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
