"""Second-kind (Mellin) statistics for simple and compound clutter models."""

from .distributions import (
    DistributionSpec, Fisher, GammaGamma, GammaPower, InverseGamma,
    KAmplitude, Maxwell, MomentDoesNotExistError, Nakagami, Rayleigh,
    StripError, Weibull, WeibullNakagami, chf2_analytic, classical_moment,
    components, log_chf2_analytic, log_cumulants_analytic, make_spec, pdf,
    strip,
)
from .estimation import (
    EmpiricalLogStats, FitResult, NonFiniteSamplesError,
    NoSolutionError, OutOfRangeError, SolverNonConvergenceError,
    TooFewSamplesError, ZeroSamplesError, empirical_log_stats, fit_molc,
    texture_log_cumulants,
)
from .mellin import (
    LogStats, NonConvergenceError, TransformTable,
    central_log_moments, cumulants_to_moments, log_moments_numeric,
    mellin_numeric, mellin_table, moments_to_cumulants,
)
from .sampling import SampleBatch, SplitMix64, sample, sample_compound
from .specfun import digamma, ln_gamma, polygamma
from .sweep import SweepRow, default_m_grid, texture_sweep

__version__ = "0.1.0"
