"""Oracle verification suite.

Runs the numerical cross-checks that arbitrate every closed form in the
catalog: density normalization, transform agreement between the analytic
and the quadrature routes, convolution products for the compound families,
the fourth-order cumulant algebra, Monte-Carlo agreement of empirical
log-cumulants, and the pinned special-function constants.  The command
line ``verify`` subcommand and the acceptance tests both run through here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from . import mellin
from .estimation import empirical_log_stats
from .sampling import sample
from .specfun import digamma, polygamma

__all__ = ["CheckOutcome", "PARAM_GRID", "GRID_S", "run_all",
           "normalization_checks", "transform_agreement_checks",
           "convolution_checks", "cumulant_algebra_checks",
           "monte_carlo_checks", "known_constant_checks",
           "DEFAULT_MC_SEED"]


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    target: str
    passed: bool
    max_error: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return (f"[{status}] {self.name:<22s} {self.target:<18s} "
                f"max_err={self.max_error:.3e}  gate={self.threshold:.1e}{extra}")


# five parameter sets per family; Fisher keeps M > 2 so the s = 3 grid
# point stays inside the strip
PARAM_GRID: dict[str, list[dist.DistributionSpec]] = {
    "gamma": [dist.GammaPower(0.3, 1.0), dist.GammaPower(1.0, 2.0),
              dist.GammaPower(2.5, 1.0), dist.GammaPower(4.0, 3.0),
              dist.GammaPower(10.0, 0.5)],
    "nakagami": [dist.Nakagami(0.5, 1.0), dist.Nakagami(1.0, 2.0),
                 dist.Nakagami(3.0, 2.0), dist.Nakagami(6.0, 0.7),
                 dist.Nakagami(12.0, 1.0)],
    "maxwell": [dist.Maxwell(0.25), dist.Maxwell(0.5), dist.Maxwell(1.0),
                dist.Maxwell(2.0), dist.Maxwell(5.0)],
    "weibull": [dist.Weibull(1.0, 0.7), dist.Weibull(1.0, 1.0),
                dist.Weibull(2.0, 2.0), dist.Weibull(0.5, 3.5),
                dist.Weibull(1.5, 6.0)],
    "rayleigh": [dist.Rayleigh(0.3), dist.Rayleigh(0.7), dist.Rayleigh(1.0),
                 dist.Rayleigh(2.0), dist.Rayleigh(5.0)],
    "ggamma": [dist.GammaGamma(4.0, 2.0, 1.0), dist.GammaGamma(1.0, 1.0, 1.0),
               dist.GammaGamma(2.2, 5.0, 3.0), dist.GammaGamma(1.0, 8.0, 0.5),
               dist.GammaGamma(6.0, 6.0, 2.0)],
    "k": [dist.KAmplitude(0.5, 1.0), dist.KAmplitude(0.75, 2.0),
          dist.KAmplitude(1.0, 1.0), dist.KAmplitude(2.0, 1.0),
          dist.KAmplitude(10.0, 3.0)],
    "wnak": [dist.WeibullNakagami(1.0, 1.0, 1.0),
             dist.WeibullNakagami(2.0, 2.0, 1.0),
             dist.WeibullNakagami(0.8, 1.5, 2.0),
             dist.WeibullNakagami(3.0, 0.7, 1.0),
             dist.WeibullNakagami(2.0, 4.0, 0.5)],
    "fisher": [dist.Fisher(1.0, 3.0, 1.0), dist.Fisher(3.0, 4.0, 1.0),
               dist.Fisher(2.5, 2.5, 2.0), dist.Fisher(5.0, 8.0, 0.5),
               dist.Fisher(0.7, 6.0, 1.0)],
}

GRID_S = (1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
CONVOLUTION_S = (1.5, 2.0, 2.5)
DEFAULT_MC_SEED = 411

MC_SPECS: list[tuple[str, dist.DistributionSpec]] = [
    ("gamma", dist.GammaPower(4.0, 1.0)),
    ("weibull", dist.Weibull(1.0, 2.0)),
    ("k", dist.KAmplitude(2.0, 1.0)),
    ("ggamma", dist.GammaGamma(4.0, 2.0, 1.0)),
    ("fisher", dist.Fisher(3.0, 4.0, 1.0)),
]


def _spec_label(spec: dist.DistributionSpec) -> str:
    from dataclasses import astuple
    inner = ",".join(f"{v:g}" for v in astuple(spec))
    return f"{dist.family_tag(spec)}({inner})"


def _selected(families) -> list[str]:
    if families is None:
        return list(PARAM_GRID)
    bad = sorted(set(families) - set(PARAM_GRID))
    if bad:
        raise ValueError(f"unknown families {bad}; expected among "
                         f"{sorted(PARAM_GRID)}")
    return [f for f in PARAM_GRID if f in set(families)]


def normalization_checks(families=None, tolerance: float = 1e-6,
                         cfg: mellin.QuadratureConfig | None = None
                         ) -> list[CheckOutcome]:
    """integral of pdf == 1 within tolerance for every catalog spec."""
    cfg = cfg or mellin.QuadratureConfig()
    out = []
    for family in _selected(families):
        worst, at = 0.0, ""
        for spec in PARAM_GRID[family]:
            err = abs(mellin.mellin_numeric(lambda x: dist.pdf(spec, x),
                                            1.0, cfg) - 1.0)
            if err > worst:
                worst, at = err, _spec_label(spec)
        out.append(CheckOutcome("normalization", family, worst <= tolerance,
                                worst, tolerance, f"worst at {at}"))
    return out


def transform_agreement_checks(families=None, tolerance: float = 1e-6,
                               cfg: mellin.QuadratureConfig | None = None
                               ) -> list[CheckOutcome]:
    """Analytic transform vs quadrature within tolerance on the s grid."""
    cfg = cfg or mellin.QuadratureConfig()
    out = []
    for family in _selected(families):
        worst, at = 0.0, ""
        for spec in PARAM_GRID[family]:
            lo, hi = dist.strip(spec)
            for s in GRID_S:
                if not lo < s < hi:
                    continue
                numeric = mellin.mellin_numeric(
                    lambda x: dist.pdf(spec, x), s, cfg)
                analytic = dist.chf2_analytic(spec, s)
                err = abs(numeric - analytic) / abs(analytic)
                if err > worst:
                    worst, at = err, f"{_spec_label(spec)} s={s:g}"
        out.append(CheckOutcome("transform-agreement", family,
                                worst <= tolerance, worst, tolerance,
                                f"worst at {at}"))
    return out


def convolution_checks(families=None, tolerance: float = 1e-5,
                       cfg: mellin.QuadratureConfig | None = None
                       ) -> list[CheckOutcome]:
    """Compound transform equals the product of its factor transforms."""
    cfg = cfg or mellin.QuadratureConfig()
    out = []
    for family in _selected(families):
        if dist.components(PARAM_GRID[family][0]) is None:
            continue
        worst, at = 0.0, ""
        for spec in PARAM_GRID[family]:
            err = mellin.verify_convolution(spec, CONVOLUTION_S, cfg)
            if err > worst:
                worst, at = err, _spec_label(spec)
        out.append(CheckOutcome("convolution-product", family,
                                worst <= tolerance, worst, tolerance,
                                f"worst at {at}"))
    return out


def cumulant_algebra_checks(seed: int = 1, tolerance: float = 1e-12,
                            n_vectors: int = 10**4) -> list[CheckOutcome]:
    """Moment/cumulant round trips plus the pinned fourth-order identities."""
    rng = np.random.RandomState(seed)
    vectors = rng.uniform(-10.0, 10.0, size=(n_vectors, 4))
    worst = 0.0
    for m in vectors:
        k = np.array(mellin.moments_to_cumulants(m))
        m_back = np.array(mellin.cumulants_to_moments(k))
        k_back = np.array(mellin.moments_to_cumulants(m_back))
        # relative to the largest magnitude the quartic algebra produces
        scale = max(1.0, float(np.max(np.abs(m))), float(np.max(np.abs(k))))
        worst = max(worst,
                    float(np.max(np.abs(m_back - m))) / scale,
                    float(np.max(np.abs(k_back - k))) / scale)
    out = [CheckOutcome("cumulant-round-trip", f"{n_vectors} vectors",
                        worst <= tolerance, worst, tolerance)]

    central = mellin.central_log_moments((1.0, 2.0, 6.0, 24.0))
    err_c = float(np.max(np.abs(np.array(central) - (1.0, 1.0, 2.0, 9.0))))
    out.append(CheckOutcome("fourth-central-identity", "(1,2,6,24)",
                            err_c == 0.0, err_c, 0.0,
                            "m -> (1,1,2,9) as printed"))
    gauss = mellin.moments_to_cumulants((0.0, 1.0, 0.0, 3.0))
    err_g = float(np.max(np.abs(np.array(gauss) - (0.0, 1.0, 0.0, 0.0))))
    out.append(CheckOutcome("gaussian-k4-vanishes", "(0,1,0,3)",
                            err_g == 0.0, err_g, 0.0))
    return out


def monte_carlo_checks(families=None, seed: int = DEFAULT_MC_SEED,
                       n: int = 10**6, z_limit: float = 4.0
                       ) -> list[CheckOutcome]:
    """Empirical log-cumulants of 10^6 draws within z_limit standard errors
    of the analytic values.  For the K and Weibull-Nakagami forms it confirms
    that the log-cumulants carry the speckle term as well as the texture one."""
    wanted = None if families is None else set(families)
    out = []
    for index, (family, spec) in enumerate(MC_SPECS):
        if wanted is not None and family not in wanted:
            continue
        batch = sample(spec, n, seed + index)
        stats = empirical_log_stats(batch, 4)
        analytic = dist.log_cumulants_analytic(spec, 4)
        z = max(abs(stats.log_cumulants[i] - analytic[i]) / stats.std_errors[i]
                for i in range(4))
        out.append(CheckOutcome("monte-carlo-cumulants", _spec_label(spec),
                                z <= z_limit, z, z_limit,
                                f"max |z| over orders 1..4, seed {seed + index}"))
    return out


def known_constant_checks() -> list[CheckOutcome]:
    out = []
    err = abs(digamma(1.0) - (-0.5772156649))
    out.append(CheckOutcome("euler-constant", "digamma(1)", err <= 1e-10,
                            err, 1e-10))
    err = abs(polygamma(1, 1.0) - math.pi**2 / 6.0)
    out.append(CheckOutcome("trigamma-pi2-over-6", "polygamma(1,1)",
                            err <= 1e-10, err, 1e-10))
    worst = 0.0
    for mu in (1.0, 2.0, 3.5):
        spec = dist.GammaPower(1.0, mu)
        for order in range(7):
            got = dist.classical_moment(spec, order)
            want = mu**order * math.factorial(order)
            worst = max(worst, abs(got - want))
    out.append(CheckOutcome("exponential-moments", "mu^n n!, n<=6",
                            worst == 0.0, worst, 0.0, "bit-exact"))
    return out


def run_all(families=None, tolerance: float | None = None,
            seed: int = DEFAULT_MC_SEED) -> list[CheckOutcome]:
    """Full suite; ``tolerance`` overrides the transform-agreement gate."""
    agreement_tol = 1e-6 if tolerance is None else tolerance
    out = []
    out += normalization_checks(families)
    out += transform_agreement_checks(families, tolerance=agreement_tol)
    out += convolution_checks(families)
    if families is None:
        out += cumulant_algebra_checks()
    out += monte_carlo_checks(families, seed=seed)
    if families is None:
        out += known_constant_checks()
    return out
