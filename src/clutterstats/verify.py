"""Oracle verification suite.

Runs the numerical cross-checks that arbitrate every closed form in the
catalog: density normalization, transform agreement between the analytic
and the quadrature routes, convolution products for the compound families,
the moment/cumulant algebra (partition sums, good to
``specfun.MAX_ORDER``), Monte-Carlo agreement of empirical log-cumulants,
and the pinned special-function constants.  The command line ``verify``
subcommand and the acceptance tests both run through here.  Each gate is
one constant beside ``GRID_S``, which no run can change.

The three quadrature checks read one set of transform tables, which
``run_all`` builds per run with ``transform_tables``: each check takes the
tables as its input and its specs from them, grouped by family tag in
table order, and builds none of its own.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import distributions as dist
from . import mellin
from .estimation import empirical_log_stats
from .sampling import sample
from .specfun import digamma, polygamma

__all__ = ["CheckOutcome", "PARAM_GRID", "GRID_S", "run_all",
           "transform_tables",
           "normalization_checks", "transform_agreement_checks",
           "convolution_checks", "cumulant_algebra_checks",
           "monte_carlo_checks", "known_constant_checks",
           "DEFAULT_MC_SEED"]


@dataclass(frozen=True)
class CheckOutcome:
    """One check's verdict.  Quadrature checks also carry the largest
    Gauss-Kronrod error bound, relative to its transform, of the values
    they read (``error_bound``) and the density points those values took
    (``evaluations``); both are None for the other checks."""
    name: str
    target: str
    passed: bool
    max_error: float
    threshold: float
    detail: str = ""
    error_bound: float | None = None
    evaluations: int | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return (f"[{status}] {self.name:<22s} {self.target:<18s} "
                f"max_err={self.max_error:.3e}  gate={self.threshold:.1e}{extra}")


# five parameter sets per family; every strip holds all of GRID_S (Fisher
# keeps M > 2 for s = 3), as test_grid_s_lies_inside_every_strip checks
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
NORMALIZATION_GATE = 1e-6
AGREEMENT_GATE = 1e-6
CONVOLUTION_GATE = 1e-5
ROUND_TRIP_GATE = 1e-12     # over ROUND_TRIP_VECTORS from RandomState(1)
ROUND_TRIP_VECTORS = 10**4
MC_Z_GATE = 4.0             # standard errors
CONSTANT_GATE = 1e-10       # the pinned special-function values

MC_SPECS: list[dist.DistributionSpec] = [
    dist.GammaPower(4.0, 1.0),
    dist.Weibull(1.0, 2.0),
    dist.KAmplitude(2.0, 1.0),
    dist.GammaGamma(4.0, 2.0, 1.0),
    dist.Fisher(3.0, 4.0, 1.0),
]


def _spec_label(spec: dist.DistributionSpec) -> str:
    inner = ",".join(f"{v:g}" for v in astuple(spec))
    return f"{dist.family_tag(spec)}({inner})"


def _selected(families) -> list[str]:
    """The families to check, in ``PARAM_GRID`` order: all for None; an
    empty selection raises, as it would pass with no check run."""
    if families is None:
        return list(PARAM_GRID)
    if not families:
        raise ValueError(f"no families selected; expected some of "
                         f"{sorted(PARAM_GRID)}")
    bad = sorted(set(families) - set(PARAM_GRID))
    if bad:
        raise ValueError(f"unknown families {bad}; expected among "
                         f"{sorted(PARAM_GRID)}")
    return [f for f in PARAM_GRID if f in set(families)]


def transform_tables(families=None) -> dict[dist.DistributionSpec,
                                            mellin.TransformTable]:
    """Per spec of the selected families, its transform at every s of
    ``GRID_S``, which holds 1 and ``CONVOLUTION_S`` and lies inside every
    ``PARAM_GRID`` strip, from one vector-valued pass per spec."""
    return {spec: mellin.mellin_table(lambda x, spec=spec: dist.pdf(spec, x),
                                      GRID_S)
            for family in _selected(families) for spec in PARAM_GRID[family]}


def _quadrature_outcome(name: str, family: str, gate: float, rows,
                        tables) -> CheckOutcome:
    """Outcome over ``rows`` of (error, label, spec, s values read).  The
    check fails when an error, or a Gauss-Kronrod bound relative to its
    transform, is over the gate (or nan)."""
    worst, at, bounds = 0.0, "", []
    for err, label, spec, s_read in rows:
        if err > worst:
            worst, at = err, label
        for s in s_read:
            value, bound = tables[spec].at(s)
            bounds.append(bound / abs(value) if value else math.inf)
    specs = dict.fromkeys(spec for _, _, spec, _ in rows)
    points = sum(tables[spec].evaluations for spec in specs)
    bound = max(bounds)
    passed = all(e <= gate for e in [*(r[0] for r in rows), *bounds])
    return CheckOutcome(name, family, passed, worst, gate,
                        f"worst at {at}  bound={bound:.1e}  pdf_pts={points}",
                        bound, points)


def _within(name: str, target: str, err: float, gate: float,
            detail: str = "") -> CheckOutcome:
    """Outcome of a check that passes when its error is within the gate."""
    return CheckOutcome(name, target, err <= gate, err, gate, detail)


def _by_family(specs) -> dict[str, list[dist.DistributionSpec]]:
    """``specs`` grouped by family tag, each group and its members in the
    order the specs come."""
    groups: dict[str, list[dist.DistributionSpec]] = {}
    for spec in specs:
        groups.setdefault(dist.family_tag(spec), []).append(spec)
    return groups


def normalization_checks(tables) -> list[CheckOutcome]:
    """integral of pdf == 1 within the gate for every spec of ``tables``
    (from :func:`transform_tables`), one outcome per family."""
    return [_quadrature_outcome(
        "normalization", family, NORMALIZATION_GATE,
        [(abs(tables[spec].at(1.0)[0] - 1.0), _spec_label(spec), spec, [1.0])
         for spec in specs], tables)
        for family, specs in _by_family(tables).items()]


def transform_agreement_checks(tables) -> list[CheckOutcome]:
    """Analytic transform vs quadrature within ``AGREEMENT_GATE`` at each s
    of ``GRID_S``, one outcome per family."""
    out = []
    for family, specs in _by_family(tables).items():
        rows = []
        for spec in specs:
            for s in GRID_S:
                analytic = dist.chf2_analytic(spec, s)
                err = abs(tables[spec].at(s)[0] - analytic) / abs(analytic)
                rows.append((err, f"{_spec_label(spec)} s={s:g}", spec, [s]))
        out.append(_quadrature_outcome("transform-agreement", family,
                                       AGREEMENT_GATE, rows, tables))
    return out


def _convolution_error(spec, table) -> float:
    """Max relative gap over ``CONVOLUTION_S`` between ``table`` and the
    product of the speckle and texture transforms of compound ``spec``."""
    speckle, texture = dist.components(spec)
    worst = 0.0
    for s in CONVOLUTION_S:
        numeric, _ = table.at(s)
        analytic = (dist.chf2_analytic(speckle, s)
                    * dist.chf2_analytic(texture, s))
        worst = max(worst, abs(numeric - analytic) / abs(analytic))
    return worst


def convolution_checks(tables) -> list[CheckOutcome]:
    """Compound transform equals the product of its factor transforms, for
    every compound spec of ``tables``, one outcome per family."""
    compound = (spec for spec in tables if dist.components(spec) is not None)
    return [_quadrature_outcome(
        "convolution-product", family, CONVOLUTION_GATE,
        [(_convolution_error(spec, tables[spec]), _spec_label(spec), spec,
          CONVOLUTION_S)
         for spec in specs], tables)
        for family, specs in _by_family(compound).items()]


def cumulant_algebra_checks() -> list[CheckOutcome]:
    """Moment/cumulant round trips within ``ROUND_TRIP_GATE``, plus the
    pinned fourth-order identities."""
    rng = np.random.RandomState(1)
    m = rng.uniform(-10.0, 10.0, size=(ROUND_TRIP_VECTORS, 4))
    k = mellin.moments_to_cumulants(m)
    m_back = mellin.cumulants_to_moments(k)
    k_back = mellin.moments_to_cumulants(m_back)
    # per vector, relative to the largest magnitude the quartic algebra
    # produces
    scale = np.maximum(1.0, np.maximum(np.abs(m).max(axis=1),
                                       np.abs(k).max(axis=1)))
    worst = float(max(np.max(np.abs(m_back - m).max(axis=1) / scale),
                      np.max(np.abs(k_back - k).max(axis=1) / scale)))
    out = [_within("cumulant-round-trip", f"{ROUND_TRIP_VECTORS} vectors",
                   worst, ROUND_TRIP_GATE)]

    central = mellin.central_log_moments((1.0, 2.0, 6.0, 24.0))
    err_c = float(np.max(np.abs(np.array(central) - (1.0, 1.0, 2.0, 9.0))))
    out.append(_within("fourth-central-identity", "(1,2,6,24)", err_c, 0.0,
                       "m -> (1,1,2,9) as printed"))
    gauss = mellin.moments_to_cumulants((0.0, 1.0, 0.0, 3.0))
    err_g = float(np.max(np.abs(np.array(gauss) - (0.0, 1.0, 0.0, 0.0))))
    out.append(_within("gaussian-k4-vanishes", "(0,1,0,3)", err_g, 0.0))
    return out


def monte_carlo_checks(families=None, seed: int = DEFAULT_MC_SEED,
                       n: int = 10**6) -> list[CheckOutcome]:
    """Empirical log-cumulants of 10^6 draws within 4 standard errors of
    the analytic values.  For the K and Weibull-Nakagami forms it confirms
    that the log-cumulants carry the speckle term as well as the texture one.
    ``n`` stays a parameter because ``bench/workloads.py`` reads its
    default as the draws per check."""
    wanted = set(_selected(families))
    out = []
    for index, spec in enumerate(MC_SPECS):
        if dist.family_tag(spec) not in wanted:
            continue
        # the batch is a temporary: its texture is freed once .values is
        # read, and the draws once empirical_log_stats has their logs
        stats = empirical_log_stats(sample(spec, n, seed + index).values, 4)
        analytic = dist.log_cumulants_analytic(spec, 4)
        z = max(abs(stats.log_cumulants[i] - analytic[i]) / stats.std_errors[i]
                for i in range(4))
        out.append(_within("monte-carlo-cumulants", _spec_label(spec), z,
                           MC_Z_GATE,
                           f"max |z| over orders 1..4, seed {seed + index}"))
    return out


def known_constant_checks() -> list[CheckOutcome]:
    out = [_within("euler-constant", "digamma(1)",
                   abs(digamma(1.0) - (-0.5772156649)), CONSTANT_GATE),
           _within("trigamma-pi2-over-6", "polygamma(1,1)",
                   abs(polygamma(1, 1.0) - math.pi**2 / 6.0), CONSTANT_GATE)]
    worst = 0.0
    for mu in (1.0, 2.0, 3.5):
        spec = dist.GammaPower(1.0, mu)
        for order in range(7):
            got = dist.classical_moment(spec, order)
            want = mu**order * math.factorial(order)
            worst = max(worst, abs(got - want))
    out.append(_within("exponential-moments", "mu^n n!, n<=6", worst, 0.0,
                       "bit-exact"))
    return out


def run_all(families=None, seed: int = DEFAULT_MC_SEED) -> list[CheckOutcome]:
    """Full suite, every check against its gate."""
    tables = transform_tables(families)   # built anew on every call
    out = []
    out += normalization_checks(tables)
    out += transform_agreement_checks(tables)
    out += convolution_checks(tables)
    if families is None:
        out += cumulant_algebra_checks()
    out += monte_carlo_checks(families, seed=seed)
    if families is None:
        out += known_constant_checks()
    return out
