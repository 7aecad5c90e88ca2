"""Catalog of simple and compound clutter families.

Each family carries validated parameters and supports: density evaluation,
the analytic second-kind characteristic function ``Phi(s) = E[X^(s-1)]``
(Mellin transform of the density), classical moments ``m_n = Phi(n+1)``,
analytic log-cumulants, and -- for compound families -- the speckle/texture
factorization of the product model ``X = U * Z``.

Internally every family is reduced to the same canonical transform shape

    Phi(s) = scale^(s-1) * prod_i Gamma(a_i + c_i (s-1)) / Gamma(a_i)

which yields the log form, the strip of analyticity and all log-cumulant
orders from one description:

    k1 = log(scale) + sum_i c_i psi(a_i)
    kn = sum_i c_i^n psi^(n-1)(a_i),   n >= 2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import specfun
from ._quad import adaptive_quad  # noqa: F401  bound for bench/tracing.py
from ._quad import log_trapezoid

__all__ = [
    "GammaPower", "Nakagami", "Maxwell", "Weibull", "Rayleigh",
    "GammaGamma", "KAmplitude", "WeibullNakagami", "Fisher", "InverseGamma",
    "DistributionSpec", "StripError", "MomentDoesNotExistError",
    "pdf", "chf2_analytic", "log_chf2_analytic", "classical_moment",
    "log_cumulants_analytic", "components",
    "strip", "FAMILY_TAGS", "family_tag", "make_spec",
]


class StripError(ValueError):
    """Transform variable outside the family's strip of analyticity."""

    def __init__(self, family: str, s: float, lo: float, hi: float):
        super().__init__(
            f"s={s:g} outside the strip of analyticity "
            f"({lo:g}, {hi:g}) for {family}"
        )
        self.s, self.lo, self.hi = s, lo, hi


class MomentDoesNotExistError(ValueError):
    """Requested classical moment diverges (heavy tail)."""


def _validate_positive(spec) -> None:
    for f in fields(spec):
        v = getattr(spec, f.name)
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v) or v <= 0:
            raise ValueError(
                f"{type(spec).__name__}.{f.name} must be a positive finite "
                f"number, got {v!r}"
            )
        object.__setattr__(spec, f.name, float(v))


@dataclass(frozen=True)
class GammaPower:
    """Clutter power: gamma with shape L (looks) and mean mu."""
    L: float
    mu: float

    def __post_init__(self):
        _validate_positive(self)


@dataclass(frozen=True)
class Nakagami:
    """Clutter amplitude: Nakagami with shape L and RMS amplitude mu."""
    L: float
    mu: float

    def __post_init__(self):
        _validate_positive(self)


@dataclass(frozen=True)
class Maxwell:
    """Maxwell amplitude (norm of three centered normals with scale sigma)."""
    sigma: float

    def __post_init__(self):
        _validate_positive(self)


@dataclass(frozen=True)
class Weibull:
    """Weibull amplitude with scale z and shape b."""
    z: float
    b: float

    def __post_init__(self):
        _validate_positive(self)


@dataclass(frozen=True)
class Rayleigh:
    """Rayleigh amplitude with scale z; identical to Weibull(z, b=2)."""
    z: float

    def __post_init__(self):
        _validate_positive(self)


@dataclass(frozen=True)
class GammaGamma:
    """Compound power: gamma speckle (shape L) modulated by gamma texture
    (shape M), overall mean mu."""
    L: float
    M: float
    mu: float

    def __post_init__(self):
        _validate_positive(self)


@dataclass(frozen=True)
class KAmplitude:
    """K-distributed amplitude: Rayleigh speckle whose mean square follows a
    gamma texture with shape alpha and rate b."""
    alpha: float
    b: float

    def __post_init__(self):
        _validate_positive(self)


@dataclass(frozen=True)
class WeibullNakagami:
    """Weibull speckle (shape c) with Nakagami-distributed scale: texture
    amplitude squared is gamma with shape alpha and rate b."""
    c: float
    alpha: float
    b: float

    def __post_init__(self):
        _validate_positive(self)


@dataclass(frozen=True)
class Fisher:
    """Fisher (scaled F) heavy-tailed power law with shapes L, M and scale mu."""
    L: float
    M: float
    mu: float

    def __post_init__(self):
        _validate_positive(self)


@dataclass(frozen=True)
class InverseGamma:
    """Inverse-gamma texture (shape, scale); the hidden factor of Fisher."""
    shape: float
    scale: float

    def __post_init__(self):
        _validate_positive(self)


DistributionSpec = (
    GammaPower | Nakagami | Maxwell | Weibull | Rayleigh
    | GammaGamma | KAmplitude | WeibullNakagami | Fisher | InverseGamma
)

# CLI-facing tags; InverseGamma is an internal component family
FAMILY_TAGS: dict[str, type] = {
    "gamma": GammaPower,
    "nakagami": Nakagami,
    "maxwell": Maxwell,
    "weibull": Weibull,
    "rayleigh": Rayleigh,
    "ggamma": GammaGamma,
    "k": KAmplitude,
    "wnak": WeibullNakagami,
    "fisher": Fisher,
}


def family_tag(spec: DistributionSpec) -> str:
    for tag, cls in FAMILY_TAGS.items():
        if type(spec) is cls:
            return tag
    if type(spec) is InverseGamma:
        return "invgamma"
    raise TypeError(f"not a distribution spec: {spec!r}")


def make_spec(tag: str, params: dict[str, float]) -> DistributionSpec:
    """Build a spec from a CLI family tag and a parameter dict."""
    try:
        cls = FAMILY_TAGS[tag]
    except KeyError:
        raise ValueError(
            f"unknown family {tag!r}; expected one of {sorted(FAMILY_TAGS)}"
        ) from None
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"unknown parameter(s) {unknown} for {tag}; "
                         f"expected {names}")
    missing = sorted(set(names) - set(params))
    if missing:
        raise ValueError(f"missing parameter(s) {missing} for {tag}")
    return cls(**params)


# canonical transform description ------------------------------------------

@dataclass(frozen=True)
class _MellinForm:
    scale: float                       # Phi picks up scale^(s-1)
    terms: tuple[tuple[float, float], ...]   # (a_i, c_i) gamma-ratio factors


def _mellin_form(spec: DistributionSpec) -> _MellinForm:
    match spec:
        case GammaPower(L=L, mu=mu):
            return _MellinForm(mu / L, ((L, 1.0),))
        case Nakagami(L=L, mu=mu):
            return _MellinForm(mu / math.sqrt(L), ((L, 0.5),))
        case Maxwell(sigma=sigma):
            return _MellinForm(math.sqrt(2.0) * sigma, ((1.5, 0.5),))
        case Weibull(z=z, b=b):
            return _MellinForm(z, ((1.0, 1.0 / b),))
        case Rayleigh(z=z):
            return _mellin_form(Weibull(z, 2.0))
        case GammaGamma(L=L, M=M, mu=mu):
            return _MellinForm(mu / (L * M), ((L, 1.0), (M, 1.0)))
        case KAmplitude(alpha=alpha, b=b):
            return _MellinForm(b ** -0.5, ((1.0, 0.5), (alpha, 0.5)))
        case WeibullNakagami(c=c, alpha=alpha, b=b):
            return _MellinForm(b ** -0.5, ((1.0, 1.0 / c), (alpha, 0.5)))
        case Fisher(L=L, M=M, mu=mu):
            return _MellinForm(M * mu / L, ((L, 1.0), (M, -1.0)))
        case InverseGamma(shape=a, scale=scale):
            return _MellinForm(scale, ((a, -1.0),))
    raise TypeError(f"not a distribution spec: {spec!r}")


def strip(spec: DistributionSpec) -> tuple[float, float]:
    """Open interval of s where the analytic transform exists."""
    lo, hi = -math.inf, math.inf
    for a, c in _mellin_form(spec).terms:
        if c > 0:
            lo = max(lo, 1.0 - a / c)
        else:
            hi = min(hi, 1.0 + a / -c)
    return lo, hi


def _check_strip(spec: DistributionSpec, s: float) -> None:
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"transform variable must be finite, got {s!r}")
    lo, hi = strip(spec)
    if not (lo < s < hi):
        raise StripError(family_tag(spec), s, lo, hi)


def _gamma_ratio(a: float, d: float) -> float:
    """Gamma(a + d) / Gamma(a); exact product for small integer d."""
    n = round(d)
    if d == n and abs(n) <= 64:
        n = int(n)
        if n >= 0:
            out = 1.0
            for j in range(n):
                out *= a + j
            return out
        out = 1.0
        for j in range(1, -n + 1):
            out *= a - j
        return 1.0 / out
    return math.exp(specfun.ln_gamma(a + d) - specfun.ln_gamma(a))


def chf2_analytic(spec: DistributionSpec, s: float) -> float:
    """Second-kind characteristic function Phi(s) = E[X^(s-1)].

    Phi(1) = 1 exactly by construction.  Raises StripError outside the
    family's strip of analyticity.
    """
    _check_strip(spec, s)
    form = _mellin_form(spec)
    delta = float(s) - 1.0
    value = form.scale ** delta
    for a, c in form.terms:
        value *= _gamma_ratio(a, c * delta)
    return value


def log_chf2_analytic(spec: DistributionSpec, s: float) -> float:
    """log Phi(s), formed from log-gamma sums so large shapes stay finite."""
    _check_strip(spec, s)
    form = _mellin_form(spec)
    delta = float(s) - 1.0
    total = delta * math.log(form.scale)
    for a, c in form.terms:
        total += specfun.ln_gamma(a + c * delta) - specfun.ln_gamma(a)
    return total


def classical_moment(spec: DistributionSpec, n: int) -> float:
    """Classical moment m_n = Phi(n+1); m_0 = 1 always."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ValueError(f"moment order must be an integer >= 0, got {n!r}")
    _, hi = strip(spec)
    if n + 1 >= hi:
        raise MomentDoesNotExistError(
            f"moment m_{n} of {family_tag(spec)} does not exist: requires "
            f"n < {hi - 1:g}"
        )
    return chf2_analytic(spec, n + 1.0)


def log_cumulants_analytic(spec: DistributionSpec, n_max: int) -> list[float]:
    """Log-cumulants k_1..k_n_max: the s-derivatives of log Phi at s = 1.

    For the compound families these are the full derivatives of the
    transform, i.e. they include the speckle gamma-term contribution as well
    as the texture one.
    """
    if not isinstance(n_max, (int, np.integer)) or isinstance(n_max, bool) \
            or not 1 <= n_max <= 6:
        raise ValueError(f"n_max must be an integer in [1, 6], got {n_max!r}")
    form = _mellin_form(spec)
    out = [math.log(form.scale)
           + sum(c * specfun.digamma(a) for a, c in form.terms)]
    for n in range(2, n_max + 1):
        out.append(sum(c ** n * specfun.polygamma(n - 1, a)
                       for a, c in form.terms))
    return out


def components(
    spec: DistributionSpec,
) -> tuple[DistributionSpec, DistributionSpec] | None:
    """Speckle/texture factorization of the product model X = U * Z.

    Returns (speckle, texture) such that independent draws U ~ speckle
    (unit mean-scale) and Z ~ texture multiply to X ~ spec; None for the
    simple families.
    """
    match spec:
        case GammaGamma(L=L, M=M, mu=mu):
            return GammaPower(L, 1.0), GammaPower(M, mu)
        case KAmplitude(alpha=alpha, b=b):
            return Rayleigh(1.0), Nakagami(alpha, math.sqrt(alpha / b))
        case WeibullNakagami(c=c, alpha=alpha, b=b):
            return Weibull(1.0, c), Nakagami(alpha, math.sqrt(alpha / b))
        case Fisher(L=L, M=M, mu=mu):
            return GammaPower(L, 1.0), InverseGamma(M, M * mu)
    return None


# density evaluation ---------------------------------------------------------

def pdf(spec: DistributionSpec, x):
    """Density at x >= 0.  Accepts a scalar or an ndarray."""
    arr = np.asarray(x, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
        raise ValueError("pdf requires finite x >= 0")
    scalar = arr.ndim == 0
    out = _pdf_array(spec, np.atleast_1d(arr))
    return float(out[0]) if scalar else out.reshape(arr.shape)


def _pdf_zero_limit(spec: DistributionSpec) -> float:
    """Density limit at x -> 0+, read off the rightmost pole s0 of Phi.

    Near 0 the density behaves as x^(-s0): s0 < 0 gives 0, s0 > 0 or a
    double pole gives infinity, and a simple pole at s0 = 0 gives the
    residue of Phi there.
    """
    form = _mellin_form(spec)
    poles = [1.0 - a / c if c > 0 else -math.inf for a, c in form.terms]
    s0 = max(poles)
    if s0 < 0.0:
        return 0.0
    if s0 > 0.0 or poles.count(s0) > 1:
        return math.inf
    i = poles.index(s0)
    a_i, c_i = form.terms[i]
    value = math.exp(-specfun.ln_gamma(a_i)) / (form.scale * c_i)
    for j, (a, c) in enumerate(form.terms):
        if j != i:
            value *= _gamma_ratio(a, -c)
    return value


def _pdf_array(spec: DistributionSpec, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    zero = x == 0.0
    if zero.any():
        out[zero] = _pdf_zero_limit(spec)
    pos = ~zero
    if pos.any():
        out[pos] = _pdf_positive(spec, x[pos])
    return out


def _pdf_positive(spec: DistributionSpec, x: np.ndarray) -> np.ndarray:
    match spec:
        case GammaPower(L=L, mu=mu):
            lam = L / mu
            logpdf = (L * math.log(lam) - specfun.ln_gamma(L)
                      + (L - 1.0) * np.log(x) - lam * x)
            return np.exp(logpdf)
        case Nakagami(L=L, mu=mu):
            decay = np.exp(np.minimum(
                2.0 * np.log(x) + math.log(L / (mu * mu)), 709.0))
            logpdf = (math.log(2.0) + L * math.log(L / (mu * mu))
                      - specfun.ln_gamma(L)
                      + (2.0 * L - 1.0) * np.log(x) - decay)
            return np.exp(logpdf)
        case Maxwell(sigma=sigma):
            # quadratic exponent in log space, capped below exp overflow
            decay = np.exp(np.minimum(
                2.0 * np.log(x) - math.log(2.0 * sigma * sigma), 709.0))
            logpdf = (0.5 * math.log(2.0 / math.pi) - 3.0 * math.log(sigma)
                      + 2.0 * np.log(x) - decay)
            return np.exp(logpdf)
        case Weibull(z=z, b=b):
            log_t = np.log(x) - math.log(z)
            logpdf = (math.log(b / z) + (b - 1.0) * log_t
                      - np.exp(np.minimum(b * log_t, 709.0)))
            return np.exp(logpdf)
        case Rayleigh(z=z):
            return _pdf_positive(Weibull(z, 2.0), x)
        case GammaGamma(L=L, M=M, mu=mu):
            q = L * M / mu
            arg = 2.0 * np.sqrt(q * x)
            logk = specfun.log_bessel_k_batch(M - L, arg)
            logpdf = (math.log(2.0) + math.log(q)
                      - specfun.ln_gamma(L) - specfun.ln_gamma(M)
                      + 0.5 * (L + M - 2.0) * np.log(q * x) + logk)
            return np.exp(logpdf)
        case KAmplitude(alpha=alpha, b=b):
            arg = 2.0 * np.sqrt(b) * x
            logk = specfun.log_bessel_k_batch(alpha - 1.0, arg)
            logpdf = (math.log(4.0) + 0.5 * (alpha + 1.0) * math.log(b)
                      + alpha * np.log(x) - specfun.ln_gamma(alpha) + logk)
            return np.exp(logpdf)
        case WeibullNakagami(c=c, alpha=alpha, b=b):
            log_r = np.log(x)
            logpdf = (math.log(2.0 * c) + alpha * math.log(b)
                      - specfun.ln_gamma(alpha) + (c - 1.0) * log_r
                      + _wn_log_texture_integral(c, alpha, b, log_r))
            return np.exp(logpdf)
        case Fisher(L=L, M=M, mu=mu):
            lam = L / (M * mu) * x
            logpdf = (specfun.ln_gamma(L + M) - specfun.ln_gamma(L)
                      - specfun.ln_gamma(M) + math.log(L / (M * mu))
                      + (L - 1.0) * np.log(lam)
                      - (L + M) * np.log1p(lam))
            return np.exp(logpdf)
        case InverseGamma(shape=a, scale=scale):
            logpdf = (a * math.log(scale) - specfun.ln_gamma(a)
                      - (a + 1.0) * np.log(x) - scale / x)
            return np.exp(logpdf)
    raise TypeError(f"not a distribution spec: {spec!r}")


def _wn_log_texture_integral(c: float, alpha: float, b: float,
                             log_r: np.ndarray) -> np.ndarray:
    """log integral(exp(p(u)), u over the real line) per abscissa, where

        p(u) = (2 alpha - c) u - exp(c (log r - u)) - b exp(2u)

    is the log of the Weibull-Nakagami mixture integrand over u = log z.
    p'' = -c^2 exp(c (log r - u)) - 4b exp(2u) < 0, so p has one peak.
    The integrand is analytic for |Im u| < min(pi/4, pi/(2c)).
    """
    slope = 2.0 * alpha - c
    # The peak solves c exp(c (log r - u)) + slope+ = 2b exp(2u) + slope-.
    # In logs, F(u) = log(left side) - log(right side) is monotone, convex
    # or concave, and |F'| lies in [min(2, c), 2 + c], so Newton's method
    # converges from any start without overflow.
    log_plus = math.log(slope) if slope > 0.0 else -math.inf
    log_minus = math.log(-slope) if slope < 0.0 else -math.inf
    log_c, log_2b = math.log(c), math.log(2.0 * b)
    u = (c * log_r + log_c - log_2b) / (c + 2.0)
    for _ in range(100):
        e1 = log_c + c * (log_r - u)
        e2 = log_2b + 2.0 * u
        left, right = np.logaddexp(e1, log_plus), np.logaddexp(e2, log_minus)
        step = (left - right) / (c * np.exp(e1 - left)
                                 + 2.0 * np.exp(e2 - right))
        u = u + step
        if np.all(np.abs(step) <= 1e-15 * np.maximum(1.0, np.abs(u))):
            break

    with np.errstate(over="ignore"):
        t1, t2 = np.exp(c * (log_r - u)), b * np.exp(2.0 * u)

    def exponent(d, t1, t2):
        # p(u + d) - p(u) without cancellation at small d
        return slope * d - t1 * np.expm1(-c * d) - t2 * np.expm1(2.0 * d)

    return (slope * u - t1 - t2
            + log_trapezoid(exponent, 1.0 / np.sqrt(c * c * t1 + 4.0 * t2),
                            min(0.25 * math.pi, 0.5 * math.pi / c), t1, t2))
