"""Catalog of simple and compound clutter families.

Each family carries validated parameters and supports: density evaluation,
the analytic second-kind characteristic function ``Phi(s) = E[X^(s-1)]``
(Mellin transform of the density), classical moments ``m_n = Phi(n+1)``,
analytic log-cumulants, and -- for compound families -- the speckle/texture
factorization of the product model ``X = U * Z``.

Internally every family is reduced to the same canonical transform shape

    Phi(s) = scale^(s-1) * prod_i Gamma(a_i + c_i (s-1)) / Gamma(a_i),

the transform of X = scale * prod_i G_i^c_i over independent unit gammas
G_i ~ Gamma(a_i).  The six simple families state their form; a compound
form multiplies the forms of its ``components``.  The form yields the log
form, the strip of analyticity, the log-cumulants

    k1 = log(scale) + sum_i c_i psi(a_i)
    kn = sum_i c_i^n psi^(n-1)(a_i),   n >= 2

and the density, by its shape: generalized gamma (one term), beta prime
(c1 = -c2) or a latent integral over one of the two gammas (c1, c2 > 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import specfun
from ._quad import adaptive_quad  # noqa: F401  bound for bench/tracing.py
from ._quad import LOG_FLOOR, log_trapezoid

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


@functools.lru_cache(maxsize=64)
def _mellin_form(spec: DistributionSpec) -> _MellinForm:
    match spec:
        case GammaPower(L=L, mu=mu):
            form = _MellinForm(mu / L, ((L, 1.0),))
        case Nakagami(L=L, mu=mu):
            form = _MellinForm(mu / math.sqrt(L), ((L, 0.5),))
        case Maxwell(sigma=sigma):
            form = _MellinForm(math.sqrt(2.0) * sigma, ((1.5, 0.5),))
        case Weibull(z=z, b=b):
            form = _MellinForm(z, ((1.0, 1.0 / b),))
        case Rayleigh(z=z):
            form = _mellin_form(Weibull(z, 2.0))
        case InverseGamma(shape=a, scale=scale):
            form = _MellinForm(scale, ((a, -1.0),))
        case _:
            parts = components(spec)
            if parts is None:
                raise TypeError(f"not a distribution spec: {spec!r}")
            # X = U * Z multiplies the transforms (Mellin convolution theorem)
            speckle, texture = map(_mellin_form, parts)
            form = _MellinForm(speckle.scale * texture.scale,
                               speckle.terms + texture.terms)
    if not 0.0 < form.scale < math.inf:
        raise ValueError(f"{family_tag(spec)}: canonical scale {form.scale:g} "
                         f"of {spec!r} is outside the double range")
    return form


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


def _exp2_parts(log2_value: float) -> tuple[float, int]:
    """2**log2_value as (m, e) with value m * 2**e, past the double range."""
    e = math.floor(log2_value)
    return 2.0 ** (log2_value - e), e


def _power_parts(scale: float, delta: float) -> tuple[float, int]:
    """scale**delta as (m, e) with value m * 2**e, past the double range."""
    try:
        m, e = math.frexp(scale ** delta)
        if m and e > -1022:            # a normal double
            return m, e
    except OverflowError:
        pass
    # scale = m 2^e: m^delta to a few ulp, 2^(e delta) exact for integer delta
    m, e = math.frexp(scale)
    m_part, e_part = _exp2_parts(delta * math.log2(m))
    m_whole, e_whole = _exp2_parts(e * delta)
    return m_part * m_whole, e_part + e_whole


def _gamma_ratio(a: float, d: float) -> tuple[float, int]:
    """Gamma(a + d) / Gamma(a) as (m, e) with value m * 2**e; exact
    product for small integer d, rounded as the plain product in range."""
    n = round(d)
    if d == n and abs(n) <= 64:
        n = int(n)
        m, e = 1.0, 0
        for j in range(n) if n >= 0 else range(1, -n + 1):
            m, k = math.frexp(m * (a + j if n >= 0 else a - j))
            e += k
        return (m, e) if n >= 0 else (1.0 / m, -e)
    log_ratio = specfun.ln_gamma(a + d) - specfun.ln_gamma(a)
    if abs(log_ratio) < 708.0:
        return math.frexp(math.exp(log_ratio))
    return _exp2_parts(log_ratio / math.log(2.0))


def chf2_analytic(spec: DistributionSpec, s: float) -> float:
    """Second-kind characteristic function Phi(s) = E[X^(s-1)].

    Phi(1) = 1 exactly by construction.  Raises StripError outside the
    family's strip of analyticity, and OverflowError where Phi(s) exceeds
    the double range; values below it underflow towards 0.
    """
    _check_strip(spec, s)
    form = _mellin_form(spec)
    delta = float(s) - 1.0
    m, e = _power_parts(form.scale, delta)
    for a, c in form.terms:
        m_ratio, e_ratio = _gamma_ratio(a, c * delta)
        m, k = math.frexp(m * m_ratio)
        e += e_ratio + k
    try:
        return math.ldexp(m, e)
    except OverflowError:
        raise OverflowError(f"chf2_analytic: Phi(s={s:g}) of "
                            f"{family_tag(spec)} exceeds the double range "
                            f"(~2**{e})") from None


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
    zero = arr.ravel() == 0.0
    form = _mellin_form(spec)
    log_x = np.log(np.where(zero, 1.0, arr.ravel()))
    log_density = _log_density(form.terms, log_x - math.log(form.scale))
    with np.errstate(over="ignore"):   # densities past the double range
        out = np.exp(log_density - log_x)
    if zero.any():
        out[zero] = _pdf_zero_limit(spec)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


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
            value *= math.ldexp(*_gamma_ratio(a, -c))
    return value


def _log_density(terms, v: np.ndarray) -> np.ndarray:
    """log density of V = log(X / scale) = sum c_i log G_i at v, where
    log G_i has density exp(a_i u - e^u) / Gamma(a_i)."""
    if len(terms) == 1:                # generalized gamma
        (a, c), = terms
        t = v / c
        return (a * t - np.exp(np.minimum(t, 709.0))   # e^709: density 0
                - specfun.ln_gamma(a) - math.log(abs(c)))
    (a1, c1), (a2, c2) = terms
    norm = specfun.ln_gamma(a1) + specfun.ln_gamma(a2) + math.log(abs(c1))
    if c1 == -c2:                      # beta prime law of G1 / G2
        t = v / c1
        return (a1 * t - (a1 + a2) * np.logaddexp(0.0, t)
                + specfun.ln_gamma(a1 + a2) - norm)
    return _log_latent_integral(a1, c1, a2, c2, v) - norm


def _log_latent_integral(a1: float, c1: float, a2: float, c2: float,
                         v: np.ndarray) -> np.ndarray:
    """log density of V = c1 log G1 + c2 log G2 (c1, c2 > 0) at v, plus
    ln Gamma(a1) + ln Gamma(a2) + log c1, as an integral over w = log G2:
    a1 T + log integral(exp(p(w)) dw), p(w) = k w - exp(T - q w) - exp(w),
    T = v / c1, q = c2 / c1, k = a2 - a1 q.  p'' < 0 (one peak), and the
    integrand is analytic for |Im w| < min(pi/2, pi/(2q)).
    """
    q, slope = c2 / c1, a2 - a1 * c2 / c1
    big_t = v / c1
    # The peak solves q exp(T - q w) + k+ = exp(w) + k-; in logs the sides
    # differ by a monotone, convex or concave F(w) with |F'| in
    # [min(1, q), 1 + q], so Newton's method converges from any start.
    log_plus = math.log(slope) if slope > 0.0 else -math.inf
    log_minus = math.log(-slope) if slope < 0.0 else -math.inf
    log_q_t = math.log(q) + big_t
    w = log_q_t / (1.0 + q)
    for _ in range(100):
        e1 = log_q_t - q * w
        left, right = np.logaddexp(e1, log_plus), np.logaddexp(w, log_minus)
        step = (left - right) / (q * np.exp(e1 - left) + np.exp(w - right))
        w = w + step
        if np.all(np.abs(step) <= 1e-15 * np.maximum(1.0, np.abs(w))):
            break

    # the two exponentials at the peak, held in [e^-700, e^700]: above, the
    # result is below -e^700 anyway; below, the exponent is shifted to match
    log_t = np.array([big_t - q * w, w])
    clipped = np.clip(log_t, LOG_FLOOR, -LOG_FLOOR)
    (t1, t2), shifts = np.exp(clipped), clipped - log_t
    return (a1 * big_t + slope * w - t1 - t2
            + log_trapezoid(_latent_exponent, 1.0 / np.sqrt(q * q * t1 + t2),
                            min(0.5 * math.pi, 0.5 * math.pi / q), q, slope,
                            t1, t2, *shifts))


def _latent_exponent(d, q, slope, t1, t2, shift1, shift2):
    # p(w + d) - p(w) without cancellation at small d; a term raised to
    # e^-700 takes its exponential at d - shift, the same wherever it counts
    return (slope * d - t1 * np.expm1(-q * d - shift1)
            - t2 * np.expm1(d - shift2))
