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
form multiplies the forms of its ``components``.  A spec is refused when
made if its form's scale is not a positive double (ValueError); s is in
the strip where each a_i + c_i (s-1), as computed, is > 0 (not nan):
no rounded pole decides.  The form yields the log form, the log-cumulants

    k1 = log(scale) + sum_i c_i psi(a_i)
    kn = sum_i c_i^n psi^(n-1)(a_i),   n >= 2

(each term by ``term_log_cumulant``, which the MoLC fit calls too) and the
density, by its shape: generalized gamma (one term), beta prime
(c1 = -c2) or a latent integral over one of the two gammas (c1, c2 > 0,
``_quad.log_latent_integral``; at c1 = c2 it is the Bessel-K law, and
``specfun.log_bessel_k_batch`` reads K off the same integral).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import specfun
from ._quad import adaptive_quad  # noqa: F401  bound for bench/tracing.py
from ._quad import log_latent_integral

__all__ = [
    "GammaPower", "Nakagami", "Maxwell", "Weibull", "Rayleigh",
    "GammaGamma", "KAmplitude", "WeibullNakagami", "Fisher", "InverseGamma",
    "DistributionSpec", "StripError", "MomentDoesNotExistError",
    "pdf", "chf2_analytic", "log_chf2_analytic", "classical_moment",
    "log_cumulants_analytic", "term_log_cumulant", "components",
    "strip", "FAMILY_TAGS", "family_tag", "check_simple", "make_spec",
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


class _Positive:
    """Base of every family: each field is a positive finite number, kept
    as a float, and the canonical form is asked when the spec is made."""

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or not math.isfinite(v) or v <= 0:
                raise ValueError(
                    f"{type(self).__name__}.{f.name} must be a positive "
                    f"finite number, got {v!r}"
                )
            object.__setattr__(self, f.name, float(v))
        _mellin_form(self)


@dataclass(frozen=True)
class GammaPower(_Positive):
    """Clutter power: gamma with shape L (looks) and mean mu."""
    L: float
    mu: float


@dataclass(frozen=True)
class Nakagami(_Positive):
    """Clutter amplitude: Nakagami with shape L and RMS amplitude mu."""
    L: float
    mu: float


@dataclass(frozen=True)
class Maxwell(_Positive):
    """Maxwell amplitude (norm of three centered normals with scale sigma)."""
    sigma: float


@dataclass(frozen=True)
class Weibull(_Positive):
    """Weibull amplitude with scale z and shape b."""
    z: float
    b: float


@dataclass(frozen=True)
class Rayleigh(_Positive):
    """Rayleigh amplitude with scale z; identical to Weibull(z, b=2)."""
    z: float


@dataclass(frozen=True)
class GammaGamma(_Positive):
    """Compound power: gamma speckle (shape L) modulated by gamma texture
    (shape M), overall mean mu."""
    L: float
    M: float
    mu: float


@dataclass(frozen=True)
class KAmplitude(_Positive):
    """K-distributed amplitude: Rayleigh speckle whose mean square follows a
    gamma texture with shape alpha and rate b."""
    alpha: float
    b: float


@dataclass(frozen=True)
class WeibullNakagami(_Positive):
    """Weibull speckle (shape c) with Nakagami-distributed scale: texture
    amplitude squared is gamma with shape alpha and rate b."""
    c: float
    alpha: float
    b: float


@dataclass(frozen=True)
class Fisher(_Positive):
    """Fisher (scaled F) heavy-tailed power law with shapes L, M and scale mu."""
    L: float
    M: float
    mu: float


@dataclass(frozen=True)
class InverseGamma(_Positive):
    """Inverse-gamma texture (shape, scale); the hidden factor of Fisher."""
    shape: float
    scale: float


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


# every spec class's tag, the internal component family's included
_TAG_OF: dict[type, str] = {**{cls: tag for tag, cls in FAMILY_TAGS.items()},
                            InverseGamma: "invgamma"}


def family_tag(spec: DistributionSpec) -> str:
    try:
        return _TAG_OF[type(spec)]
    except KeyError:
        raise TypeError(f"not a distribution spec: {spec!r}") from None


def _family_class(tag: str) -> type:
    try:
        return FAMILY_TAGS[tag]
    except KeyError:
        raise ValueError(
            f"unknown family {tag!r}; expected one of {sorted(FAMILY_TAGS)}"
        ) from None


def make_spec(tag: str, params: dict[str, float]) -> DistributionSpec:
    """Build a spec from a CLI family tag and a parameter dict."""
    cls = _family_class(tag)
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
            # X = U * Z multiplies the transforms (Mellin convolution theorem)
            try:
                speckle, texture = map(_mellin_form, components(spec))
            except ValueError as exc:
                raise ValueError(f"{family_tag(spec)}: a component of "
                                 f"{spec!r} is outside the double range: "
                                 f"{exc}") from None
            form = _MellinForm(speckle.scale * texture.scale,
                               speckle.terms + texture.terms)
    if not 0.0 < form.scale < math.inf:
        raise ValueError(f"{family_tag(spec)}: canonical scale {form.scale:g} "
                         f"of {spec!r} is outside the double range")
    for _, c in form.terms:
        if not math.isfinite(c):
            raise ValueError(f"{family_tag(spec)}: canonical exponent {c:g} "
                             f"of {spec!r} is outside the double range")
    return form


def strip(spec: DistributionSpec) -> tuple[float, float]:
    """Open interval of s where the analytic transform exists."""
    lo, hi = -math.inf, math.inf
    for a, c in _mellin_form(spec).terms:
        pole = 1.0 - a / c             # of Gamma(a + c (s - 1))
        if c > 0:
            lo = max(lo, pole)
        else:
            hi = min(hi, pole)
    return lo, hi


def _check_strip(spec: DistributionSpec, s: float) -> None:
    """The one strip test: every gamma argument a + c (s - 1) is > 0."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"transform variable must be finite, got {s!r}")
    if not all(a + c * (s - 1.0) > 0.0 for a, c in _mellin_form(spec).terms):
        raise StripError(family_tag(spec), s, *strip(spec))


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
    power, rest = specfun.log_gamma_ratio(a, d)
    m, e = _power_parts(a, power)
    if abs(rest) < 708.0:
        m_rest, e_rest = math.frexp(math.exp(rest))
    else:
        m_rest, e_rest = _exp2_parts(rest / math.log(2.0))
    m, k = math.frexp(m * m_rest)
    return m, e + e_rest + k


def _chf2_parts(spec: DistributionSpec, s: float) -> tuple[float, int]:
    """Phi(s) as (m, e) with value m * 2**e, past the double range."""
    _check_strip(spec, s)
    form = _mellin_form(spec)
    delta = float(s) - 1.0
    m, e = _power_parts(form.scale, delta)
    for a, c in form.terms:
        m_ratio, e_ratio = _gamma_ratio(a, c * delta)
        m, k = math.frexp(m * m_ratio)
        e += e_ratio + k
    return m, e


def chf2_analytic(spec: DistributionSpec, s: float) -> float:
    """Second-kind characteristic function Phi(s) = E[X^(s-1)].

    Phi(1) = 1 exactly by construction.  Raises StripError outside the
    family's strip of analyticity, and OverflowError where Phi(s) exceeds
    the double range; values below it underflow towards 0.
    """
    m, e = _chf2_parts(spec, s)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        raise OverflowError(f"chf2_analytic: Phi(s={s:g}) of "
                            f"{family_tag(spec)} exceeds the double range "
                            f"(~2**{e})") from None


def log_chf2_analytic(spec: DistributionSpec, s: float) -> float:
    """log Phi(s), also where Phi(s) leaves the double range."""
    m, e = _chf2_parts(spec, s)
    return math.log(m) + e * math.log(2.0)


def classical_moment(spec: DistributionSpec, n: int) -> float:
    """Classical moment m_n = Phi(n+1) where s = n + 1 is in the strip."""
    n = specfun.check_integer(n, "moment order", 0)
    try:
        return chf2_analytic(spec, n + 1.0)
    except StripError as exc:
        raise MomentDoesNotExistError(f"moment m_{n} of {family_tag(spec)} "
                                      f"does not exist: requires n < "
                                      f"{exc.hi - 1:g}") from None


def log_cumulants_analytic(spec: DistributionSpec, n_max: int) -> list[float]:
    """Log-cumulants k_1..k_n_max: the s-derivatives of log Phi at s = 1.

    For the compound families these are the full derivatives of the
    transform, i.e. they include the speckle gamma-term contribution as well
    as the texture one.  Raises OverflowError where a term of some k_n
    leaves the double range, also when two such terms would cancel.
    """
    n_max = specfun.check_order(n_max, "log_cumulants_analytic")
    form = _mellin_form(spec)
    out = [sum(term_log_cumulant(a, c, n) for a, c in form.terms)
           for n in range(1, n_max + 1)]
    out[0] += math.log(form.scale)
    for n, k in enumerate(out, start=1):
        if not math.isfinite(k):       # a term past the double range
            raise OverflowError(f"log_cumulants_analytic: k_{n} of {spec!r} "
                                "is outside the double range")
    return out


def term_log_cumulant(a: float, c: float, n: int) -> float:
    """The part of k_n from one gamma term (a, c) of a canonical form:
    c psi(a) for n = 1, c^n psi^(n-1)(a) for n >= 2.  At n >= 2 either
    of a and c may be an array (the MoLC scan passes a whole k_2 curve),
    and so is the result."""
    if n == 1:
        return c * specfun.digamma(a)
    return c ** n * specfun.polygamma(n - 1, a)


def components(
    spec: DistributionSpec,
) -> tuple[DistributionSpec, DistributionSpec] | None:
    """Speckle/texture factorization of the product model X = U * Z.

    Returns (speckle, texture) such that independent draws U ~ speckle
    (unit mean-scale) and Z ~ texture multiply to X ~ spec; None for the
    simple families.  Anything else raises ``family_tag``'s TypeError, the
    one error for a non-spec, so every entry point that asks whether a
    spec is compound rejects a non-spec alike.
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
    family_tag(spec)                   # a non-spec raises here
    return None


def check_simple(spec: DistributionSpec, what: str) -> DistributionSpec:
    """``spec`` itself, or ValueError naming ``what`` when it is compound
    (TypeError when it is not a spec)."""
    if components(spec) is not None:
        raise ValueError(
            f"{what} must be a simple family, got {family_tag(spec)}")
    return spec


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
    return log_latent_integral(a1, c1, a2, c2, v) - norm
