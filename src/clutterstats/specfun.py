"""Special-function kernel: log-gamma, digamma, polygamma, Bessel K, and
the package's one integer-argument check.

Self-contained (no dependency on the rest of the package beyond the
latent-integral kernel in ``_quad`` and ``MAX_ORDER``, which ``_catalog``
states for the command-line parser) and accurate enough for everything
downstream:

* ``ln_gamma``  -- Stirling series after an upward recurrence shift,
  absolute accuracy a few ulp of the result over [1e-3, 1e6].
  ``log_gamma_ratio`` differences two Stirling series term by term, so
  ln Gamma(a + d) - ln Gamma(a) keeps its digits for large a.
* ``check_integer`` -- the one test of an integer argument (an order, a
  count, a seed): a Python or numpy integer, not a bool, at least a
  given value; ``check_order`` adds the ``MAX_ORDER`` cap.
* ``digamma`` / ``polygamma`` -- Bernoulli asymptotic series, shifted
  upward until the argument is >= 10 (>= 2m + 2 for polygamma of order
  m >= 5); ``_series`` is the one sum of the ln_gamma, digamma and
  both polygamma paths' series, and ``_shift`` the one recurrence of
  all of them, lane by lane over a float or an array.  ``polygamma`` takes
  the orders 1 to ``MAX_ORDER`` = 8 (through ``check_order``, the cap
  on every moment and cumulant order), and ``polygamma(m, x)`` meets
  40-digit mpmath to 1e-15 at each of them for x in [1e-3, 1e6], so k_n
  is at full precision through n = 8 (against mpmath, each k_7 and k_8
  of 2,195 specs is within 7.3e-16 of the sum of its terms'
  magnitudes).  ``polygamma`` also takes an array of x, of any length
  or shape, by one path: the one shift loop and series run over every
  element at once, and only the elements whose plain-float terms leave
  the doubles take the scaled form, one by one.  An element is within
  a few ulp of the float call (numpy's vectorized ``**`` rounds apart
  from the C library's ``pow``), and its bits do not depend on the
  other elements of its call.  A float call keeps its bits, and a bad
  element gets the float call's message.
* ``log_bessel_k_batch`` -- log K_nu for a whole abscissa array.  K is
  the latent integral of two unit gammas at q = 1
  (``_quad.log_latent_integral``, the kernel of the compound densities),
  good to a few 1e-13 in log for x from the smallest subnormal to the
  largest double.  It is the only K form; a float x gives a 0-d array.

All functions are pure and reentrant.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._catalog import MAX_ORDER
from ._quad import adaptive_quad  # noqa: F401  bound for bench/tracing.py
from ._quad import HALF_LOG_TWO_PI, log_latent_integral

__all__ = ["MAX_ORDER", "check_integer", "check_order", "ln_gamma",
           "log_gamma_ratio", "digamma", "polygamma", "log_bessel_k_batch"]

# Bernoulli numbers B_2, B_4, ..., B_20
_B2K = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    -174611.0 / 330.0,
)
# B_2k / (2k (2k-1)), the Stirling-series coefficients of ln_gamma
_LNG_COEF = tuple(b / ((2 * k) * (2 * k - 1)) for k, b in enumerate(_B2K, start=1))
# B_2k / (2k), the asymptotic-series coefficients of digamma
_DG_COEF = tuple(b / (2 * k) for k, b in enumerate(_B2K, start=1))

_SHIFT_THRESHOLD = 10.0


def _require_positive_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} requires a positive finite argument, got {x!r}")
    return x


def check_integer(n, what: str, least: int | None = None) -> int:
    """``n`` as an int if it is an integer (not a bool) of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) \
            or least is not None and n < least:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{what} must be an integer{bound}, got {n!r}")
    return int(n)


def check_order(n, what: str) -> int:
    """``n`` if it is an integer (not a bool) in [1, MAX_ORDER]."""
    try:
        if check_integer(n, "order", 1) <= MAX_ORDER:
            return int(n)
    except ValueError:
        pass
    raise ValueError(f"unsupported order {n!r} for {what}: orders are "
                     f"integers from 1 to {MAX_ORDER}")


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    log_shift, y = _shift(_require_positive_finite("ln_gamma", x),
                          _SHIFT_THRESHOLD, math.log)
    return ((y - 0.5) * math.log(y) - y + HALF_LOG_TWO_PI
            + _stirling_series(y) - log_shift)


def _shift(x, threshold: float, term):
    """The upward recurrence of ln_gamma, digamma and both polygamma
    paths, lane by lane over a float (one lane) or an array: the sum of
    term(y) over y = x, x + 1, ... below ``threshold``, and the first y
    past it.  A lane past the threshold adds 0 and stays put."""
    acc, y, live = 0.0, x, x < threshold
    while live is True or live is not False and live.any():  # bool or mask
        acc = acc + live * term(y)
        y = y + live
        live = y < threshold
    return acc, y


def _series(coefs, t, z, start=0.0):
    """start + sum_k coefs[k] t z^k, the one loop of the Bernoulli series,
    over floats or arrays."""
    series = start
    for c in coefs:
        series = series + c * t
        t = t * z
    return series


def _stirling_series(y: float) -> float:
    """sum_k B_2k / (2k (2k-1) y^(2k-1)): ln Gamma(y) less its leading
    terms (y - 1/2) log y - y + log(2 pi) / 2, for y >= 10."""
    return _series(_LNG_COEF, 1.0 / y, 1.0 / (y * y))


def log_gamma_ratio(a: float, d: float) -> tuple[float, float]:
    """ln Gamma(a + d) - ln Gamma(a) as (p, r), the value p log(a) + r.
    Where a and a + d are in the Stirling range their Stirling forms are
    differenced term by term (p = d), which keeps the digits of a log a
    that ln_gamma(a + d) - ln_gamma(a) loses (all once a + d == a)."""
    b = a + d
    if min(a, b) < _SHIFT_THRESHOLD:
        return 0.0, ln_gamma(b) - ln_gamma(a)
    return d, ((b - 0.5) * math.log1p(d / a) - d
               + _stirling_series(b) - _stirling_series(a))


def digamma(x: float) -> float:
    """psi(x) = d/dx ln_gamma(x) for x > 0."""
    shifts, y = _shift(_require_positive_finite("digamma", x),
                       _SHIFT_THRESHOLD, lambda y: 1.0 / y)
    z = 1.0 / (y * y)
    return math.log(y) - shifts - 0.5 / y - _series(_DG_COEF, z, z)


@functools.cache
def _plain_constants(m: int) -> tuple[float, float, tuple[float, ...]]:
    """m!, (m-1)! and the series coefficients B_2k (2k + m - 1)! / (2k)!,
    k = 1..10, as floats for polygamma of order m."""
    return (float(math.factorial(m)), float(math.factorial(m - 1)),
            tuple(b * math.prod(range(2 * k + 1, 2 * k + m))
                  for k, b in enumerate(_B2K, start=1)))


def _polygamma_plain(m: int, x, threshold: float):
    """|psi^(m)(x)| in plain floats over a float or an array x, and the
    last series factor t = 1/y^(m+2).  m!/y^(m+1) is summed over y = x,
    x + 1, ... below ``threshold``, then the asymptotic series is taken
    at the first y past it.  A float raises ArithmeticError where a term
    leaves the double range; under np.errstate an array lane is then
    non-finite, or has t = 0 (a power of its y past the doubles)."""
    fact_m, fact_m1, coefs = _plain_constants(m)
    acc, y = _shift(x, threshold, lambda y: fact_m / y ** (m + 1))
    t = 1.0 / y ** (m + 2)
    body = fact_m1 / y**m + fact_m / (2.0 * y ** (m + 1))
    return acc + _series(coefs, t, 1.0 / (y * y), body), t


def polygamma(order: int, x):
    """psi^(order)(x), the order-th derivative of digamma, for an order
    from 1 to ``MAX_ORDER``.

    The sign alternates: psi^(m) has sign (-1)^(m+1) everywhere on x > 0.
    A value past the double range is +-inf.  ``x`` is a float (a float
    back) or an array of any length or shape (an array of its shape back,
    by one vectorized path: each element within a few ulp of the float
    call, with the same bits in any call that carries it).
    """
    m = check_order(order, "polygamma")
    # the series needs y >> m: its terms grow like (2k + m)! / (2 pi y)^(2k)
    threshold = max(_SHIFT_THRESHOLD, 2.0 * m + 2.0)
    sign = 1.0 if m % 2 == 1 else -1.0
    if not isinstance(x, np.ndarray) or not x.ndim:
        x = _require_positive_finite("polygamma", x)
        try:                           # in plain floats while they hold
            value = _polygamma_plain(m, x, threshold)[0]
        except ArithmeticError:        # a term left the double range
            value = math.nan
        if not math.isfinite(value):
            value = _polygamma_scaled(m, x, threshold)
        return sign * value
    x = x.astype(float)
    if not np.all(ok := (0.0 < x) & (x < math.inf)):
        _require_positive_finite("polygamma", x[~ok][0])   # raises
    with np.errstate(all="ignore"):    # every lane in plain floats at once
        value, t = _polygamma_plain(m, x, threshold)
    value[t == 0.0] = math.nan
    scaled = ~np.isfinite(value)       # lanes past the doubles, one by one
    value[scaled] = [_polygamma_scaled(m, v, threshold)
                     for v in x[scaled].tolist()]
    return sign * value


def _polygamma_scaled(m: int, x: float, threshold: float) -> float:
    """|psi^(m)(x)| as (m-1)!/x^m, held as mantissa and binary exponent,
    times (m/x) sum_j (x/(x+j))^(m+1) + (x/y)^m (1 + m/(2y)
    + sum_k B_2k C(2k + m - 1, 2k) / y^(2k)): each part is in range."""
    (mant, e), (mx, ex) = math.frexp(math.factorial(m - 1)), math.frexp(x)
    mant, k = math.frexp(mant / mx**m)  # mx^8 >= 2^-8 stays normal
    e += k - ex * m
    shifts, y = _shift(x, threshold, lambda y: (x / y) ** (m + 1))
    z = 1.0 / (y * y)
    series = _series([b * math.comb(2 * k + m - 1, 2 * k) for k, b
                      in enumerate(_B2K, start=1)], z, z, 1.0 + m / (2.0 * y))
    mant, k = math.frexp(mant * (m / x * shifts + (x / y) ** m * series))
    return math.ldexp(mant, e + k) if e + k <= 1024 else math.inf


def log_bessel_k_batch(nu: float, x) -> np.ndarray:
    """log K_nu over an array of positive abscissas (shared order).

    K_nu(x) = 1/2 integral(exp(nu t - x cosh t) dt) (DLMF 10.32.9).  At
    w = t + T/2, T = 2 log(x/2), the exponent is nu T/2 plus the latent
    exponent of a1 = 1, a2 = 1 + nu, q = 1, so log K_nu(x) is the latent
    integral less (1 + nu/2) T + log 2.  Only log x enters, so subnormal x
    works too.
    """
    x, nu = np.asarray(x, dtype=float), abs(float(nu))
    if not (nu < math.inf and np.all((0.0 < x) & (x < math.inf))):
        raise ValueError("log_bessel_k_batch requires finite x > 0 and order")
    big_t = 2.0 * (np.log(x.ravel()) - math.log(2.0))
    out = (log_latent_integral(1.0, 1.0, 1.0 + nu, 1.0, big_t)
           - (1.0 + 0.5 * nu) * big_t - math.log(2.0))
    return out.reshape(x.shape)
