"""Special-function kernel: log-gamma, digamma, polygamma, Bessel K.

Self-contained (no dependency on the rest of the package beyond the
latent-integral kernel in ``_quad``) and accurate enough for everything
downstream:

* ``ln_gamma``  -- Stirling series after an upward recurrence shift,
  absolute accuracy a few ulp of the result over [1e-3, 1e6].
* ``digamma`` / ``polygamma`` -- Bernoulli asymptotic series, shifted
  upward until the argument is >= 10.
* ``log_bessel_k_batch`` -- log K_nu for a whole abscissa array: the
  peak-centred trapezoid rule ``_quad.log_trapezoid`` on
  1/2 integral(exp(nu t - x cosh t)) over the real line, good to a few
  1e-13 in log over x in [1e-90, 1e18] and defined down to the smallest
  subnormal x.  ``log_bessel_k`` and ``bessel_k`` are its scalar forms.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._quad import adaptive_quad  # noqa: F401  bound for bench/tracing.py
from ._quad import LOG_FLOOR, log_trapezoid

__all__ = ["ln_gamma", "digamma", "polygamma", "bessel_k", "log_bessel_k",
           "log_bessel_k_batch"]

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
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_DBL_MAX = math.log(sys.float_info.max)


def _require_positive_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} requires a positive finite argument, got {x!r}")
    return x


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    x = _require_positive_finite("ln_gamma", x)
    log_shift = 0.0
    y = x
    while y < _SHIFT_THRESHOLD:
        log_shift += math.log(y)
        y += 1.0
    z = 1.0 / (y * y)
    series = 0.0
    t = 1.0 / y
    for c in _LNG_COEF:
        series += c * t
        t *= z
    return (y - 0.5) * math.log(y) - y + _HALF_LOG_TWO_PI + series - log_shift


def digamma(x: float) -> float:
    """psi(x) = d/dx ln_gamma(x) for x > 0."""
    x = _require_positive_finite("digamma", x)
    acc = 0.0
    y = x
    while y < _SHIFT_THRESHOLD:
        acc -= 1.0 / y
        y += 1.0
    z = 1.0 / (y * y)
    series = 0.0
    t = z
    for c in _DG_COEF:
        series -= c * t
        t *= z
    return acc + math.log(y) - 0.5 / y + series


def polygamma(order: int, x: float) -> float:
    """psi^(order)(x), the order-th derivative of digamma, for order >= 1.

    The sign alternates: psi^(m) has sign (-1)^(m+1) everywhere on x > 0.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"polygamma order must be an integer >= 1, got {order!r}")
    m = int(order)
    if m < 1:
        raise ValueError(f"polygamma order must be >= 1, got {m}")
    x = _require_positive_finite("polygamma", x)

    fact_m = float(math.factorial(m))
    fact_m1 = float(math.factorial(m - 1))
    acc = 0.0
    y = x
    while y < _SHIFT_THRESHOLD:
        acc += fact_m / y ** (m + 1)
        y += 1.0
    sign = 1.0 if m % 2 == 1 else -1.0
    try:
        body = fact_m1 / y**m + fact_m / (2.0 * y ** (m + 1))
        t = 1.0 / y ** (m + 2)  # 1/y^(2k + m) at k = 1
    except OverflowError:
        # factor out the leading term (m-1)!/y^m, formed exponent-tracked
        # (it may underflow); term k of the series is then
        # b_k C(2k + m - 1, 2k) / y^(2k)
        my, ey = math.frexp(y)
        mf, ef = math.frexp(fact_m1)
        z, series = 1.0 / (y * y), 1.0 + m / (2.0 * y)
        for k, b in enumerate(_B2K, start=1):
            series += b * math.comb(2 * k + m - 1, 2 * k) * z**k
        return sign * (acc + math.ldexp(mf / my**m, ef - ey * m) * series)
    z = 1.0 / (y * y)
    for k, b in enumerate(_B2K, start=1):
        # R_k = (2k + m - 1)! / (2k)! as a float product
        r = 1.0
        for j in range(2 * k + 1, 2 * k + m):
            r *= j
        body += b * r * t
        t *= z
    return sign * (acc + body)


def _bessel_exponent(d, nu, root_2b, shift):
    # nu t - x cosh t at t = t* + d less its peak value nu t* - h is, by
    # x sinh t* = nu and x cosh t* = h, -nu (e^d - 1 - d) - 2B sinh^2(d/2)
    # with B = x e^-t*: two terms <= 0, so nothing cancels (d is capped so
    # nu = 0 gives 0).  A B below e^-700 is raised to e^-700 with sinh at
    # |d| - shift, shift = log(e^-700 / B) (0 otherwise): the same wherever
    # it counts.
    half = 0.5 * np.maximum(np.abs(d) - shift, 0.0)
    return -(nu * (np.expm1(np.minimum(d, 709.0)) - d)
             + (root_2b * np.sinh(half)) ** 2)


def log_bessel_k_batch(nu: float, x) -> np.ndarray:
    """log K_nu over an array of positive abscissas (shared order).

    K_nu(x) = 1/2 integral(exp(nu t - x cosh t), t over the real line).
    The exponent peaks at t* = log(nu + h) - log x, h = hypot(x, nu), with
    curvature -h; its strip of analyticity is |Im t| < pi/2.  Everything
    is formed from log x, nu and h, so subnormal x works too.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if flat.size and (not np.all(np.isfinite(flat)) or np.any(flat <= 0.0)):
        raise ValueError("log_bessel_k_batch requires finite x > 0")
    nu = abs(float(nu))
    if not math.isfinite(nu):
        raise ValueError(f"log_bessel_k_batch requires finite order, got {nu!r}")
    log_x = np.log(flat)
    h = np.hypot(flat, nu)
    log_a = np.log(nu + h)                   # log(x e^t*)
    b = flat / (nu + h) * flat               # B = x e^-t*
    root_2b = math.sqrt(2.0) * np.sqrt(np.maximum(b, math.exp(LOG_FLOOR)))
    shift = np.maximum(LOG_FLOOR - (2.0 * log_x - log_a), 0.0)
    out = (nu * (log_a - log_x) - h - math.log(2.0)
           + log_trapezoid(_bessel_exponent, 1.0 / np.sqrt(h), 0.5 * math.pi,
                           nu, root_2b, shift))
    return out.reshape(x.shape)


def log_bessel_k(nu: float, x: float) -> float:
    """log of the modified Bessel function of the second kind, K_nu(x).

    Safe where K itself would overflow or underflow double precision.
    """
    x = _require_positive_finite("log_bessel_k", x)
    return float(log_bessel_k_batch(nu, x))


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind, K_nu(x) = K_{-nu}(x).

    Raises OverflowError when the value exceeds the double range (small x
    combined with large |nu|).
    """
    log_value = log_bessel_k(nu, x)
    if log_value > _LOG_DBL_MAX:
        raise OverflowError(
            f"bessel_k({nu}, {x}) exceeds the double range "
            f"(log value {log_value:.6g})"
        )
    return math.exp(log_value)


