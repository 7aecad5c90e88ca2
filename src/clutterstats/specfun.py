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
  1e-13 in log over x in [1e-90, 1e18]; half-integer orders use the
  finite closed form.  ``log_bessel_k`` and ``bessel_k`` are its scalar
  forms.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._quad import adaptive_quad  # noqa: F401  bound for bench/tracing.py
from ._quad import log_trapezoid

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
    body = fact_m1 / y**m + fact_m / (2.0 * y ** (m + 1))
    z = 1.0 / (y * y)
    t = 1.0 / y ** (m + 2)  # 1/y^(2k + m) at k = 1
    for k, b in enumerate(_B2K, start=1):
        # R_k = (2k + m - 1)! / (2k)! as a float product
        r = 1.0
        for j in range(2 * k + 1, 2 * k + m):
            r *= j
        body += b * r * t
        t *= z
    sign = 1.0 if m % 2 == 1 else -1.0
    return sign * (acc + body)


def _half_integer_order(nu: float) -> int | None:
    n = abs(nu) - 0.5
    n_round = round(n)
    if abs(n - n_round) < 1e-12 and 0 <= n_round <= 30:
        return int(n_round)
    return None


def _log_bessel_k_half_integer(n: int, x: np.ndarray) -> np.ndarray:
    # K_{n+1/2}(x) = sqrt(pi/(2x)) e^-x sum_{k=0}^{n} (n+k)!/((n-k)! k! (2x)^k)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(n):
        term *= (n - k) * (n + k + 1) / ((k + 1) * 2.0 * x)
        total += term
    return 0.5 * np.log(math.pi / (2.0 * x)) - x + np.log(total)


def _bessel_exponent(d, nu, x, t_peak):
    # nu t - x cosh t at t = t_peak + d, less its peak value; the product
    # keeps the digits that cosh t - cosh t_peak loses once x > 1e16
    return nu * d - 2.0 * x * np.sinh(t_peak + 0.5 * d) * np.sinh(0.5 * d)


def log_bessel_k_batch(nu: float, x) -> np.ndarray:
    """log K_nu over an array of positive abscissas (shared order).

    K_nu(x) = 1/2 integral(exp(nu t - x cosh t), t over the real line).
    The exponent peaks at t* = asinh(nu/x) with curvature -hypot(x, nu);
    its strip of analyticity is |Im t| < pi/2.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if flat.size and (not np.all(np.isfinite(flat)) or np.any(flat <= 0.0)):
        raise ValueError("log_bessel_k_batch requires finite x > 0")
    nu = abs(float(nu))
    if not math.isfinite(nu):
        raise ValueError(f"log_bessel_k_batch requires finite order, got {nu!r}")
    n = _half_integer_order(nu)
    if n is not None:
        return _log_bessel_k_half_integer(n, flat).reshape(x.shape)
    t_peak = np.arcsinh(nu / flat)
    curvature = np.hypot(flat, nu)
    out = (nu * t_peak - curvature - math.log(2.0)
           + log_trapezoid(_bessel_exponent, 1.0 / np.sqrt(curvature),
                           0.5 * math.pi, nu, flat, t_peak))
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


