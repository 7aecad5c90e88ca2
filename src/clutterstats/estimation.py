"""Method-of-log-cumulants (MoLC) parameter estimation.

Empirical log statistics from sample batches, polygamma-system inversion
per family, and texture log-cumulant extraction through the additivity of
log-cumulants under the product model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .mellin import LogStats, cumulants_to_moments, moments_to_cumulants
from .sampling import SampleBatch
from .specfun import digamma, polygamma

__all__ = [
    "EmpiricalLogStats", "FitOptions", "FitResult",
    "ZeroSamplesError", "NonFiniteSamplesError", "TooFewSamplesError",
    "OutOfRangeError",
    "NoSolutionError", "SolverNonConvergenceError",
    "empirical_log_stats", "invert_polygamma", "fit_molc",
    "texture_log_cumulants",
]

_PSI1_AT_1 = digamma(1.0)            # -Euler constant
_TRIGAMMA_AT_1 = polygamma(1, 1.0)   # pi^2 / 6


class ZeroSamplesError(ValueError):
    """Log statistics are undefined for nonpositive samples."""

    def __init__(self, count: int):
        super().__init__(
            f"ZeroSamples: {count} sample(s) <= 0; log statistics are "
            "undefined (samples are rejected, not clamped)"
        )
        self.count = count


class NonFiniteSamplesError(ValueError):
    """Log statistics are undefined for infinite or NaN samples."""

    def __init__(self, count: int):
        super().__init__(
            f"NonFiniteSamples: {count} sample(s) are inf or nan; log "
            "statistics are undefined (samples are rejected, not dropped)"
        )
        self.count = count


class TooFewSamplesError(ValueError):
    pass


class OutOfRangeError(ValueError):
    """Target outside the range of the polygamma function."""


class NoSolutionError(ValueError):
    """The moment conditions are infeasible for the requested family."""


class SolverNonConvergenceError(RuntimeError):
    def __init__(self, message: str, last_iterate, residual: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


@dataclass(frozen=True)
class EmpiricalLogStats(LogStats):
    """LogStats plus split-batch standard errors of the cumulants."""
    std_errors: tuple[float, ...]
    n_samples: int


@dataclass(frozen=True)
class FitOptions:
    tolerance: float = 1e-10
    max_iterations: int = 200
    c_known: float | None = None   # WeibullNakagami: fix the speckle shape


@dataclass(frozen=True)
class FitResult:
    spec: dist.DistributionSpec
    iterations: int
    residual: float
    converged: bool


_N_SPLITS = 10


def empirical_log_stats(batch, n_max: int = 4) -> EmpiricalLogStats:
    """Empirical log-moments/log-cumulants with 10-way split standard errors.

    Accepts a SampleBatch or a plain array of positive values; requires at
    least 30 samples, raises NonFiniteSamplesError if any value is inf or
    nan and ZeroSamplesError if any value is <= 0.
    """
    values = batch.values if isinstance(batch, SampleBatch) else batch
    x = np.asarray(values, dtype=float).ravel()
    if not 1 <= int(n_max) <= 4:
        raise ValueError(f"n_max must be in [1, 4], got {n_max!r}")
    n_max = int(n_max)
    if x.size < 30:
        raise TooFewSamplesError(
            f"need at least 30 samples for log statistics, got {x.size}")
    bad = int(np.count_nonzero(~np.isfinite(x)))
    if bad:
        raise NonFiniteSamplesError(bad)
    bad = int(np.count_nonzero(x <= 0.0))
    if bad:
        raise ZeroSamplesError(bad)

    logs = np.log(x)
    powers = np.stack([logs ** n for n in range(1, n_max + 1)])
    moments = tuple(float(v) for v in powers.mean(axis=1))
    cumulants = tuple(moments_to_cumulants(moments))

    # standard errors from 10 consecutive equal splits (remainder dropped)
    chunk = x.size // _N_SPLITS
    split_k = np.empty((_N_SPLITS, n_max))
    for i in range(_N_SPLITS):
        part = powers[:, i * chunk:(i + 1) * chunk].mean(axis=1)
        split_k[i] = moments_to_cumulants(part)
    errors = tuple(float(v) for v in
                   split_k.std(axis=0, ddof=1) / math.sqrt(_N_SPLITS))
    return EmpiricalLogStats(moments, cumulants, errors, x.size)


def _invert_polygamma(order: int, target: float,
                      rel_tol: float = 1e-10) -> tuple[float, int]:
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool) \
            or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    m = int(order)
    target = float(target)
    sign = 1.0 if m % 2 == 1 else -1.0
    y = sign * target
    if not (y > 0.0) or not math.isfinite(y):
        lo, hi = ("0", "+inf") if sign > 0 else ("-inf", "0")
        raise OutOfRangeError(
            f"polygamma order {m} maps (0, inf) onto ({lo}, {hi}) "
            f"exclusively; target {target!r} is outside"
        )

    # brackets from both asymptotic regimes: |psi^(m)(x)| ~ (m-1)!/x^m for
    # large x and ~ m!/x^(m+1) for small x
    guess_hi = (math.factorial(m - 1) / y) ** (1.0 / m)
    guess_lo = (math.factorial(m) / y) ** (1.0 / (m + 1))
    lo = 0.5 * min(guess_lo, guess_hi)
    hi = 2.0 * max(guess_lo, guess_hi)
    f = lambda x: sign * polygamma(m, x) - y   # decreasing in x
    while f(lo) <= 0.0:
        lo *= 0.25
    while f(hi) >= 0.0:
        hi *= 4.0

    # residual gate relative to the target keeps the recovered x accurate
    # even in the flat large-x tail; the bracket-collapse exit guarantees
    # termination at the floating-point resolution of x
    tol = max(rel_tol * 0.01, 1e-14) * y
    x = math.sqrt(lo * hi)
    for iteration in range(1, 200):
        r = sign * polygamma(m, x) - y
        if abs(r) <= tol or (hi - lo) <= 1e-13 * lo:
            return x, iteration
        if r > 0.0:
            lo = x
        else:
            hi = x
        step = r / (sign * polygamma(m + 1, x))   # Newton on the monotone branch
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
    raise SolverNonConvergenceError(
        f"invert_polygamma({m}, {target}) did not converge", x,
        abs(sign * polygamma(m, x) - y))


def invert_polygamma(order: int, target: float) -> float:
    """x > 0 with psi^(order)(x) = target, to 1e-10 relative residual."""
    return _invert_polygamma(order, target)[0]


def _newton_2d(residual, jacobian, start, tol: float, max_iterations: int):
    """Damped 2-D Newton with positivity clamping by step halving."""
    x = np.asarray(start, dtype=float)
    r = np.asarray(residual(x), dtype=float)
    norm = float(np.max(np.abs(r)))
    for iteration in range(1, max_iterations + 1):
        if norm <= tol:
            return x, iteration - 1, norm
        try:
            step = np.linalg.solve(np.asarray(jacobian(x), dtype=float), -r)
        except np.linalg.LinAlgError:
            raise SolverNonConvergenceError(
                "singular Jacobian in the log-cumulant system", tuple(x), norm)
        scale = 1.0
        for _ in range(20):
            cand = x + scale * step
            if np.all(cand > 0.0):
                r_cand = np.asarray(residual(cand), dtype=float)
                cand_norm = float(np.max(np.abs(r_cand)))
                if cand_norm < norm or cand_norm <= tol:
                    x, r, norm = cand, r_cand, cand_norm
                    break
            scale *= 0.5
        else:
            raise SolverNonConvergenceError(
                "damping failed to reduce the residual", tuple(x), norm)
    raise SolverNonConvergenceError(
        f"no convergence in {max_iterations} iterations", tuple(x), norm)


def _need_orders(stats: LogStats, n: int, family: str) -> None:
    if stats.order < n:
        raise ValueError(
            f"{family} estimation needs log-cumulants up to order {n}, "
            f"got {stats.order}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise NoSolutionError(message)


def fit_molc(family: str, stats: LogStats,
             options: FitOptions | None = None) -> FitResult:
    """Estimate family parameters by matching analytic log-cumulants.

    ``family`` is a catalog tag (gamma, nakagami, maxwell, weibull,
    rayleigh, ggamma, k, wnak, fisher).  Raises NoSolutionError for
    infeasible moment conditions and SolverNonConvergenceError (with the
    last iterate) if the polygamma system does not converge.
    """
    opts = options or FitOptions()
    if family not in dist.FAMILY_TAGS:
        raise ValueError(f"unknown family {family!r}; expected one of "
                         f"{sorted(dist.FAMILY_TAGS)}")
    k = stats.log_cumulants
    k1 = k[0]

    if family == "gamma":
        _need_orders(stats, 2, family)
        _require(k[1] > 0.0, "second log-cumulant must be positive")
        L, iters = _invert_polygamma(1, k[1], opts.tolerance)
        mu = L * math.exp(k1 - digamma(L))
        return FitResult(dist.GammaPower(L, mu), iters,
                         abs(polygamma(1, L) - k[1]), True)

    if family == "nakagami":
        _need_orders(stats, 2, family)
        _require(k[1] > 0.0, "second log-cumulant must be positive")
        L, iters = _invert_polygamma(1, 4.0 * k[1], opts.tolerance)
        mu = math.sqrt(L) * math.exp(k1 - 0.5 * digamma(L))
        return FitResult(dist.Nakagami(L, mu), iters,
                         abs(0.25 * polygamma(1, L) - k[1]), True)

    if family == "maxwell":
        sigma = math.sqrt(0.5 * math.exp(2.0 * k1 - digamma(1.5)))
        return FitResult(dist.Maxwell(sigma), 0, 0.0, True)

    if family == "weibull":
        _need_orders(stats, 2, family)
        _require(k[1] > 0.0, "second log-cumulant must be positive")
        b = math.sqrt(_TRIGAMMA_AT_1 / k[1])
        z = math.exp(k1 - _PSI1_AT_1 / b)
        return FitResult(dist.Weibull(z, b), 0,
                         abs(_TRIGAMMA_AT_1 / b**2 - k[1]), True)

    if family == "rayleigh":
        z = math.exp(k1 - 0.5 * _PSI1_AT_1)
        return FitResult(dist.Rayleigh(z), 0, 0.0, True)

    if family == "k":
        _need_orders(stats, 2, family)
        target = 4.0 * k[1] - _TRIGAMMA_AT_1
        _require(target > 0.0,
                 "4 k_2 <= trigamma(1): at or below the Rayleigh limit "
                 "(texture shape alpha -> infinity)")
        alpha, iters = _invert_polygamma(1, target, opts.tolerance)
        b = math.exp(digamma(alpha) + _PSI1_AT_1 - 2.0 * k1)
        return FitResult(dist.KAmplitude(alpha, b), iters,
                         abs(polygamma(1, alpha) - target), True)

    if family == "ggamma":
        return _fit_ggamma(stats, opts)
    if family == "fisher":
        return _fit_fisher(stats, opts)
    if family == "wnak":
        return _fit_wnak(stats, opts)
    raise AssertionError(f"unhandled family {family}")


def _fit_ggamma(stats: LogStats, opts: FitOptions) -> FitResult:
    _need_orders(stats, 3, "ggamma")
    k1, k2, k3 = stats.log_cumulants[:3]
    _require(k2 > 0.0, "second log-cumulant must be positive")
    _require(k3 < 0.0, "third log-cumulant must be negative for ggamma")
    x_sym = invert_polygamma(1, 0.5 * k2)
    tol = opts.tolerance * max(1.0, abs(k2), abs(k3))

    # the (L, M) system is symmetric; the symmetric point maximizes k3
    sym_gap = 2.0 * polygamma(2, x_sym) - k3
    if abs(sym_gap) <= tol:
        L = M = x_sym
        iters = 0
    else:
        _require(sym_gap > 0.0,
                 "third log-cumulant above the symmetric bound: no real "
                 "(L, M) pair matches (k_2, k_3)")

        def residual(v):
            return (polygamma(1, v[0]) + polygamma(1, v[1]) - k2,
                    polygamma(2, v[0]) + polygamma(2, v[1]) - k3)

        def jacobian(v):
            return ((polygamma(2, v[0]), polygamma(2, v[1])),
                    (polygamma(3, v[0]), polygamma(3, v[1])))

        # start on the k2 constraint with the symmetry already broken;
        # L must stay above the bound where psi'(L) alone exhausts k2
        L_min = invert_polygamma(1, k2)
        L0 = 0.5 * (L_min + x_sym)
        M0 = invert_polygamma(1, k2 - polygamma(1, L0))
        (L, M), iters, _ = _newton_2d(residual, jacobian, (L0, M0), tol,
                                      opts.max_iterations)
    if L > M:
        L, M = M, L
    mu = L * M * math.exp(k1 - digamma(L) - digamma(M))
    res = max(abs(polygamma(1, L) + polygamma(1, M) - k2),
              abs(polygamma(2, L) + polygamma(2, M) - k3))
    return FitResult(dist.GammaGamma(L, M, mu), iters, res, res <= tol)


def _fit_fisher(stats: LogStats, opts: FitOptions) -> FitResult:
    _need_orders(stats, 3, "fisher")
    k1, k2, k3 = stats.log_cumulants[:3]
    _require(k2 > 0.0, "second log-cumulant must be positive")
    shape_min = invert_polygamma(1, k2)
    _require(abs(k3) < abs(polygamma(2, shape_min)),
             "third log-cumulant outside the feasible band "
             f"(|k_3| < {abs(polygamma(2, shape_min)):.6g} for this k_2)")
    tol = opts.tolerance * max(1.0, abs(k2), abs(k3))
    x_sym = invert_polygamma(1, 0.5 * k2)

    def residual(v):
        return (polygamma(1, v[0]) + polygamma(1, v[1]) - k2,
                polygamma(2, v[0]) - polygamma(2, v[1]) - k3)

    def jacobian(v):
        return ((polygamma(2, v[0]), polygamma(2, v[1])),
                (polygamma(3, v[0]), -polygamma(3, v[1])))

    (L, M), iters, res = _newton_2d(residual, jacobian, (x_sym, x_sym), tol,
                                    opts.max_iterations)
    mu = math.exp(k1 - digamma(L) + math.log(L) + digamma(M) - math.log(M))
    return FitResult(dist.Fisher(L, M, mu), iters, res, res <= tol)


def _fit_wnak(stats: LogStats, opts: FitOptions) -> FitResult:
    k = stats.log_cumulants
    k1 = k[0]
    if opts.c_known is not None:
        _need_orders(stats, 2, "wnak")
        c = float(opts.c_known)
        if not (c > 0.0 and math.isfinite(c)):
            raise ValueError(f"c_known must be positive, got {opts.c_known!r}")
        target = 4.0 * (k[1] - _TRIGAMMA_AT_1 / c**2)
        _require(target > 0.0,
                 "k_2 <= trigamma(1)/c^2: no texture variance left for alpha")
        alpha, iters = _invert_polygamma(1, target, opts.tolerance)
        res = abs(polygamma(1, alpha) - target)
        converged = True
    else:
        _need_orders(stats, 3, "wnak")
        k2, k3 = k[1], k[2]
        _require(k2 > 0.0, "second log-cumulant must be positive")
        tol = opts.tolerance * max(1.0, abs(k2), abs(k3))
        c, alpha, iters = _solve_wnak_shapes(stats, k2, k3)
        res = max(abs(_TRIGAMMA_AT_1 / c**2 + 0.25 * polygamma(1, alpha) - k2),
                  abs(polygamma(2, 1.0) / c**3 + 0.125 * polygamma(2, alpha) - k3))
        converged = res <= tol
    b = math.exp(2.0 * (_PSI1_AT_1 / c + 0.5 * digamma(alpha) - k1))
    return FitResult(dist.WeibullNakagami(c, alpha, b), iters, res, converged)


def _solve_wnak_shapes(stats: LogStats, k2: float,
                       k3: float) -> tuple[float, float, int]:
    """All (c, alpha) pairs matching (k_2, k_3) lie on the 1-D constraint
    curve alpha(c); the third-order condition can have several roots there
    (the pair is not always identifiable from two cumulant orders), so the
    curve is scanned and bracketed roots are bisected.  With a fourth
    cumulant available the closest-matching root wins, otherwise the
    smallest speckle shape is reported.
    """
    c_min = math.sqrt(_TRIGAMMA_AT_1 / k2)

    def alpha_of(c: float) -> float:
        return invert_polygamma(1, 4.0 * (k2 - _TRIGAMMA_AT_1 / c**2))

    def third_gap(tau: float) -> float:
        # tau = c_min / c maps c in (c_min, inf) onto (0, 1)
        c = c_min / tau
        return (polygamma(2, 1.0) / c**3
                + 0.125 * polygamma(2, alpha_of(c)) - k3)

    taus = np.linspace(1e-9, 1.0 - 1e-9, 601)
    gaps = np.array([third_gap(t) for t in taus])
    evaluations = taus.size
    roots: list[tuple[float, float]] = []
    for i in np.flatnonzero(np.sign(gaps[:-1]) * np.sign(gaps[1:]) < 0):
        lo, hi = float(taus[i]), float(taus[i + 1])
        g_lo = float(gaps[i])
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            g_mid = third_gap(mid)
            evaluations += 1
            if g_lo * g_mid <= 0.0:
                hi = mid
            else:
                lo, g_lo = mid, g_mid
            if hi - lo < 1e-14:
                break
        tau = 0.5 * (lo + hi)
        c = c_min / tau
        roots.append((c, alpha_of(c)))
    if not roots:
        raise NoSolutionError(
            "no (c, alpha) pair matches (k_2, k_3) for the Weibull-Nakagami "
            "family")
    if len(roots) > 1 and stats.order >= 4:
        k4 = stats.log_cumulants[3]
        roots.sort(key=lambda ca: abs(polygamma(3, 1.0) / ca[0]**4
                                      + 0.0625 * polygamma(3, ca[1]) - k4))
    else:
        roots.sort(key=lambda ca: ca[0])
    c, alpha = roots[0]
    return c, alpha, evaluations


def texture_log_cumulants(data_stats: LogStats,
                          speckle: dist.DistributionSpec) -> LogStats:
    """Texture log-cumulants by additivity: k_n(texture) = k_n(data) -
    k_n(speckle), with the speckle cumulants taken analytically.

    ``speckle`` must be a simple family; by convention it carries unit mean
    scale so the texture keeps the physical scale of the data.  Standard
    errors, when present on ``data_stats``, carry over unchanged (the
    subtraction is deterministic).
    """
    if dist.components(speckle) is not None:
        raise ValueError(
            f"speckle must be a simple family, got {dist.family_tag(speckle)}")
    n = data_stats.order
    speckle_k = dist.log_cumulants_analytic(speckle, n)
    cumulants = tuple(a - b for a, b in zip(data_stats.log_cumulants, speckle_k))
    moments = tuple(cumulants_to_moments(cumulants))
    if isinstance(data_stats, EmpiricalLogStats):
        return EmpiricalLogStats(moments, cumulants, data_stats.std_errors,
                                 data_stats.n_samples)
    return LogStats(moments, cumulants)
