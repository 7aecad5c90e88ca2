"""Method-of-log-cumulants (MoLC) parameter estimation.

Empirical log statistics from arrays of draws, one fit for every family
read off its canonical Mellin form, and texture log-cumulant extraction
through the additivity of log-cumulants under the product model, less the
log-cumulants of a known speckle that ``known_speckle`` builds.

Each entry of a form (the scale, each a_i and each |c_i|) is a monomial in
the family's fields, so probing the form with each field at 1 and at 2
shows which field owns which entry.  The d shape entries some field owns
(0, 1 or 2) match k_2..k_(d+1) through k_n = sum_i c_i^n psi^(n-1)(a_i),
whose terms come from ``distributions.term_log_cumulant``; k_1 fixes the
scale, and one linear solve in logs gives the fields.
One bracketed root finder, with no derivative, inverts trigamma (in
log x, inside a bracket in closed form) and refines the two-shape roots.
It takes arrays of brackets and runs them in lockstep, as does the
two-shape scan: the 601 points of the k_2 curve, their trigamma
inversions and k_3 terms are one array pass, and each refinement step is
one more pass over the brackets still open.  Its settings are constants:
relative tolerance 1e-10 for the trigamma inversions and for the
residual of a converged fit, and brackets close at 1e-15 relative width.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import distributions as dist
from ._quad import LOG_DBL_MAX
from .mellin import LogStats, cumulants_to_moments, moments_to_cumulants
from .specfun import check_order, polygamma

__all__ = [
    "EmpiricalLogStats", "FitResult", "EstimationError",
    "ZeroSamplesError", "NonFiniteSamplesError", "TooFewSamplesError",
    "OutOfRangeError",
    "NoSolutionError", "SolverNonConvergenceError",
    "empirical_log_stats", "check_fit", "fit_molc",
    "known_speckle", "texture_log_cumulants",
]


class EstimationError(ValueError):
    """Base of the failures that make the data unfit for an estimate: the
    CLI reports each as an estimation error (exit 3)."""


class _RejectedSamplesError(EstimationError):
    """``count`` samples rejected for log statistics; ``_message`` says why."""

    def __init__(self, count: int):
        super().__init__(self._message.format(count))
        self.count = count


class ZeroSamplesError(_RejectedSamplesError):
    """Log statistics are undefined for nonpositive samples."""
    _message = ("ZeroSamples: {} sample(s) <= 0; log statistics are "
                "undefined (samples are rejected, not clamped)")


class NonFiniteSamplesError(_RejectedSamplesError):
    """Log statistics are undefined for infinite or NaN samples."""
    _message = ("NonFiniteSamples: {} sample(s) are inf or nan; log "
                "statistics are undefined (samples are rejected, not dropped)")


class TooFewSamplesError(EstimationError):
    pass


class OutOfRangeError(EstimationError):
    """Target outside the range of the trigamma function, or a fitted
    field outside the doubles."""


class NoSolutionError(EstimationError):
    """The moment conditions are infeasible for the requested family."""


class SolverNonConvergenceError(EstimationError):
    """The root finder ran out of steps; the message names its last
    iterate and residual, which it also keeps as attributes."""

    def __init__(self, message: str, last_iterate, residual: float):
        super().__init__(f"{message}; last iterate {last_iterate}, "
                         f"residual {residual:.3e}")
        self.last_iterate = last_iterate
        self.residual = residual


@dataclass(frozen=True)
class EmpiricalLogStats(LogStats):
    """LogStats plus split-batch standard errors of the cumulants."""
    std_errors: tuple[float, ...]
    n_samples: int


@dataclass(frozen=True)
class FitResult:
    """A fitted law.  ``iterations`` counts the root finder's evaluations
    in the trigamma inversion for one free shape and the k_2-curve points
    evaluated for two; ``alternatives`` are the other distinct laws that
    match the same log-cumulants, in rank order.  ``converged`` says the
    fitted k_2..k_(d+1) are within 1e-10 of the data's (``residual`` is
    the largest gap), not how well the fields are fixed: at a tangent
    root (ggamma at L = M) the shapes hold to about 1e-7 relative, and
    noiseless GammaGamma(12, 12, 1.3) fits L = 11.999998522979782."""
    spec: dist.DistributionSpec
    iterations: int
    residual: float
    converged: bool
    alternatives: tuple[dist.DistributionSpec, ...] = ()


_N_SPLITS = 10
_REL_TOL = 1e-10   # trigamma inversions, and the fit's residual gate


def empirical_log_stats(values, n_max: int = 4) -> EmpiricalLogStats:
    """Empirical log-moments/log-cumulants with 10-way split standard errors.

    Takes an array of positive values (a batch's ``.values``); requires at
    least 30 samples, raises NonFiniteSamplesError if any value is inf or
    nan and ZeroSamplesError if any value is <= 0.

    It holds two arrays of the sample's size whatever ``n_max`` is: first
    the input (or a float copy of non-float input) and its logs, then the
    logs and one buffer that takes each power in turn.  It drops its own
    references to the input once the logs exist, so an input that only
    the call holds (``empirical_log_stats(sample(...).values)``) is freed
    before the buffer is allocated.
    """
    x = np.asarray(values, dtype=float).ravel()
    n_max = check_order(n_max, "empirical_log_stats")
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
    del values, x
    buf = np.empty_like(logs)
    # row 0 is all the draws; standard errors come from rows 1..10, the
    # consecutive equal splits (remainder dropped).  Each power is reduced
    # before the next one overwrites the buffer.
    chunk = logs.size // _N_SPLITS
    means = np.empty((1 + _N_SPLITS, n_max))
    for n in range(1, n_max + 1):
        # the loops that ``logs ** n`` runs: a copy, square, then pow
        power = logs if n == 1 else np.square(logs, out=buf) if n == 2 \
            else np.power(logs, n, out=buf)
        means[0, n - 1] = power.mean()
        means[1:, n - 1] = power[:_N_SPLITS * chunk].reshape(
            _N_SPLITS, chunk).mean(axis=1)
    all_k = moments_to_cumulants(means)
    moments = tuple(means[0].tolist())
    cumulants = tuple(all_k[0].tolist())
    split_k = all_k[1:]
    errors = tuple(float(v) for v in
                   split_k.std(axis=0, ddof=1) / math.sqrt(_N_SPLITS))
    return EmpiricalLogStats(moments, cumulants, errors, logs.size)


_LOG_DOUBLES = (math.log(math.ulp(0.0)), LOG_DBL_MAX)
_BRACKET_WIDTH = 1e-15   # _root closes a bracket this narrow, relative


def _root(f, lo, hi, f_lo, f_hi, tol: float):
    """A root of f in each bracket [lo, hi], where f(lo) = f_lo and
    f(hi) = f_hi differ in sign, and the evaluations it took: regula falsi
    that halves the value at an end kept twice in a row (Illinois; Dowell &
    Jarratt, BIT 11, 1971) and bisects where the secant leaves the bracket.
    A bracket stops at |f| <= tol, an end where f is 0, or ends
    ``_BRACKET_WIDTH`` * max|end| apart.  All brackets run in lockstep:
    f is called as ``f(x, lanes)`` on the open brackets' points and
    indices, and the roots and counts come back as arrays."""
    swap = np.abs(f_lo) < np.abs(f_hi)
    a, f_a = np.where(swap, hi, lo), np.where(swap, f_hi, f_lo)
    b, f_b = np.where(swap, lo, hi), np.where(swap, f_lo, f_hi)
    # a, b, ... hold the open brackets only; a closed one leaves its root
    # and its count of evaluations behind
    roots, steps = b.copy(), np.zeros(b.shape, dtype=int)
    lanes = np.arange(b.size)
    for step in range(101):
        with np.errstate(all="ignore"):   # inf and nan, as floats give
            span = b - a
            done = (np.abs(f_b) <= tol) | (np.abs(span) <= _BRACKET_WIDTH
                                            * np.maximum(np.abs(a), np.abs(b)))
            if done.any():
                roots[lanes[done]], steps[lanes[done]] = b[done], step
                lanes, a, f_a, b, f_b, span = (
                    v[~done] for v in (lanes, a, f_a, b, f_b, span))
            if not lanes.size:
                break
            c = b - f_b * span / (f_b - f_a)
            c = np.where((c - a) * (c - b) < 0.0, c, 0.5 * (a + b))
        f_c = f(c, lanes)
        # strictly opposite signs (f_c * f_b can underflow, or be 0 * inf)
        flip = np.sign(f_c) * np.sign(f_b) < 0.0
        a, f_a = np.where(flip, b, a), np.where(flip, f_b, 0.5 * f_a)
        b, f_b = c, f_c
    else:
        raise SolverNonConvergenceError("no root in 100 steps", float(b[0]),
                                        float(abs(f_b[0])))
    return roots, steps


def _invert_trigamma(target) -> tuple[np.ndarray, np.ndarray]:
    """x > 0 with psi'(x) = target for each of an array of targets, and
    the root finder's evaluations for each: one lockstep ``_root``."""
    y = np.array(target, dtype=float, ndmin=1)
    bad = np.flatnonzero(~((0.0 < y) & (y < math.inf)))
    if bad.size:                       # the first lane that fails
        raise OutOfRangeError("polygamma order 1 is finite, of sign +1; "
                              f"target {float(y[bad[0]])!r} is not")

    # psi'(x) = sum_k (x + k)^-2 is between max(1/x, 1/x^2) (its integral
    # and first term) and their sum, so the root is in [r, 2r] for
    # r = max(1/y, 1/sqrt(y)).  In u = log x, widened 2x for rounding,
    # clamped:
    log_y = np.log(y)
    log_r = np.maximum(-log_y, -log_y / 2)
    lo, hi = (np.clip(u, *_LOG_DOUBLES)
              for u in (log_r - math.log(2.0), log_r + math.log(4.0)))

    def gap(u, lanes):                 # nearly linear, slope -1 to -2
        with np.errstate(divide="ignore"):   # log 0 = -inf: too far out
            return np.log(polygamma(1, np.exp(u))) - log_y[lanes]

    lanes = np.arange(y.size)          # both ends of every bracket at once
    f_lo, f_hi = np.split(gap(np.concatenate([lo, hi]), np.tile(lanes, 2)), 2)
    bad = np.flatnonzero(~((f_lo >= 0.0) & (0.0 >= f_hi)))
    if bad.size:
        raise OutOfRangeError(f"polygamma order 1 takes {float(y[bad[0]])!r}"
                              " only at an x outside the double range")
    u, steps = _root(gap, lo, hi, f_lo, f_hi, _REL_TOL * 0.01)
    return np.exp(u), steps


def _entries(form) -> list[float]:
    """[scale, a_0, c_0, a_1, c_1, ...]: a_i at 2i + 1, c_i at 2i + 2."""
    return [form.scale, *(v for term in form.terms for v in term)]


class _Layout(NamedTuple):
    """A family's form as monomials in its fields: at fields f, entry j is
    ``ref[j] * prod(f ** powers[j])``.  ``spec`` has every field at 1;
    ``shapes`` are the shape entries that some field owns."""
    spec: dist.DistributionSpec
    names: list[str]
    ref: list[float]
    powers: np.ndarray
    shapes: list[int]


def _layout(cls: type) -> _Layout:
    """Probe the form with every field at 1, then with each field at 2."""
    names = [f.name for f in fields(cls)]
    point = dict.fromkeys(names, 1.0)
    ref = _entries(dist._mellin_form(cls(**point)))
    powers = np.array([[math.log2(p / r) for p, r in zip(_entries(
        dist._mellin_form(cls(**{**point, n: 2.0}))), ref)] for n in names]).T
    shapes = [j for j in range(1, len(ref)) if powers[j].any()]
    return _Layout(cls(**point), names, ref, powers, shapes)


def known_speckle(family: str,
                  params: dict[str, float]) -> dist.DistributionSpec:
    """The simple family ``family`` with ``params`` as a known speckle: a
    compound family is refused before its fields are asked for, and each
    field that enters only the form's scale (gamma mu, weibull z, maxwell
    sigma) is 1 unless given, the unit scale of ``dist.components``."""
    layout = _layout(dist._family_class(family))
    dist.check_simple(layout.spec, "speckle")
    unit = {n: 1.0 for n, column in zip(layout.names, layout.powers.T)
            if not column[1:].any()}
    return dist.make_spec(family, {**unit, **params})


def _term_k(e: list[float], j: int, n: int) -> float:
    """The part of k_n from the term (a, c) that entry j belongs to."""
    i = j - (j - 1) % 2
    return dist.term_log_cumulant(e[i], e[i + 1], n)


def _k(e: list[float], n: int) -> float:
    """k_n of the terms of e, less log(scale) at n = 1."""
    return sum(dist.term_log_cumulant(a, c, n)
               for a, c in zip(e[1::2], e[2::2]))


def _solve_entry(e: list, j: int, target) -> tuple[np.ndarray, np.ndarray]:
    """Entry j whose term gives each of an array of targets > 0 of k_2, and
    the root finder's evaluations for each: a trigamma inversion for an
    a, closed form for a c."""
    i, target = j - (j - 1) % 2, np.array(target, dtype=float, ndmin=1)
    if j == i:
        with np.errstate(over="ignore"):   # inf: out of trigamma's range
            y = target / e[i + 1] ** 2
        return _invert_trigamma(y)
    return (np.copysign(np.sqrt(target / polygamma(1, e[i])), e[j]),
            np.zeros(target.shape, dtype=int))


def _lanes(e: list, lanes) -> list:
    """The entries of e at some lanes: an array entry indexed, a float kept."""
    return [v[lanes] if isinstance(v, np.ndarray) else v for v in e]


def _same_law(p: list[float], q: list[float]) -> bool:
    """Equal sorted terms (the scale then follows from k_1)."""
    return np.allclose(sorted(zip(p[1::2], p[2::2])),
                       sorted(zip(q[1::2], q[2::2])), rtol=1e-6, atol=0.0)


_SCAN = np.linspace(1e-9, 1.0 - 1e-9, 601)
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def _scan_roots(e: list[float], shapes: list[int], excess: float, k,
                tol: float) -> tuple[list[list[float]], int]:
    """Every pair of free entries on the k_2 curve that matches k_3, in rank
    order, and the number of curve points evaluated.

    The first free entry takes a share of ``excess`` that grows with tau in
    (0, 1): an a is ``lim / tau``, a c is ``lim * tau``, where ``lim`` takes
    all of it; the second entry takes the rest.  ``_root`` refines each
    sign change of the k_3 gap over a grid of tau.  Where |gap| dips
    between grid points without a sign change, golden section finds the
    dip's extremum: a sign change there brackets a close pair of roots,
    and |gap| <= tol there is a tangent root (ggamma at L = M).  A finite
    gap within 8 ulp of the sum of |k_3| and its terms' magnitudes is
    rounding noise and has no sign (at k_2 below about 1e-160 the terms
    are subnormal): it brackets nothing, and each run of such grid
    points is one root, at the run's middle point.  A dip must be deeper
    than that noise on both sides.

    ``point`` takes an array of tau and inverts trigamma for all of their
    second entries in lockstep.  The grid is one call; the dips' golden
    sections and the brackets' ``_root`` make one call per step for all
    dips or brackets still open, and the roots' entries one more.
    """
    j1, j2 = shapes
    power = 1 if j1 % 2 == 0 else -1
    lim = float(_solve_entry(e, j1, excess)[0][0])
    evaluations = 0

    def point(tau: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
        """The entries at each tau, their k_3 gaps and the gaps' noise
        bounds."""
        nonlocal evaluations
        evaluations += tau.size
        p = list(e)
        gap, noise = np.full(tau.shape, math.nan), np.zeros(tau.shape)
        # past the doubles, lim / tau is no point of the curve, and a k_2
        # or k_3 term (c^2, c^3 of a finite c) rounds to inf: no root
        with np.errstate(over="ignore"):
            p[j1] = lim * tau ** power
            on = np.flatnonzero(p[j1] < math.inf)
            q = _lanes(p, on)
            rest = excess - _term_k(q, j1, 2)
        keep = rest > 0.0              # rounding at the end of the curve
        on, q, rest = on[keep], _lanes(q, keep), rest[keep]
        q[j2] = _solve_entry(q, j2, rest)[0]
        p[j2] = np.full(tau.shape, e[j2])
        p[j2][on] = q[j2]
        # terms of inf and -inf: a nan gap, which is no point of the curve
        with np.errstate(over="ignore", invalid="ignore"):
            terms = [dist.term_log_cumulant(a, c, 3)
                     for a, c in zip(q[1::2], q[2::2])]
            noise[on] = 8.0 * np.spacing(sum(map(abs, terms)) + abs(k[2]))
            gap[on] = sum(terms) - k[2]
        return p, gap, noise

    def extremum(lo: np.ndarray, hi: np.ndarray,
                 sign: np.ndarray) -> np.ndarray:
        """Golden section on sign * gap in each (lo, hi), in lockstep."""
        lo, hi = lo.copy(), hi.copy()
        while (live := np.flatnonzero(hi - lo > 1e-12 * hi)).size:
            a, b = lo[live], hi[live]
            x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
            g = sign[live] * np.split(point(np.concatenate([x1, x2]))[1], 2)
            lo[live], hi[live] = np.where(g[0] < g[1], x1, a), np.where(
                g[0] < g[1], b, x2)
        return 0.5 * (lo + hi)

    gaps, noise = point(_SCAN)[1:]
    size = np.abs(gaps)
    unsigned = np.isfinite(gaps) & (size <= noise)
    signs = np.where(unsigned, 0.0, np.sign(gaps))
    cross = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    brackets = [(_SCAN[cross], _SCAN[cross + 1], gaps[cross], gaps[cross + 1])]
    edges = np.flatnonzero(np.diff(unsigned.astype(np.int8), prepend=0,
                                   append=0))
    taus = [_SCAN[(edges[::2] + edges[1::2] - 1) // 2]]
    with np.errstate(over="ignore"):   # a dip must clear the noise
        floor = size[1:-1] + noise[1:-1]
    dips = 1 + np.flatnonzero((floor < size[:-2]) & (floor < size[2:])
                              & (signs[1:-1] != 0.0)
                              & (signs[:-2] == signs[1:-1])
                              & (signs[1:-1] == signs[2:]))
    if dips.size:
        lo, hi, sign = _SCAN[dips - 1], _SCAN[dips + 1], signs[dips]
        tau = extremum(lo, hi, -sign)
        gap = point(tau)[1]
        pair = gap * sign < 0.0        # each side of tau brackets a root
        brackets += [(lo[pair], tau[pair], gaps[dips - 1][pair], gap[pair]),
                     (tau[pair], hi[pair], gap[pair], gaps[dips + 1][pair])]
        taus.append(tau[~pair & (np.abs(gap) <= tol)])
    taus.append(_root(lambda tau, _: point(tau)[1],
                      *map(np.concatenate, zip(*brackets)), 0.0)[0])

    # the first free term's largest share first: the smallest speckle
    # shape, and L <= M for mirrored ggamma roots
    taus = np.sort(np.concatenate(taus))[::-1]
    distinct: list[list[float]] = []
    entries = point(taus)[0]
    for lane in range(taus.size):
        p = [float(v) for v in _lanes(entries, lane)]
        if not any(_same_law(p, q) for q in distinct):
            distinct.append(p)
    if len(k) > 3:
        distinct.sort(key=lambda p: abs(_k(p, 4) - k[3]))
    return distinct, evaluations


def _spec_of(layout: _Layout, e: list[float], k1: float):
    """The family member with the shape entries of e and the scale that
    matches k_1: one linear solve in the logs of its fields."""
    log_scale = k1 - _k(e, 1)
    rhs = [log_scale - math.log(layout.ref[0])]
    rhs += [math.log(e[j] / layout.ref[j]) for j in layout.shapes]
    logs = np.linalg.solve(layout.powers[[0, *layout.shapes]], rhs)
    values = {}
    for name, v in zip(layout.names, logs.tolist()):
        values[name] = math.exp(v) if v <= _LOG_DOUBLES[1] else math.inf
        if not 0.0 < values[name] < math.inf:
            raise ValueError(
                f"the fitted {type(layout.spec).__name__}.{name} is "
                f"exp({v:.6g}), outside the double range")
    return dataclasses.replace(layout.spec, **values)


def check_fit(family: str, order: int) -> _Layout:
    """The checks ``fit_molc(family, stats)`` makes before it reads
    statistics of this order: a ValueError for an unknown family or for an
    order below d + 1, d the family's free shapes.  Returns the layout the
    fit solves."""
    layout = _layout(dist._family_class(family))
    d = len(layout.shapes)
    if order < d + 1:
        raise ValueError(
            f"{family} estimation needs log-cumulants up to order {d + 1}, "
            f"got {order}")
    return layout


def fit_molc(family: str, stats: LogStats) -> FitResult:
    """Estimate family parameters by matching analytic log-cumulants.

    ``family`` is a catalog tag (``distributions.FAMILY_TAGS``); a known
    speckle's texture is fit from ``texture_log_cumulants``.  The d free
    shapes of its form match k_2..k_(d+1) and k_1 fixes the scale.  Raises
    NoSolutionError for infeasible moment conditions,
    SolverNonConvergenceError (with the last iterate) if a trigamma
    inversion does not converge, and OutOfRangeError ``<family> fit:
    <reason>`` for a fitted law outside the doubles.
    """
    layout = check_fit(family, stats.order)
    shapes, d = layout.shapes, len(layout.shapes)
    k = stats.log_cumulants
    tol = _REL_TOL * max([1.0, *(abs(v) for v in k[1:d + 1])])
    roots, iterations = [list(layout.ref)], 0
    if d:
        e = roots[0]
        fixed = [i for i in range(1, len(e), 2)
                 if i not in {j - (j - 1) % 2 for j in shapes}]
        excess = k[1] - sum(_term_k(e, i, 2) for i in fixed)
        if not excess > 0.0 and fixed:
            speckle = dist.components(layout.spec)[0]
            raise NoSolutionError(
                f"k_2 = {k[1]:.6g} is at or below {k[1] - excess:.6g}, the "
                f"part the {type(speckle).__name__} speckle carries alone")
        if not excess > 0.0:
            raise NoSolutionError("second log-cumulant must be positive")
        if d == 1:
            value, steps = _solve_entry(e, shapes[0], excess)
            e[shapes[0]], iterations = float(value[0]), int(steps[0])
        else:
            roots, iterations = _scan_roots(e, shapes, excess, k, tol)
        if not roots:
            raise NoSolutionError(f"no {family} law matches (k_2, k_3)")
    try:   # a field, the form's scale or a k_n past the doubles
        specs = [_spec_of(layout, e, k[0]) for e in roots]
        fitted = dist.log_cumulants_analytic(specs[0], d + 1)
    except (OverflowError, ValueError) as exc:
        raise OutOfRangeError(f"{family} fit: {exc}") from None
    residual = max((abs(a - b) for a, b in zip(fitted[1:], k[1:])),
                   default=0.0)
    return FitResult(specs[0], iterations, residual, residual <= tol,
                     tuple(specs[1:]))


def texture_log_cumulants(data_stats: LogStats,
                          speckle: dist.DistributionSpec) -> LogStats:
    """Texture log-cumulants by additivity: k_n(texture) = k_n(data) -
    k_n(speckle), with the speckle cumulants taken analytically.

    ``speckle`` is a simple family (``dist.check_simple``); by convention
    it carries unit mean scale so the texture keeps the physical scale of
    the data.  Standard errors, when present on ``data_stats``, carry over
    unchanged (the subtraction is deterministic).
    """
    dist.check_simple(speckle, "speckle")
    n = data_stats.order
    speckle_k = dist.log_cumulants_analytic(speckle, n)
    cumulants = tuple(a - b for a, b in zip(data_stats.log_cumulants, speckle_k))
    moments = tuple(cumulants_to_moments(cumulants))
    return dataclasses.replace(data_stats, log_moments=moments,
                               log_cumulants=cumulants)
