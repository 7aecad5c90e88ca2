"""Independent numerical ground truth for the analytic catalog.

Quadrature-based Mellin transforms and log-moments for arbitrary densities
on (0, inf), and the moment/cumulant algebra.  The engine takes a density
as a plain function and knows no family of the catalog; ``verify`` holds
the checks that compare it with the closed forms.

The algebra holds at every order up to ``specfun.MAX_ORDER`` through one
partition sum: moments from cumulants are complete Bell polynomials, and
cumulants from moments the same sums with weights (-1)^(b-1) (b-1)! for b
parts (Kendall & Stuart, The Advanced Theory of Statistics, Vol. 1).
Each direction's table of partitions is built on its first call, not at
import.  Both directions take a stack of vectors as well as one vector,
and work along the last axis in one pass.  Every power in them is
Python's float power (libm ``pow``), so each row of a stack keeps the
bits it has alone.  Central moments come from the binomial shift.  One
helper, ``_power``, takes every power of the algebra and the shift, and
names the order and the entry when a power leaves the doubles.

Every improper integral is evaluated after the substitution x = e^t, which
makes the integrand doubly-exponentially decaying for all catalog families
and turns log-power weights into plain polynomials:

    integral x^(s-1) (log x)^n f(x) dx  =  integral t^n e^(s t) f(e^t) dt

Every quadrature here is one vector-valued pass: the rows t^n e^(s t)
f(e^t) for all the (s, n) wanted share one window scan and one GK15
subdivision of the window's panels (``_quad.adaptive_quad``), and the
density is evaluated once per node for all of them.  A panel is split
while any row misses its own tolerance.  ``mellin_table`` gives Phi at
several s with each error bound and the count of density points;
``mellin_numeric`` is its one-s case and ``log_moments_numeric`` runs
orders 1..n as rows at s = 1.  No setting is an option: the engine's
``_quad`` constants apply, on a window t in [-40, 40] that widens by 40 a
side, up to [-200, 200].  Where a row is still above the tolerance at
+-200, the integral past that end is dropped; the row's error bound
counts it as |h(end)| / rate, rate its log-slope over the last unit of t
(inf where it does not decay), and the value is left as it is.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._quad import ABS_TOL, NonConvergenceError, adaptive_quad
from .specfun import MAX_ORDER, check_order

__all__ = [
    "LogStats", "NonConvergenceError", "TransformTable",
    "mellin_table", "mellin_numeric", "log_moments_numeric",
    "moments_to_cumulants", "cumulants_to_moments", "central_log_moments",
]

_WINDOW = 40.0   # the scan starts on [-40, 40] and widens by 40 a side
_MAX_WINDOW = 200.0


@dataclass(frozen=True)
class LogStats:
    """Log-moments and the matching log-cumulants, orders 1..len <= MAX_ORDER.

    One list is always derived from the other through the moment/cumulant
    algebra, so the pair stays consistent by construction.  A non-finite
    entry raises ValueError, naming its order.
    """
    log_moments: tuple[float, ...]
    log_cumulants: tuple[float, ...]

    def __post_init__(self):
        if len(self.log_moments) != len(self.log_cumulants):
            raise ValueError("log_moments and log_cumulants must have equal length")
        _finite(self.log_moments, "LogStats")
        _finite(self.log_cumulants, "LogStats")

    @property
    def order(self) -> int:
        return len(self.log_moments)

    @classmethod
    def from_moments(cls, log_moments) -> "LogStats":
        m = tuple(float(v) for v in log_moments)
        return cls(m, tuple(moments_to_cumulants(m)))

    @classmethod
    def from_cumulants(cls, log_cumulants) -> "LogStats":
        k = tuple(float(v) for v in log_cumulants)
        return cls(tuple(cumulants_to_moments(k)), k)


def _finite(values, what: str) -> np.ndarray:
    """``values`` as a float array whose last axis has a supported order;
    a non-finite entry raises, naming its order (and, in a stack, its row)."""
    x = np.asarray(values, dtype=float)
    check_order(x.shape[-1] if x.ndim else 0, what)
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        *row, n = bad[0].tolist()
        at = f"row {', '.join(map(str, row))}, " if row else ""
        raise ValueError(f"{what}: {at}the order-{n + 1} entry is "
                         f"{float(x[tuple(bad[0])])!r}")
    return x


@functools.cache
def _bell_terms(signed: bool) -> tuple:
    """Per order n <= MAX_ORDER, (coefficient, ((part p, multiplicity e),
    ...)) for each partition of n into b >= 2 parts: n! / prod(p!^e e!),
    the number of set partitions of that shape, times (-1)^(b-1) (b-1)!
    when ``signed``."""
    table = []
    for n in range(1, MAX_ORDER + 1):
        terms = []
        for b in range(2, n + 1):
            sign = (-1) ** (b - 1) * math.factorial(b - 1) if signed else 1
            for parts in itertools.combinations_with_replacement(
                    range(n - 1, 0, -1), b):
                if sum(parts) == n:
                    mult = tuple((p, parts.count(p)) for p in sorted(set(parts)))
                    den = math.prod(math.factorial(p) ** e * math.factorial(e)
                                    for p, e in mult)
                    terms.append((float(sign * math.factorial(n) // den), mult))
        table.append(tuple(terms))
    return tuple(table)


def _power(column: np.ndarray, e: int, what: str, order: int,
           entry: int) -> np.ndarray:
    """column^e by Python's float power (libm ``pow``), taken on an object
    array: numpy's own ``**`` rounds some cubes differently.  A power past
    the doubles raises OverflowError naming ``what``, the ``order`` it
    enters and the ``entry`` it raises."""
    try:
        return (column.astype(object) ** e).astype(float)
    except OverflowError:
        raise OverflowError(f"{what}: order {order} takes entry {entry} to "
                            f"the power {e}, which is outside the double "
                            "range") from None


def _bell(values, what: str, table):
    """y_n = x_n + the sum of the order-n terms, coefficient times
    prod x_p^e, along the last axis of ``values``: a list for one vector,
    an array of the same shape for a stack of them.  Up to order 4 the
    terms come in the order, and their products are formed as, in the
    written-out formulas, so the seeded sweep CSV keeps every bit.  For
    the same reason each power x_p^e is taken by ``_power``."""
    x = _finite(values, what)
    rows = x.reshape(-1, x.shape[-1])
    table = table[:rows.shape[1]]
    # x^1 is x exactly, in libm as anywhere
    powers = {(p, 1): rows[:, p - 1] for p in range(1, rows.shape[1] + 1)}
    pairs = {f for terms in table for _, factors in terms
             for f in factors if f[1] > 1}
    # x_p^e enters first at order p * e, so the first to overflow names
    # the lowest order it breaks
    for p, e in sorted(pairs, key=lambda f: (math.prod(f), f)):
        powers[p, e] = _power(rows[:, p - 1], e, what, p * e, p)
    out = np.empty_like(rows)
    with np.errstate(over="ignore", invalid="ignore"):   # as Python floats
        for n, terms in enumerate(table):
            acc = rows[:, n]
            for coef, factors in terms:
                for p, e in factors:
                    coef = coef * powers[p, e]
                acc = acc + coef
            out[:, n] = acc
    return out[0].tolist() if x.ndim == 1 else out.reshape(x.shape)


def moments_to_cumulants(log_moments):
    """Cumulants k_1..k_n from raw moments m_1..m_n (n <= MAX_ORDER): the
    sum over the partitions of n into b parts p of (-1)^(b-1) (b-1)! B
    prod m_p, B the number of set partitions of that shape.

    These are the true cumulants (derivatives of the log of the moment
    generating object), so k_4 carries the -3 m_2^2 correction and every
    k_n past the second vanishes for Gaussian-shaped input.
    """
    return _bell(log_moments, "moments_to_cumulants", _bell_terms(True))


def cumulants_to_moments(log_cumulants):
    """Exact algebraic inverse of moments_to_cumulants: m_n is the complete
    Bell polynomial, the sum over the same partitions of B prod k_p.

    Both take one vector (and give a list) or a stack of vectors along the
    last axis (and give an array of its shape), with the same bits per
    row either way."""
    return _bell(log_cumulants, "cumulants_to_moments", _bell_terms(False))


def central_log_moments(log_moments):
    """Mean plus central moments of orders 2..n about the mean, by the
    binomial shift mu_n = sum_j C(n, j) m_j (-m_1)^(n-j) with m_0 = 1.

    At orders 2 and 3 these coincide with the cumulants; at order 4 the
    central moment exceeds the cumulant by 3 k_2^2.  Like its two siblings
    it takes one vector (and gives a list) or a stack of vectors along the
    last axis (and gives an array of its shape), with the same bits per
    row either way: (-m_1)^k is Python's float power.  A power past the
    doubles raises OverflowError naming the order it enters first (k).
    """
    x = _finite(log_moments, "central_log_moments")
    rows = x.reshape(-1, x.shape[-1])
    m = np.hstack([np.ones((rows.shape[0], 1)), rows])
    powers = [_power(-rows[:, 0], k, "central_log_moments", k, 1)
              for k in range(m.shape[1])]
    out = rows.copy()
    with np.errstate(over="ignore", invalid="ignore"):   # as Python floats
        for n in range(2, m.shape[1]):
            acc = np.zeros(rows.shape[0])
            for j in range(n + 1):
                acc = acc + math.comb(n, j) * m[:, j] * powers[n - j]
            out[:, n - 1] = acc
    return out[0].tolist() if x.ndim == 1 else out.reshape(x.shape)


# quadrature oracle ----------------------------------------------------------

def _log_domain_integrand(density, s, powers):
    """h(t) with rows h_j(t) = t^n_j e^(s_j t) f(e^t), evaluated safely
    across magnitudes; ``density`` runs once per node for every row.
    ``h.rows`` is the number of rows, ``h.s`` their s values and
    ``h.points`` counts the nodes seen so far.  A density value that is
    nan or negative raises ValueError naming its x."""
    s = np.asarray(s, dtype=float)[:, None]
    powers = np.asarray(powers)[:, None]

    def h(t):
        t = np.asarray(t, dtype=float)
        f_vals = np.asarray(density(np.exp(t)), dtype=float)
        h.points += t.size
        bad = np.flatnonzero(~(f_vals >= 0.0))
        if bad.size:
            raise ValueError(f"the density at x = e^{float(t.flat[bad[0]])!r} "
                             f"is {float(f_vals.flat[bad[0]])!r}, not a "
                             "number >= 0")
        log_f = np.log(f_vals, out=np.full(t.shape, -np.inf),
                       where=f_vals > 0.0)
        return np.exp(s * t + log_f) * t ** powers

    h.rows, h.s, h.points = s.shape[0], s[:, 0].tolist(), 0
    return h


def _prepare_window(h):
    """Auto-widened window, support bounds and peak-resolving panel edges,
    shared by every row of ``h``.

    The window widens while any row exceeds the absolute tolerance at an
    end; the support is where any row is above 1e-22 of its own peak, and
    the zoom follows the peak of the rows each scaled by its own peak.
    Returns (edges, tail): the sorted panel edges, both support bounds
    included, and each row's bound on what lies past a window end at
    ``_MAX_WINDOW`` (0 when none is there); None when the integrand is
    identically zero on the window.  Raises OverflowError, naming the s,
    when a row leaves the doubles.
    """
    def magnitudes(t):
        with np.errstate(over="ignore"):
            mags = np.abs(h(t))
        rows = np.flatnonzero(np.isinf(mags).any(axis=1))
        if rows.size:
            raise OverflowError(f"the Mellin integrand at s = "
                                f"{h.s[rows[0]]!r} is outside the double "
                                "range on the window scan")
        return mags

    t_lo, t_hi = -_WINDOW, _WINDOW
    while True:   # at most four widenings a side
        lo_end, hi_end = magnitudes(np.array([t_lo, t_hi])).max(0) > ABS_TOL
        wider = (max(t_lo - _WINDOW, -_MAX_WINDOW) if lo_end else t_lo,
                 min(t_hi + _WINDOW, _MAX_WINDOW) if hi_end else t_hi)
        if wider == (t_lo, t_hi):
            break
        t_lo, t_hi = wider

    # each row's bound on the integral past an end still above the
    # tolerance: |h(end)| / rate, or inf where the row does not decay
    tail = np.zeros(h.rows)
    for end, inward, above in ((t_lo, 1.0, lo_end), (t_hi, -1.0, hi_end)):
        if above:
            outer, inner = magnitudes(np.array([end, end + inward])).T
            with np.errstate(divide="ignore", invalid="ignore"):
                rate = np.log(inner) - np.log(outer)
                tail += np.where(outer > 0.0,
                                 outer / np.maximum(rate, 0.0), 0.0)

    # cascade scan: escalate resolution only when the integrand looks
    # identically zero (arbitrarily narrow spikes under a wide window)
    for points in (257, 2049, 16385):
        grid = np.linspace(t_lo, t_hi, points)
        mags = magnitudes(grid)
        peaks = mags.max(axis=1, keepdims=True)
        if peaks.max() > 0.0:
            break
    else:
        return None
    peaks[peaks == 0.0] = np.inf

    def scaled(t):   # each row over its own peak, the largest per node
        return (magnitudes(t) / peaks).max(axis=0)

    rel = (mags / peaks).max(axis=0)
    support = np.flatnonzero(rel > 1e-22)
    lo = float(grid[max(int(support[0]) - 2, 0)])
    hi = float(grid[min(int(support[-1]) + 2, grid.size - 1)])

    # zoom onto the peak so arbitrarily narrow spikes get their own panels
    t_peak = float(grid[int(np.argmax(rel))])
    span = float(grid[1] - grid[0])
    for _ in range(3):
        zoom = np.linspace(t_peak - span, t_peak + span, 129)
        t_peak = float(zoom[int(np.argmax(scaled(zoom)))])
        span = float(zoom[1] - zoom[0])

    edges = set(np.linspace(lo, hi, 17))
    for factor in (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0):
        for sign in (-1.0, 1.0):
            e = t_peak + sign * factor * span
            if lo < e < hi:
                edges.add(e)
    return sorted(edges), tail


def _integrate(h):
    """Every row of ``h`` over one window and one GK15 subdivision:
    (values, error bounds), arrays with one entry per row; a bound counts
    the tail dropped past the window."""
    window = _prepare_window(h)
    if window is None:
        return np.zeros(h.rows), np.zeros(h.rows)
    edges, tail = window
    values, bounds = adaptive_quad(h, edges)
    return values, bounds + tail


@dataclass(frozen=True)
class TransformTable:
    """A density's Mellin transform by quadrature at several s, from one
    vector-valued pass: ``values[j]`` is Phi(s[j]) with the Gauss-Kronrod
    error bound ``error_bounds[j]``; ``evaluations`` counts the density
    points the pass took (window scan and panels)."""
    s: tuple[float, ...]
    values: tuple[float, ...]
    error_bounds: tuple[float, ...]
    evaluations: int

    def at(self, s: float) -> tuple[float, float]:
        """(Phi(s), its error bound) for an s of the table."""
        try:
            j = self.s.index(float(s))
        except ValueError:
            raise KeyError(f"s = {s!r} is not in the table {self.s}") from None
        return self.values[j], self.error_bounds[j]


def mellin_table(density, s_values) -> TransformTable:
    """Mellin transforms of a density at every s of ``s_values`` by one
    adaptive quadrature of the vector of integrands e^(s t) f(e^t).

    ``density`` must map a numpy array of positive abscissas to density
    values; it is evaluated once per node for all s.  Raises ValueError
    for a non-finite s or a density value that is nan or negative,
    OverflowError for an s whose integrand leaves the doubles, and
    NonConvergenceError (carrying the best estimates) when the subdivision
    budget is exhausted.
    """
    s = tuple(float(v) for v in s_values)
    if not s:
        raise ValueError("mellin_table needs at least one s")
    for v in s:
        if not math.isfinite(v):
            raise ValueError(f"mellin_table: s = {v!r} is not finite")
    h = _log_domain_integrand(density, s, [0] * len(s))
    values, bounds = _integrate(h)
    return TransformTable(s, tuple(values.tolist()), tuple(bounds.tolist()),
                          h.points)


def mellin_numeric(density, s: float) -> float:
    """Mellin transform of a density by adaptive quadrature: the one-s
    case of :func:`mellin_table`."""
    return mellin_table(density, (s,)).values[0]


def log_moments_numeric(density, n_max: int) -> LogStats:
    """Numerical log-moments m_n = E[(log X)^n] for n = 1..n_max
    (n_max <= MAX_ORDER), all orders in one vector pass over the rows
    t^n e^t f(e^t).  Raises ValueError, as ``mellin_table`` does, for a
    density value that is nan or negative."""
    n_max = check_order(n_max, "log_moments_numeric")
    orders = range(1, n_max + 1)
    moments, _ = _integrate(
        _log_domain_integrand(density, [1.0] * n_max, orders))
    return LogStats.from_moments(moments)
