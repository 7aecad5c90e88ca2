"""Deterministic quadrature: the latent-integral kernel and the oracle engine.

* :func:`log_trapezoid` -- the kernel behind every density that needs an
  integral over a hidden variable (the Bessel-K function and the
  Weibull-Nakagami density).  Their exponents are smooth and strictly
  concave on the whole real line, so a peak-centred trapezoid rule
  converges exponentially (Trefethen & Weideman, "The exponentially
  convergent trapezoidal rule", SIAM Review 56(3), 2014) and runs for all
  abscissas at once.
* :func:`adaptive_quad` -- globally adaptive Gauss-Kronrod bisection on a
  finite interval, used by the Mellin oracle (and the tests) only, so the
  oracle shares no integration code with the densities it checks.

Everything here is deterministic (no randomized rules), so repeated runs
produce bit-identical results for identical inputs.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = ["NonConvergenceError", "adaptive_quad", "gk15", "log_trapezoid"]

# 15-point Kronrod rule with embedded 7-point Gauss rule, QUADPACK dqk15
# constants.  Nodes are on [-1, 1]; even-indexed nodes carry the Gauss rule.
_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_W_KRONROD = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1::2] = [0.129484966168870, 0.279705391489277, 0.381830050505119,
                  0.417959183673469, 0.381830050505119, 0.279705391489277,
                  0.129484966168870]


class NonConvergenceError(RuntimeError):
    """Raised when the subdivision budget runs out before the tolerance.

    Carries the best available estimate and its error bound so callers can
    degrade gracefully or report diagnostics.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def gk15(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 15 panel on [a, b]: (integral, error estimate)."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    y = np.asarray(f(x), dtype=float)
    ik = half * float(y @ _W_KRONROD)
    ig = half * float(y @ _W_GAUSS)
    return ik, abs(ik - ig)


def adaptive_quad(
    f,
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    max_subdivisions: int = 2000,
    initial_edges=None,
) -> tuple[float, float]:
    """Globally adaptive bisection of [a, b] using GK15 panels.

    ``f`` must accept a numpy array of abscissas and return values of
    the same shape.  ``initial_edges``, when given, is a sorted sequence of
    interior break points seeding the first panels (useful when the caller
    knows where the integrand mass sits).  Returns ``(value, error_bound)``
    and raises :class:`NonConvergenceError` if the subdivision budget is
    exhausted first.
    """
    if not (b > a):
        raise ValueError(f"invalid interval [{a}, {b}]")
    edges = [a, b]
    if initial_edges is not None:
        edges = sorted({a, b, *(float(e) for e in initial_edges if a < e < b)})

    # heap entries ordered by -error, with an insertion counter as a
    # deterministic tie-breaker
    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = gk15(f, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1
        total += val
        total_err += err

    subdivisions = len(heap)
    while total_err > max(abs_tol, rel_tol * abs(total)):
        if subdivisions >= max_subdivisions:
            raise NonConvergenceError(
                f"adaptive quadrature hit the subdivision limit "
                f"({max_subdivisions}); estimate {total!r} with error bound "
                f"{total_err:.3e}",
                estimate=total,
                error_bound=total_err,
            )
        neg_err, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; keep its estimate
            heapq.heappush(heap, (0.0, counter, lo, hi, val, 0.0))
            counter += 1
            total_err -= err
            continue
        v1, e1 = gk15(f, lo, mid)
        v2, e2 = gk15(f, mid, hi)
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2
        subdivisions += 1

    return total, total_err


# peak-centred trapezoid rule ------------------------------------------------

_DROP = 46.0   # the grid ends where the integrand fell below e^-46 ~ 1e-20
LOG_FLOOR = -700.0   # log of the least weight kept for an exponent term
_GAUSSIAN = 1e-10   # narrower integrands are Gaussian to double precision
_CHUNK = 256   # problems per pass; bounds the (problems x nodes) work arrays


def log_trapezoid(g, width, strip: float, *params) -> np.ndarray:
    """log of the integral of exp(g(d)) over the real line, per problem.

    ``g(d, *cols)`` is a strictly concave exponent measured from its peak,
    so ``g(0) = 0``; ``d`` has shape (k, m) and each of ``cols`` is a
    (k, 1) column of the matching per-problem array in ``params``, or the
    scalar itself.
    ``width`` is the Laplace width 1/sqrt(-g''(0)) per problem and
    ``strip`` the half-width of the strip around the real line on which
    the integrand is analytic.  The step is min(width/2, strip/6) with the
    width capped at 1, and the grid runs out to where g has fallen by
    about 46 on each side, found by doubling from 8 widths (where a
    Gaussian has fallen by 32) and then bisecting to within four steps.

    Below a width of 1e-10 the result is Laplace's log(sqrt(2 pi) width).
    For the exponents here (built from exp and cosh, whose higher
    derivatives scale like the curvature) its relative error is of the
    order of the squared width, below double precision, while the peak
    itself can no longer be placed to within a width.
    """
    width = np.minimum(np.asarray(width, dtype=float), 1.0)
    params = [np.asarray(p, dtype=float) for p in params]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = 0.5 * math.log(2.0 * math.pi) + np.log(width)
        rows = np.flatnonzero(width >= _GAUSSIAN)
        for start in range(0, rows.size, _CHUNK):
            part = rows[start:start + _CHUNK]
            out[part] = _log_trapezoid_chunk(
                g, width[part], strip,
                [p[part][:, None] if p.ndim else p for p in params])
    return out


_SIDES = np.array([-1.0, 1.0])


def _log_trapezoid_chunk(g, width, strip, cols):
    step = np.minimum(0.5 * width, strip / 6.0)[:, None]

    def above(dist):   # (k, 2) distances to the left and right of the peak
        return g(dist * _SIDES, *cols) > -_DROP

    # bracket each end: g(lo) > -46 >= g(hi), then narrow it to four steps
    lo = np.zeros((width.size, 2))
    hi = np.repeat(8.0 * width[:, None], 2, axis=1)
    for _ in range(64):
        live = above(hi)
        if not live.any():
            break
        lo = np.where(live, hi, lo)
        hi = np.where(live, 2.0 * hi, hi)
    for _ in range(64):
        wide = hi - lo > 4.0 * step
        if not wide.any():
            break
        mid = 0.5 * (lo + hi)
        live = above(mid)
        lo = np.where(wide & live, mid, lo)
        hi = np.where(wide & ~live, mid, hi)

    nodes = np.ceil(hi / step).astype(np.int64)          # per side
    k = np.arange(-nodes[:, 0].max(), nodes[:, 1].max() + 1)
    inside = (k >= -nodes[:, :1]) & (k <= nodes[:, 1:])
    d = np.where(inside, k * step, 0.0)
    total = np.where(inside, np.exp(g(d, *cols)), 0.0).sum(axis=1)
    return np.log(step[:, 0]) + np.log(total)
