"""Deterministic quadrature: the latent-integral kernel and the oracle engine.

* :func:`log_latent_integral` -- the log density of c1 log G1 + c2 log G2
  (unit gammas G1, G2; c1, c2 > 0), an integral over the hidden log G2:
  the compound densities, and at q = c2/c1 = 1 the Bessel function K_nu.
* :func:`_log_trapezoid` -- the rule it runs on, for its one exponent
  (``_latent_exponent``).  The exponent is smooth and strictly concave on
  the whole real line, so a peak-centred trapezoid rule converges
  exponentially (Trefethen & Weideman, "The exponentially convergent
  trapezoidal rule", SIAM Review 56(3), 2014), for all abscissas at once.
* :func:`adaptive_quad` -- globally adaptive Gauss-Kronrod bisection of
  given panels at fixed settings, used by the Mellin oracle (and the
  tests) only, so the oracle shares no integration code with the
  densities it checks.  Its integrand is vector-valued, shape (k, m) for
  m nodes: the k components share one subdivision and one integrand call
  per node, and a panel is split while any component misses its own
  tolerance.  :func:`gk15` evaluates a batch of panels in one call.

Everything here is deterministic (no randomized rules), so repeated runs
produce bit-identical results for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ABS_TOL", "HALF_LOG_TWO_PI", "NonConvergenceError",
           "adaptive_quad", "gk15", "log_latent_integral"]

REL_TOL = 1e-9   # adaptive_quad's settings, read at each call, not options
ABS_TOL = 1e-12   # (mellin's window scan reads this one too)
MAX_PANELS = 2000
HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

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

    Carries the best available estimate and its error bound, arrays with
    one entry per component, so callers can degrade gracefully or report
    diagnostics.
    """

    def __init__(self, message: str, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def gk15(f, a, b):
    """Gauss-Kronrod 15 panels on [a, b]: (integral, error estimate).

    ``a`` and ``b`` are floats, or equal-length arrays of panel ends whose
    nodes all go to ``f`` in one call.  ``f`` maps the nodes (shape (m,))
    to values of shape (m,), or (k, m) for a vector-valued integrand; the
    results then carry the panel axis last: shape (), (k,), (p,) or (k, p).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + half[..., None] * _NODES
    y = np.asarray(f(x.ravel()), dtype=float)
    y = y.reshape(y.shape[:-1] + x.shape)
    # row sums, not matmul: a panel's value must not depend on the batch
    ik = half * (y * _W_KRONROD).sum(axis=-1)
    ig = half * (y * _W_GAUSS).sum(axis=-1)
    return ik, np.abs(ik - ig)


def adaptive_quad(f, edges):
    """Globally adaptive bisection of [edges[0], edges[-1]] using GK15
    panels, from the panels between consecutive ``edges``: every edge,
    both ends included, finite and strictly increasing (ValueError otherwise).
    ``f`` must map a numpy array of m abscissas to values of shape (k, m)
    for a k-component integrand: every component shares one subdivision
    and each node costs one call of ``f`` for all of them (the ``fdim``
    integrands of S. G. Johnson's ``cubature``).  The first panels take
    one call of ``f``, and each split one more.  The panel split next is
    the one whose error is largest against a component's tolerance
    ``max(ABS_TOL, REL_TOL |value_k|)``, and the loop ends when every
    component meets its own, so no component's tolerance is loosened by
    sharing.  Only the edges guard against a peak narrower than the node
    spacing: where no node sees it, both rules agree without it and the
    value misses it under a tiny bound.  1e-6 (exp(-((x - 1.6875) /
    0.0546875)^2) + 0.1 sin^2 x) on edges [-5, 5] gives 5.272e-7 under a
    bound of 5.6e-13; on [-5, 1.6875, 5] it gives 6.2413e-7, as it is.

    Returns ``(value, error_bound)``, arrays of shape (k,).  Raises
    :class:`NonConvergenceError` past ``MAX_PANELS`` panels.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or not (np.all(np.isfinite(edges))
                              and np.all(edges[1:] > edges[:-1])):
        raise ValueError(f"adaptive_quad needs two or more finite, strictly "
                         f"increasing edges, got {edges.tolist()!r}")

    val, err = gk15(f, edges[:-1], edges[1:])
    # panels in insertion order, one row each; a split panel's row takes
    # its left half and the right half is appended
    k, n = val.shape
    size = max(n, MAX_PANELS) + 1
    lo, hi = np.empty(size), np.empty(size)
    vals, errs = np.empty((size, k)), np.empty((size, k))
    lo[:n], hi[:n] = edges[:-1], edges[1:]
    vals[:n], errs[:n] = val.T, err.T

    while True:
        total, total_err = vals[:n].sum(axis=0), errs[:n].sum(axis=0)
        tol = np.maximum(ABS_TOL, REL_TOL * np.abs(total))
        if not np.any(total_err > tol):
            break
        if n >= MAX_PANELS:
            raise NonConvergenceError(
                f"adaptive quadrature hit the subdivision limit "
                f"({MAX_PANELS}); estimate {total!r} with error "
                f"bound {total_err!r}",
                estimate=total,
                error_bound=total_err,
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.nan_to_num(errs[:n] / tol)   # 0/0 where tol is 0
        i = int(np.argmax(score.max(axis=1)))
        mid = 0.5 * (lo[i] + hi[i])
        if mid <= lo[i] or mid >= hi[i]:
            # interval at floating-point resolution; keep its estimate
            errs[i] = 0.0
            continue
        val, err = gk15(f, np.array([lo[i], mid]), np.array([mid, hi[i]]))
        val, err = val.T, err.T
        lo[n], hi[n], vals[n], errs[n] = mid, hi[i], val[1], err[1]
        hi[i], vals[i], errs[i] = mid, val[0], err[0]
        n += 1

    return total, total_err


# peak-centred trapezoid rule ------------------------------------------------

_DROP = 46.0   # the grid ends where the integrand fell below e^-46 ~ 1e-20
_LOG_FLOOR = -700.0   # log of the least weight kept for an exponent term
LOG_DBL_MAX = float(np.log(np.finfo(float).max))
_GAUSSIAN = 1e-10   # narrower integrands are Gaussian to double precision
_CHUNK = 256   # problems per pass; bounds the (problems x nodes) work arrays


def _log_trapezoid(width, strip: float, q: float, slope: float, *params):
    """log of the integral of exp(_latent_exponent(d, q, slope, *params))
    over the real line, per problem: ``params`` are the per-problem
    arrays t1, t2, shift1 and shift2, and the exponent is strictly concave
    and measured from its peak, so it is 0 at d = 0.
    ``width`` is the Laplace width 1/sqrt(-p''(w)) per problem and
    ``strip`` the half-width of the strip around the real line on which
    the integrand is analytic.  The step is min(width/2, strip/6) with the
    width capped at 1, and the grid runs out to where the exponent has
    fallen by about 46 on each side, found by doubling from 8 widths
    (where a Gaussian has fallen by 32) and then bisecting to within four
    steps.

    Below a width of 1e-10 the result is Laplace's log(sqrt(2 pi) width).
    For this exponent (built from exp, whose higher derivatives scale like
    the curvature) its relative error is of the order of the squared
    width, below double precision, while the peak itself can no longer be
    placed to within a width.
    """
    width = np.minimum(width, 1.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = HALF_LOG_TWO_PI + np.log(width)
        rows = np.flatnonzero(width >= _GAUSSIAN)
        for start in range(0, rows.size, _CHUNK):
            part = rows[start:start + _CHUNK]
            out[part] = _log_trapezoid_chunk(
                width[part], strip, q, slope, [p[part, None] for p in params])
    return out


_SIDES = np.array([-1.0, 1.0])


def _log_trapezoid_chunk(width, strip, q, slope, cols):
    step = np.minimum(0.5 * width, strip / 6.0)[:, None]

    def above(dist):   # (k, 2) distances to the left and right of the peak
        return _latent_exponent(dist * _SIDES, q, slope, *cols) > -_DROP

    # bracket each end: p(lo) > -46 >= p(hi), then narrow it to four steps
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
    exponent = _latent_exponent(d, q, slope, *cols)
    total = np.where(inside, np.exp(exponent), 0.0).sum(axis=1)
    return np.log(step[:, 0]) + np.log(total)


def log_latent_integral(a1: float, c1: float, a2: float, c2: float,
                        v: np.ndarray) -> np.ndarray:
    """log density of V = c1 log G1 + c2 log G2 (c1, c2 > 0) at v, plus
    ln Gamma(a1) + ln Gamma(a2) + log c1, as an integral over w = log G2:
    a1 T + log integral(exp(p(w)) dw), p(w) = k w - exp(T - q w) - exp(w),
    T = v / c1, q = c2 / c1, k = a2 - a1 q.  p'' < 0 (one peak), and the
    integrand is analytic for |Im w| < min(pi/2, pi/(2q)).
    """
    q, slope, big_t = c2 / c1, a2 - a1 * c2 / c1, v / c1
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

    # the exponentials at the peak, held in [e^-700, DBL_MAX]: above, the
    # density is 0 anyway; below, the exponent is shifted to match
    log_t = np.array([big_t - q * w, w])
    clipped = np.clip(log_t, _LOG_FLOOR, LOG_DBL_MAX)
    (t1, t2), shifts = np.exp(clipped), clipped - log_t
    with np.errstate(over="ignore"):
        return (a1 * big_t + slope * w - t1 - t2
                + _log_trapezoid(1.0 / np.sqrt(q * q * t1 + t2),
                                 min(0.5 * math.pi, 0.5 * math.pi / q),
                                 q, slope, t1, t2, *shifts))


def _latent_exponent(d, q, slope, t1, t2, shift1, shift2):
    # p(w + d) - p(w) without cancellation at small d; a term raised to
    # e^-700 takes its exponential at d - shift, the same wherever it counts
    return (slope * d - t1 * np.expm1(-q * d - shift1)
            - t2 * np.expm1(d - shift2))
