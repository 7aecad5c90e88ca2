"""Texture log-cumulant sweep over the texture shape parameter.

For each texture shape M the sweep draws product-model batches (gamma
speckle at unit mean times gamma texture), measures second and fourth
order log-moments of the data, extracts the texture log-cumulants by
additivity, and compares them against the analytic polygamma values.
CSV is the authoritative output; the SVG rendering is a dependency-free
two-panel line plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import _csv
from . import distributions as dist
from .estimation import empirical_log_stats, texture_log_cumulants
from .sampling import sample_compound
from .specfun import polygamma

__all__ = ["SweepRow", "default_m_grid", "texture_sweep",
           "write_sweep_csv", "render_sweep_svg", "SWEEP_CSV_HEADER"]


# The documented sweep, which ``simulate`` runs by default: speckle shape
# L, texture mean mu, a log-spaced M grid (start, stop, count), draws per
# point and the pinned seed.
DEFAULT_L, DEFAULT_MU = 4.0, 1.0
DEFAULT_M_GRID = (0.25, 20.0, 40)
DEFAULT_SAMPLES, DEFAULT_SEED = 10**5, 2
# the fewest draws per point that the sweep accepts
MIN_SAMPLES = 10**4


@dataclass(frozen=True)
class SweepRow:
    M: float
    order: int            # 2 or 4
    logmoment_data: float
    logcumulant_texture_est: float
    logcumulant_texture_analytic: float
    stderr: float

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError(f"order must be 2 or 4, got {self.order}")
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


# the sweep CSV's columns are SweepRow's fields, in order
SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def default_m_grid(start: float = DEFAULT_M_GRID[0],
                   stop: float = DEFAULT_M_GRID[1],
                   count: int = DEFAULT_M_GRID[2]) -> list[float]:
    """Log-spaced texture-shape grid."""
    if not (0.0 < start < stop < math.inf) or count < 2:
        raise ValueError("need 0 < start < stop < inf and count >= 2")
    step = (math.log(stop) - math.log(start)) / (count - 1)
    return [math.exp(math.log(start) + i * step) for i in range(count)]


def texture_sweep(L: float = DEFAULT_L, mu: float = DEFAULT_MU, m_grid=None,
                  n: int = DEFAULT_SAMPLES,
                  seed: int = DEFAULT_SEED) -> list[SweepRow]:
    """Two SweepRow entries (orders 2 and 4) per texture shape M.

    Sweep point i uses the derived seed ``seed + i`` so points are
    independent and may be regenerated individually.  The default seed is
    pinned (with the other defaults) so the documented property gates hold
    with margin; any explicit seed gives its own deterministic sweep.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least 10^4 samples per point "
                         f"(simulate --samples), got {n}")
    # rows are ordered by M; derived seeds attach to the sorted positions
    grid = default_m_grid() if m_grid is None else sorted(float(m) for m in m_grid)
    if not grid:
        raise ValueError("m_grid is empty: the sweep needs at least one "
                         "texture shape M")
    speckle = dist.GammaPower(L, 1.0)
    rows = []
    for i, m_shape in enumerate(grid):
        texture = dist.GammaPower(m_shape, mu)
        # the batch stays bound until the next point draws: freeing its
        # texture before the logs made ``simulate`` about 7 % slower
        batch = sample_compound(speckle, texture, n, seed + i)
        stats = empirical_log_stats(batch.values, 4)
        tex = texture_log_cumulants(stats, speckle)
        for order in (2, 4):
            rows.append(SweepRow(
                M=m_shape,
                order=order,
                logmoment_data=stats.log_moments[order - 1],
                logcumulant_texture_est=tex.log_cumulants[order - 1],
                logcumulant_texture_analytic=polygamma(order - 1, m_shape),
                stderr=stats.std_errors[order - 1],
            ))
    return rows


def write_sweep_csv(rows, path) -> None:
    """RFC-4180 CSV, 17 significant digits, LF endings (byte-stable)."""
    columns = [[getattr(r, f.name) for r in rows] for f in fields(SweepRow)]
    _csv.write_csv(path, SWEEP_CSV_HEADER, columns)


# minimal SVG rendering ------------------------------------------------------

_PANEL_W, _PANEL_H = 420, 320
_MARGIN = 52


def _panel(rows, order: int, offset_x: int) -> list[str]:
    pts = [r for r in rows if r.order == order]
    pts.sort(key=lambda r: r.M)
    xs = [math.log10(r.M) for r in pts]
    est = [r.logcumulant_texture_est for r in pts]
    ana = [r.logcumulant_texture_analytic for r in pts]
    moments = [r.logmoment_data for r in pts]
    lo_x, hi_x = min(xs), max(xs)
    if hi_x == lo_x:
        hi_x = lo_x + 1.0
    ys = est + ana + moments
    lo_y, hi_y = min(ys), max(ys)
    if hi_y == lo_y:
        hi_y = lo_y + 1.0

    def sx(v):
        return offset_x + _MARGIN + (v - lo_x) / (hi_x - lo_x) * (_PANEL_W - 2 * _MARGIN)

    def sy(v):
        return _PANEL_H - _MARGIN - (v - lo_y) / (hi_y - lo_y) * (_PANEL_H - 2 * _MARGIN)

    def poly(vals, color, dash=""):
        coords = " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in zip(xs, vals))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
                f'{extra} points="{coords}"/>')

    parts = [
        f'<rect x="{offset_x + _MARGIN}" y="{_MARGIN}" '
        f'width="{_PANEL_W - 2 * _MARGIN}" height="{_PANEL_H - 2 * _MARGIN}" '
        'fill="none" stroke="#444"/>',
        poly(moments, "#999", dash="4 3"),
        poly(ana, "#1f77b4"),
        poly(est, "#d62728"),
    ]
    parts += [f'<circle cx="{sx(x):.2f}" cy="{sy(v):.2f}" r="2.4" '
              'fill="#d62728"/>' for x, v in zip(xs, est)]
    # a few x ticks at decade-ish positions
    for m_tick in (0.25, 0.5, 1, 2, 5, 10, 20):
        v = math.log10(m_tick)
        if lo_x - 1e-9 <= v <= hi_x + 1e-9:
            parts.append(f'<line x1="{sx(v):.2f}" y1="{_PANEL_H - _MARGIN}" '
                         f'x2="{sx(v):.2f}" y2="{_PANEL_H - _MARGIN + 4}" '
                         'stroke="#444"/>')
            parts.append(f'<text x="{sx(v):.2f}" y="{_PANEL_H - _MARGIN + 16}" '
                         'font-size="10" text-anchor="middle">'
                         f'{m_tick:g}</text>')
    for frac in (0.0, 0.5, 1.0):
        v = lo_y + frac * (hi_y - lo_y)
        parts.append(f'<text x="{offset_x + _MARGIN - 6}" y="{sy(v):.2f}" '
                     'font-size="10" text-anchor="end" '
                     f'dominant-baseline="middle">{v:.3g}</text>')
    parts.append(f'<text x="{offset_x + _PANEL_W / 2}" y="{_MARGIN - 14}" '
                 'font-size="12" text-anchor="middle">'
                 f'order {order}</text>')
    parts.append(f'<text x="{offset_x + _PANEL_W / 2}" y="{_PANEL_H - 8}" '
                 'font-size="11" text-anchor="middle">texture shape M</text>')
    return parts


def render_sweep_svg(rows, path) -> None:
    """Two-panel plot: second order left, fourth order right.

    Gray dashes: data log-moments.  Blue: analytic texture log-cumulants.
    Red dots: estimated texture log-cumulants.
    """
    body = _panel(rows, 2, 0) + _panel(rows, 4, _PANEL_W)
    legend = ('<text x="10" y="14" font-size="11">'
              'gray: data log-moment | blue: analytic texture | '
              'red: estimated texture</text>')
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{2 * _PANEL_W}" height="{_PANEL_H}">\n'
           + legend + "\n" + "\n".join(body) + "\n</svg>\n")
    with open(path, "w", newline="\n") as fh:
        fh.write(svg)
