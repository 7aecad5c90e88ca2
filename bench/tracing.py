"""In-memory span tracer for the clutterstats layers, applied from outside.

The package binds most cross-module names with ``from ... import``, so a
function is wrapped at every name its callers look up (``mellin.adaptive_quad``,
``verify.sample``, ``cli.texture_sweep``, ...), never inside ``src/``.  Each
wrapped call records a span ``[name, key, start, end, parent, size]`` in a
list; hot leaf functions only bump a counter.  ``restore`` puts every
original binding back.  ``layer_metrics`` turns one traced pass into the
per-layer metrics listed in BENCHMARK.json.  Self time is a span's
duration minus that of its direct child spans.

Per-layer metrics of one pass, with the end-to-end metric each should move:

* ``cli.main.self_s.{sample,estimate}`` (CSV formatting / parsing) and
  ``cli.sample.bytes``: ``sample_rows_per_s``, ``estimate_rows_per_s`` and
  ``peak_rss_mb`` on roundtrip; nothing elsewhere.
* ``verify.*_checks.s``: ``wall_s`` on oracle.
* ``mellin.mellin_numeric.calls``, ``mellin.density_points_per_transform``
  (pdf points below a transform, per transform), ``mellin.window_points``
  (pdf points whose parent span is the transform: window search) against
  ``quad.panel_points`` (pdf points under the transform's GK panels):
  ``wall_s`` on oracle, since they multiply every density's cost.
* ``quad.adaptive_quad.calls.<caller module>``, ``quad.gk15.calls``,
  ``quad.adaptive_quad.self_s``: ``wall_s`` on oracle.  (Module ``_quad``;
  a metric name must start with a letter.)
* ``distributions.pdf.{calls,points,us_per_pt}.<family>``: ``wall_s`` on
  oracle; no change expected on roundtrip or sweep.
* ``specfun.log_bessel_k_batch.{points,us_per_pt}`` and
  ``specfun.fallback_ratio`` (adaptive_quad calls from specfun per batch
  point): ``wall_s`` on oracle.  ``specfun.polygamma.calls``:
  ``estimate_rows_per_s`` on roundtrip (the wnak root scan).
* ``sampling.sample.draws_per_s.<family>``, ``sampling.sample_compound.s``,
  ``sampling.raw_words_per_draw`` (SplitMix64 words per variate; a compound
  draw is two variates): ``wall_s`` on sweep, a few % of
  ``sample_rows_per_s`` on roundtrip and of ``wall_s`` on oracle.
* ``estimation.empirical_log_stats.rows_per_s``,
  ``estimation.fit_molc.ms.<family>`` (mean per fit) and
  ``estimation.fit_molc.iterations.<family>`` (summed over the pass's fits,
  from FitResult): ``wall_s`` on sweep, ``estimate_rows_per_s`` on roundtrip.
* ``sweep.{texture_sweep,write_sweep_csv,render_sweep_svg}.s``: ``wall_s``
  on sweep.
* ``trace.overhead``: traced ``wall_s`` over the untraced pass run just
  before it in the same process.

A layer the workload never reaches reports 0.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

PDF_FAMILIES = ("gamma", "nakagami", "maxwell", "weibull", "rayleigh",
                "ggamma", "k", "wnak", "fisher")
SAMPLE_FAMILIES = ("gamma", "weibull", "k", "ggamma", "fisher", "wnak")
FIT_FAMILIES = ("gamma", "k", "fisher", "wnak")
VERIFY_CHECKS = ("normalization", "transform_agreement", "convolution",
                 "monte_carlo", "cumulant_algebra")
QUAD_CALLERS = ("mellin", "distributions", "specfun")
SWEEP_STEPS = ("texture_sweep", "write_sweep_csv", "render_sweep_svg")

NAME, KEY, START, END, PARENT, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, key: str, size: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, key, 0.0, 0.0, parent, size]
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, key: str = "", size: int = 0):
        span = self._open(name, key, size)
        try:
            yield span
        finally:
            self._close(span)

    def _install(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, key=None, size=None,
             on_result=None) -> None:
        """Record a span around every call made through ``owner.attr``.

        ``key``/``size`` map ``(args, kwargs)`` to the span's label and work
        size; ``on_result(key, result)`` sees each return value.
        """
        original = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            k = key(args, kwargs) if key else ""
            span = self._open(name, k, size(args, kwargs) if size else 0)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(k, result)
            return result

        self._install(owner, attr, original, wrapper)

    def count(self, owner, attr: str, name: str, amount=None) -> None:
        """Count calls (or ``amount(args)`` units) through ``owner.attr``."""
        original = vars(owner)[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += amount(args) if amount else 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _arg(i: int, name: str):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[name]
    return get


def _len_of(i: int, name: str):
    get = _arg(i, name)

    def size(args, kwargs):
        value = get(args, kwargs)
        values = getattr(value, "values", value)
        return int(getattr(values, "size", 1))
    return size


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the imported clutterstats."""
    from clutterstats import (_quad, cli, distributions, estimation, mellin,
                              sampling, specfun, sweep, verify)

    family_of = _arg(0, "spec")

    def tag(args, kwargs):
        return distributions.family_tag(family_of(args, kwargs))

    for check in VERIFY_CHECKS:
        tracer.wrap(verify, f"{check}_checks", f"verify.{check}_checks")
    tracer.wrap(mellin, "mellin_numeric", "mellin.mellin_numeric")
    for caller, module in zip(QUAD_CALLERS, (mellin, distributions, specfun)):
        tracer.wrap(module, "adaptive_quad", "quad.adaptive_quad",
                    key=lambda a, k, c=caller: c)
    tracer.count(_quad, "gk15", "quad.gk15.calls")
    tracer.wrap(distributions, "pdf", "distributions.pdf", key=tag,
                size=_len_of(1, "x"))
    tracer.wrap(specfun, "log_bessel_k_batch", "specfun.log_bessel_k_batch",
                size=_len_of(1, "x"))
    for module in (specfun, estimation, sweep, verify):
        tracer.count(module, "polygamma", "specfun.polygamma.calls")
    for module in (cli, verify):
        tracer.wrap(module, "sample", "sampling.sample", key=tag,
                    size=_arg(1, "n"))
    for module in (sampling, sweep):
        tracer.wrap(module, "sample_compound", "sampling.sample_compound",
                    size=_arg(2, "n"))
    tracer.count(sampling.SplitMix64, "raw", "sampling.raw_words",
                 amount=lambda a: int(a[1]))
    for module in (estimation, sweep, verify):
        tracer.wrap(module, "empirical_log_stats",
                    "estimation.empirical_log_stats", size=_len_of(0, "batch"))

    def add_iterations(family, fit):
        tracer.counts[f"estimation.fit_molc.iterations.{family}"] += \
            fit.iterations

    tracer.wrap(estimation, "fit_molc", "estimation.fit_molc",
                key=_arg(0, "family"), on_result=add_iterations)
    for step in SWEEP_STEPS:
        tracer.wrap(cli, step, f"sweep.{step}")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "cli.main.self_s.sample": "s",
        "cli.main.self_s.estimate": "s",
        "cli.sample.bytes": "bytes",
    }
    units.update({f"verify.{c}_checks.s": "s" for c in VERIFY_CHECKS})
    units.update({
        "mellin.mellin_numeric.calls": "count",
        "mellin.density_points_per_transform": "points",
        "mellin.window_points": "points",
        "quad.panel_points": "points",
    })
    units.update({f"quad.adaptive_quad.calls.{c}": "count"
                  for c in QUAD_CALLERS})
    units.update({"quad.gk15.calls": "count",
                  "quad.adaptive_quad.self_s": "s"})
    for fam in PDF_FAMILIES:
        units[f"distributions.pdf.calls.{fam}"] = "count"
        units[f"distributions.pdf.points.{fam}"] = "points"
        units[f"distributions.pdf.us_per_pt.{fam}"] = "us/pt"
    units.update({
        "specfun.log_bessel_k_batch.points": "points",
        "specfun.log_bessel_k_batch.us_per_pt": "us/pt",
        "specfun.fallback_ratio": "ratio",
        "specfun.polygamma.calls": "count",
    })
    units.update({f"sampling.sample.draws_per_s.{fam}": "1/s"
                  for fam in SAMPLE_FAMILIES})
    units.update({"sampling.sample_compound.s": "s",
                  "sampling.raw_words_per_draw": "words"})
    units["estimation.empirical_log_stats.rows_per_s"] = "1/s"
    for fam in FIT_FAMILIES:
        units[f"estimation.fit_molc.ms.{fam}"] = "ms"
        units[f"estimation.fit_molc.iterations.{fam}"] = "count"
    units.update({f"sweep.{step}.s": "s" for step in SWEEP_STEPS})
    units["trace.overhead"] = "ratio"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _aggregate(spans: list[list]):
    """calls, size, total and self time per (name,) and per (name, key)."""
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += d

    calls = defaultdict(int)
    size = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        for group in ((s[NAME],), (s[NAME], s[KEY])):
            calls[group] += 1
            size[group] += s[SIZE]
            total[group] += duration[i]
            self_time[group] += duration[i] - child_time[i]
    return calls, size, total, self_time


def span_table(tracer: Tracer) -> list[list]:
    """[name, key, calls, size, total_s, self_s] for every span group."""
    calls, size, total, self_time = _aggregate(tracer.spans)
    return [[*g, calls[g], size[g], total[g], self_time[g]]
            for g in sorted(calls) if len(g) == 2]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (trace.overhead is left out)."""
    spans = tracer.spans
    calls, size, total, self_time = _aggregate(spans)

    window_points = panel_points = mellin_points = 0
    compound_parents = set()
    for s in spans:
        if s[NAME] == "sampling.sample_compound" and s[PARENT] >= 0:
            compound_parents.add(s[PARENT])
        if s[NAME] != "distributions.pdf" or s[PARENT] < 0:
            continue
        parent = spans[s[PARENT]]
        if parent[NAME] == "mellin.mellin_numeric":
            window_points += s[SIZE]
        elif parent[NAME] == "quad.adaptive_quad" and parent[KEY] == "mellin":
            panel_points += s[SIZE]
        ancestor = s[PARENT]
        while ancestor >= 0 and spans[ancestor][NAME] != "mellin.mellin_numeric":
            ancestor = spans[ancestor][PARENT]
        if ancestor >= 0:
            mellin_points += s[SIZE]

    draws = 2 * size[("sampling.sample_compound",)] + sum(
        s[SIZE] for i, s in enumerate(spans)
        if s[NAME] == "sampling.sample" and i not in compound_parents)

    out = {
        "cli.main.self_s.sample": self_time[("cli.main", "sample")],
        "cli.main.self_s.estimate": self_time[("cli.main", "estimate")],
        "cli.sample.bytes": tracer.counts["cli.sample.bytes"],
    }
    for c in VERIFY_CHECKS:
        out[f"verify.{c}_checks.s"] = total[(f"verify.{c}_checks",)]
    transforms = calls[("mellin.mellin_numeric",)]
    out.update({
        "mellin.mellin_numeric.calls": transforms,
        "mellin.density_points_per_transform": _ratio(mellin_points,
                                                      transforms),
        "mellin.window_points": window_points,
        "quad.panel_points": panel_points,
    })
    for c in QUAD_CALLERS:
        out[f"quad.adaptive_quad.calls.{c}"] = calls[("quad.adaptive_quad", c)]
    out["quad.gk15.calls"] = tracer.counts["quad.gk15.calls"]
    out["quad.adaptive_quad.self_s"] = self_time[("quad.adaptive_quad",)]
    for fam in PDF_FAMILIES:
        group = ("distributions.pdf", fam)
        out[f"distributions.pdf.calls.{fam}"] = calls[group]
        out[f"distributions.pdf.points.{fam}"] = size[group]
        out[f"distributions.pdf.us_per_pt.{fam}"] = _ratio(1e6 * total[group],
                                                           size[group])
    bessel = ("specfun.log_bessel_k_batch",)
    out.update({
        "specfun.log_bessel_k_batch.points": size[bessel],
        "specfun.log_bessel_k_batch.us_per_pt": _ratio(1e6 * total[bessel],
                                                       size[bessel]),
        "specfun.fallback_ratio": _ratio(
            calls[("quad.adaptive_quad", "specfun")], size[bessel]),
        "specfun.polygamma.calls": tracer.counts["specfun.polygamma.calls"],
    })
    for fam in SAMPLE_FAMILIES:
        group = ("sampling.sample", fam)
        out[f"sampling.sample.draws_per_s.{fam}"] = _ratio(size[group],
                                                           total[group])
    out["sampling.sample_compound.s"] = total[("sampling.sample_compound",)]
    out["sampling.raw_words_per_draw"] = _ratio(
        tracer.counts["sampling.raw_words"], draws)
    stats = ("estimation.empirical_log_stats",)
    out["estimation.empirical_log_stats.rows_per_s"] = _ratio(size[stats],
                                                              total[stats])
    for fam in FIT_FAMILIES:
        group = ("estimation.fit_molc", fam)
        out[f"estimation.fit_molc.ms.{fam}"] = _ratio(1e3 * total[group],
                                                      calls[group])
        out[f"estimation.fit_molc.iterations.{fam}"] = tracer.counts[
            f"estimation.fit_molc.iterations.{fam}"]
    for step in SWEEP_STEPS:
        out[f"sweep.{step}.s"] = total[(f"sweep.{step}",)]
    return out
