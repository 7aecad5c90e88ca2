"""Workload passes of the clutterstats benchmark, and the workload process.

``bench/run.py`` starts this file as a separate single-threaded process:

    python3 bench/workloads.py --workload W --program-seed S --seconds R \
        --trace T --size full --out-dir D

with ``src`` on PYTHONPATH.  Every pass drives the program only through
``cli.main`` with a CLI ``--seed``, times each command, corrects that time
for the host speed sampled while it ran (hostspeed.py), and checks the
outputs outside the timed region.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clutterstats import (_quad, cli, distributions, estimation, mellin,
                          sampling, specfun, sweep, verify)

import tracing
from hostspeed import HostSpeed

DIGESTS = Path(__file__).with_name("digests.json")

# verify draws this many rows per Monte-Carlo check
MC_DRAWS_PER_CHECK = inspect.signature(
    verify.monte_carlo_checks).parameters["n"].default

# Every module whose bindings the tracer may replace; compared before and
# after a traced pass to prove that all wrappers were removed.
TRACED_NAMESPACES = (_quad, cli, distributions, estimation, mellin, sampling,
                     specfun, sweep, verify, sampling.SplitMix64)

# label, sample --family, sample --params, estimate arguments, the true
# parameters the estimate must recover, and the largest relative error a
# fitted parameter may have at 10^6 rows.  The tolerance widens as
# 1/sqrt(rows) at other sizes, the rate of the sampling error.  wnak gets
# twice the others because its alpha and b hinge on the noisy third
# log-cumulant (up to 4.1 % off over the recorded seeds; the others stay
# below 1.4 %).  wnak uses c != 2 because wnak(c=2) replays the K stream
# byte for byte.
ROUNDTRIP = (
    ("k", "k", "alpha=2,b=1", ["--family", "k"], {"alpha": 2.0, "b": 1.0},
     0.05),
    ("wnak", "wnak", "c=1.5,alpha=2,b=1", ["--family", "wnak"],
     {"c": 1.5, "alpha": 2.0, "b": 1.0}, 0.10),
    ("ggamma", "ggamma", "L=4,M=2,mu=1",
     ["--family", "gamma", "--speckle", "L=4"], {"L": 2.0, "mu": 1.0}, 0.05),
    ("fisher", "fisher", "L=3,M=4,mu=1", ["--family", "fisher"],
     {"L": 3.0, "M": 4.0, "mu": 1.0}, 0.05),
    ("gamma", "gamma", "L=4,mu=1", ["--family", "gamma"],
     {"L": 4.0, "mu": 1.0}, 0.05),
)

# full: the sizes users run.  tiny: the smoke run of the harness.
SIZES = {
    "full": {"verify": [], "rows": 10**6, "simulate": [],
             "simulate_rows": 40 * 10**5},
    "tiny": {"verify": ["--families", "gamma"], "rows": 3000,
             "simulate": ["--samples", "10000", "--M-grid", "0.5:4:3:log"],
             "simulate_rows": 3 * 10**4},
}


@dataclass
class Pass:
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    sample_rows: int = 0
    sample_s: float = 0.0
    estimate_rows: int = 0
    estimate_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


@dataclass
class Harness:
    """How passes run commands: host-speed sampling, optional tracing."""
    speed: HostSpeed
    tracer: tracing.Tracer | None = None

    def cli(self, result: Pass, argv: list[str]) -> tuple[int, str, float]:
        """Run one in-process CLI command; add its time to ``result``.

        Returns (exit code, stdout, host-corrected seconds).
        """
        buf = io.StringIO()
        span = (self.tracer.span("cli.main", argv[0]) if self.tracer
                else contextlib.nullcontext())
        mark = self.speed.mark()
        with contextlib.redirect_stdout(buf), span:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            raw = time.perf_counter() - start
        seconds = raw * self.speed.factor(mark)
        result.raw_wall_s += raw
        result.wall_s += seconds
        return code, buf.getvalue(), seconds


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_digest(result: Pass, label: str, path: Path, recorded) -> bool:
    got = sha256(path)
    result.digests[label] = got
    if recorded is None:
        return True
    want = recorded.get(label)
    if got != want:
        result.errors.append(f"{label}: digest {got[:12]} != recorded "
                             f"{str(want)[:12]}")
        return False
    return True


def oracle_pass(h: Harness, seed, size, out_dir, recorded) -> Pass:
    """The default `verify` suite: every CheckOutcome is one operation."""
    result = Pass()
    code, out, seconds = h.cli(
        result, ["verify", "--seed", str(seed)] + SIZES[size]["verify"])
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    result.attempted = len(lines)
    for ln in lines:
        if not ln.startswith("[PASS]"):
            result.fail(ln)
    if code != 0 and result.failed == 0:
        result.fail(f"verify exited {code}")
    mc_draws = MC_DRAWS_PER_CHECK * sum("monte-carlo" in ln for ln in lines)
    result.sample_rows = result.estimate_rows = mc_draws
    result.sample_s = result.estimate_s = seconds
    return result


_PARAM = re.compile(r"(\w+)=([-+0-9.eE]+|inf|nan)")


def fitted_params(out: str) -> dict[str, float]:
    line = next(ln for ln in out.splitlines() if ln.startswith("estimate:"))
    return {k: float(v) for k, v in _PARAM.findall(line)}


def roundtrip_pass(h: Harness, seed, size, out_dir, recorded) -> Pass:
    """sample --n rows to CSV, then estimate from it, for each spec."""
    result = Pass()
    rows = SIZES[size]["rows"]
    for label, family, params, fit_args, truth, rel_tol in ROUNDTRIP:
        tol = rel_tol * (10**6 / rows) ** 0.5
        result.attempted += 1
        csv = out_dir / f"roundtrip-{label}.csv"
        code, _, seconds = h.cli(
            result, ["sample", "--family", family, "--params", params, "--n",
                     str(rows), "--seed", str(seed), "--out", str(csv)])
        result.sample_rows += rows
        result.sample_s += seconds
        if code != 0:
            result.fail(f"{label}: sample exited {code}")
            continue
        if h.tracer:
            h.tracer.counts["cli.sample.bytes"] += csv.stat().st_size
        ok = check_digest(result, label, csv, recorded)
        code, out, seconds = h.cli(
            result, ["estimate", "--input", str(csv)] + fit_args)
        csv.unlink()
        result.estimate_rows += rows
        result.estimate_s += seconds
        if code != 0:
            result.fail(f"{label}: estimate exited {code}")
            continue
        fit = fitted_params(out)
        for name, want in truth.items():
            err = abs(fit.get(name, float("nan")) - want) / want
            if not err <= tol:
                ok = False
                result.errors.append(f"{label}: {name}={fit.get(name)} is "
                                     f"{err:.3g} from {want} (tol {tol:.3g})")
        if not ok:
            result.failed += 1
    return result


def sweep_pass(h: Harness, seed, size, out_dir, recorded) -> Pass:
    """`simulate` with its defaults plus --plot: one operation."""
    result = Pass(attempted=1)
    csv, svg = out_dir / "sweep.csv", out_dir / "sweep.svg"
    code, _, seconds = h.cli(
        result, ["simulate", "--seed", str(seed), "--out", str(csv),
                 "--plot", str(svg)] + SIZES[size]["simulate"])
    result.sample_s = result.estimate_s = seconds
    result.sample_rows = result.estimate_rows = SIZES[size]["simulate_rows"]
    if code != 0:
        result.fail(f"simulate exited {code}")
    elif not check_digest(result, "sweep", csv, recorded):
        result.failed += 1
    return result


WORKLOADS = {"oracle": oracle_pass, "roundtrip": roundtrip_pass,
             "sweep": sweep_pass}


def recorded_digests(workload: str, size: str, seed: int):
    table = json.loads(DIGESTS.read_text())
    return table.get(workload, {}).get(size, {}).get(str(seed), {})


def _bindings() -> list[tuple[object, str, object]]:
    return [(ns, name, value) for ns in TRACED_NAMESPACES
            for name, value in vars(ns).items()]


def _restored(before) -> bool:
    return all(vars(ns).get(name) is value for ns, name, value in before)


def traced_run(run, seed, size, out_dir, recorded):
    """One untraced pass, then one traced pass of the same inputs."""
    with HostSpeed() as speed:
        plain = run(Harness(speed), seed, size, out_dir, recorded)
        before = _bindings()
        tracer = tracing.Tracer()
        try:
            tracing.instrument(tracer)
            traced = run(Harness(speed, tracer), seed, size, out_dir, recorded)
        finally:
            tracer.restore()
    if not _restored(before):
        traced.fail("traced bindings were not restored")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead"] = traced.wall_s / plain.wall_s
    return [plain, traced], metrics, tracing.span_table(tracer)


def timed_run(run, seed, size, out_dir, recorded, seconds):
    """Passes until `seconds` have elapsed; medians over the passes."""
    passes = []
    start = time.perf_counter()
    with HostSpeed() as speed:
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run(Harness(speed), seed, size, out_dir, recorded))
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "sample_rows_per_s": statistics.median(
            p.sample_rows / p.sample_s for p in passes),
        "estimate_rows_per_s": statistics.median(
            p.estimate_rows / p.estimate_s for p in passes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--program-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    run = WORKLOADS[args.workload]
    recorded = recorded_digests(args.workload, args.size, args.program_seed)
    if args.trace:
        passes, metrics, spans = traced_run(
            run, args.program_seed, args.size, args.out_dir, recorded)
    else:
        spans = []
        passes, metrics = timed_run(
            run, args.program_seed, args.size, args.out_dir, recorded,
            args.seconds)
    print(json.dumps({
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": [e for p in passes for e in p.errors],
        "passes": len(passes),
        "metrics": metrics,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_raw_wall_s": [p.raw_wall_s for p in passes],
        "spans": spans,
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
