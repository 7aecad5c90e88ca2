"""clutterstats benchmark: three closed-loop workloads, each in its own
single-threaded process, plus a separate traced run for per-layer numbers.

    python3 bench/run.py --workload {oracle,roundtrip,sweep} --seed N \
        --seconds S --trace {0,1} [--held-out] [--size {full,tiny}]

It finds its checkout from its own path, imports the program from the
checkout's ``src``, writes only under ``.bench_out``, and pins itself and
the processes it starts to one core.

Workloads (why each one is here):

* ``oracle``: the default ``verify`` suite, the gate every change runs and
  the slowest user command.  Mostly wnak per-abscissa quadrature and the
  Bessel-K batch; sampling and estimation are about 5 % of it.
* ``roundtrip``: ``sample --n 1000000`` to CSV then ``estimate`` from it for
  k, wnak(c=1.5), ggamma (fitted as gamma with a known L=4 speckle), fisher
  and gamma.  Mostly CSV formatting and parsing in ``cli``, plus samplers
  at 10^6 draws and every MoLC solver; no quadrature at all.
* ``sweep``: ``simulate`` with its defaults and ``--plot``.  Almost all
  ``sample_compound`` and ``empirical_log_stats`` over many small batches.

The benchmark ``--seed`` picks the program seed SEEDS[seed % len(SEEDS)];
``--held-out`` runs HELD_OUT_SEED instead, a seed kept out of that pool so
a later claim can be re-checked on inputs not used while writing it.  Each
program seed has its output digests recorded in ``bench/digests.json``.

End-to-end metrics (``--trace 0``; timings are medians over the passes that
fit in ``--seconds``, at least one pass).  Every time is corrected for host
speed by a reference kernel sampled on the same core while it was taken
(hostspeed.py); the raw times are printed and kept in ``.bench_out`` too:

* ``setup_s``: median over fresh interpreters of ``python3 -m
  clutterstats.cli --help`` (import the package, build the CLI parser).
* ``wall_s``: one pass of the workload, summed over its CLI commands.
* ``sample_rows_per_s``: rows drawn per second of the commands that draw
  them: the ``sample`` commands on roundtrip, ``verify`` (10^6 Monte-Carlo
  draws per check) on oracle, ``simulate`` on sweep.
* ``estimate_rows_per_s``: rows whose log statistics are estimated per
  second of the commands that estimate them (``estimate``; ``verify``;
  ``simulate``).  On oracle and sweep both rates share one command.
* ``peak_rss_mb``: peak resident memory of the workload process.

``failed_frac`` (failed / attempted operations: one check on oracle, one
sample+estimate round on roundtrip, one simulate run on sweep) is printed
with the metrics and carried by the ``attempted``/``failed`` fields of the
result line.  It is 0 when the program is correct, so it is not a bounded
metric.  Per-layer metrics (``--trace 1``) are documented in tracing.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_S, time_kernel
from tracing import per_layer_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("oracle", "roundtrip", "sweep")
# Program seeds 8 and 11 are left out: verify's Monte-Carlo gate fails there
# (max |z| 4.23 and 4.19 against a gate of 4).  Its z uses a standard error
# from 10 splits, so z follows a t distribution with 9 degrees of freedom,
# and |t_9| > 4 has a probability near 0.3 % per order and check.
SEEDS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13, 14, 15, 16)
HELD_OUT_SEED = 1001
SETUP_RUNS = 15
DEADLINE_S = 170.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sample_rows_per_s": "1/s",
    "estimate_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# the `@` products in specfun must not spread over cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure_setup(env) -> tuple[float, float]:
    """Median start-up time, host-corrected and raw.

    One untimed run fills the bytecode cache.  The reference kernel runs
    just before each start on the same pinned core, and corrects that start
    as hostspeed.HostSpeed does.  No timeout: with one, the wait polls and
    rounds each time up to 50 ms.
    """
    argv = [sys.executable, "-m", "clutterstats.cli", "--help"]
    raw, corrected = [], []
    for i in range(SETUP_RUNS + 1):
        kernel_s = statistics.mean(time_kernel() for _ in range(4))
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        if i:
            raw.append(time.perf_counter() - start)
            corrected.append(raw[-1] * NOMINAL_S / kernel_s)
    return statistics.median(corrected), statistics.median(raw)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_facts(child: dict, nproc: int) -> dict:
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "commit": _commit(),
        "wc_l_src": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="run the held-out program seed")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    args = parser.parse_args(argv)

    if not (SRC / "clutterstats" / "__init__.py").is_file():
        print(f"error: no clutterstats sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    # one core for this process and its children, so that the reference
    # kernel of measure_setup runs where the interpreters it corrects run
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    program_seed = HELD_OUT_SEED if args.held_out else SEEDS[args.seed % len(SEEDS)]
    env = program_env()
    OUT.mkdir(exist_ok=True)

    if not args.trace:
        setup_s, raw_setup_s = measure_setup(env)
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"),
             "--workload", args.workload, "--program-seed", str(program_seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size, "--out-dir", str(OUT)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: workload process timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: workload process exited {done.returncode}",
              file=sys.stderr)
        return 1
    child = json.loads(lines[-1])
    if child["attempted"] < 1:
        print("error: the workload attempted no operation", file=sys.stderr)
        return 1

    if args.trace:
        metrics_units = per_layer_units()
    else:
        child["metrics"]["setup_s"] = setup_s
        metrics_units = END_TO_END_UNITS
    metrics = {name: {"value": child["metrics"][name], "unit": unit}
               for name, unit in metrics_units.items()}
    attempted, failed = child["attempted"], child["failed"]
    facts = machine_facts(child, len(cpus))
    record = {"workload": args.workload, "seed": args.seed,
              "program_seed": program_seed, "trace": args.trace,
              "size": args.size, "passes": child["passes"], "facts": facts,
              "errors": child["errors"], "pass_wall_s": child["pass_wall_s"],
              "pass_raw_wall_s": child["pass_raw_wall_s"],
              "raw_setup_s": None if args.trace else raw_setup_s,
              "metrics": metrics, "spans": child["spans"]}
    name = f"{args.workload}-{args.size}-p{program_seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("facts " + json.dumps(facts))
    print(f"workload {args.workload}  program seed {program_seed}  "
          f"passes {child['passes']}")
    for error in child["errors"]:
        print(f"FAILED {error}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    raw_wall = statistics.median(child["pass_raw_wall_s"])
    print(f"{'raw wall_s (no host-speed correction)':48s} {raw_wall:>16.6g} s")
    if not args.trace:
        print(f"{'raw setup_s (no host-speed correction)':48s} "
              f"{raw_setup_s:>16.6g} s")
    print(f"{'failed_frac':48s} {failed / attempted:>16.6g} "
          f"({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
