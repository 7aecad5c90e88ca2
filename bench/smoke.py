"""Smoke run of the benchmark harness at tiny sizes (about a minute).

    python3 bench/smoke.py

Runs bench/run.py on every workload at ``--size tiny``, untraced and
traced, and checks that each run is correct and prints exactly the metrics
BENCHMARK.json names, with the same units.  A traced run is only correct if
every wrapped binding was restored afterwards, and a second traced run
must repeat its counts exactly.  Last, it runs the benchmark
in a directory holding only BENCHMARK.json and bench/, where it must fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                           *args], cwd=root, capture_output=True, text=True,
                          timeout=180)


COUNT_UNITS = ("count", "points", "bytes", "words")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    counts = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1, 1):
            label = f"{workload} --trace {trace}"
            done = run(ROOT, "--workload", workload, "--seed", "0",
                       "--seconds", "1", "--trace", str(trace),
                       "--size", "tiny")
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-400:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json:"
                                f" {sorted(set(units) ^ set(wanted[trace]))}")
            if not result["correct"]:
                problems.append(f"{label}: incorrect: {done.stdout[-400:]}")
            if trace:
                got = {n: m["value"] for n, m in result["metrics"].items()
                       if m["unit"] in COUNT_UNITS}
                if counts.setdefault(workload, got) != got:
                    problems.append(f"{label}: counts changed between runs")
            print(f"{label}: {result['attempted']} attempted, "
                  f"{result['failed']} failed")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(bare, "--workload", "sweep", "--seed", "0", "--seconds", "1",
               "--trace", "0")
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append("bare directory: the benchmark did not refuse to run")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    print("smoke: ok" if not problems else "smoke: failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
