"""Record the CSV digests that the roundtrip and sweep workloads check.

    PYTHONPATH=src python3 bench/record_digests.py --size full --seeds 1,2

Runs each pass with its digest check off (the roundtrip fit tolerance still
applies) and stores the sha256 of every CSV in bench/digests.json.  Seeded
output is meant to be byte-stable, so a digest only needs re-recording when
a change alters the documented random streams on purpose.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--seeds", required=True,
                        help="comma list of program seeds")
    parser.add_argument("--out-dir", type=Path, default=Path(".bench_out"))
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    status = 0
    for seed in (int(s) for s in args.seeds.split(",")):
        for name in ("roundtrip", "sweep"):
            harness = workloads.Harness(workloads.HostSpeed())
            result = workloads.WORKLOADS[name](harness, seed, args.size,
                                               args.out_dir, None)
            if result.failed:
                print(f"{name} seed {seed}: not recorded: {result.errors}",
                      file=sys.stderr)
                status = 1
                continue
            print(f"{name} seed {seed}: {result.digests}")
            # re-read so that concurrent recorders do not drop each other's rows
            current = json.loads(workloads.DIGESTS.read_text())
            current.setdefault(name, {}).setdefault(args.size, {})[str(seed)] = \
                result.digests
            workloads.DIGESTS.write_text(json.dumps(current, indent=1,
                                                    sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
