"""Run every workload, untraced and then traced, and print one trajectory row.

    python3 benchmarks/record.py --commit REV [--seed N] [--seconds S]

For each workload this prints ``wall_s``, ``setup_s``, ``peak_rss_mb`` and
``verdict_error_rate`` by name with their units, then the per-layer
breakdown.  The last line of standard output is the row: the machine, the
source digest, and per workload the end-to-end metrics, the verdict
counts and every per-layer metric.  Append it to
``benchmarks/trajectory.jsonl`` to extend the trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import monotonic

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--commit", required=True, help="revision the numbers belong to")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=run.benchmark_spec()["run_seconds"])
    args = parser.parse_args(argv)
    if not run.checkout_ok():
        return 2
    info = run.machine_info()
    print("machine " + "  ".join(f"{k}={v}" for k, v in info.items()))
    row = {"commit": args.commit, "seed": args.seed, "seconds": args.seconds, **info,
           "workloads": {}}
    try:
        for name in workloads.NAMES:
            print(f"== {name}")
            end_to_end, passes = run.run_untraced(
                name, args.seed, args.seconds, monotonic() + run.RUN_DEADLINE_S
            )
            per_layer, traced, unstable = run.run_traced(
                name, args.seed, monotonic() + run.RUN_DEADLINE_S
            )
            attempted, failed = run.verdicts(passes + traced)
            end_to_end["verdict_error_rate"] = failed / attempted
            row["workloads"][name] = {
                "end_to_end": end_to_end,
                "passes": len(passes),
                "attempted": attempted,
                "failed": failed,
                "nondeterministic": unstable,
                "per_layer": per_layer,
            }
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
