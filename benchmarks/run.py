"""Benchmark of the exact prover: one workload, one run, every sample in a fresh process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times set-up (several fresh processes, median),
then untraced passes in fresh processes until ``S`` seconds of passes have
elapsed (at least one), and reports ``wall_s``, ``setup_s`` and
``peak_rss_mb`` as medians.  With ``--trace 1`` it runs one untraced pass
and two traced passes, asserts that the traced passes report identical
deterministic counters, and reports the per-layer metrics named in
``BENCHMARK.json`` plus ``trace.overhead``.  Every pass is gated on its
output (see ``workloads.verify``); ``verdict_error_rate`` is the share of
gated verdicts that were wrong or raised.

Human-readable lines come first, with the machine and source the numbers
belong to; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import monotonic

import workloads
from tracer import CHECK_IDS

SETUP_SAMPLES = 5
# Every run must end within 180 s; a sample still running then is killed.
RUN_DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        digest.update(path.relative_to(workloads.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "source_sha256": digest.hexdigest()[:16],
    }


def sample(mode: str, name: str, seed: int, deadline: float) -> dict:
    cmd = [sys.executable, str(workloads.BENCH_DIR / "sample.py"), mode, name, str(seed)]
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} sample")
    try:
        proc = subprocess.run(
            cmd, cwd=workloads.ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} sample of {name} did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} sample of {name} exited with {proc.returncode}")
    return json.loads(lines[-1])


def checkout_ok() -> bool:
    missing = [p for p in (workloads.SRC / "doubled_algebroids", workloads.SCENARIOS) if not p.is_dir()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a full checkout",
              file=sys.stderr)
    return not missing


def verdicts(passes: list[dict]) -> tuple[int, int]:
    """Print every wrong verdict and the error rate; return (attempted, failed)."""
    for result in passes:
        for error in result["errors"]:
            print(f"WRONG: {error}")
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    print(f"verdict_error_rate  {failed / attempted:.4f} ratio  ({failed} of {attempted} verdicts)")
    return attempted, failed


def benchmark_spec() -> dict:
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_untraced(name: str, seed: int, seconds: int, deadline: float):
    setups = [sample("setup", name, seed, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes, start = [], monotonic()
    while not passes or monotonic() - start < seconds:
        passes.append(sample("pass", name, seed, deadline))
    walls = [r["wall_s"] for r in passes]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    print(f"wall_s              {values['wall_s']:.4f} s   median of {len(walls)} passes "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"setup_s             {values['setup_s']:.4f} s   median of {len(setups)} set-ups")
    print(f"peak_rss_mb         {values['peak_rss_mb']:.1f} MB  median of {len(passes)} passes")
    return values, passes


def _is_counter(metric: str) -> bool:
    """Counters (everything but times) must repeat exactly between traced passes."""
    return not (metric.endswith("_s") or metric.endswith(".s"))


def run_traced(name: str, seed: int, deadline: float):
    untraced = sample("pass", name, seed, deadline)
    traced = [sample("traced", name, seed, deadline) for _ in range(2)]
    first, second = (r["trace"] for r in traced)
    unstable = [m for m in first if _is_counter(m) and first[m] != second[m]]
    for metric in unstable:
        print(f"NONDETERMINISTIC: {metric} {first[metric]} != {second[metric]}")
    values = {
        m: first[m] if _is_counter(m) else statistics.median(r["trace"][m] for r in traced)
        for m in first
    }
    values["trace.overhead"] = statistics.median(r["wall_s"] for r in traced) / untraced["wall_s"]
    for metric, value in values.items():
        check = metric.split(".")[1] if metric.startswith("axioms.") else None
        if check in CHECK_IDS and not values[f"axioms.{check}.calls"]:
            continue  # per-check lines only for the checks this workload runs
        print(f"{metric:32s} {value:.6g}" if isinstance(value, float) else f"{metric:32s} {value}")
    return values, [untraced, *traced], unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + RUN_DEADLINE_S

    if not checkout_ok():
        return 2
    print(f"workload {args.workload}  seed {args.seed} (ordinal {workloads.ordinal(args.seed)})"
          f"  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in machine_info().items()))
    try:
        if args.trace:
            values, passes, unstable = run_traced(args.workload, args.seed, deadline)
            declared = benchmark_spec()["per_layer"]
        else:
            values, passes = run_untraced(args.workload, args.seed, args.seconds, deadline)
            unstable = []
            declared = benchmark_spec()["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = verdicts(passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0 and not unstable, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
