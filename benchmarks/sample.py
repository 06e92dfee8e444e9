"""One sample of a workload, in its own process.

    python3 benchmarks/sample.py setup|pass|traced WORKLOAD SEED

``setup`` times importing the engine, parsing and validating the inputs and
building each realization once.  ``pass`` times one untraced pass and
records the process's peak memory; ``traced`` does the same with every
layer wrapped by ``tracer``.  Both pass modes then gate the output.  The
last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from time import perf_counter

import workloads
from tracer import Tracer


def main(mode: str, name: str, seed: int) -> dict:
    if mode == "setup":
        t0 = perf_counter()
        eng = workloads.import_engine()
        workloads.setup(eng, name, seed)
        return {"setup_s": perf_counter() - t0}

    eng = workloads.import_engine()
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    attempted = workloads.attempted(name)
    t0 = perf_counter()
    try:
        out = workloads.run_pass(eng, name, seed)
        errors = None
    except Exception:  # a raised pass: every verdict it owed counts as failed
        traceback.print_exc()
        errors = ["pass raised"] * attempted
    result = {
        "attempted": attempted,
        "wall_s": perf_counter() - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
    if errors is None:
        try:
            errors = workloads.verify(eng, name, seed, out)
        except Exception:
            traceback.print_exc()
            errors = ["output gate raised"] * attempted
    result.update(failed=min(len(errors), attempted), errors=errors)
    return result

if __name__ == "__main__":
    mode, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    print(json.dumps(main(mode, name, seed)))
