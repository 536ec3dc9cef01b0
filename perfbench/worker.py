"""One repetition of a benchmark workload in a fresh interpreter.

Started by run.py as

    python3 perfbench/worker.py --workload NAME --seed N --repetition K
                                --trace 0|1 [--smoke] [--spans-out FILE]

It imports every module of supercomod from the checkout's `src/`, prints
`PERFBENCH-READY`, runs repetition K of the workload's round and prints one line
`PERFBENCH-RESULT {json}` with the wall time, peak RSS, checks, cache
counters and, when traced, the per-layer figures. The interpreter is fresh,
so every lru_cache starts cold, as it does for each CLI invocation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repetition", type=int, default=0,
                        help="index of the repetition within the round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import tracer
    import workloads

    modules = tracer.package_modules()
    if not Path(modules[0].__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"supercomod was imported from {modules[0].__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    items = workloads.plan(args.workload, args.seed, args.smoke)[args.repetition]
    caches = tracer.find_caches()
    spans = tracer.Tracer()
    if args.trace:
        spans.install()
    print("PERFBENCH-READY", flush=True)

    outcomes = []
    error = None
    start = time.perf_counter()
    try:
        for item in items:
            outcomes.append(workloads.run_item(item))
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    wall_s = time.perf_counter() - start

    result = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcomes": outcomes,
        "error": error,
        "caches": tracer.cache_counters(caches),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if args.trace:
        result["layers"] = spans.metrics(wall_s)
        if args.spans_out:
            spans.dump(args.spans_out, {"workload": args.workload, "seed": args.seed})
    print("PERFBENCH-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
