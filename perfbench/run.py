"""Benchmark of supercomod: time, memory and layer split to a certified verdict.

    python3 perfbench/run.py --workload axioms|brown_gitler|structure
                             --seed N --seconds S --trace 0|1 [--smoke]

Run from any directory; the package is taken from `src/` next to this
directory. Each repetition is a fresh worker process (worker.py), so the
package's caches start cold, as they do for every CLI invocation. One worker
runs at a time. A round is the workload's list of repetitions
(workloads.plan); at least one round runs, and rounds continue while another
one fits in `--seconds`. Every figure is the median over the repetitions.

--trace 0 reports the end-to-end metrics:
    wall_s       first call into supercomod until the verdict
    setup_s      process start plus `import supercomod.*`, until the worker is ready
    peak_rss_mb  ru_maxrss of the worker
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics (tracer.py), the cache counters, and the tracing overhead
(traced wall minus untraced wall). Spans of each traced repetition are
written to `.perfbench_out/` in the checkout.

Every repetition's checks are judged against workloads.judge; `attempted`
and `failed` count checks, so failed / attempted is the failure fraction.
The last line of standard output is the result as one JSON object. The
line before it stamps the run (commit, nproc, Python, numpy, load average).
Exit code 2, with no result, when the package or the reference is missing.
`--smoke` runs tiny sizes of every workload; test_perfbench.py uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Leaves room under the 180 s a run may take, whatever --seconds says.
HARD_LIMIT_S = 165.0
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


class SetupError(Exception):
    """The worker could not import the package; no result is printed."""


def run_worker(workload: str, seed: int, repetition: int, traced: bool,
               smoke: bool, deadline: float) -> dict:
    """Start one worker, time its set-up, and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--repetition", str(repetition),
           "--trace", str(int(traced))]
    if smoke:
        cmd.append("--smoke")
    if traced:
        OUT.mkdir(exist_ok=True)
        name = f"{workload}-seed{seed}-rep{repetition}.spans.json"
        cmd += ["--spans-out", str(OUT / name)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != READY:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            raise SetupError(f"worker exited with {proc.returncode} before it was ready")
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return {"error": "worker timed out", "outcomes": [], "setup_s": setup_s}
        lines = [ln for ln in out.splitlines() if ln.startswith(RESULT)]
        if proc.returncode != 0 or not lines:
            return {"error": f"worker exited with {proc.returncode}", "outcomes": [],
                    "setup_s": setup_s}
        result = json.loads(lines[-1][len(RESULT):])
        result["setup_s"] = setup_s
        return result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def layer_metrics(pairs: list) -> dict:
    """Median of each per-layer figure over the traced repetitions.

    `pairs` holds (untraced, traced) repetitions run back to back; the
    tracing overhead is the median of their wall-time differences.
    """
    rows = [{**t["layers"], **t["caches"]} for _, t in pairs]
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    out["trace.untraced_wall_s"] = statistics.median(u["wall_s"] for u, _ in pairs)
    out["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    return out


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "coverage")):
        return "fraction"
    return "count"


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload")
    args = parser.parse_args()

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    load_start = os.getloadavg()
    if not (ROOT / "src" / "supercomod" / "__init__.py").is_file():
        print(f"no supercomod package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    round_ = workloads.plan(args.workload, args.seed, args.smoke)
    try:
        reference = workloads.load_reference()
        for items in round_:
            for item in items:
                workloads.expected_checks(item, reference)
    except (OSError, KeyError, ValueError) as exc:
        print(f"reference missing or incomplete ({exc!r}); "
              "run perfbench/record_reference.py", file=sys.stderr)
        return 2

    # Whole rounds only, so every run measures the same mix. Untraced runs
    # measure every repetition; traced runs follow each untraced repetition
    # with the same one traced, so the tracing overhead is a paired figure.
    kinds = (False, True) if args.trace else (False,)
    reps: list = []
    attempted = failed = 0
    problems: list = []
    try:
        while True:
            round_start = time.perf_counter()
            for index, items in enumerate(round_):
                for traced in kinds:
                    rep = run_worker(args.workload, args.seed, index, traced,
                                     args.smoke, deadline)
                    rep["traced"] = traced
                    reps.append(rep)
                    a, f, p = workloads.judge(items, rep.get("outcomes", []), reference)
                    attempted, failed = attempted + a, failed + f
                    problems += p + ([rep["error"]] if rep.get("error") else [])
            now = time.perf_counter()
            if problems or now + (now - round_start) > min(start + args.seconds, deadline):
                break
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    good = [r for r in reps if not r.get("error")]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    pairs = [(u, t) for u, t in zip(reps[0::2], reps[1::2])
             if not u.get("error") and not t.get("error")]
    if args.trace and pairs:
        metrics = layer_metrics(pairs)
    elif not args.trace and untraced:
        metrics = {key: statistics.median(r[key] for r in untraced) for key in UNITS}
    else:
        metrics = {}
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)

    stamp = {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": good[0]["python"] if good else sys.version.split()[0],
        "numpy": good[0]["numpy"] if good else None,
        "loadavg_start": load_start,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "repetitions": {"untraced": len(untraced), "traced": len(traced),
                        "failed": len(reps) - len(good)},
    }
    print(json.dumps({"stamp": stamp}))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"stamp": stamp, "repetitions": [
            {k: v for k, v in r.items() if k != "outcomes"} for r in reps]}, fh)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
