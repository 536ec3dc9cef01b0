"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(workload, trace):
    code, out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--smoke")
    assert code == 0
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    stamp = json.loads(lines[-2])["stamp"]
    for key in ("commit", "nproc", "python", "numpy", "loadavg_start"):
        assert stamp[key] is not None


def test_plan_depends_only_on_seed():
    for name in workloads.NAMES:
        assert workloads.plan(name, 7) == workloads.plan(name, 7)
    rounds = {tuple(tuple(i["suite"] for i in rep) for rep in workloads.plan("structure", s))
              for s in range(5)}
    assert len(rounds) > 1
    assert all(len(set(r)) == 6 for r in rounds)


def test_corrupted_reference_fails_the_check():
    reference = workloads.load_reference()
    items = workloads.plan("structure", 0, smoke=True)[0]
    outcomes = [copy.deepcopy(reference[workloads.reference_key(i)]) for i in items]
    assert workloads.judge(items, outcomes, reference)[1] == 0

    corrupted = copy.deepcopy(reference)
    checks = corrupted[workloads.reference_key(items[0])]
    checks[0][2] += " (altered)"
    attempted, failed, problems = workloads.judge(items, outcomes, corrupted)
    assert failed == 1 and attempted == sum(len(o) for o in outcomes) and problems

    outcomes[1] = None
    assert workloads.judge(items, outcomes, reference)[1] == len(
        reference[workloads.reference_key(items[1])])


def test_axiom_failure_counts():
    items = workloads.plan("axioms", 0, smoke=True)[0]
    outcomes = [[["axioms[b]", "fail", "coassociativity fails"]]] + [
        [["x", "pass", ""]] for _ in items[1:]]
    assert workloads.judge(items, outcomes, {})[:2] == (len(items), 1)


def test_missing_package_exits_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (bench / "reference.json").write_text((HERE / "reference.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "axioms",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
