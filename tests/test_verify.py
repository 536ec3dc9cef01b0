"""Verification battery: suite runners, report schema, parallel driver."""
from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supercomod import bialgebra, homsolver
from supercomod.verify import SUITES, SuiteReport, run_all, run_suite


def failures(rep):
    return [(c.name, c.witness) for c in rep.checks if c.status == "fail"]


# ---------------------------------------------------------------------------
# report plumbing


def test_report_schema():
    rep = run_suite("axioms", p=3, box=14)
    d = rep.as_dict()
    assert sorted(d) == ["checks", "claim", "params", "status", "suite"]
    assert d["suite"] == "axioms"
    assert d["params"]["p"] == 3 and d["params"]["box"] == 14
    assert d["claim"]
    for c in d["checks"]:
        assert sorted(c) == ["name", "status", "witness"]
        assert c["status"] in ("pass", "fail", "note")
    assert json.loads(rep.to_json()) == d


def test_fail_flips_status():
    rep = SuiteReport(suite="demo", params={})
    rep.add("good", True)
    assert rep.ok and rep.status == "pass"
    rep.note("aside", "informational only")
    assert rep.ok
    rep.add("bad", False, witness="broke")
    assert not rep.ok and rep.status == "fail"
    assert rep.as_dict()["status"] == "fail"


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_run_suite_drops_irrelevant_params():
    # the driver passes one parameter bag to every suite; members ignore
    # what they do not accept
    rep = run_suite("brown_gitler", p=3, n_max=2, box=30, a_max=9)
    assert rep.ok


def test_run_all_subset_parallel():
    reports = run_all(names=["mahowald", "brown_gitler"], jobs=2, p=3, n_max=2)
    assert [r.suite for r in reports] == ["mahowald", "brown_gitler"]
    assert all(r.ok for r in reports)


# The benchmark's recorded reports: every entry but the largest
# (brown_gitler n_max=24, several seconds) must come out the same here.
REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("key", [k for k in REFERENCE
                                 if k != 'brown_gitler {"n_max": 24, "p": 3}'])
def test_suites_reproduce_the_benchmark_reference(key):
    suite, _, params = key.partition(" ")
    rep = run_suite(suite, **json.loads(params))
    assert [[c.name, c.status, c.witness] for c in rep.checks] == REFERENCE[key]


def test_run_all_covers_registry():
    assert sorted(SUITES) == [
        "axioms",
        "brown_gitler",
        "fn_structure",
        "g_filtration",
        "h_tensor",
        "j0n",
        "mahowald",
        "tensor_splittings",
        "unstable",
    ]


# ---------------------------------------------------------------------------
# individual suites at reduced scale


@pytest.mark.parametrize("p,box", [(2, 16), (3, 14), (5, 14)])
def test_axioms(p, box):
    rep = run_suite("axioms", p=p, box=box)
    assert rep.ok, failures(rep)
    n_expected = 1 if p == 2 else 5
    assert len(rep.checks) == n_expected


@pytest.mark.parametrize("p,box", [(2, 14), (3, 24), (5, 24)])
def test_unstable(p, box):
    rep = run_suite("unstable", p=p, box=box)
    assert rep.ok, failures(rep)


def test_j0n_small():
    rep = run_suite("j0n", p=3, n_max=5, box=30)
    assert rep.ok, failures(rep)
    notes = [c for c in rep.checks if c.status == "note"]
    assert len(notes) == 1 and notes[0].name == "connectivity"


def test_tensor_splittings_small():
    rep = run_suite("tensor_splittings", p=3, a_max=2, b_max=1, box=24)
    assert rep.ok, failures(rep)


def test_g_filtration_small():
    rep = run_suite("g_filtration", p=3, a_max=3, box=30)
    assert rep.ok, failures(rep)


@pytest.mark.parametrize("p,n_max,box", [(3, 3, 30), (5, 2, 24)])
def test_fn_structure_small(p, n_max, box):
    rep = run_suite("fn_structure", p=p, n_max=n_max, box=box)
    assert rep.ok, failures(rep)


@pytest.mark.parametrize("p,n_max,m_max", [(3, 2, 8), (5, 1, 11)])
def test_mahowald_small(p, n_max, m_max):
    rep = run_suite("mahowald", p=p, n_max=n_max, m_max=m_max)
    assert rep.ok, failures(rep)


@pytest.mark.parametrize("p,n_max", [(3, 3), (5, 2)])
def test_brown_gitler_small(p, n_max):
    rep = run_suite("brown_gitler", p=p, n_max=n_max)
    assert rep.ok, failures(rep)


def test_h_tensor_small():
    rep = run_suite("h_tensor", p=3, n_max=2, box=24)
    assert rep.ok, failures(rep)


def test_brown_gitler_is_certified_without_a_hom_solve(monkeypatch):
    # every Theta J(eps,n) -> J(2n+eps) takes the closed-form candidate
    def refuse(*args, **kwargs):
        raise AssertionError("hom_space called")

    monkeypatch.setattr(homsolver, "hom_space", refuse)
    rep = run_suite("brown_gitler", p=3, n_max=4)
    assert rep.ok, failures(rep)


def test_every_live_preset_is_the_interned_one():
    # get_preset builds one preset per (name, p); no suite makes a copy
    assert run_suite("brown_gitler", p=3, n_max=4).ok
    live = [obj for obj in gc.get_objects() if isinstance(obj, bialgebra.CoalgebraPreset)]
    assert live and all(bialgebra._INTERNED_PRESETS[obj.name, obj.p] is obj for obj in live)


def test_tensor_splittings_are_certified_without_a_hom_solve(monkeypatch):
    # J(a,0) (x) J(0,b) -> J(a,b) takes the closed form into the cofree
    # J(a,b), and F(a,b) -> F(a,0) (x) F(0,b) the one out of the free F(a,b)
    def refuse(*args, **kwargs):
        raise AssertionError("hom_space called")

    monkeypatch.setattr(homsolver, "hom_space", refuse)
    rep = run_suite("tensor_splittings", p=3, a_max=2, b_max=2, box=24)
    assert rep.ok, failures(rep)


class _RecordingPool:
    """Stands in for the process pool: records its size, maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, names):
        return map(fn, names)


def test_run_all_caps_the_workers_at_the_number_of_suites(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    reports = run_all(names=["mahowald", "brown_gitler"], jobs=64, p=3, n_max=1, m_max=2)
    assert [r.suite for r in reports] == ["mahowald", "brown_gitler"]
    assert _RecordingPool.sizes == [2]
    # one suite runs in this process, whatever jobs asks for
    assert run_all(names=["brown_gitler"], jobs=64, p=3, n_max=1)[0].ok
    assert _RecordingPool.sizes == [2]
    for jobs in (0, -1):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_all(names=["brown_gitler"], jobs=jobs, p=3, n_max=1)


def test_importing_verify_leaves_out_the_process_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, supercomod.verify; "
            "print('concurrent.futures.process' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "False"
