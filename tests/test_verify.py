"""Verification battery: suite runners, report schema, parallel driver."""
from __future__ import annotations

import gc
import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from supercomod import bialgebra, homsolver, verify
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
    reports = run_all(names=["mahowald", "brown_gitler"], p=3, n_max=2)
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


# Every suite's full report (suite, params, status, checks, claim) at small
# sizes, recorded before the runner took over building the reports.
GOLDEN = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reports_match_the_recorded_ones(monkeypatch, p):
    golden = json.loads((GOLDEN / f"reports_p{p}.json").read_text())
    for cpus in (1, 2):  # run_all inline, and through a fork
        usable_cpus(monkeypatch, cpus)
        reports = run_all(p=p, box=10, n_max=2, m_max=6, a_max=1, b_max=1)
        assert [r.as_dict() for r in reports] == golden, f"{cpus} CPUs"
    assert_no_child_left()


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


def assert_refused(name, least, param="box", **params):
    """run_suite refuses the parameter (the box by default) with a ValueError
    naming its least value."""
    with pytest.raises(ValueError, match=f"the least {param} for these parameters is {least}$"):
        run_suite(name, **params)


# the least box of unstable is the degree of P^1 x = x^p: 2 at p = 2, else 2p
@pytest.mark.parametrize("p,box", [(2, 14), (3, 24), (5, 24), (2, 1), (2, 2), (3, 5), (3, 6),
                                   (5, 9), (5, 10)])
def test_unstable(p, box):
    least = 2 if p == 2 else 2 * p
    if box < least:
        assert_refused("unstable", least, p=p, box=box)
        return
    rep = run_suite("unstable", p=p, box=box)
    assert rep.ok, failures(rep)


def test_unstable_builds_one_action_table(monkeypatch):
    from supercomod import comodule, verify

    built = []

    def counting(M, real=comodule.action_table):
        built.append(M)
        return real(M)

    monkeypatch.setattr(comodule, "action_table", counting)
    monkeypatch.setattr(verify, "action_table", counting)
    for p in (2, 3, 5):
        built.clear()
        assert run_suite("unstable", p=p, box=24).ok
        assert len(built) == 1, p


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


# the least box of fn_structure is n_max, where F(a,b) with a + 2b = n_max starts
@pytest.mark.parametrize("p,n_max,box", [(3, 3, 30), (5, 2, 24), (3, 3, 2), (3, 3, 3)])
def test_fn_structure_small(p, n_max, box):
    if box < n_max:
        assert_refused("fn_structure", n_max, p=p, n_max=n_max, box=box)
        return
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


# the least box of each suite, or (parameter, least value) for another
# parameter: below it a check would be decided on no instance, or on an
# object that the box leaves empty
@pytest.mark.parametrize("name,params,least", [
    ("h_tensor", {"p": 3, "n_max": 2}, 5),  # the witness H^(x)2 at (1,2)
    ("h_tensor", {"p": 5, "n_max": 2}, 5),
    ("h_tensor", {"p": 2, "n_max": 2}, 0),
    ("tensor_splittings", {"p": 3, "a_max": 2, "b_max": 1}, 4),  # F(a,b) starts at a + 2b
    ("g_filtration", {"p": 5, "a_max": 3}, 3),  # F(a,0) starts in degree a
    ("mahowald", {"p": 3, "m_max": 4}, ("n_max", 1)),  # the sequences start at n = 1
    ("mahowald", {"p": 3, "n_max": 1}, ("m_max", 4)),  # m = 1..p+1: every residue, 1 twice
    ("mahowald", {"p": 5, "n_max": 1}, ("m_max", 6)),
])
def test_suite_refuses_a_box_below_its_least(name, params, least):
    param, least = least if isinstance(least, tuple) else ("box", least)
    if least:
        assert_refused(name, least, param, **{param: least - 1}, **params)
    rep = run_suite(name, **{param: least}, **params)
    assert rep.ok, failures(rep)


# every size parameter of every suite (all but p)
SIZE_PARAMS = [(name, param) for name, fn in SUITES.items()
               for param in list(inspect.signature(fn).parameters)[2:]]


@pytest.mark.parametrize("name,param", SIZE_PARAMS)
def test_every_size_parameter_refuses_minus_one(name, param):
    # a negative size would decide the suite on no instance, or on none of
    # its objects
    with pytest.raises(ValueError, match=f"cannot decide its checks at {param} -1: "
                                         f"the least {param} for these parameters is"):
        run_suite(name, p=3, **{param: -1})


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


def test_importing_verify_leaves_out_the_process_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, supercomod.verify; "
            "print('concurrent.futures.process' in sys.modules, 'pickle' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "False False"


# ---------------------------------------------------------------------------
# independent rows on every usable CPU


def usable_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 32])
def test_fan_out_splits_the_items_between_two_processes(monkeypatch, cpus):
    # one child, however many CPUs are usable
    usable_cpus(monkeypatch, cpus)
    rows = verify._fan_out(lambda x: (x, os.getpid()), list(range(5)))
    assert [x for x, _ in rows] == list(range(5))
    parent = {pid for _, pid in rows[0::2]}
    child = {pid for _, pid in rows[1::2]}
    assert parent == {os.getpid()} and len(child) == 1 and child != parent
    assert_no_child_left()


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds through /proc")
@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_fan_out_computes_every_row_here_when_it_cannot_fork(monkeypatch, call):
    # a host short of processes or memory refuses the pipe or the fork
    usable_cpus(monkeypatch, 2)
    suites = [("brown_gitler", {"n_max": 3}), ("fn_structure", {"n_max": 3, "box": 12})]
    monkeypatch.setattr(verify, "_INLINE", True)
    inline = [run_suite(name, p=3, **params).as_dict() for name, params in suites]
    monkeypatch.setattr(verify, "_INLINE", False)

    def refuse(*args):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, call, refuse)
    before = open_fds()
    assert [run_suite(name, p=3, **params).as_dict() for name, params in suites] == inline
    assert open_fds() == before
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3, None])
def test_brown_gitler_report_is_the_same_on_any_number_of_cpus(monkeypatch, cpus):
    if cpus is None:  # no sched_getaffinity: os.cpu_count() says how many
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        usable_cpus(monkeypatch, cpus)
    got = run_suite("brown_gitler", p=3, n_max=4).as_dict()
    monkeypatch.setattr(verify, "_INLINE", True)
    assert got == run_suite("brown_gitler", p=3, n_max=4).as_dict()
    assert got["status"] == "pass" and len(got["checks"]) == 10
    assert_no_child_left()


STRUCTURE_SUITES = {
    "fn_structure": {"n_max": 4, "box": 20},
    "tensor_splittings": {"a_max": 2, "b_max": 2, "box": 20},
    "mahowald": {"n_max": 2, "m_max": 6},
}


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(STRUCTURE_SUITES))
def test_structure_report_is_the_same_on_any_number_of_cpus(monkeypatch, name, cpus):
    usable_cpus(monkeypatch, cpus)
    got = run_suite(name, p=3, **STRUCTURE_SUITES[name]).as_dict()
    monkeypatch.setattr(verify, "_INLINE", True)
    assert got == run_suite(name, p=3, **STRUCTURE_SUITES[name]).as_dict()
    assert got["status"] == "pass"
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds through /proc")
def test_fn_structure_reraises_an_error_of_the_odd_rows(monkeypatch):
    # row n builds PhiF(a) only for a = n mod 2, so the odd a fail in the child's share
    usable_cpus(monkeypatch, 2)
    build_PhiF = verify.build_PhiF

    def odd_fails(p, a, box):
        if a % 2:
            raise ValueError("odd row")
        return build_PhiF(p, a, box)

    monkeypatch.setattr(verify, "build_PhiF", odd_fails)
    before = open_fds()
    with pytest.raises(ValueError, match="^odd row$"):
        run_suite("fn_structure", p=3, n_max=3, box=12)
    assert open_fds() == before
    assert_no_child_left()


def raise_on(*bad):
    def row(x):
        if x in bad:
            raise ValueError(f"row {x} is wrong")
        return x
    return row


@pytest.mark.parametrize("bad", [3, 0])  # in the child's share, in this process's
def test_fan_out_reraises_a_row_error_and_leaves_no_child(monkeypatch, bad):
    usable_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=f"^row {bad} is wrong$"):
        verify._fan_out(raise_on(bad), list(range(6)))
    assert_no_child_left()


@pytest.mark.parametrize("bad", [(1, 2), (2, 3)])  # the even rows are this process's share
@pytest.mark.parametrize("cpus", [1, 2])
def test_fan_out_raises_the_error_of_the_first_item_on_any_number_of_cpus(monkeypatch, cpus,
                                                                          bad):
    usable_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match=f"^row {bad[0]} is wrong$"):
        verify._fan_out(raise_on(*bad), list(range(4)))
    assert_no_child_left()


def test_neither_share_of_a_fan_out_fans_out_again(monkeypatch):
    usable_cpus(monkeypatch, 2)
    assert verify._fan_out(lambda x: verify._INLINE, list(range(4))) == [True] * 4
    assert verify._INLINE is False
    with pytest.raises(ValueError, match="^row 2 is wrong$"):
        verify._fan_out(raise_on(2), list(range(4)))
    assert verify._INLINE is False
    assert_no_child_left()


def test_fan_out_names_a_child_that_dies_without_its_rows(monkeypatch):
    usable_cpus(monkeypatch, 2)

    def row(x):
        if x == 1:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match=r"fan-out child \d+ died without its rows "
                                           r"\(exit status 3\)"):
        verify._fan_out(row, list(range(4)))
    assert_no_child_left()


def refuse_fork():
    raise AssertionError("os.fork called")


def test_fan_out_runs_inline_without_os_fork(monkeypatch):
    usable_cpus(monkeypatch, 3)
    monkeypatch.delattr(os, "fork")
    assert verify._fan_out(lambda x: (x, os.getpid()), list(range(4))) == \
        [(x, os.getpid()) for x in range(4)]


def test_fork_is_never_called_while_the_fan_out_is_off(monkeypatch):
    monkeypatch.setattr(os, "fork", refuse_fork)
    usable_cpus(monkeypatch, 1)
    assert run_suite("brown_gitler", p=3, n_max=2).ok
    assert run_suite("tensor_splittings", p=3, a_max=1, b_max=1, box=12).ok
    # in a share of a fan-out, on any number of CPUs
    usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(verify, "_INLINE", True)
    assert run_suite("brown_gitler", p=3, n_max=2).ok
    assert run_suite("tensor_splittings", p=3, a_max=1, b_max=1, box=12).ok
    assert verify._fan_out(raise_on(None), list(range(4))) == list(range(4))


def test_fan_out_runs_inline_beside_another_thread(monkeypatch):
    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert verify._fan_out(raise_on(None), list(range(4))) == list(range(4))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
