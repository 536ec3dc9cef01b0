"""The benchmark reaches into the package from outside: the tracer patches
names it lists, and the workloads call functions with the keywords they
pass.  Each must still resolve, or `perfbench/run.py` breaks."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module, read from its path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def _lookup(module: str, attr: str):
    """supercomod.<module>.<attr>, where attr may be "Class.method"."""
    obj = importlib.import_module(f"supercomod.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_traced_layers_resolve():
    tracer = _load_tracer()
    missing = [(module, attr) for targets in tracer.LAYERS.values()
               for module, attr in targets if not callable(_lookup(module, attr))]
    assert not missing


def test_traced_caches_resolve():
    tracer = _load_tracer()
    missing = [(module, attr) for module, attr in tracer.CACHES.values()
               if not hasattr(_lookup(module, attr), "cache_info")]
    assert not missing


def test_axioms_workload_runs():
    # the axioms workload calls the bialgebra checks with `seed=` and `box=`
    workloads = _load("workloads")
    [items] = workloads.plan("axioms", seed=1, smoke=True)
    checks = [check for item in items for check in workloads.run_item(item)]
    assert len(checks) == len(items)
    assert all(status == "pass" for _, status, _ in checks), checks


def test_workload_suite_params_name_suite_parameters():
    # run_suite drops a key its suite does not read, so a renamed parameter
    # would leave the benchmark running the suite at its default
    from supercomod.verify import SUITES

    workloads = _load("workloads")
    items = [item for smoke in (False, True) for name in workloads.NAMES
             for repetition in workloads.plan(name, seed=1, smoke=smoke)
             for item in repetition if item["kind"] == "suite"]
    assert {item["suite"] for item in items} == {"brown_gitler", *workloads.STRUCTURE_SUITES}
    unread = [(item["suite"], key) for item in items for key in item["params"]
              if key not in inspect.signature(SUITES[item["suite"]]).parameters]
    assert not unread, unread
