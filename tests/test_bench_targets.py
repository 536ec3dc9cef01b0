"""The benchmark's tracer patches package names from outside; each name it
lists must still exist, or `perfbench/run.py --trace 1` breaks."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
