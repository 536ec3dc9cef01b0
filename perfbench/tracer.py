"""Per-layer spans for supercomod, recorded from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
`LAYERS` with wrappers that record one span (name, start, end, parent)
per call. A wrapped function is patched in every `supercomod` module
namespace that bound it (through `from .x import y`) and, for methods,
on the class. Nothing inside `src/` is edited.

Self time of a span is its duration minus the time its direct child spans
cover. Work a wrapper does to observe a result (counting nonzeros, unique
rows) is timed separately as `trace.observe_s` and is removed from the
enclosing span, so it never shows up as a layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import defaultdict

import numpy as np

# span name -> [(module, attribute)]; "Class.method" patches the class.
LAYERS = {
    "bialgebra.coproduct": [("bialgebra", "coproduct")],
    "bialgebra.axioms": [("bialgebra", "check_bialgebra_axioms")],
    "bialgebra.hopf_ideal": [("bialgebra", "check_hopf_ideal")],
    "bialgebra.enumerate": [
        ("bialgebra", "enumerate_left"),
        ("bialgebra", "enumerate_component"),
        ("bialgebra", "enumerate_box"),
    ],
    "objects.build": [
        ("objects", name)
        for name in ("build_J", "build_Jn", "build_F", "build_Fn", "build_H",
                     "build_H_tensor", "build_PhiF", "psi_H", "theta_psi_H",
                     "theta_F", "theta_J")
    ],
    "objects.maps": [
        ("objects", name)
        for name in ("cap_morphism", "verschiebung", "verschiebung_twisted",
                     "xi0_multiplication", "u_suspension_iso", "mu_quotient",
                     "canonical_l", "canonical_r", "canonical_u")
    ],
    "comodule.construct": [
        ("comodule", name)
        for name in ("tensor", "suspend", "corestrict_psi", "corestrict_theta",
                     "embed_xi_polynomial", "direct_sum", "truncate",
                     "dualize_left")
    ],
    "comodule.check": [("comodule", "ComoduleMorphism.check")],
    "comodule.morphism": [
        ("comodule", "ComoduleMorphism.compose"),
        ("comodule", "ComoduleMorphism.add"),
        ("comodule", "ComoduleMorphism.sub"),
        ("comodule", "ComoduleMorphism.scale"),
        ("comodule", "morphism_from_assignment"),
        ("comodule", "summand_inclusion"),
        ("comodule", "summand_projection"),
    ],
    "homsolver.hom_space": [("homsolver", "hom_space")],
    "homsolver.find_isomorphism": [("homsolver", "find_isomorphism")],
    "homsolver.derived": [
        ("homsolver", name)
        for name in ("kernel", "image", "cokernel", "equalizer", "is_exact",
                     "is_short_exact", "is_isomorphism")
    ],
    "fplinalg.rref": [("fplinalg", "FpMatrix.rref")],
    "fplinalg.other": [
        ("fplinalg", "FpMatrix.kernel_basis"),
        ("fplinalg", "FpMatrix.solve"),
        ("fplinalg", "FpMatrix.row_space_basis"),
        ("fplinalg", "FpMatrix.in_row_space"),
    ],
    "functorcomb": [
        ("functorcomb", name)
        for name in ("count_distinct_powers", "count_power_multisets",
                     "count_hom", "count_hom_gamma_gamma", "hom_lambda_gamma",
                     "hom_gamma_lambda", "eval_dims", "poincare_r_prime")
    ],
    "verify": [("verify", "run_suite")],
}

# The layer of a span is the part of its name before the first dot.
LAYER_NAMES = tuple(dict.fromkeys(name.split(".")[0] for name in LAYERS))

# Public lru_cache counters, read from the original cache objects.
CACHES = {
    "bialgebra.coproduct": ("bialgebra", "coproduct"),
    "functorcomb.count_hom": ("functorcomb", "count_hom"),
    "functorcomb.count_distinct_powers": ("functorcomb", "count_distinct_powers"),
    "functorcomb.count_power_multisets": ("functorcomb", "count_power_multisets"),
}

PACKAGE = "supercomod"


def package_modules() -> list:
    """Import and return every module of the package."""
    pkg = importlib.import_module(PACKAGE)
    return [pkg] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                    for info in pkgutil.iter_modules(pkg.__path__)]


def find_caches() -> dict:
    """The cache objects in CACHES; take them before `Tracer.install`."""
    return {name: getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
            for name, (module, attr) in CACHES.items()}


def cache_counters(caches: dict) -> dict:
    """hits, misses, size and hit ratio of each cache from `find_caches`."""
    out = {}
    for name, cached in caches.items():
        info = cached.cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
        out[f"{name}.size"] = info.currsize
        calls = info.hits + info.misses
        out[f"{name}.hit_ratio"] = info.hits / calls if calls else 0.0
    return out


def _count_object(tracer, name, result, args, frame):
    # build_PhiF returns (object, inclusion); the other build_* return the object.
    obj = result[0] if isinstance(result, tuple) else result
    tracer.counts[f"{name}.basis_dim"] += obj.total_dim()


def _count_rref(tracer, name, result, args, frame):
    rows, cols = args[0].shape
    cells = rows * cols
    tracer.counts["fplinalg.rref.cells"] += cells
    tracer.counts["fplinalg.rref.max_cells"] = max(tracer.counts["fplinalg.rref.max_cells"], cells)
    tracer.counts["fplinalg.rref.pivots"] += len(result[1])


def _count_system(tracer, name, result, args, frame):
    """A kernel_basis call made directly by hom_space is its linear system."""
    parent = tracer.stack[-1] if tracer.stack else None
    if parent is None or parent[3] != "homsolver.hom_space":
        return
    a = args[0].a
    rows, cols = a.shape
    r, c = np.nonzero(a)
    vals = a[r, c]
    starts = np.searchsorted(r, np.arange(rows + 1))
    unique = {
        (c[s:e].tobytes(), vals[s:e].tobytes())
        for s, e in zip(starts[:-1].tolist(), starts[1:].tolist())
    }
    tracer.counts["homsolver.system.rows"] += rows
    tracer.counts["homsolver.system.nnz"] += int(len(r))
    tracer.counts["homsolver.system.rank"] += cols - result.rows
    tracer.counts["homsolver.system.unique_rows"] += len(unique)
    parent[2] = cols


def _count_hom(tracer, name, result, args, frame):
    # frame[2] holds the system width when hom_space eliminated a system;
    # otherwise every unknown is free and the space has one basis vector each.
    tracer.counts["homsolver.hom_space.unknowns"] += (
        frame[2] if frame[2] is not None else result.dim)
    tracer.counts["homsolver.hom_space.dim"] += result.dim


# Keyed by span name, or by attribute where one attribute needs its own.
OBSERVERS = {
    "objects.build": _count_object,
    "comodule.construct": _count_object,
    "fplinalg.rref": _count_rref,
    "homsolver.hom_space": _count_hom,
    "FpMatrix.kernel_basis": _count_system,
}


class Tracer:
    """Records spans of wrapped supercomod calls and aggregates them."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index or -1)
        self.stack: list = []        # [span index, child seconds, note, name]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.observe_s = 0.0

    def wrap(self, name: str, fn, observe=None):
        spans, stack, self_s, calls = self.spans, self.stack, self.self_s, self.calls
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, None, name]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                t0 = clock()
                observe(tracer, name, result, args, frame)
                spent = clock() - t0
                tracer.observe_s += spent
                if stack:
                    stack[-1][1] += spent
            return result

        return traced

    def install(self) -> None:
        """Patch every listed function and method in the package."""
        modules = package_modules()
        for name, targets in LAYERS.items():
            for module, attr in targets:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
                observe = OBSERVERS.get(attr, OBSERVERS.get(name))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth), observe))
                    continue
                original = getattr(mod, attr)
                wrapper = self.wrap(name, original, observe)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

    def metrics(self, wall_s: float) -> dict:
        """Per-layer figures for one traced run of `wall_s` seconds."""
        out: dict = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = self.self_s[name]
        for layer in LAYER_NAMES:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.split(".")[0] == layer)
        for name in ("objects.build", "comodule.construct", "comodule.check",
                     "homsolver.hom_space", "homsolver.find_isomorphism",
                     "fplinalg.rref", "bialgebra.coproduct"):
            out[f"{name}.calls"] = self.calls[name]
        for key in ("objects.build.basis_dim", "comodule.construct.basis_dim",
                    "homsolver.hom_space.unknowns", "homsolver.hom_space.dim",
                    "homsolver.system.rows", "homsolver.system.nnz",
                    "homsolver.system.rank", "fplinalg.rref.cells",
                    "fplinalg.rref.max_cells", "fplinalg.rref.pivots"):
            out[key] = self.counts[key]
        rows = self.counts["homsolver.system.rows"]
        out["homsolver.system.unique_row_ratio"] = (
            self.counts["homsolver.system.unique_rows"] / rows if rows else 0.0)
        out["homsolver.system.rank_ratio"] = (
            self.counts["homsolver.system.rank"] / rows if rows else 0.0)
        covered = sum(self.self_s.values())
        out["trace.wall_s"] = wall_s
        out["trace.self_coverage"] = covered / wall_s if wall_s > 0 else 0.0
        out["trace.observe_s"] = self.observe_s
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path, stamp: dict) -> None:
        """Write every span as [name index, start, end, parent index]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "stamp": stamp,
                "names": names,
                "spans": [[index[n], round(s, 7), round(e, 7), parent]
                          for n, s, e, parent in self.spans],
            }, fh, separators=(",", ":"))
