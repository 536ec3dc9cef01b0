"""The benchmark's workloads: what each run computes and how it is judged.

Every workload runs at p = 3 through the public API of supercomod. `plan`
turns a workload name and seed into one round of repetitions, each a list
of items; the same seed always gives the same round. `run_item` executes
one item inside a worker and returns its checks as [name, status, witness].
`judge` compares the checks with what this commit is known to produce.

Why these three workloads (also recorded in BENCHMARK.json):

* axioms: pure monomial arithmetic and coproduct work in `bialgebra`
  (about 95% coproduct-cache hits); it never reaches `homsolver` or
  `fplinalg`. The seed drives the sampled multiplicativity and
  commutativity pairs.
* brown_gitler: a few huge, sparse, duplicate-heavy hom systems, so
  `homsolver` assembly and the dense `fplinalg` elimination set both the
  wall time and the peak RSS. The suite's inputs are fixed; the seed
  changes nothing.
* structure: many small objects and morphisms (`objects`, `comodule`)
  and thousands of tiny eliminations, the opposite use of `fplinalg`. The
  order of the three suites sets how much coproduct cache they share, and
  the peak RSS moves by about a quarter between orders. One round therefore
  runs all six orders, one per repetition; the seed sets their sequence.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

P = 3
AXIOM_PRESETS = ("b", "bbar", "atilde")
HOPF_IDEALS = (("w",), ("w", "x0-u^2"))
STRUCTURE_SUITES = ("fn_structure", "tensor_splittings", "mahowald")
NAMES = ("axioms", "brown_gitler", "structure")

# Sizes of one repetition. "smoke" keeps every code path but is tiny.
SIZES = {
    "full": {
        "axioms": {"box": 26},
        "brown_gitler": {"n_max": 24},
        "fn_structure": {"n_max": 7, "box": 60},
        "tensor_splittings": {"box": 60},
        "mahowald": {"n_max": 5, "m_max": 24},
    },
    "smoke": {
        "axioms": {"box": 6},
        "brown_gitler": {"n_max": 2},
        "fn_structure": {"n_max": 3, "box": 12},
        "tensor_splittings": {"a_max": 1, "b_max": 1, "box": 12},
        "mahowald": {"n_max": 1, "m_max": 4},
    },
}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def suite_item(name: str, smoke: bool) -> dict:
    params = {"p": P, **SIZES["smoke" if smoke else "full"][name]}
    return {"kind": "suite", "suite": name, "params": params}


def plan(workload: str, seed: int, smoke: bool = False) -> list:
    """One round of `workload`: a list of repetitions, each a list of items.

    A run repeats whole rounds, so every figure is taken over the same mix.
    """
    if workload == "axioms":
        box = SIZES["smoke" if smoke else "full"]["axioms"]["box"]
        items = [{"kind": "axioms", "preset": name, "box": box, "seed": seed}
                 for name in AXIOM_PRESETS]
        items += [{"kind": "hopf_ideal", "gens": list(gens), "box": box}
                  for gens in HOPF_IDEALS]
        return [items]
    if workload == "brown_gitler":
        return [[suite_item("brown_gitler", smoke)]]
    if workload == "structure":
        orders = list(itertools.permutations(STRUCTURE_SUITES))
        random.Random(seed).shuffle(orders)
        return [[suite_item(name, smoke) for name in order] for order in orders]
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")


def reference_key(item: dict) -> str:
    return f"{item['suite']} {json.dumps(item['params'], sort_keys=True)}"


def run_item(item: dict) -> list:
    """Run one item; return its checks as [name, status, witness]."""
    from supercomod import bialgebra, verify

    if item["kind"] == "axioms":
        preset = bialgebra.get_preset(item["preset"], P)
        failure = bialgebra.check_bialgebra_axioms(preset, item["box"], seed=item["seed"])
        return [[f"axioms[{item['preset']}]", "pass" if failure is None else "fail",
                 "" if failure is None else str(failure)]]
    if item["kind"] == "hopf_ideal":
        report = bialgebra.check_hopf_ideal(
            bialgebra.get_preset("b", P), item["gens"], box=item["box"])
        return [[f"hopf_ideal({', '.join(item['gens'])})",
                 "pass" if report.is_hopf_ideal else "fail",
                 report.counterexample or ""]]
    report = verify.run_suite(item["suite"], **item["params"]).as_dict()
    return [[c["name"], c["status"], c["witness"]] for c in report["checks"]]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def expected_checks(item: dict, reference: dict) -> list | None:
    """The checks `item` must reproduce, or None where every check must pass.

    Raises KeyError when a suite item has no recorded reference.
    """
    if item["kind"] == "suite":
        return reference[reference_key(item)]
    return None


def judge(items: list, outcomes: list, reference: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems) for the outcomes of one repetition.

    An outcome of None means the item raised or never ran; all its checks
    count as failed. A check fails when its status is "fail", or when it
    differs from the reference in name, status or witness.
    """
    attempted = failed = 0
    problems = []
    for i, item in enumerate(items):
        expected = expected_checks(item, reference)
        got = outcomes[i] if i < len(outcomes) else None
        size = len(expected) if expected is not None else 1
        if got is None:
            attempted += size
            failed += size
            problems.append(f"{describe(item)}: did not complete")
            continue
        attempted += max(size, len(got))
        for j in range(max(size, len(got))):
            check = got[j] if j < len(got) else None
            if expected is None:
                bad = check is None or check[1] != "pass"
            else:
                want = expected[j] if j < len(expected) else None
                bad = check is None or check[1] == "fail" or check != want
            if bad:
                failed += 1
                problems.append(f"{describe(item)}: check {j} is {check}, "
                                f"expected {'a pass' if expected is None else want}")
    return attempted, failed, problems


def describe(item: dict) -> str:
    if item["kind"] == "suite":
        return reference_key(item)
    return json.dumps(item, sort_keys=True)
