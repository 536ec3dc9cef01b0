"""Record the suite reports the benchmark compares against.

    python3 perfbench/record_reference.py

Runs every suite item of every workload, at the full and the smoke sizes,
with the package in `src/`, and writes their checks (name, status, witness)
to reference.json. Re-record only when a change is meant to alter the
reports, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    reference = {}
    for smoke in (False, True):
        for workload in workloads.NAMES:
            for item in workloads.plan(workload, seed=0, smoke=smoke)[0]:
                if item["kind"] == "suite":
                    reference[workloads.reference_key(item)] = workloads.run_item(item)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} reports to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
