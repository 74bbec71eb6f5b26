"""Write bench/reference.json: the checked outputs of one pass of every
workload at the default seed.

    python3 bench/make_reference.py

Regenerate it only for a change that is meant to alter the library's
results, and say so in that change; a faster implementation must match
the stored values within the tolerance in ``workloads.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main():
    run.use_checkout()
    from workloads import DEFAULT_SEED, WORKLOADS

    reference = {}
    for name, workload in WORKLOADS.items():
        state = workload.setup(DEFAULT_SEED)
        out_dir = os.path.join(run.WORK, f"reference-{name}")
        try:
            outputs = workload.run_pass(state, out_dir)
            faults = [f"{op}: {fault}" for op, fault in workload.check(outputs, None)
                      if fault is not None]
            if faults:
                print(f"{name}: invariants fail, no reference written", *faults,
                      sep="\n", file=sys.stderr)
                return 1
            reference[name] = workload.reference_of(outputs)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
