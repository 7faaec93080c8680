"""Regenerate ``reference/<workload>.json`` from one op at the default seed.

Run from the repository root, in the environment the benchmark gives its
children::

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/make_reference.py [WORKLOAD ...]

Only do this when a change is meant to move the virtual results.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads


def main(names) -> int:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in names or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=".") as work_dir:
            wl = workloads.make(name, workloads.DEFAULT_SEED, work_dir)
            wl.reference = None
            out = wl.outcome(wl.op())
            problems = wl.check(out)
        if problems:
            print(f"{name}: not written, the op fails its check:",
                  *problems, sep="\n  ", file=sys.stderr)
            return 1
        if name == workloads.CampaignTinyUnits.name:
            doc = {"real_digests": out.summary["cold"]["real"]}
        else:
            doc = out.summary
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
