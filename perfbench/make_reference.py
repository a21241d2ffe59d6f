#!/usr/bin/env python3
"""Write reference.json: the cell means and standard errors of each sweep
workload's reference slice at the reference seeds.

    python3 perfbench/make_reference.py

Run it at the commit whose outputs are the reference; ``run.py`` then checks
every later commit's slices against the stored values.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main() -> int:
    ref = {}
    for name, wl in workloads.WORKLOADS.items():
        if isinstance(wl, workloads.Sweep):
            ref[name] = {str(seed): workloads.reference_slice(wl, seed)
                         for seed in workloads.REFERENCE_SEEDS}
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
