"""Regenerate ``campaign_reference.json``, the campaign workload's oracle.

Run from the root of a checkout::

    python3 perfbench/make_reference.py

For every campaign seed the workload can draw (``--seed`` modulo
``Campaign.reference_seeds``) it runs each model family's campaign once
and records the six counters of every cell (flips, detected, corrupted,
SDC, masked, non-finite).  Regenerate only when a change to the program
is meant to change which faults are drawn or how they are classified.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    private = tempfile.mkdtemp(prefix="reference-", dir=scratch)
    os.environ["REPRO_CACHE_DIR"] = private
    os.environ["REPRO_CELL_CACHE"] = "0"
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
        from repro.experiments.common import MODEL_NAMES

        cls = workloads.Campaign
        out = {"command": "python3 perfbench/make_reference.py",
               "counters": list(workloads.COUNTERS),
               "formats": list(cls.formats), "trials": dict(cls.trials),
               "seeds": {}}
        for seed in range(cls.reference_seeds):
            wl = cls(seed, 20)
            if seed == 0:
                wl.setup()
            per = {}
            for family in MODEL_NAMES:
                result = wl.run_family(family)
                per[family] = {
                    f"{fmt}/{field}": workloads.cell_counters(cell)
                    for fmt, cells in
                    result["models"][family]["formats"].items()
                    for field, cell in cells.items() if cell is not None}
            out["seeds"][str(seed)] = per
            print(f"seed {seed} done", file=sys.stderr)
    finally:
        shutil.rmtree(private, ignore_errors=True)
    with open(os.path.join(HERE, "campaign_reference.json"), "w",
              encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
