"""Write reference.json: the outputs that the workload checks compare against.

    PYTHONPATH=src python3 perfbench/record_reference.py

The reference holds the outputs of the commit that introduced the benchmark
(Monte Carlo outputs for seeds 0-9).  Later commits are checked against it:
box values and lambda estimates may rise but not fall, labels and brackets
must match, and Monte Carlo outputs must be bit-identical at recorded seeds.
Re-recording is therefore never the fix for a failed check.
"""
import json
import os
import sys
import tempfile

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MC_SEEDS = range(10)


def _errors(value):
    if isinstance(value, dict):
        if "error" in value:
            yield value["error"]
        for v in value.values():
            yield from _errors(v)


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as work:
        reference = {
            "spectral-box": workloads.run("spectral-box", 0, work),
            "phase-certify": workloads.run("phase-certify", 0, work),
            "mc-crosscheck": {"seeds": {str(s): workloads.run("mc-crosscheck", s, work)
                                        for s in MC_SEEDS}},
        }
    errors = list(_errors(reference))
    if errors:
        print("not recorded, operations failed:", *errors, sep="\n  ", file=sys.stderr)
        return 1
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
