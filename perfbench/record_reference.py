"""Record the output digests of every operation at the default seed.

    python3 perfbench/record_reference.py

Runs one round of each workload in full and smoke size at ``DEFAULT_SEED``,
requires every semantic check to pass, and writes ``reference.json``.  The
benchmark compares each output against these digests, so rerun this only
when a change to the program is meant to change its output.
"""

import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for mode, sizes in (("full", workloads.FULL), ("smoke", workloads.SMOKE)):
        reference[mode] = {}
        for name in workloads.WORKLOADS:
            workdir = run.WORK / f"{mode}-{name}-{run.DEFAULT_SEED}"
            sl, workload = run.setup(name, run.DEFAULT_SEED, sizes, workdir)
            loop = run.Loop(sl, workload, reference=None)
            loop.round()
            if loop.failed:
                print(f"{mode} {name}: {loop.failed} operations failed; nothing written",
                      file=sys.stderr)
                return 1
            reference[mode][name] = loop.first_digest
            print(f"{mode} {name}: {len(loop.first_digest)} digests", file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
