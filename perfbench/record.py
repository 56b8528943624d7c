"""Record the reference outputs that every benchmark run is checked against.

Usage (from the root of a source checkout)::

    python3 perfbench/record.py

Runs each workload once on each of the ``workloads.POOL`` problem
instances and writes their fingerprints (iteration counts, final PSNR,
artifact hashes) to ``perfbench/reference.json``. Run it only on a
commit whose outputs are known good: a later commit that changes what
the program computes must fail the benchmark's checks, not re-record.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import environment
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    rd = run.import_package()
    work_root = run.WORK_ROOT / str(os.getpid())
    recorded = {}
    try:
        for name, workload in workloads.make_workloads(work_root).items():
            recorded[name] = []
            for index in range(workloads.POOL):
                instance = workloads.instance_for(index)
                outcome = workload.run(rd, workload.build(rd, instance))
                if outcome.problems:
                    print(f"{name} instance {index}: {outcome.problems}", file=sys.stderr)
                    return 1
                recorded[name].append(outcome.fingerprint)
                print(f"{name} instance {index}: psnr {outcome.fingerprint['psnr_db']:.6f} dB",
                      flush=True)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    document = {
        "pool": workloads.POOL,
        "environment": environment.describe(),
        "workloads": recorded,
    }
    run.REFERENCE.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
