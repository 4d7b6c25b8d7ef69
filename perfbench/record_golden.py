"""Record the golden output digests the benchmark compares against.

    python3 perfbench/record_golden.py --seeds 0-15 [--workload NAME ...]

Runs one operation per (workload, seed) on the current sources, checks it
against the oracle like the benchmark does, and stores the SHA-256 of
``plan.json`` (``sweep.csv`` for sweeps) in ``golden.json``.  Record only on
a commit whose plans are trusted: later commits must reproduce these bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-15"))
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    cli = run.import_program()

    path = os.path.join(run.HERE, "golden.json")
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    plans = []
    run.capture_plans(cli, plans)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in args.seeds:
            work = tempfile.mkdtemp(prefix="golden-", dir=run.WORK_DIR)
            try:
                input_args = workload.write_inputs(work, seed)
                plans.clear()
                argv_op = input_args + workload.flags() + ["--out", os.path.join(work, "out")]
                outputs = run.operation(cli, argv_op)
                run.check_outputs(workload, seed, outputs, plans, {})
                digest = run.file_digest(run.digested_output(workload, outputs))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            golden.setdefault(name, {})[str(seed)] = digest
            run.log(f"{name} seed {seed}: {digest}")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
