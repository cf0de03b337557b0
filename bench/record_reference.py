"""Record bench/reference.json: the gated numbers of the current program.

    python3 bench/record_reference.py

Runs every workload once at full and at tiny size (seed 0, pinned threads,
fresh interpreters) and keeps the verdicts, values and limits of each
summary.  Re-record only when the program's results are meant to change,
and say so in the change that does it.
"""
from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

import gate
import run


def main() -> int:
    env = dict(os.environ, PYTHONHASHSEED="0", **run.PINNED)
    ref = {}
    for size in ("full", "tiny"):
        for workload in run.WORKLOADS:
            args = SimpleNamespace(workload=workload, seed=0, tiny=size == "tiny")
            work_dir = os.path.join(".bench_run", "reference", workload)
            out = run.run_rep(args, 0, False, work_dir, env, timeout=600.0)
            if "error" in out:
                print(f"{size} {workload}: {out['error']}", file=sys.stderr)
                return 1
            s = out["summary"]
            ref.setdefault(size, {})[workload] = {
                k: s[k] for k in ("verdicts", "values", "bounded")}
            print(f"{size} {workload}: run_s {out['run_s']:.2f}")
    with open(gate.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
