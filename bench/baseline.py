"""Write bench/baseline.json from the last traced run of every workload.

    for w in quick_run companion_16k check_suite; do
        python3 bench/run.py --workload $w --seed 1 --seconds 40 --trace 1
    done
    python3 bench/baseline.py

For each workload: cell-steps per repetition, the untraced run_s median,
the tracing overhead, and the share of the traced set-up plus run time
spent in each layer module's own code (self time) and outside every layer
span, medians over the traced repetitions.  The environment of the runs is
recorded beside them.
"""
from __future__ import annotations

import json
import os
import statistics
import sys

from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    out = {"workloads": {}}
    for workload in ("quick_run", "companion_16k", "check_suite"):
        with open(os.path.join(".bench_run", workload, "result.json")) as f:
            res = json.load(f)
        if not res["args"]["trace"] or res["args"]["tiny"] or res["failed"]:
            print(f"{workload}: last run is not a clean full-size traced run",
                  file=sys.stderr)
            return 1
        traced = [r["layers"] for r in res["reps"] if r["traced"]]
        plain = [r for r in res["reps"] if not r["traced"]]

        def share(key):
            return round(statistics.median(
                t[key] / (t["trace.setup_s"] + t["trace.run_s"]) for t in traced), 4)
        shares = {layer: share(f"{layer}.self_s") for layer in LAYERS}
        shares["unattributed"] = share("trace.unattributed_s")
        out["workloads"][workload] = {
            "cell_steps": plain[0]["cell_steps"],
            "run_s_untraced": round(statistics.median(r["run_s"] for r in plain), 3),
            "trace_overhead_frac": round(res["metrics"]["trace.overhead_frac"]["value"], 4),
            "layer_self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            "evolution_step_share": share("evolution.step.s"),
            "repetitions": {"untraced": len(plain), "traced": len(traced)},
        }
        out["environment"] = res["env"]
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
