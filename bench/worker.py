"""One repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, from the root of a
checkout, with BLAS and OpenMP pinned to one thread.  It sets the workload
up, times a calibration kernel and then the workload call, gates the result
against reference.json and prints one JSON line:

    {"ready": <time.monotonic() when set-up ended>, "cal_s": ..., "run_s": ...,
     "peak_rss_mb": ..., "summary": {...}, "gate_errors": [...],
     "layers": {...} (traced only)}

``--warmup`` only imports the program, so that the first timed repetition
does not pay for compiling bytecode.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def calibrate() -> float:
    """Seconds for a fixed stencil-and-interpreter kernel that uses no mkglab code.

    Timed between set-up and the workload call, it measures how fast the
    host runs at that moment; run.py scales a run's medians by its median.
    """
    x = np.linspace(0.0, 1.0, 8001)
    y = x.copy()
    t0 = time.perf_counter()
    for _ in range(6000):
        y[1:-1] = 0.5 * (x[2:] - 2.0 * x[1:-1] + x[:-2]) + x[1:-1]
        x, y = y, x
    acc = 0.0
    for i in range(900000):
        acc += math.sqrt(i)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--run-id", default="0")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--warmup", action="store_true")
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.abspath("src"), HERE]

    import mkglab  # noqa: F401  (set-up cost: the program's imports)
    rec = None
    if args.trace:
        import spans
        rec = spans.Recorder(args.run_id)
        spans.install(rec)
    import gate
    import workloads
    if args.warmup:
        return 0
    setup, run, summarize = workloads.WORKLOADS[args.workload]
    os.makedirs(args.work_dir, exist_ok=True)
    try:
        if rec:
            ctx = rec.call(spans.SETUP, setup, args.seed, args.work_dir, args.tiny)
        else:
            ctx = setup(args.seed, args.work_dir, args.tiny)
        ready = time.monotonic()
        cal = calibrate()
        t0 = time.perf_counter()
        result = rec.call(spans.RUN, run, ctx) if rec else run(ctx)
        run_s = time.perf_counter() - t0
        summary = summarize(ctx, result).to_dict()
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    try:
        ref = gate.load_reference("tiny" if args.tiny else "full", args.workload)
        gate_errors = gate.compare(summary, ref)
    except (OSError, KeyError) as exc:
        gate_errors = [f"no reference: {exc!r}"]
    out = {"ready": ready, "run_s": run_s, "cal_s": cal,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "cell_steps": ctx.extra["cell_steps"], "summary": summary,
           "gate_errors": gate_errors}
    if rec:
        out["layers"] = rec.stats()
        out["layers"]["pipeline.output_bytes"] = summary["counters"].get("output_bytes", 0)
        rec.write(os.path.join(args.work_dir, f"spans-{args.run_id}.csv"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
