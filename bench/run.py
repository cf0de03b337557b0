"""mkglab benchmark: time one workload, gate its outputs, print its metrics.

    python3 bench/run.py --workload quick_run --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the program from ./src.
Each repetition runs in a fresh interpreter (bench/worker.py) with BLAS and
OpenMP pinned to one thread, and repetitions continue while the next one
still fits in --seconds.  With --trace 0 it reports the end-to-end metrics
(medians over the repetitions); with --trace 1 it alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones
(medians), plus the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Everything the runs leave behind goes to ./.bench_run/<workload>/.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("quick_run", "companion_16k", "check_suite")
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}
DEADLINE_S = 170.0      # the whole command must end within 180 s
# Time of worker.calibrate() on the host the benchmark was defined on.  The
# medians of a run are scaled by CAL_REF_S / (median calibration time of the
# run), so that run_s and setup_s read in seconds at that host's speed: its
# speed drifted by up to a third between runs a few minutes apart, and the
# scaling cut the run-to-run spread of run_s on quick_run from 24% to 9%.
CAL_REF_S = 0.25

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_FN_STATS = {
    "evolution.step": ("calls", "s", "self_s", "ns_per_cell"),
    "evolution.evolve": ("s", "self_s"),
    "evolution.monitors": ("calls", "s"),
    "grid.laplacian_even": ("calls", "s"),
    "grid.laplacian_radial_vector": ("calls", "s"),
    "grid.d_r": ("calls", "s"),
    "grid.interp_values": ("calls", "points", "s"),
    "grid.r": ("builds",),
    "core.current": ("calls", "s"),
    "null_extraction.build_radiation_table": ("s", "self_s"),
    "null_extraction.sample_ray": ("s", "self_s"),
    "null_extraction.envelope_check": ("s", "self_s"),
    "null_extraction.mod_ALbar": ("calls", "s"),
    "quadrature.integrate_log_kernel": ("calls", "s"),
    "quadrature.adaptive_quad": ("calls",),
    "interior.interior_limit_check": ("calls", "s"),
    "interior.angular_kernel_quadrature": ("calls", "s"),
    "interior.chain_difference_report": ("calls", "s"),
    "asymptotic_system.integrate": ("calls", "s"),
    "wave_oracle.dalembert_free": ("calls", "s"),
    "wave_oracle.kirchhoff_eval": ("calls", "s"),
    "wave_oracle.solve_inhom_radial": ("calls", "s"),
    "data_builder.assemble_state": ("s",),
    "config.parse_config": ("s",),
    "pipeline.run_pipeline": ("self_s",),
    "pipeline.convergence_study": ("self_s",),
    "pipeline": ("output_bytes",),
}
_UNITS = {"calls": "count", "builds": "count", "points": "count",
          "spans": "count", "s": "s", "self_s": "s", "run_s": "s",
          "unattributed_s": "s", "ns_per_cell": "ns", "output_bytes": "B",
          "overhead_frac": "frac"}


def _per_layer() -> dict:
    names = [f"{fn}.{stat}" for fn, stats in _FN_STATS.items() for stat in stats]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.run_s", "trace.unattributed_s", "trace.spans",
              "trace.overhead_frac"]
    return {n: _UNITS[n.rsplit(".", 1)[1]] for n in names}


PER_LAYER = _per_layer()


def environment() -> dict:
    """Software and machine facts recorded next to the results (not gated)."""
    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
        for line in out.splitlines():
            key, _, val = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = val.strip()
    except (OSError, subprocess.SubprocessError):
        caches = {"L2 cache": "unknown", "L3 cache": "unknown"}
    src_lines = 0
    for path in glob.glob(os.path.join("src", "**", "*.py"), recursive=True):
        with open(path) as f:
            src_lines += sum(1 for _ in f)
    return {"python": sys.version.split()[0],
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), **caches,
            "thread_pinning": PINNED, "src_lines": src_lines}


def _quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run_rep(args, rep: int, traced: bool, work_dir: str, env: dict,
            timeout: float, warmup: bool = False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--work-dir", work_dir,
           "--run-id", f"{args.workload}-{args.seed}-{rep}",
           "--trace", str(int(traced))]
    cmd += ["--tiny"] * args.tiny + ["--warmup"] * warmup
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "traced": traced,
                "wall": time.monotonic() - launched}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = {}
    if proc.returncode != 0 and "error" not in out:
        out["error"] = f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    out["traced"] = traced
    out["wall"] = time.monotonic() - launched
    if "ready" in out:
        out["setup_s"] = out["ready"] - launched
    return out


def failures(reps: list) -> list:
    """One message per failed repetition: crash, gate, or changed output bytes."""
    msgs = []
    first = next((r["summary"]["hashes"] for r in reps if "summary" in r), None)
    for i, r in enumerate(reps):
        if "error" in r:
            msgs.append(f"rep {i}: {r['error'].strip().splitlines()[-1]}")
        elif r["gate_errors"]:
            msgs.append(f"rep {i}: gate: {'; '.join(r['gate_errors'][:5])}")
        elif r["summary"]["hashes"] != first:
            msgs.append(f"rep {i}: output files differ from rep 0")
    return msgs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tenfold smaller grids, for the self-checks")
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    for need in (os.path.join("src", "mkglab", "__init__.py"),
                 os.path.join("configs", "reference.cfg")):
        if not os.path.isfile(need):
            print(f"bench: {need} not found; run from the root of an mkglab "
                  "checkout", file=sys.stderr)
            return 2
    work_dir = os.path.join(".bench_run", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED)
    env_info = environment()
    print(f"# env {json.dumps(env_info, sort_keys=True)}")

    warm = run_rep(args, -1, False, work_dir, env, DEADLINE_S, warmup=True)
    if "error" in warm:
        print(f"bench: the program does not import: {warm['error']}", file=sys.stderr)
        return 2

    kinds = (False, True) if args.trace else (False,)
    reps = []
    t0 = time.monotonic()
    while True:
        traced = kinds[len(reps) % len(kinds)]
        left = DEADLINE_S - (time.monotonic() - t_start)
        reps.append(run_rep(args, len(reps), traced, work_dir, env, left))
        if "error" in reps[-1]:
            break
        nxt = kinds[len(reps) % len(kinds)]
        estimate = max((r["wall"] for r in reps if r["traced"] == nxt),
                       default=reps[-1]["wall"])
        elapsed = time.monotonic() - t0
        if len(reps) >= len(kinds) and (
                elapsed + estimate > args.seconds
                or time.monotonic() - t_start + estimate > DEADLINE_S):
            break

    failed = failures(reps)
    plain = [r for r in reps if "summary" in r and not r["traced"]]
    traced = [r for r in reps if "summary" in r and r["traced"]]
    if not plain or (args.trace and not traced):
        for msg in failed:
            print(msg, file=sys.stderr)
        print("bench: no repetition completed", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced repetitions, "
          f"{plain[0]['cell_steps']} cell-steps each")
    for msg in failed:
        print(f"# FAILED {msg}")
    speed = CAL_REF_S / statistics.median(r["cal_s"] for r in plain)
    raw_q = _quartiles([r["run_s"] for r in plain])
    raw_setup = statistics.median(r["setup_s"] for r in plain)
    run_q = [q * speed for q in raw_q]
    e2e = {"run_s": run_q[1], "setup_s": raw_setup * speed,
           "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    print(f"run_s {run_q[1]:.4f} s  (q1 {run_q[0]:.4f}, q3 {run_q[2]:.4f}, "
          f"n={len(plain)}; scaled to reference host speed)")
    print(f"setup_s {e2e['setup_s']:.4f} s  (scaled to reference host speed)")
    print(f"# raw wall: run_s {raw_q[1]:.4f} s (q1 {raw_q[0]:.4f}, q3 {raw_q[2]:.4f}), "
          f"setup_s {raw_setup:.4f} s; host speed {speed:.3f} x reference")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"gate_fail_frac {len(failed) / len(reps):.4f} frac  "
          f"({len(failed)} of {len(reps)} repetitions failed)")

    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                val = (statistics.median(r["run_s"] for r in traced)
                       / statistics.median(r["cal_s"] for r in traced)
                       / (raw_q[1] / statistics.median(r["cal_s"] for r in plain))
                       - 1.0)
            else:
                val = statistics.median(r["layers"].get(name, 0) for r in traced)
            metrics[name] = {"value": val, "unit": unit}
            print(f"{name} {val:.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    with open(os.path.join(work_dir, "result.json"), "w") as f:
        json.dump({"env": env_info, "args": vars(args), "reps": reps,
                   "failed": failed, "metrics": metrics}, f, indent=1)
    print(json.dumps({"correct": not failed, "attempted": len(reps),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
