"""The benchmark's workloads: scaled cuts of the mkglab pipeline stages.

Every workload starts from configs/reference.cfg (Gaussian data, eps = 1e-2,
cfl = 0.5) with a few keys overridden, and has two parts:

- ``setup(seed, work_dir, tiny)`` builds the config and assembles the t = 0
  state; it is what ``setup_s`` measures;
- ``run(ctx)`` is the timed workload call, and ``summary(ctx, result)``
  turns its result into the numbers the correctness gate compares.

Only ``check_suite`` draws from the seed (its random oracle and kernel
inputs); the physics inputs of ``quick_run`` and ``companion_16k`` are fixed.
``tiny=True`` shrinks every grid about tenfold for the self-checks.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from mkglab import asymptotic_system as asys
from mkglab.config import parse_config
from mkglab.core import Weights
from mkglab.data_builder import GaussianProfile, assemble_state
from mkglab.evolution import ObservationPlan, SchemeParams, evolve
from mkglab.grid import RadialGrid
from mkglab.interior import (CallableSource, angular_kernel_integral,
                             angular_kernel_quadrature, chain_difference_report)
from mkglab.null_extraction import (envelope_check, j0_envelope_spec,
                                    phi_peeling_spec)
from mkglab.pipeline import build_free_data, convergence_study, run_pipeline
from mkglab.wave_oracle import (RadialSource, dalembert_free, kirchhoff_eval,
                                solve_inhom_radial, verify_decay_bound)

REFERENCE_CFG = os.path.join("configs", "reference.cfg")


@dataclass
class Context:
    cfg: object
    grid: RadialGrid
    seed: int
    extra: dict = field(default_factory=dict)


@dataclass
class Summary:
    """What the gate compares.

    verdicts: check id -> pass flag, matched exactly against the reference.
    values: seed-independent numbers, matched against the reference to
        rounding level.
    bounded: seed-dependent numbers -> (value, limit); each must be finite
        and below its limit, since no single reference covers every seed.
    hashes: output file -> sha256, compared between repeats of one run.
    counters: work figures reported beside the layer metrics.
    """

    verdicts: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    bounded: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"verdicts": self.verdicts, "values": self.values,
                "bounded": self.bounded, "hashes": self.hashes,
                "counters": self.counters}


def scaled_config(overrides: dict):
    """configs/reference.cfg with ``{"section.key": text}`` lines replaced."""
    with open(REFERENCE_CFG) as f:
        lines = f.read().splitlines()
    pending = dict(overrides)
    section = None
    for i, line in enumerate(lines):
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
        elif "=" in stripped:
            key = f"{section}.{stripped.split('=', 1)[0].strip()}"
            if key in pending:
                lines[i] = f"{key.split('.', 1)[1]} = {pending.pop(key)}"
    if pending:
        raise KeyError(f"keys not in {REFERENCE_CFG}: {sorted(pending)}")
    return parse_config("\n".join(lines) + "\n")


def _grid(cfg) -> RadialGrid:
    g = cfg.grid
    return RadialGrid(g["r_max"], g["n_cells"], g["ghost_count"])


def _scheme(cfg) -> SchemeParams:
    s = cfg.scheme
    return SchemeParams(s["cfl"], s["t_end"], s["boundary"], s["monitor_stride"])


def _assemble(cfg, grid):
    return assemble_state(build_free_data(cfg, grid), grid)


def cell_steps(cfg, levels: int = 1, evolves_per_level: int = 1) -> int:
    """RK4 cell updates of the workload: n_cells x steps over every evolve."""
    total = 0
    for lev in range(levels):
        n = cfg.grid["n_cells"] * 2 ** lev
        dt = cfg.scheme["cfl"] * cfg.grid["r_max"] / n
        total += evolves_per_level * n * int(round(cfg.scheme["t_end"] / dt))
    return total


def _file_hashes(out_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# quick_run: `mkglab run --quick` on a scaled reference config

def quick_run_setup(seed: int, work_dir: str, tiny: bool) -> Context:
    cfg = scaled_config({
        "grid.r_max": "100.0", "grid.n_cells": "200" if tiny else "2000",
        "scheme.t_end": "80.0", "extraction.q_spacing_cells": "4",
        "interior.t_list": "25, 50, 75",
        "output.directory": os.path.join(work_dir, "out")})
    grid = _grid(cfg)
    _assemble(cfg, grid)
    return Context(cfg, grid, seed, {"cell_steps": cell_steps(cfg)})


def quick_run(ctx: Context):
    return run_pipeline(ctx.cfg, out_dir=ctx.cfg.output["directory"],
                        module_checks=False)


def quick_run_summary(ctx: Context, report) -> Summary:
    out_dir = ctx.cfg.output["directory"]
    s = Summary()
    s.verdicts = {c.id: bool(c.passed) for c in report.checks}
    s.values["charge_Q"] = report.charge_Q
    for key, val in report.monitor_summary.items():
        s.values[f"monitor.{key}"] = val
    for check in report.checks:
        if check.id == "AL_limit":
            for row in json.loads(check.detail):
                s.values[f"AL_limit.q{row['q']:g}.value"] = row["value"]
    with open(os.path.join(out_dir, "interior.csv")) as f:
        rows = [ln.split(",") for ln in f.read().splitlines()[2:]]
    for row in rows:
        t, y, err0, err_r = float(row[0]), float(row[1]), float(row[4]), float(row[7])
        s.values[f"interior.t{t:g}.y{y:g}.abs_err"] = err0
        s.values[f"interior.t{t:g}.y{y:g}.abs_err_r"] = err_r
    s.hashes = _file_hashes(out_dir)
    s.counters["output_bytes"] = sum(
        os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))
    return s


# ---------------------------------------------------------------------------
# companion_16k: the domain-doubling companion's grid, cut to t_end = 10

def companion_16k_setup(seed: int, work_dir: str, tiny: bool) -> Context:
    cfg = scaled_config({
        "grid.r_max": "800.0", "grid.n_cells": "1600" if tiny else "16000",
        "scheme.t_end": "10.0", "interior.t_list": ""})
    grid = _grid(cfg)
    state0, _ = _assemble(cfg, grid)
    return Context(cfg, grid, seed,
                   {"state0": state0, "cell_steps": cell_steps(cfg)})


def companion_16k(ctx: Context):
    # the companion's ObservationPlan in pipeline._doubled_domain_sups
    plan = ObservationPlan(snapshot_every=2,
                           snapshot_subsample=max(1, ctx.grid.n_cells // 2000))
    res = evolve(ctx.extra["state0"], ctx.grid, _scheme(ctx.cfg), plan)
    w = Weights(ctx.cfg.weights["s"], ctx.cfg.weights["gamma"])
    env = {"phi": envelope_check(res.snapshots, phi_peeling_spec(w), "phi"),
           "j0": envelope_check(res.snapshots, j0_envelope_spec(w), "j0")}
    return res, env


def companion_16k_summary(ctx: Context, result) -> Summary:
    res, env = result
    s = Summary()
    s.verdicts["envelopes_finite"] = bool(
        all(np.isfinite(sup) for sup, _ in env.values()))
    for name, (sup, (t, r)) in env.items():
        s.values[f"envelope.{name}.sup"] = sup
        s.values[f"envelope.{name}.argmax_t"] = t
        s.values[f"envelope.{name}.argmax_r"] = r
    fin = res.final
    s.values["final.t"] = fin.t
    for name in ("phi", "phi_t", "a0", "a0_t", "ar", "ar_t"):
        arr = getattr(fin, name)
        s.values[f"final.{name}.sup"] = float(np.max(np.abs(arr)))
        s.values[f"final.{name}.l2"] = float(np.linalg.norm(arr))
    s.values["monitor.charge_final"] = res.log.charge_Q[-1]
    s.values["monitor.n_events"] = len(res.log.t)
    return s


# ---------------------------------------------------------------------------
# check_suite: the [6/6] stage -- refinement ladder plus seeded module checks

_LOGEST1_FRACS = [(0.2, 0.1), (0.2, 0.22), (0.5, 0.1), (0.5, 0.3), (0.5, 0.52),
                  (0.8, 0.2), (0.8, 0.5), (0.8, 0.82), (0.9, 0.3), (0.9, 0.7),
                  (0.6, 0.58), (0.95, 0.9), (0.4, 0.38), (0.7, 0.1), (0.3, 0.28)]


def check_suite_setup(seed: int, work_dir: str, tiny: bool) -> Context:
    cfg = scaled_config({
        "grid.r_max": "100.0", "grid.n_cells": "50" if tiny else "500",
        "scheme.t_end": "20.0", "extraction.q_rays": "0",
        "interior.t_list": "5, 10, 15"})
    grid = _grid(cfg)
    _assemble(cfg, grid)
    return Context(cfg, grid, seed, {
        "cell_steps": cell_steps(cfg, levels=3, evolves_per_level=2),
        "n_oracle": 50 if tiny else 1000, "n_kernel": 10 if tiny else 100})


def check_suite(ctx: Context) -> dict:
    rng = np.random.default_rng(ctx.seed)
    out = {"study": convergence_study(ctx.cfg, levels=3)}

    # d'Alembert vs Kirchhoff on random Gaussian radial data
    worst = 0.0
    for _ in range(ctx.extra["n_oracle"]):
        amps = rng.uniform(-1.0, 1.0, size=2)
        widths = rng.uniform(0.5, 2.0, size=2)
        t, r = float(rng.uniform(0.2, 6.0)), float(rng.uniform(0.1, 8.0))
        g0 = GaussianProfile(amps[0], widths[0])
        h0 = GaussianProfile(amps[1], widths[1])
        da = dalembert_free(g0, h0, t, r).real
        ki = kirchhoff_eval(g0, h0, t, r, w0_prime=g0.d, order=160)
        worst = max(worst, abs(da - ki))
    out["oracle_worst"] = worst

    # manufactured solution phi* = e^{-t} e^{-r^2}
    src = RadialSource(F=lambda t, r: np.exp(-t - r * r) * (7.0 - 4.0 * r * r))
    inhom = solve_inhom_radial(src, 1.0, 1.0, abs_tol=1e-10)
    hom = dalembert_free(GaussianProfile(1.0, 1.0),
                         lambda x: -np.exp(-x * x), 1.0, 1.0).real
    out["mms_err"] = abs(inhom + hom - np.exp(-2.0))

    # logest1 envelope constant under domain doubling
    src1 = RadialSource(F=lambda t, r: 1.0 / ((1.0 + r) * (1.0 + t + r)
                                              * (1.0 + np.abs(t - r)) ** 2))
    cs = []
    for dom in (100.0, 200.0):
        samples = [(ft * dom, fr * dom, solve_inhom_radial(src1, ft * dom, fr * dom,
                                                           fast=True))
                   for ft, fr in _LOGEST1_FRACS]
        cs.append(verify_decay_bound(samples, "logest1", {"delta": 1.0})[0])
    out["logest1_C"] = cs

    # closed-form angular kernel vs S^2 quadrature, then the A^ex chain
    worst = 0.0
    for _ in range(ctx.extra["n_kernel"]):
        a = float(rng.uniform(0.5, 5.0))
        x = float(a * rng.uniform(0.0, 0.99))
        worst = max(worst, abs(angular_kernel_integral(a, x)
                               - angular_kernel_quadrature(a, x, abs_tol=1e-10)))
    out["angular_worst"] = worst
    out["chain"] = chain_difference_report(
        [20.0, 40.0, 80.0], 0.5,
        CallableSource(lambda q: np.exp(-q * q), (-2.0, 2.0)), s=0.9)

    # asymptotic system and its weak-null certificate
    q_grid = np.linspace(-8.0, 8.0, 801)
    st = asys.AsymState.from_phi0(q_grid, np.exp(-q_grid ** 2) * (q_grid / 2.0 + 0.25j),
                                  A_L_param=1.0)
    _, hist = asys.integrate(st, 50.0, 1e-2, record_every=500)
    out["weak_null"] = asys.weak_null_certificate(hist, 1e-2)
    return out


def check_suite_summary(ctx: Context, out: dict) -> Summary:
    s = Summary()
    study = out["study"]
    for key, errs in study["errors"].items():
        for lev, e in enumerate(errs):
            s.values[f"ladder.{key}.err{lev}"] = e
        for lev, p in enumerate(study["orders"][key]):
            s.values[f"ladder.{key}.order{lev}"] = p
    orders = study["orders"]
    s.verdicts["free_wave_order"] = bool(abs(orders["free_wave"][-1] - 2.0) <= 0.2)
    s.verdicts["lorenz_order"] = bool(orders["lorenz_residual"][-1] >= 1.8)
    s.verdicts["charge_order"] = bool(orders["charge_drift"][-1] >= 1.8)
    s.verdicts["ladder_levels_ok"] = all(
        info["status"] == "ok" for info in study["levels"])

    s.bounded["oracle_worst"] = (out["oracle_worst"], 1e-8)
    s.bounded["angular_worst"] = (out["angular_worst"], 1e-8)
    s.bounded["mms_err"] = (out["mms_err"], 1e-6)
    c0, c1 = out["logest1_C"]
    s.values["logest1.C100"] = c0
    s.values["logest1.C200"] = c1
    s.verdicts["oracle_logest1"] = bool(abs(c1 - c0) / c0 < 0.20)

    chain = out["chain"]
    s.values["chain.fitted_exponent"] = chain["fitted_exponent"]
    s.values["chain.C_log_slope"] = chain["C_log_slope"]
    s.verdicts["chain_difference_decay"] = bool(
        chain["fitted_exponent"] <= -(2 * 0.9 - 1.0) + 0.2)

    cert = out["weak_null"]
    s.verdicts["weak_null"] = bool(cert["passed"])
    s.bounded["weak_null.modulus_drift"] = (cert["modulus_drift"], 1e-10)
    s.bounded["weak_null.albar_affine_residual"] = (cert["albar_affine_residual"], 1e-6)
    s.values["weak_null.albar_slope"] = cert["albar_slope"]
    return s


WORKLOADS = {
    "quick_run": (quick_run_setup, quick_run, quick_run_summary),
    "companion_16k": (companion_16k_setup, companion_16k, companion_16k_summary),
    "check_suite": (check_suite_setup, check_suite, check_suite_summary),
}
