"""End-to-end pipelines: build data, evolve, extract, compare, report.

run_pipeline executes the full chain for one RunConfig and emits
monitors.csv, radiation.csv, interior.csv, envelopes.csv, and report.json
into the configured output directory.  Every file carries the config hash;
identical configs give byte-identical outputs.  convergence_study drives
grid-refinement sequences and reports observed orders.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from operator import le, lt

import numpy as np

from . import asymptotic_system as asys
from .config import (ConfigError, RunConfig, dump_config, run_config_hash,
                     validate_config)
from .core import FieldState, Weights
from .data_builder import FreeData, GaussianProfile, assemble_state
from .evolution import (FRAME_SAMPLES, EvolutionUnstable, ObservationPlan,
                        SchemeParams, evolve, frame_identity_residual,
                        slice_step, time_grid)
from .grid import RadialGrid
from .interior import (AsymSource, CallableSource, angular_kernel_integral,
                       angular_kernel_quadrature, chain_difference_report,
                       interior_limit_check)
from .null_extraction import (LIMIT_SAMPLES, build_radiation_table,
                              envelope_check, extract_AL_limit, extract_phi0,
                              j0_envelope_spec, phase_slope_fit,
                              phi_peeling_spec, sample_ray, mod_ALbar)
from .wave_oracle import (RadialSource, dalembert_free, kirchhoff_eval,
                          solve_inhom_radial, verify_decay_bound)


@dataclass
class Check:
    id: str
    description: str
    measured: float
    tolerance: float
    passed: bool
    detail: str = ""

    def row(self) -> dict:
        return {**asdict(self), "passed": bool(self.passed)}


def _at_least(m, bound):
    return np.isfinite(m) and m >= bound


def _near(target, m, bound):
    return abs(m - target) <= bound


_CHAIN_S = 0.9          # s of chain_difference_decay, for its bound and its run
_LEVEL_SECONDS = 60.0   # criterion 1's wall-time bound on each free-wave level
# the acceptance gates: id -> (description, bound, test); a row passes when
# test(measured, bound) holds, and NaN fails every test
GATES = {
    "lorenz_stability": ("Lorenz residual stays within 10x its initial (burn-in) level",
                         10.0, le),
    "charge_conservation": ("relative charge drift < 1e-3 over the run", 1e-3, lt),
    "AL_limit": ("r A_L limit matches Q/4pi to 5% on every ray", 0.05, lt),
    "phi0_cauchy": ("phase-corrected r phi Cauchy: terminal increment < 20% of previous",
                    0.2, lt),
    "charge_phase_slope": ("phase slope of uncorrected r phi recovers -Q/4pi within 10%",
                           0.10, lt),
    "albar_log_correlation": ("raw r A_Lbar is log-linear in (1+r): |corr| >= 0.99 on "
                              "final decade", 0.99, _at_least),
    "albar_mod_cauchy": ("r A_Lbar^mod Cauchy: terminal increment < 20% of previous", 0.2, lt),
    "interior_limit": ("t A_0 -> K_0(y): error decreasing in t, final rel err < 10%, "
                       "sign matches", 0.10, lt),
    "envelope_stability": ("weighted sups change < 10% when r_max, t_end double", 0.10, lt),
    "angular_identity": ("closed form vs S2 quadrature on 100 random inputs", 1e-8, lt),
    "chain_difference_decay": ("|A^ex - A^ex,inf| decay exponent <= -(2s-1)+0.2 at c=0.5",
                               -(2 * _CHAIN_S - 1.0) + 0.2, le),
    "weak_null_modulus": ("sup_q |P| drift < 1e-10 over s in [0,50]", asys.MODULUS_TOL, lt),
    "weak_null_affine": ("A_Lbar affine-in-s fit residual < 1e-6", asys.AFFINE_TOL, lt),
    "phase_factorization_order": ("RK4 phase factorization order = 4.0 +- 0.1",
                                  0.1, partial(_near, 4.0)),
    "oracle_mms": ("manufactured-solution recovery to 1e-6", 1e-6, lt),
    "oracle_agreement": ("dalembert vs kirchhoff < 1e-8 on 1000 random radial cases",
                         1e-8, lt),
    "oracle_positivity": ("positive source gives a solution >= -1e-12", -1e-12, _at_least),
    "oracle_logest1": ("logest1 envelope constant stable within 20% under domain doubling",
                       0.20, lt),
    "free_wave_order": ("free-wave convergence order = 2.0 +- 0.2", 0.2, partial(_near, 2.0)),
    "lorenz_order": ("Lorenz residual refinement order >= 1.8", 1.8, _at_least),
    "charge_order": ("charge drift refinement order >= 1.8", 1.8, _at_least),
}


def gate(id: str, measured: float, detail: str = "", also: bool = True) -> Check:
    """The row of check id; it passes when its GATES test and also hold."""
    desc, bound, test = GATES[id]
    return Check(id, desc, measured, bound, bool(also and test(measured, bound)), detail)


@dataclass
class RunReport:
    config_hash: str
    charge_Q: float
    checks: list = field(default_factory=list)
    monitor_summary: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "charge_Q": self.charge_Q,
            "monitor_summary": self.monitor_summary,
            "checks": [c.row() for c in self.checks],
            "extras": self.extras,
            "all_passed": self.all_passed(),
        }


# ---------------------------------------------------------------------------
# data construction from config

def build_free_data(cfg: RunConfig, grid: RadialGrid) -> FreeData:
    """FreeData per the [data] section: phi0 = amp * exp(-(r/width)^2) with
    the covariant datum phi0_dot = i * phidot_scale * phi0 (nonzero charge
    for phidot_scale != 0).
    """
    d = cfg.data
    prof = GaussianProfile(d["amplitude"], d["width"])(grid.r)
    return FreeData(phi0=prof.astype(complex), phi0_dot=1j * d["phidot_scale"] * prof)


# ---------------------------------------------------------------------------
# csv emission

def _write_csv(path: str, header_cols: list, rows, config_hash: str) -> None:
    with open(path, "w") as f:
        f.write(f"# mkglab output, config_hash={config_hash}\n")
        f.write(",".join(header_cols) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# ---------------------------------------------------------------------------
# pipeline

def run_pipeline(cfg: RunConfig, out_dir: str | None = None,
                 progress=None, full_criteria: bool = False,
                 module_checks: bool = True) -> RunReport:
    """Execute data_builder -> evolution -> extraction -> interior -> report.

    full_criteria=True additionally runs the domain-doubling companion for
    the envelope-stability check (roughly 4x the base cost); otherwise that
    check is reported from the base domain only and marked accordingly.
    module_checks=False skips the oracle/kernel/convergence spot checks
    (partial report, intended for smoke tests).  A check that cannot run on
    the config (no ray, too few samples on a ray, an empty interior list)
    is reported as failed, with the reason in its detail.  Deterministic for
    a fixed config (seeded RNG, single-threaded numpy).  A config that
    validate_config rejects raises ConfigError, as parse_config would.
    """
    cfg_errs = validate_config(cfg)
    if cfg_errs:
        raise ConfigError(cfg_errs)
    say = progress or (lambda msg: None)
    out_dir = out_dir or cfg.output["directory"]
    os.makedirs(out_dir, exist_ok=True)

    grid = RadialGrid(**cfg.grid)
    weights = Weights(**cfg.weights)
    scheme = SchemeParams(**cfg.scheme)

    say(f"[1/6] building data on n={grid.n_cells}, r_max={grid.r_max}")
    data = build_free_data(cfg, grid)
    state0, Q = assemble_state(data, grid)
    report = RunReport(config_hash=run_config_hash(cfg), charge_Q=Q)
    target = Q / (4.0 * np.pi)

    ext = cfg.extraction
    t_end = scheme.t_end
    n_steps, dt = time_grid(t_end, scheme.cfl * grid.h)
    frac_times = [f * t_end for f in ext["t_fracs"]]
    frac_steps = {slice_step(t, dt) for t in frac_times}
    interior_steps = [slice_step(t, dt) for t in cfg.interior["t_list"]]
    # evolve records the rays the checks read: the central one and the lowest
    q_rays = ext["q_rays"]
    central_q = min(q_rays, key=abs, default=None)
    q_low = min(q_rays, default=None)
    plan = ObservationPlan(
        ray_qs=tuple(sorted({central_q, q_low})) if q_rays else (),
        snapshot_every=2,
        snapshot_subsample=max(1, grid.n_cells // 2000),
        slice_times=(*frac_times, *cfg.interior["t_list"]))

    say(f"[2/6] evolving to t={t_end} ({n_steps} steps)")
    result = evolve(state0, grid, scheme, plan)
    log = result.log

    # -- monitor summary and single-run criteria -----------------------------
    tarr = np.array(log.t)
    lor = np.array(log.lorenz_residual_sup)
    qarr = np.array(log.charge_Q)
    earr = np.array(log.energy_E)
    # the burn-in window: the first 5% of the run, and at least the first
    # monitor event after t = 0 (the residual at t = 0 may be exactly 0)
    burn = tarr <= max(tarr[1], 0.05 * t_end)
    lor_base = float(np.max(lor[burn]))
    lor_sup = float(np.max(lor))
    report.monitor_summary = {
        "lorenz_t0": float(lor[0]), "lorenz_burn_in_max": lor_base,
        "lorenz_sup": lor_sup, "lorenz_final": float(lor[-1]),
        "charge_t0": float(qarr[0]), "charge_drift_max": float(np.max(np.abs(qarr - qarr[0]))),
        "energy_t0": float(earr[0]), "energy_final": float(earr[-1]),
        "n_monitor_events": len(tarr),
    }
    qdrift = float(np.max(np.abs(qarr - qarr[0])) / abs(qarr[0])) if qarr[0] != 0 else 0.0
    report.checks += [
        gate("lorenz_stability", lor_sup / max(lor_base, 1e-300),
             f"t=0 residual {lor[0]:.3e}, burn-in max {lor_base:.3e}, sup {lor_sup:.3e}"),
        gate("charge_conservation", qdrift)]

    central = result.rays.get(central_q)
    frame = {}      # monitor time -> |residual|
    if central is not None and len(central.times) >= FRAME_SAMPLES:
        frame_sup, ftimes, fres = frame_identity_residual(central, Q)
        frame = {float(tt): float(abs(rr)) for tt, rr in zip(ftimes, fres)}
        report.extras["frame_identity_sup"] = frame_sup

    # -- extraction ----------------------------------------------------------
    say("[3/6] extracting radiation tables and ray limits")
    dq = ext["q_spacing_cells"] * grid.h
    q_grid = np.arange(ext["q_min"], ext["q_max"] + 0.5 * dq, dq)
    frac_slices = {k: result.slices[k] for k in frac_steps}
    table = build_radiation_table(frac_slices, grid, Q, q_grid)
    limit_rows, al_err = _ray_limit_checks(frac_slices, grid, q_rays, central_q, Q)
    report.checks += limit_rows
    report.checks.append(_phase_slope_check(central, central_q, target))
    report.checks += _albar_checks(result.rays.get(q_low), q_low, table)

    # -- interior ------------------------------------------------------------
    say("[4/6] interior limit comparison")
    source = AsymSource(q_grid=table.q, j=table.j_scalar())
    interior_rows = interior_limit_check([result.slices[k] for k in interior_steps],
                                         grid, source, cfg.interior["y_list"])
    report.checks.append(_interior_check(interior_rows, cfg, Q))
    report.extras["asym_source_mass"] = source.mass()
    report.extras["asym_source_mass_vs_charge"] = (
        source.mass() / (-target) if target != 0 else np.nan)

    # -- envelopes -----------------------------------------------------------
    say("[5/6] decay envelope sups")
    env_rows = _envelopes(result.snapshots, weights)
    (_, sup_phi, _, _), (_, sup_j0, _, _) = env_rows
    if full_criteria:
        say("[5/6+] domain-doubling companion run for envelope stability")
        cfg2 = _scaled(cfg, 2.0 * cfg.grid["r_max"], 2 * cfg.grid["n_cells"], 2.0 * t_end)
        grid2 = RadialGrid(**cfg2.grid)
        st2, _ = assemble_state(build_free_data(cfg2, grid2), grid2)
        res2 = evolve(st2, grid2, SchemeParams(**cfg2.scheme), ObservationPlan(
            snapshot_every=2, snapshot_subsample=max(1, grid2.n_cells // 2000)))
        doubled = _envelopes(res2.snapshots, weights)
        (_, sup2_phi, _, _), (_, sup2_j0, _, _) = doubled
        change = max(abs(sup2_phi - sup_phi) / sup_phi if sup_phi else 0.0,
                     abs(sup2_j0 - sup_j0) / sup_j0 if sup_j0 else 0.0)
        detail = f"phi: {sup_phi:.6g} -> {sup2_phi:.6g}; J0: {sup_j0:.6g} -> {sup2_j0:.6g}"
        report.checks.append(gate("envelope_stability", change, detail))
        env_rows += [(label + "_doubled", sup, t, r)
                     for label, sup, t, r in doubled]
    else:
        report.checks.append(Check(
            "envelope_stability",
            "weighted sups finite on the base domain (doubling run skipped)",
            max(sup_phi, sup_j0), np.inf, np.isfinite(sup_phi) and np.isfinite(sup_j0),
            detail="run with full_criteria=True for the doubling comparison"))

    # -- module-level fast criteria (oracles, kernels, asymptotic system) ----
    if module_checks:
        say("[6/6] oracle, kernel, and convergence spot checks")
        # the kernel and oracle checks each draw from their own generator
        # seeded with output.seed; only they load numpy.random
        seed = cfg.output["seed"]
        report.checks += [*_kernel_checks(seed), *_asys_checks(), mms_check(),
                          agreement_check(seed), logest1_check(),
                          _free_wave_order_check(cfg, say),
                          *_refinement_orders_check(cfg, say)]

    # -- emission ------------------------------------------------------------
    _emit(out_dir, cfg, log, frame, table, al_err, interior_rows, env_rows, report)
    return report


# ray samples the phase-slope and A_Lbar checks need on their ray
_MIN_RAY_SAMPLES = 16


def _cannot_run(q, times, needed: int) -> str | None:
    """Why a check cannot run on the ray at q sampled at times (None when
    it can); times is None when no ray is sampled."""
    if times is None:
        return "cannot run: extraction.q_rays is empty"
    if len(times) < needed:
        return f"cannot run: ray q={q:g} has {len(times)} samples, needs >= {needed}"
    return None


def _ray_limit_checks(slices, grid, q_rays, central_q, Q) -> tuple[list[Check], float]:
    """The r A_L limit and r phi Cauchy checks on every ray of q_rays, each
    ray sampled once from slices, and the A_L limit error on the central ray
    at central_q (NaN when that ray cannot run)."""
    target = Q / (4.0 * np.pi)
    al_rows, phi0_rows = [], []
    al_err = np.nan
    # why the ray checks cannot run: no ray, or the first short ray
    short = None if q_rays else _cannot_run(None, None, LIMIT_SAMPLES)
    for qray in q_rays:
        ray = sample_ray(slices, grid, qray)
        reason = _cannot_run(qray, ray.t, LIMIT_SAMPLES)
        short = short or reason
        if reason:
            continue
        al = extract_AL_limit(ray)
        if qray == central_q:
            al_err = al.err_est
        errs_last3 = np.abs(ray.r[-3:] * ray.A_L[-3:] - target)
        rel = abs(al.value.real - target) / abs(target) if target != 0 else abs(al.value.real)
        floor = 1e-10 * abs(target) + 1e-300
        decreasing = bool(np.all(np.diff(errs_last3) < 0)
                          or np.all(errs_last3 < floor))
        al_rows.append({"q": qray, "value": al.value.real, "rel_err": rel,
                        "decreasing": decreasing,
                        "err_last3": [float(e) for e in errs_last3]})
        ph = extract_phi0(ray, Q)
        incs = ph.increments    # LIMIT_SAMPLES leaves at least two
        ratio = float(incs[-1] / incs[-2]) if incs[-2] > 0 else np.inf
        phi0_rows.append({"q": qray, "value": [ph.value.real, ph.value.imag],
                          "amp": abs(ph.value), "err_est": ph.err_est,
                          "cauchy_ratio": ratio, "converged": ph.converged,
                          "diagnostic": ph.diagnostic})
    if short:   # both checks fail with the reason
        return [gate("AL_limit", np.nan, short), gate("phi0_cauchy", np.nan, short)], al_err

    # rays carrying no radiation to double precision are trivially Cauchy
    amp_max = max(row["amp"] for row in phi0_rows)
    for row in phi0_rows:
        if row["amp"] < 1e-10 * amp_max or row["err_est"] < 1e-30:
            row["cauchy_ratio"] = 0.0
            row["converged"] = True
            row["diagnostic"] = "below radiation noise floor, trivially Cauchy"
    return [gate("AL_limit", max(r["rel_err"] for r in al_rows), json.dumps(al_rows),
                 also=all(r["decreasing"] for r in al_rows)),
            gate("phi0_cauchy", max(r["cauchy_ratio"] for r in phi0_rows),
                 json.dumps(phi0_rows))], al_err


def _interior_check(rows, cfg, Q) -> Check:
    """t A_0 -> K_0(y) on the interior rows (interior_limit_check)."""
    if not rows:
        empty = next(key for key in ("t_list", "y_list") if not cfg.interior[key])
        return gate("interior_limit", np.nan, f"cannot run: interior.{empty} is empty")
    worst_final = 0.0
    monotone = True
    for y in cfg.interior["y_list"]:
        sub = [r for r in rows if r["y"] == y]
        sub.sort(key=lambda r: r["t"])
        errs = [r["abs_err0"] for r in sub]
        monotone = monotone and all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        k0 = sub[-1]["K0_pred"]
        worst_final = max(worst_final, abs(sub[-1]["abs_err0"] / k0) if k0 else np.inf)
    sign_ok = all((r["K0_pred"] < 0) == (Q < 0) or r["K0_pred"] == 0 for r in rows)
    return gate("interior_limit", worst_final, f"monotone={monotone}, sign_ok={sign_ok}",
                also=monotone and sign_ok)


def _phase_slope_check(hist, q, target) -> Check:
    """The charge-phase slope on the ray history hist at q (None: no ray)."""
    row = partial(gate, "charge_phase_slope")
    reason = _cannot_run(q, None if hist is None else hist.times, _MIN_RAY_SAMPLES)
    if reason:
        return row(np.nan, reason)
    times, r0, a0, ar, phi, j0, jr = hist.as_arrays()
    c = hist.center
    rphi = r0 * phi[:, c]
    if np.max(np.abs(rphi)) == 0.0:
        return row(0.0, "zero field, trivial")
    mask = r0 > r0[-1] / 10.0
    try:
        slope, r2 = phase_slope_fit(r0[mask], rphi[mask])
    except ValueError as exc:
        return row(np.nan, f"fit not applicable: {exc}")
    expected = -target
    rel = abs(slope - expected) / abs(expected) if expected != 0 else abs(slope)
    return row(rel, f"slope={slope:.6e}, expected={expected:.6e}, r2={r2:.4f}")


def _albar_checks(hist, q_low, table) -> list[Check]:
    """A_Lbar's log growth and its mod-corrected Cauchy check on the ray
    history hist of the most interior ray, at q_low (None: no ray)."""
    def rows(corr, mod_ratio, detail):
        return [gate("albar_log_correlation", corr, detail),
                gate("albar_mod_cauchy", mod_ratio, detail)]

    reason = _cannot_run(q_low, None if hist is None else hist.times, _MIN_RAY_SAMPLES)
    if reason:
        return rows(np.nan, np.nan, reason)
    times, r0, a0, ar, phi, j0, jr = hist.as_arrays()
    c = hist.center
    ralb = r0 * (a0[:, c] - ar[:, c])
    if np.max(np.abs(ralb)) == 0.0:
        return rows(1.0, 0.0, "zero field, trivial")
    mask = r0 > r0[-1] / 10.0
    x = np.log1p(r0[mask])
    y = ralb[mask]
    corr = float(np.corrcoef(x, y)[0, 1])
    slope = float(np.polyfit(x, y, 1)[0])
    # mod-corrected values at geometrically spaced late times
    idx = [len(times) // 4, len(times) // 2, int(len(times) * 0.7),
           int(len(times) * 0.85), len(times) - 1]
    mods = r0[idx] * mod_ALbar(a0[idx, c] - ar[idx, c], table.q,
                               table.J_Lbar, times[idx], r0[idx],
                               q_min=table.q[0])
    incs = np.abs(np.diff(mods))
    mod_ratio = float(incs[-1] / incs[-2]) if incs[-2] > 0 else np.inf
    detail = (f"ray q={q_low}: slope={slope:.4e}, corr={corr:.5f}, "
              f"mod increments={[f'{v:.3e}' for v in incs]}")
    return rows(abs(corr), mod_ratio, detail)


def _scaled(cfg: RunConfig, r_max: float, n_cells: int, t_end: float) -> RunConfig:
    """cfg on n_cells cells out to r_max, evolved to t_end."""
    return replace(cfg, grid={**cfg.grid, "r_max": r_max, "n_cells": n_cells},
                   scheme={**cfg.scheme, "t_end": t_end})


def _envelopes(snapshots, weights: Weights) -> list[tuple]:
    """(label, weighted sup, argmax t, argmax r) of the phi peeling and the
    J_0 envelopes over snapshots."""
    rows = []
    for spec, quantity in ((phi_peeling_spec(weights), "phi"),
                           (j0_envelope_spec(weights), "j0")):
        sup, (t, r) = envelope_check(snapshots, spec, quantity)
        rows.append((spec.label, sup, t, r))
    return rows


def _kernel_checks(seed: int) -> list[Check]:
    """Angular identity vs sphere quadrature + the A^ex chain decay."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.5, 5.0))
        x = float(a * rng.uniform(0.0, 0.99))
        worst = max(worst, abs(angular_kernel_integral(a, x)
                               - angular_kernel_quadrature(a, x, abs_tol=1e-10)))
    src = CallableSource(lambda q: np.exp(-q * q), (-2.0, 2.0))
    rep = chain_difference_report([20.0, 40.0, 80.0], 0.5, src, s=_CHAIN_S)
    return [gate("angular_identity", worst),
            gate("chain_difference_decay", rep["fitted_exponent"],
                 f"C log-slope {rep['C_log_slope']:.3f}")]


def _asys_checks() -> list[Check]:
    """Weak-null certificate and RK4 phase-factorization order at A_L = 1."""
    q_grid = np.linspace(-8.0, 8.0, 801)
    phi0 = np.exp(-q_grid ** 2) * (q_grid / 2.0 + 0.25j)
    st = asys.AsymState.from_phi0(q_grid, phi0, A_L_param=1.0)
    final, hist = asys.integrate(st, 50.0, 1e-2, record_every=500)
    cert = asys.weak_null_certificate(hist, 1e-2)
    errs = [asys.phase_factorization_error(st, asys.integrate(st, 2.0, ds)[0])
            for ds in (4e-2, 2e-2, 1e-2)]
    order = float(np.mean([np.log2(errs[i] / errs[i + 1]) for i in range(2)]))
    return [gate("weak_null_modulus", cert["modulus_drift"]),
            gate("weak_null_affine", cert["albar_affine_residual"]),
            gate("phase_factorization_order", order, f"errors {errs}")]


def mms_check() -> Check:
    """Manufactured solution phi* = e^{-t} e^{-r^2} recovered at (t, r) = (1, 1)
    from its source F = d_t^2 phi* - Lap phi* and its free part."""
    src = RadialSource(F=lambda t, r: np.exp(-t - r * r) * (7.0 - 4.0 * r * r))
    inhom = solve_inhom_radial(src, 1.0, 1.0, abs_tol=1e-10)
    hom = dalembert_free(GaussianProfile(1.0, 1.0), lambda x: -np.exp(-x * x),
                         1.0, 1.0).real
    err = abs(inhom + hom - np.exp(-2.0))
    return gate("oracle_mms", err)


def agreement_check(seed: int) -> Check:
    """d'Alembert vs Kirchhoff on 1000 random Gaussian radial data, drawn
    from a generator seeded with seed."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        amps = rng.uniform(-1.0, 1.0, size=2)
        widths = rng.uniform(0.5, 2.0, size=2)
        t, r = float(rng.uniform(0.2, 6.0)), float(rng.uniform(0.1, 8.0))
        g0 = GaussianProfile(amps[0], widths[0])
        h0 = GaussianProfile(amps[1], widths[1])
        da = dalembert_free(g0, h0, t, r).real
        ki = kirchhoff_eval(g0, h0, t, r, w0_prime=g0.d, order=160)
        worst = max(worst, abs(da - ki))
    return gate("oracle_agreement", worst)


def logest1_check() -> Check:
    """logest1 envelope constant of a decaying source under domain doubling."""
    src = RadialSource(F=lambda t, r: 1.0 / ((1.0 + r) * (1.0 + t + r)
                                             * (1.0 + np.abs(t - r)) ** 2))
    cs = []
    for dom in (100.0, 200.0):
        samples = [(ft * dom, fr * dom, solve_inhom_radial(src, ft * dom, fr * dom,
                                                           fast=True))
                   for ft, fr in _SAMPLE_FRACS]
        cs.append(verify_decay_bound(samples, "logest1", {"delta": 1.0})[0])
    change = abs(cs[1] - cs[0]) / cs[0]
    return gate("oracle_logest1", change, f"C = {cs[0]:.6g} -> {cs[1]:.6g}")


_SAMPLE_FRACS = [(0.2, 0.1), (0.2, 0.22), (0.5, 0.1), (0.5, 0.3), (0.5, 0.52),
                 (0.8, 0.2), (0.8, 0.5), (0.8, 0.82), (0.9, 0.3), (0.9, 0.7),
                 (0.6, 0.58), (0.95, 0.9), (0.4, 0.38), (0.7, 0.1), (0.3, 0.28)]


def _free_wave_order_check(cfg: RunConfig, say) -> Check:
    """Criterion-1 free-wave convergence on a scaled (r_max=100) domain.

    Each level's wall time is printed by say, not kept in the row, so that
    two runs of one config write the same report."""
    errs, times = [], []
    for n in (500, 1000, 2000):
        t0 = time.perf_counter()
        errs.append(_free_wave_error(_scaled(cfg, 100.0, n, 50.0)))
        times.append(time.perf_counter() - t0)
        say(f"free-wave level n={n}: {times[-1]:.2f} s")
    orders = _orders({"free_wave": errs})[0]["free_wave"]
    return gate("free_wave_order", orders[-1], f"errors {errs}, orders {orders}",
                also=max(times) < _LEVEL_SECONDS)


def _refinement_orders_check(cfg: RunConfig, say) -> list[Check]:
    """Lorenz-residual and charge-drift orders on a scaled coupled ladder."""
    _, errors = _coupled_ladder(_scaled(cfg, 100.0, 1000, 80.0), 3, say)
    orders, _ = _orders(errors)
    lor, chg = orders["lorenz_residual"][-1], orders["charge_drift"][-1]
    return [gate("lorenz_order", lor, f"residuals {errors['lorenz_residual']}"),
            gate("charge_order", chg, f"drifts {errors['charge_drift']}")]


def _emit(out_dir, cfg, log, frame, table, al_err, interior_rows, env_rows, report):
    chash = report.config_hash
    with open(os.path.join(out_dir, "config.txt"), "w") as f:
        f.write(dump_config(cfg))
    mon_rows = [(t, log.lorenz_residual_sup[i], log.charge_Q[i], log.energy_E[i],
                 frame.get(float(t), np.nan)) for i, t in enumerate(log.t)]
    _write_csv(os.path.join(out_dir, "monitors.csv"),
               ["t", "lorenz_residual_sup", "charge_Q", "energy_E",
                "frame_identity_residual_sup"], mon_rows, chash)
    rad_rows = [(table.q[i], table.Phi0[i].real, table.Phi0[i].imag,
                 table.J_Lbar[i], al_err, table.A_Lbar_mod[i])
                for i in range(len(table.q))]
    _write_csv(os.path.join(out_dir, "radiation.csv"),
               ["q", "Re_Phi0", "Im_Phi0", "J_Lbar", "A_L_limit_err", "A_Lbar_mod"],
               rad_rows, chash)
    int_rows = [(r["t"], r["y"], r["tA0_sim"], r["K0_pred"], r["abs_err0"],
                 r["tAr_sim"], r["Kr_pred"], r["abs_errr"])
                for r in interior_rows]
    _write_csv(os.path.join(out_dir, "interior.csv"),
               ["t", "y_norm", "tA0_sim", "K0_pred", "abs_err",
                "tAr_sim", "Kr_pred", "abs_err_r"], int_rows, chash)
    _write_csv(os.path.join(out_dir, "envelopes.csv"),
               ["envelope", "sup_weighted", "argmax_t", "argmax_r"],
               env_rows, chash)
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report.to_dict(), f, indent=1, sort_keys=True)
        f.write("\n")


def write_failed_marker(out_dir: str, exc: Exception) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "FAILED"), "w") as f:
        f.write(f"{type(exc).__name__}: {exc}\n")


# ---------------------------------------------------------------------------
# convergence studies

def convergence_study(cfg: RunConfig, levels: int = 3, progress=None) -> dict:
    """Refinement study at h, h/2, h/4, ... on the configured domain.

    Tracks the free-wave error against the d'Alembert oracle (linear run)
    and the errors of the coupled run (_coupled_ladder).  Observed order
    between consecutive levels is log2(e_coarse / e_fine); non-monotone
    errors are flagged.
    """
    if levels < 2:
        raise ValueError("convergence_study needs >= 2 levels")
    level_info, errors = _coupled_ladder(cfg, levels, progress, study=True)
    orders, flags = _orders(errors)
    return {"levels": level_info, "errors": errors, "orders": orders,
            "flags": flags}


def _coupled_ladder(cfg: RunConfig, levels: int, progress,
                    study: bool = False) -> tuple[list, dict]:
    """Per-level status and errors of the coupled run at h, h/2, h/4, ...

    The errors are the Lorenz residual and the charge drift; the coupled
    runs record no snapshot, and no ray unless study is set.  study=True
    (convergence_study) also measures each level's free-wave error
    (_free_wave_error) as errors["free_wave"] and records the ray q = 0 for
    its frame-identity residual, errors["frame_identity"].  A level gets
    NaN for every error it cannot measure (an unstable evolve, a short ray).
    """
    say = progress or (lambda msg: None)
    keys = ("free_wave", "lorenz_residual", "charge_drift", "frame_identity")
    errors = {key: [] for key in (keys if study else keys[1:3])}
    level_info = []
    scheme = SchemeParams(**cfg.scheme)
    plan = ObservationPlan(ray_qs=(0.0,) if study else ())
    for lev in range(levels):
        n = cfg.grid["n_cells"] * (2 ** lev)
        say(f"level {lev}: n_cells = {n}")
        lev_cfg = _scaled(cfg, cfg.grid["r_max"], n, cfg.scheme["t_end"])
        grid = RadialGrid(**lev_cfg.grid)
        info = {"n_cells": n, "h": grid.h}
        try:
            if study:
                errors["free_wave"].append(_free_wave_error(lev_cfg))
            st0, Q = assemble_state(build_free_data(lev_cfg, grid), grid)
            res = evolve(st0, grid, scheme, plan)
            lor = np.array(res.log.lorenz_residual_sup)
            tarr = np.array(res.log.t)
            qs = np.array(res.log.charge_Q)
            # sup over the propagated window: the data-transient burn-in peak
            # is sampled at h-dependent times and spoils order measurement
            late = tarr >= 0.1 * scheme.t_end
            errors["lorenz_residual"].append(float(np.max(lor[late])))
            errors["charge_drift"].append(float(np.max(np.abs(qs - qs[0]))))
            if study and len(res.rays[0.0].times) >= FRAME_SAMPLES:
                _, fts, fser = frame_identity_residual(res.rays[0.0], Q)
                # same propagated window as the Lorenz residual: the ray
                # enters the sampled region at h-dependent early times
                fwin = fts >= 0.1 * scheme.t_end
                if np.any(fwin):
                    errors["frame_identity"].append(float(np.max(np.abs(fser[fwin]))))
            info["status"] = "ok"
        except EvolutionUnstable as exc:
            info["status"] = f"unstable: {exc}"
        for key in errors:
            if len(errors[key]) <= lev:
                errors[key].append(np.nan)
        level_info.append(info)
    return level_info, errors


def _orders(errors: dict) -> tuple[dict, list]:
    """Observed orders log2(e_coarse / e_fine) per key, and the flags of
    errors that grew under refinement."""
    orders, flags = {}, []
    for key, errs in errors.items():
        seq = []
        for i in range(len(errs) - 1):
            if not (np.isfinite(errs[i]) and np.isfinite(errs[i + 1])) or errs[i + 1] == 0:
                seq.append(np.nan)
                continue
            if errs[i + 1] > errs[i]:
                flags.append(f"{key}: not in asymptotic regime "
                             f"(error grew {errs[i]:.3e} -> {errs[i + 1]:.3e})")
            seq.append(float(np.log2(errs[i] / errs[i + 1])))
        orders[key] = seq
    return orders, flags


def _free_wave_error(cfg: RunConfig) -> float:
    """Sup error of cfg's linear (A = 0) run against the d'Alembert oracle."""
    grid = RadialGrid(**cfg.grid)
    data = build_free_data(cfg, grid)
    state0 = FieldState.zeros(grid)
    state0.phi, state0.phi_t = data.phi0, data.phi0_dot
    res = evolve(state0, grid, SchemeParams(**cfg.scheme, linear=True))
    t_fin = res.final.t
    r = grid.r[1:]
    d = cfg.data
    prof = GaussianProfile(d["amplitude"], d["width"])
    lam = GaussianProfile(d["phidot_scale"] * d["amplitude"], d["width"])
    exact_re = dalembert_free(prof, None, t_fin, r)
    exact = exact_re + 1j * np.asarray(
        0.5 * (lam.lambda_antiderivative(r + t_fin)
               - lam.lambda_antiderivative(np.abs(r - t_fin))) / r)
    return float(np.max(np.abs(res.final.phi[1:] - exact)))
