"""Acceptance criteria, one test per criterion, at the reference setup:
phi0 = eps e^{-r^2}, phi0_dot = i eps e^{-r^2}, ar = ardot = 0, eps = 1e-2,
s = 0.9, gamma = 0.4, r_max = 400, n_cells = 8000, cfl = 0.5, t_end = 320.

Every test prints a PASS/FAIL line with the measured value and tolerance.
Three clauses are expected to fail at this desk scale with the 2nd-order
scheme the convergence criteria pin down; each failure message carries the
quantitative reason (see also the repository notes):

  - criterion 4, ray q = -20: the finite-time interior correction to
    r A_L is (M/2) ln((t+r)/(t-r)) (t-r)/r ~ 11% of Q/4pi at r = 300; the
    5% bar needs r ~ 1200 at this |q|.
  - criterion 5: the charge-phase signal (|Q|/4pi ~ 1.6e-5 rad per e-fold)
    sits ~3-4 orders of magnitude below the 2nd-order dispersion phase
    drift (~0.2 rad over the run at n = 8000); both clauses are
    noise-floor-limited, not implementation-limited.
  - criterion 6, Cauchy clause: same noise floor on r A_Lbar^mod.
"""
import json
import time

import numpy as np
import pytest

from mkglab.config import default_config
from mkglab.pipeline import run_pipeline

EPS = 1e-2
TOL = {}


def reference_config():
    cfg = default_config()
    # defaults are the reference values; spelled out where it matters
    cfg.grid["r_max"], cfg.grid["n_cells"] = 400.0, 8000
    cfg.data["family"], cfg.data["amplitude"] = "gaussian", EPS
    cfg.weights["s"], cfg.weights["gamma"] = 0.9, 0.4
    cfg.scheme["cfl"], cfg.scheme["t_end"] = 0.5, 320.0
    cfg.extraction["q_rays"] = [-20.0, 0.0, 20.0]
    cfg.interior["y_list"] = [0.1, 0.3, 0.5]
    cfg.interior["t_list"] = [100.0, 200.0, 300.0]
    return cfg


@pytest.fixture(scope="session")
def reference(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference_run")
    t0 = time.time()
    report = run_pipeline(reference_config(), out_dir=str(out),
                          full_criteria=True)
    report.extras["acceptance_wall_seconds"] = time.time() - t0
    return report


def gather(report, check_id):
    for c in report.checks:
        if c.id == check_id:
            return c
    raise KeyError(check_id)


def verdict(num, name, ok, measured, tol, extra=""):
    from conftest import record_verdict
    line = (f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {name}: "
            f"measured {measured:.6g} (tolerance {tol:.6g}) {extra}")
    print(line)
    record_verdict(line)
    return line


class TestCriterion1:
    def test_free_wave_exactness(self, reference):
        c = gather(reference, "free_wave_order")
        ok = c.passed
        line = verdict(1, "free-wave order 2.0 +- 0.2, < 1 min/level", ok,
                       c.measured, 2.2, extra=c.detail[:120])
        assert ok, line


class TestCriterion2:
    def test_constraint_propagation(self, reference):
        c = gather(reference, "lorenz_stability")
        o = gather(reference, "lorenz_order")
        ok = c.passed and o.passed
        line = verdict(2, "Lorenz residual within 10x baseline; order >= 1.8",
                       ok, c.measured, 10.0,
                       extra=f"order {o.measured:.3f}")
        assert ok, line


class TestCriterion3:
    def test_charge_conservation(self, reference):
        c = gather(reference, "charge_conservation")
        o = gather(reference, "charge_order")
        ok = c.passed and o.passed
        line = verdict(3, "relative charge drift < 1e-3; order >= 1.8", ok,
                       c.measured, 1e-3, extra=f"order {o.measured:.3f}")
        assert ok, line


class TestCriterion4:
    def test_AL_limit_matches_charge(self, reference):
        c = gather(reference, "AL_limit")
        rows = json.loads(c.detail)
        for row in rows:
            print(f"    ray q={row['q']:+.0f}: rel err {row['rel_err']:.4f}, "
                  f"decreasing={row['decreasing']}")
        ok = c.passed
        line = verdict(4, "r A_L -> Q/4pi to 5% on rays q in {-20, 0, 20}",
                       ok, c.measured, 0.05,
                       extra="(q=-20 carries the finite-t interior "
                             "correction ~ (M/2)(1-c)ln((1+c)/(1-c))/c)")
        assert ok, line


class TestCriterion5:
    def test_phi0_cauchy_and_phase_slope(self, reference):
        c = gather(reference, "phi0_cauchy")
        s = gather(reference, "charge_phase_slope")
        ok = c.passed and s.passed
        line = verdict(5, "phase-corrected r phi Cauchy (<20%); slope = -Q/4pi (10%)",
                       ok, c.measured, 0.2,
                       extra=f"slope rel err {s.measured:.3g}; charge-phase "
                             f"signal ~1e-4 rad vs ~0.2 rad dispersion drift")
        assert ok, line


class TestCriterion6:
    def test_albar_log_correction(self, reference):
        corr = gather(reference, "albar_log_correlation")
        mod = gather(reference, "albar_mod_cauchy")
        ok = corr.passed and mod.passed
        line = verdict(6, "r A_Lbar log-linear (|corr| >= 0.99); mod Cauchy (<20%)",
                       ok, corr.measured, 0.99,
                       extra=f"mod increment ratio {mod.measured:.3f}")
        assert ok, line


class TestCriterion7:
    def test_interior_limit(self, reference):
        c = gather(reference, "interior_limit")
        ok = c.passed
        line = verdict(7, "t A_0 -> K_0(y): decreasing error, final < 10%, sign",
                       ok, c.measured, 0.10, extra=c.detail)
        assert ok, line


class TestCriterion8:
    def test_angular_identity_and_chain(self):
        # computed directly, independently of the pipeline bookkeeping
        from mkglab.interior import (CallableSource, angular_kernel_integral,
                                     angular_kernel_quadrature,
                                     chain_difference_report)
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            a = float(rng.uniform(0.5, 5.0))
            x = float(a * rng.uniform(0.0, 0.99))
            worst = max(worst, abs(angular_kernel_integral(a, x)
                                   - angular_kernel_quadrature(a, x, abs_tol=1e-10)))
        src = CallableSource(lambda q: np.exp(-q * q), (-2.0, 2.0))
        rep = chain_difference_report([20.0, 40.0, 80.0], 0.5, src, s=0.9)
        bound = -(2 * 0.9 - 1.0) + 0.2
        ok = worst < 1e-8 and rep["fitted_exponent"] <= bound
        line = verdict(8, "angular identity to 1e-8 (100 random); chain decay",
                       ok, worst, 1e-8,
                       extra=f"exponent {rep['fitted_exponent']:.3f} <= {bound}")
        assert ok, line


class TestCriterion9:
    def test_weak_null_condition(self):
        from mkglab.asymptotic_system import (AsymState, integrate,
                                              phase_factorization_error,
                                              weak_null_certificate)
        q = np.linspace(-8.0, 8.0, 801)
        phi0 = np.exp(-q ** 2) * (q / 2.0 + 0.25j)
        st = AsymState.from_phi0(q, phi0, A_L_param=1.0)
        _, hist = integrate(st, 50.0, 1e-2, record_every=500)
        cert = weak_null_certificate(hist, 1e-2)
        errs = []
        for ds in (4e-2, 2e-2, 1e-2):
            f2, _ = integrate(st, 2.0, ds)
            errs.append(phase_factorization_error(st, f2))
        order = float(np.mean([np.log2(errs[i] / errs[i + 1]) for i in range(2)]))
        ok = (cert["modulus_drift"] < 1e-10
              and cert["albar_affine_residual"] < 1e-6
              and abs(order - 4.0) <= 0.1)
        line = verdict(9, "|P| drift < 1e-10; affine residual < 1e-6; order 4",
                       ok, cert["modulus_drift"], 1e-10,
                       extra=f"affine {cert['albar_affine_residual']:.2e}, "
                             f"order {order:.4f}")
        assert ok, line


class TestCriterion10:
    def test_appendix_oracles(self):
        from mkglab.data_builder import GaussianProfile
        from mkglab.wave_oracle import (RadialSource, dalembert_free,
                                        kirchhoff_eval, solve_inhom_radial,
                                        verify_decay_bound)
        src = RadialSource(F=lambda t, r: np.exp(-t - r * r) * (7.0 - 4.0 * r * r))
        g = GaussianProfile(1.0, 1.0)
        inhom = solve_inhom_radial(src, 1.0, 1.0, abs_tol=1e-10)
        hom = dalembert_free(g, lambda x: -np.exp(-x * x), 1.0, 1.0).real
        mms = abs(inhom + hom - np.exp(-2.0))

        rng = np.random.default_rng(303)
        agree = 0.0
        for _ in range(1000):
            g0 = GaussianProfile(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)))
            h0 = GaussianProfile(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)))
            t = float(rng.uniform(0.2, 6.0))
            r = float(rng.uniform(0.1, 8.0))
            agree = max(agree, abs(dalembert_free(g0, h0, t, r).real
                                   - kirchhoff_eval(g0, h0, t, r, order=160)))

        srcd = RadialSource(F=lambda t, r: 1.0 / ((1.0 + r) * (1.0 + t + r)
                                                  * (1.0 + np.abs(t - r)) ** 2))
        fracs = [(0.2, 0.1), (0.5, 0.3), (0.5, 0.52), (0.8, 0.5), (0.8, 0.82),
                 (0.9, 0.3), (0.95, 0.9), (0.4, 0.38), (0.7, 0.1), (0.3, 0.28)]
        cs = []
        for dom in (100.0, 200.0):
            samples = [(ft * dom, fr * dom,
                        solve_inhom_radial(srcd, ft * dom, fr * dom, fast=True))
                       for (ft, fr) in fracs]
            c, _ = verify_decay_bound(samples, "logest1", {"delta": 1.0})
            cs.append(c)
        stab = abs(cs[1] - cs[0]) / cs[0]
        ok = mms < 1e-6 and agree < 1e-8 and stab < 0.20
        line = verdict(10, "mms to 1e-6; agreement to 1e-8 (1000); logest1 +-20%",
                       ok, mms, 1e-6,
                       extra=f"agreement {agree:.2e}, logest1 change {stab:.2%}")
        assert ok, line


class TestCriterion11:
    def test_envelope_stability_under_doubling(self, reference):
        c = gather(reference, "envelope_stability")
        ok = c.passed
        line = verdict(11, "weighted sups of |phi|, |J0| change < 10% on doubling",
                       ok, c.measured, 0.10, extra=c.detail[:140])
        assert ok, line


class TestWallClock:
    def test_reference_pipeline_under_ten_minutes(self, reference):
        wall = reference.extras["acceptance_wall_seconds"]
        ok = wall < 600.0
        print(f"[wall clock] {'PASS' if ok else 'FAIL'} full reference pipeline "
              f"+ doubling companion: {wall:.0f} s (< 600 s)")
        assert ok


class TestSupplementaryDiagnostics:
    """Not a numbered criterion: demonstrates that the charge phase is in
    the evolution and is recovered once the scheme's dispersion drift is
    cancelled by a matched linear control (criterion 5's failure is a
    single-run noise-floor effect, not an implementation defect)."""

    def test_charge_phase_recovered_differentially(self):
        from mkglab.core import FieldState
        from mkglab.data_builder import FreeData, assemble_state
        from mkglab.evolution import ObservationPlan, SchemeParams, evolve
        from mkglab.grid import RadialGrid
        from mkglab.null_extraction import phase_slope_fit

        grid = RadialGrid(100.0, 2000)
        eps = 0.1
        r = grid.r
        phi0 = eps * np.exp(-r ** 2) + 0j
        data = FreeData(phi0=phi0, phi0_dot=1j * phi0)
        state, Q = assemble_state(data, grid)
        expected = -Q / (4 * np.pi)
        plan = ObservationPlan(ray_qs=(0.0,))
        charged = evolve(state, grid, SchemeParams(0.5, 80.0, "none", 8), plan)
        ctrl = FieldState.zeros(grid)
        ctrl.phi = phi0.copy()
        ctrl.phi_t = 1j * phi0.copy()
        lin = evolve(ctrl, grid, SchemeParams(0.5, 80.0, "none", 8, linear=True),
                     plan)
        t1, r1, _, _, ph1, _, _ = charged.rays[0.0].as_arrays()
        t2, r2, _, _, ph2, _, _ = lin.rays[0.0].as_arrays()
        c = charged.rays[0.0].center
        n = min(len(t1), len(t2))
        mask = r1[:n] > r1[n - 1] / 10.0
        ratio = (r1[:n] * ph1[:n, c]) / (r2[:n] * ph2[:n, c])
        slope, r2fit = phase_slope_fit(r1[:n][mask], ratio[mask])
        rel = abs(slope - expected) / expected
        print(f"[diagnostic] differential charge-phase slope {slope:+.4e} vs "
              f"-Q/4pi = {expected:+.4e} (rel err {rel:.1%}, r2 = {r2fit:.4f})")
        assert rel < 0.10
        assert r2fit > 0.99
