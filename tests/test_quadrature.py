"""quadrature.adaptive_quad, alone and at each of its call sites.

scipy's QUADPACK `quad` is the independent reference: every integral that
mkglab computes with adaptive_quad is recomputed here with `quad` on the
scalar integrand, at tolerances near rounding, and the two must agree to
1e-12 relative or 1e-14 absolute.  The log-kernel series and the sphere
rule are held bitwise to numpy's polyval and to a node-by-node build, and
fresh interpreters check which modules a run leaves unloaded.
"""
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from mkglab.data_builder import GaussianProfile
from mkglab import interior
from mkglab.interior import (_CHI0, AsymSource, CallableSource,
                             angular_kernel_integral, angular_kernel_vector,
                             eval_A_ex)
from mkglab.quadrature import (_P_SERIES, _S_SERIES, _polyval, adaptive_quad,
                               gauss_legendre, sphere_quadrature)
from mkglab.wave_oracle import RadialSource, dalembert_free, solve_inhom_radial

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TESTS = os.path.dirname(os.path.abspath(__file__))


def skew(q):
    return np.exp(-0.3 * (q - 1.0) ** 2) * (1.0 + 0.2 * q)


def assert_agrees(value, reference):
    err = np.max(np.abs(np.asarray(value) - np.asarray(reference)))
    assert err <= max(1e-12 * np.max(np.abs(reference)), 1e-14), (value, reference)


def reference_quad(f, a, b, points=None):
    val, _ = quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=2000, points=points)
    return val


class TestRule:
    def test_smooth_and_log_endpoint(self):
        assert_agrees(adaptive_quad(np.exp, 0.0, 1.0), np.e - 1.0)
        val = adaptive_quad(lambda x: x * np.log(x), 0.0, 1.0, abs_tol=1e-14,
                            rel_tol=1e-13)
        assert_agrees(val, -0.25)

    def test_array_and_complex_values(self):
        val = adaptive_quad(lambda x: np.stack([np.sin(x), np.cos(x), x ** 3]),
                            0.0, 2.0)
        assert val.shape == (3,)
        assert_agrees(val, [1.0 - np.cos(2.0), np.sin(2.0), 4.0])
        cval = adaptive_quad(lambda x: np.exp(1j * x), 0.0, 3.0)
        assert isinstance(cval, complex)
        assert_agrees(cval, (np.exp(3j) - 1.0) / 1j)
        assert adaptive_quad(lambda x: 0.0, 0.0, 1.0) == 0.0
        assert adaptive_quad(np.exp, 1.0, 1.0) == 0.0

    def test_points_split_a_jump(self):
        # the jump at 0.7 is a panel edge, so no bisection has to find it
        f = lambda x: np.where(x < 0.7, 1.0, -2.0) * x
        assert_agrees(adaptive_quad(f, 0.0, 1.3, points=[0.7, 5.0]),
                      0.5 * 0.49 - (1.69 - 0.49))

    def test_raises_at_its_panel_limit(self):
        # x^-0.999 needs more bisections than the rule allows itself
        with pytest.raises(RuntimeError, match="above its tolerance"):
            adaptive_quad(lambda x: x ** -0.999, 0.0, 1.0)

    def test_raises_on_non_finite_values(self):
        with pytest.raises(RuntimeError, match="non-finite"):
            adaptive_quad(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)

    def test_reversed_limits_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(np.exp, 1.0, 0.0)


def a_ex_reference(t, x_norm, source):
    """eval_A_ex with QUADPACK on the scalar integrands, cut at every kink."""
    chi0 = _CHI0
    q_lo = x_norm - t
    q_min, q_max = source.support_bounds()
    lo, hi, tx = max(q_lo, q_min), q_max, t + x_norm
    kinks = [0.0, *source.breakpoints()]
    for c in (chi0.lo, chi0.hi):
        if c * tx > 1.0:
            kinks += [-np.sqrt((c * tx) ** 2 - 1.0), np.sqrt((c * tx) ** 2 - 1.0)]
    kinks = [k for k in kinks if lo < k < hi]
    out = []
    for sign, kernel in ((-1.0, angular_kernel_integral), (1.0, angular_kernel_vector)):
        def f(q, sign=sign, kernel=kernel):
            return (sign * float(source.j_of(q)) * kernel(t + q, x_norm)
                    * float(chi0(np.sqrt(1.0 + q * q) / tx)) / (4.0 * np.pi))
        if abs(lo - q_lo) < 1e-12:
            out.append(reference_quad(lambda u: 2.0 * u * f(lo + u * u), 0.0,
                                      np.sqrt(hi - lo),
                                      [np.sqrt(k - lo) for k in kinks] or None))
        else:
            out.append(reference_quad(f, lo, hi, kinks or None))
    return out


class TestAgainstQuadpack:
    gauss8 = CallableSource(lambda q: np.exp(-q * q), (-8.0, 8.0))
    gauss2 = CallableSource(lambda q: np.exp(-q * q), (-2.0, 2.0))
    skewed = CallableSource(skew, (-3.0, 8.0))

    @pytest.mark.parametrize("t, x, source", [
        (10.0, 5.0, gauss8),    # log endpoint: q = |x| - t inside the support
        (12.0, 2.0, gauss8),    # log endpoint with the q = 0 split
        (5.0, 3.0, gauss8),     # log endpoint, chi0 ramp crossed at q ~ 3.9, 5.9
        (10.0, 1.0, gauss2),    # support below |x| - t: the q = 0 split
        (40.0, 20.0, gauss2),   # a chain_difference_report point
        (5.0, 1.0, skewed),     # q = 0 split and both chi0 crossings
    ], ids=["log_endpoint", "log_endpoint_split", "log_endpoint_chi0",
            "split", "chain", "split_chi0"])
    def test_eval_A_ex(self, t, x, source, monkeypatch):
        monkeypatch.setattr(interior, "_A_EX_ABS_TOL", 1e-14)
        assert_agrees(eval_A_ex(t, x, source), a_ex_reference(t, x, source))

    def test_eval_A_ex_default_tolerance_meets_it(self):
        # the pipeline's tolerance, _A_EX_ABS_TOL = 1e-8, is met with room to spare
        ref = a_ex_reference(5.0, 3.0, self.gauss8)
        val = eval_A_ex(5.0, 3.0, self.gauss8)
        assert np.max(np.abs(np.subtract(val, ref))) < 1e-8

    def test_tabulated_source_nodes_are_breakpoints(self, monkeypatch):
        monkeypatch.setattr(interior, "_A_EX_ABS_TOL", 1e-14)
        q = np.arange(-10.0, 10.05, 0.1)
        table = AsymSource(q, np.exp(-q * q) * (1.0 + 0.1 * np.sin(3.0 * q)))
        val = eval_A_ex(40.0, 20.0, table)
        assert_agrees(val, a_ex_reference(40.0, 20.0, table))

    def test_callable_source_mass(self):
        for f, support in ((np.exp, (-1.0, 2.0)), (skew, (-3.0, 8.0))):
            assert_agrees(CallableSource(f, support).mass(),
                          reference_quad(f, *support))

    # the outer QUADPACK call sees the inner results' rounding and warns
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("t, r", [(1.0, 1.0), (2.0, 0.7), (1.5, 2.5), (0.5, 1.0)])
    def test_solve_inhom_radial(self, t, r):
        F = lambda s, rho: np.exp(-s - rho * rho) * (7.0 - 4.0 * rho * rho)
        lo, hi = t - r, t + r

        def inner(xi):
            if lo <= -xi:
                return 0.0
            return reference_quad(lambda eta: 0.5 * (xi - eta)
                                  * F(0.5 * (xi + eta), 0.5 * (xi - eta)), -xi, lo)
        ref = reference_quad(inner, lo, hi, [-lo] if lo < -lo < hi else None)
        val = solve_inhom_radial(RadialSource(F=F), t, r, abs_tol=1e-14)
        assert_agrees(val, ref / (4.0 * r))

    def test_dalembert_velocity_fallback(self):
        g = GaussianProfile(0.4, 1.1)
        h = lambda lam: np.exp(-lam * lam) * (1.0 + 0.5j * np.cos(lam))
        t, r = 1.3, np.array([0.2, 1.3, 4.0])
        val = dalembert_free(g, h, t, r)
        for ri, v in zip(r, val):
            a, b = abs(ri - t), ri + t
            re = reference_quad(lambda lam: lam * h(lam).real, a, b)
            im = reference_quad(lambda lam: lam * h(lam).imag, a, b)
            rphi = 0.5 * ((ri - t) * g(abs(ri - t)) + (ri + t) * g(ri + t))
            assert_agrees(v, (rphi + 0.5 * (re + 1j * im)) / ri)


class TestSeriesAndSphere:
    @pytest.mark.parametrize("shape", [(257,), (33, 17)])
    def test_polyval_is_numpys_bit_for_bit(self, shape):
        d = np.random.default_rng(3).uniform(0.0, 0.3, size=shape)
        d.flat[:3] = (0.0, 0.25, 1.0)
        for c in (_P_SERIES, _S_SERIES):
            ref = np.polynomial.polynomial.polyval(d, c)
            got = _polyval(d, c)
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("n_mu, n_phi", [(1, 4), (16, 8), (128, 64)])
    def test_sphere_rule_matches_node_by_node_build(self, n_mu, n_phi):
        mu, wmu = gauss_legendre(n_mu)
        phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        wphi = 2.0 * np.pi / n_phi
        smu = np.sqrt(1.0 - mu ** 2)
        omega = np.empty((n_mu * n_phi, 3))
        weights = np.empty(n_mu * n_phi)
        for i in range(n_mu):
            k = slice(i * n_phi, (i + 1) * n_phi)
            omega[k, 0] = smu[i] * np.cos(phi)
            omega[k, 1] = smu[i] * np.sin(phi)
            omega[k, 2] = mu[i]
            weights[k] = wmu[i] * wphi
        got_omega, got_weights = sphere_quadrature(n_mu, n_phi)
        assert np.array_equal(got_omega.view(np.uint64), omega.view(np.uint64))
        assert np.array_equal(got_weights.view(np.uint64), weights.view(np.uint64))


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)


class TestNoScipy:
    def test_import_leaves_scipy_unloaded(self):
        proc = _run("import sys, mkglab, mkglab.cli\n"
                    "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_run_without_module_checks_loads_no_unused_numpy_parts(self, tmp_path):
        # only the seeded module checks draw random numbers, only the
        # oracles' Gauss-Legendre rules need numpy.polynomial, and numpy.ma
        # comes with np.unique
        proc = _run("import sys\n"
                    "from test_config_pipeline import SMALL\n"
                    "from mkglab.config import parse_config\n"
                    "from mkglab.pipeline import run_pipeline\n"
                    "run_pipeline(parse_config(SMALL), "
                    f"out_dir={str(tmp_path)!r}, module_checks=False)\n"
                    "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
                    "(['numpy', 'random'], ['numpy', 'polynomial'], ['numpy', 'ma'])))\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "report.json").exists()

    def test_pipeline_with_module_checks_runs_without_scipy(self, tmp_path):
        proc = _run("import sys\n"
                    "sys.modules['scipy'] = None\n"
                    "from test_config_pipeline import SMALL\n"
                    "from mkglab.config import parse_config\n"
                    "from mkglab.pipeline import run_pipeline\n"
                    "rep = run_pipeline(parse_config(SMALL), "
                    f"out_dir={str(tmp_path)!r}, module_checks=True)\n"
                    "print(len(rep.checks))\n")
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) >= 20
        assert (tmp_path / "report.json").exists()
