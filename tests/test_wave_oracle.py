import numpy as np
import pytest
from scipy.integrate import quad

from mkglab.data_builder import GaussianProfile
from mkglab.wave_oracle import (RadialSource, bound_envelope,
                                dalembert_free, kirchhoff_eval,
                                solve_inhom_radial, verify_decay_bound)


class TestDalembert:
    def test_initial_condition(self):
        g = GaussianProfile(1.0, 1.0)
        r = np.linspace(0.1, 5, 40)
        phi = dalembert_free(g, None, 0.0, r)
        assert np.allclose(phi.real, g(r), atol=1e-14)
        assert np.allclose(phi.imag, 0.0)

    def test_velocity_indicator(self):
        # g = 0, h = 1_[0,1]: phi(1,1) = (1/4r) int_0^1 lam dlam * 2 = 1/4
        h = lambda lam: np.asarray(lam <= 1.0, dtype=float) * (lam >= 0.0)
        val = dalembert_free(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                             h, 1.0, 1.0)
        assert val.real == pytest.approx(0.25, rel=1e-9)

    def test_radiation_limit(self):
        # r phi(t, t+q) -> (q/2) g(|q|) for Gaussian g, h = 0
        g = GaussianProfile(1.0, 1.0)
        q = 1.0
        for t in (50.0, 500.0):
            r = t + q
            val = (r * dalembert_free(g, None, t, r)).real
            assert val == pytest.approx(0.5 * np.exp(-1.0), rel=1e-12)
        assert 0.5 * np.exp(-1.0) == pytest.approx(0.18394, abs=1e-5)

    def test_gaussian_lambda_antiderivative(self):
        h = GaussianProfile(0.7, 1.3)
        x = np.linspace(0.25, 6, 24)
        brute = np.array([quad(lambda lam: lam * h(lam), 0, xi,
                               epsabs=0.0, epsrel=2e-14)[0] for xi in x])
        closed = h.lambda_antiderivative(x)
        assert np.max(np.abs(closed - brute) / np.abs(brute)) < 1e-13
        assert h.lambda_antiderivative(0.0) == 0.0

    def test_closed_form_matches_quadrature_path(self):
        # the same Gaussian h with and without lambda_antiderivative
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = GaussianProfile(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)))
            h = GaussianProfile(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)))
            t = float(rng.uniform(0.2, 6.0))
            r = rng.uniform(0.1, 8.0, size=3)
            closed = dalembert_free(g, h, t, r)
            quadrature = dalembert_free(g, lambda lam: h(lam), t, r)
            assert np.max(np.abs(closed - quadrature)) < 1e-12


class TestKirchhoff:
    def test_constant_data(self):
        w = kirchhoff_eval(lambda rho: np.full_like(rho, 0.31), np.zeros_like,
                           2.7, 1.1, w0_prime=np.zeros_like, order=160)
        assert w == pytest.approx(0.31, rel=1e-12)

    def test_agreement_random_sweep(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(300):
            g = GaussianProfile(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)))
            h = GaussianProfile(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)))
            t = float(rng.uniform(0.2, 6.0))
            r = float(rng.uniform(0.1, 8.0))
            da = dalembert_free(g, h, t, r).real
            ki = kirchhoff_eval(g, h, t, r, order=160)
            worst = max(worst, abs(da - ki))
        assert worst < 1e-8


class TestInhomRepresentation:
    def test_zero_source(self):
        src = RadialSource(F=lambda t, r: np.zeros_like(np.asarray(t, dtype=float)))
        assert solve_inhom_radial(src, 2.0, 1.0) == 0.0

    def test_manufactured_solution_gate(self):
        # phi* = e^{-t} e^{-r^2}; F = d_t^2 phi* - Lap phi* = e^{-t-r^2}(7-4r^2)
        src = RadialSource(F=lambda t, r: np.exp(-t - r * r) * (7.0 - 4.0 * r * r))
        g = GaussianProfile(1.0, 1.0)
        for (t, r) in ((1.0, 1.0), (2.0, 0.7), (1.5, 2.5)):
            inhom = solve_inhom_radial(src, t, r, abs_tol=1e-10)
            hom = dalembert_free(g, lambda x: -np.exp(-x * x), t, r).real
            exact = np.exp(-t - r * r)
            assert abs(inhom + hom - exact) < 1e-6

    def test_fast_path_matches_adaptive(self):
        src = RadialSource(F=lambda t, r: np.exp(-t - r * r) * (7.0 - 4.0 * r * r))
        a = solve_inhom_radial(src, 1.0, 1.0, abs_tol=1e-10)
        b = solve_inhom_radial(src, 1.0, 1.0, fast=True)
        assert abs(a - b) < 1e-6

    def test_fast_path_matches_row_by_row_rule(self):
        # the same 96 x 96 product rule, summed one xi node at a time
        from mkglab.quadrature import gauss_legendre

        def loop(F, t, r):
            lo, hi = t - r, t + r
            x, wx = gauss_legendre(96)
            xi = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
            wxi = 0.5 * (hi - lo) * wx
            y, wy = gauss_legendre(96)
            total = 0.0
            for k in range(96):
                e_lo, e_hi = -xi[k], lo
                if e_hi <= e_lo:
                    continue
                eta = 0.5 * (e_hi + e_lo) + 0.5 * (e_hi - e_lo) * y
                weta = 0.5 * (e_hi - e_lo) * wy
                s, rho = 0.5 * (xi[k] + eta), 0.5 * (xi[k] - eta)
                total += wxi[k] * np.dot(weta, rho * F(s, rho))
            return total / (4.0 * r)

        def logest1(t, r):
            return 1.0 / ((1.0 + r) * (1.0 + t + r) * (1.0 + np.abs(t - r)) ** 2)

        def mms(t, r):
            return np.exp(-t - r * r) * (7.0 - 4.0 * r * r)

        fracs = [(0.2, 0.1), (0.5, 0.52), (0.8, 0.82), (0.95, 0.9), (0.7, 0.1)]
        # the logest1 sweep's domains; the manufactured source only where
        # the solution is not rounding noise
        for F, dom in ((logest1, 100.0), (logest1, 200.0), (mms, 1.0), (mms, 2.0)):
            for ft, fr in fracs:
                t, r = ft * dom, fr * dom
                ref = loop(F, t, r)
                val = solve_inhom_radial(RadialSource(F=F), t, r, fast=True)
                assert abs(val - ref) <= 1e-13 * abs(ref), (F, t, r)

    def test_positivity(self):
        src = RadialSource(F=lambda t, r: np.exp(-((t - 1.0) ** 2) - (r - 2.0) ** 2))
        rng = np.random.default_rng(5)
        for _ in range(12):
            t = float(rng.uniform(0.3, 8.0))
            r = float(rng.uniform(0.2, 9.0))
            assert solve_inhom_radial(src, t, r, fast=True) >= -1e-12

    def test_finite_speed(self):
        # source supported in r <= 3, t <= 4: solution vanishes for r > t + 3
        def F(t, r):
            t = np.asarray(t, dtype=float)
            r = np.asarray(r, dtype=float)
            return np.exp(-t) * np.exp(-r ** 2) * (t <= 4.0) * (r <= 3.0)
        src = RadialSource(F=F)
        for (t, r) in ((1.0, 5.0), (2.0, 6.0), (3.0, 7.5)):
            assert abs(solve_inhom_radial(src, t, r, fast=True)) < 1e-12

    def test_superposition_matches_evolution(self):
        # linear evolution of Gaussian data reproduced by the oracle pair
        from mkglab.core import FieldState
        from mkglab.evolution import SchemeParams, evolve
        from mkglab.grid import RadialGrid
        errs = []
        for n in (400, 800):
            grid = RadialGrid(40.0, n)
            st = FieldState.zeros(grid)
            g = GaussianProfile(1.0, 1.0)
            st.phi = g(grid.r).astype(complex)
            st.phi_t = 1j * 0.5 * g(grid.r)
            scheme = SchemeParams(cfl=0.5, t_end=15.0, boundary="none",
                                  monitor_stride=10 ** 9, linear=True)
            res = evolve(st, grid, scheme)
            r = grid.r[1:]
            t = res.final.t
            # phi_t(0) = 0.5i g: imaginary part carries the velocity integral
            exact = dalembert_free(g, None, t, r) + 0.5j * 0.5 * (
                g.lambda_antiderivative(r + t)
                - g.lambda_antiderivative(np.abs(r - t))) / r
            errs.append(np.max(np.abs(res.final.phi[1:] - exact)))
        assert np.log2(errs[0] / errs[1]) > 1.7
        assert errs[1] < 5e-4


class TestDecayBounds:
    def test_zero_solution(self):
        c, arg = verify_decay_bound([(1.0, 1.0, 0.0), (2.0, 3.0, 0.0)],
                                    "logest1", {"delta": 1.0})
        assert c == 0.0

    def test_logest1_stability_under_domain_doubling(self):
        src = RadialSource(
            F=lambda t, r: 1.0 / ((1.0 + r) * (1.0 + t + r)
                                  * (1.0 + np.abs(t - r)) ** 2))
        fracs = [(0.2, 0.1), (0.5, 0.3), (0.5, 0.52), (0.8, 0.5), (0.8, 0.82),
                 (0.9, 0.3), (0.95, 0.9), (0.4, 0.38), (0.7, 0.1)]
        cs = []
        for dom in (60.0, 120.0):
            samples = [(ft * dom, fr * dom,
                        solve_inhom_radial(src, ft * dom, fr * dom, fast=True))
                       for (ft, fr) in fracs]
            c, _ = verify_decay_bound(samples, "logest1", {"delta": 1.0})
            cs.append(c)
        assert abs(cs[1] - cs[0]) / cs[0] < 0.2

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            bound_envelope("nope", 1.0, 1.0, {})
