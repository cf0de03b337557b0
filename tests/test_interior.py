import numpy as np
import pytest

from mkglab.interior import (AsymSource, CallableSource, K_mu,
                             angular_kernel_integral, angular_kernel_quadrature,
                             angular_kernel_vector, chain_difference_report, chi0,
                             eval_A_ex, eval_A_ex_infty, interior_limit_check)
from mkglab.quadrature import sphere_integral_adaptive


def vector_kernel_quadrature(a, x_norm, abs_tol=1e-10):
    """int_S2 <xhat, omega>/(a - <x, omega>) dS by the S^2 product rule:
    the reference for angular_kernel_vector."""
    x = np.array([0.0, 0.0, x_norm])
    return sphere_integral_adaptive(lambda omega: omega[:, 2] * (1.0 / (a - omega @ x)),
                                    abs_tol=abs_tol)


def gaussian_source(n=2001):
    q = np.linspace(-8.0, 8.0, n)
    return AsymSource(q_grid=q, j=np.exp(-q ** 2))


class TestAngularKernel:
    def test_small_x_limit(self):
        assert angular_kernel_integral(1.0, 0.0) == pytest.approx(4 * np.pi, rel=1e-12)
        assert angular_kernel_integral(1.0, 1e-9) == pytest.approx(4 * np.pi, rel=1e-9)

    def test_half_radius(self):
        # a=1, |x| = 1/2: (2 pi / 0.5) ln(1.5/0.5) = 4 pi ln 3 = 13.805569...
        # (cross-checked against the product-Gauss S^2 quadrature)
        val = angular_kernel_integral(1.0, 0.5)
        assert val == pytest.approx(4 * np.pi * np.log(3.0), rel=1e-12)
        assert val == pytest.approx(13.805569, abs=1e-5)
        assert val == pytest.approx(angular_kernel_quadrature(1.0, 0.5, abs_tol=1e-10),
                                    abs=1e-8)

    def test_a2_x1_oracle(self):
        # independent S^2 quadrature decides the closed form's constant:
        # (2 pi / 1) ln(3/1) = 2 pi ln 3
        closed = angular_kernel_integral(2.0, 1.0)
        quadv = angular_kernel_quadrature(2.0, 1.0, abs_tol=1e-10)
        assert closed == pytest.approx(quadv, abs=1e-8)
        assert closed == pytest.approx(2 * np.pi * np.log(3.0), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            angular_kernel_integral(1.0, 1.0)
        with pytest.raises(ValueError):
            angular_kernel_integral(1.0, 1.5)

    def test_random_sweep_against_quadrature(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            a = float(rng.uniform(0.5, 5.0))
            x = float(a * rng.uniform(0.0, 0.99))
            worst = max(worst, abs(angular_kernel_integral(a, x)
                                   - angular_kernel_quadrature(a, x, abs_tol=1e-10)))
        assert worst < 1e-8

    def test_vector_kernel_against_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = float(rng.uniform(0.5, 4.0))
            x = float(a * rng.uniform(0.05, 0.95))
            closed = angular_kernel_vector(a, x)
            quadv = vector_kernel_quadrature(a, x)
            assert closed == pytest.approx(quadv, abs=1e-8)


class TestKmu:
    def test_zero_source(self):
        src = AsymSource(q_grid=np.linspace(-1, 1, 11), j=np.zeros(11))
        k0, kr = K_mu(0.5, src)
        assert k0 == 0.0 and kr == 0.0

    def test_unit_mass_half_radius(self):
        # M = 1, |y| = 1/2: K0 = -(1/(2*0.5)) ln 3 = -ln 3
        src = CallableSource(lambda q: np.exp(-q * q) / np.sqrt(np.pi), (-8.0, 8.0))
        assert src.mass() == pytest.approx(1.0, rel=1e-12)
        k0, kr = K_mu(0.5, src)
        assert k0 == pytest.approx(-np.log(3.0), rel=1e-10)
        assert k0 == pytest.approx(-1.09861, abs=1e-5)

    def test_generic_path_agrees(self):
        # the S^2 x q quadrature path: M = trapezoid of j, S^2 by product rule
        src = gaussian_source()
        M = np.trapezoid(src.j, src.q_grid)
        for y in (0.1, 0.5, 0.9):
            k0c, krc = K_mu(y, src)
            k0g = -M * angular_kernel_quadrature(1.0, y, abs_tol=1e-10) / (4 * np.pi)
            krg = M * vector_kernel_quadrature(1.0, y) / (4 * np.pi)
            assert abs(k0c - k0g) < 1e-6 * max(1.0, abs(k0c))
            assert abs(krc - krg) < 1e-6 * max(1.0, abs(krc))

    def test_monotone_in_radius(self):
        src = gaussian_source()
        ys = np.linspace(0.01, 0.95, 40)
        k0 = np.array([K_mu(y, src)[0] for y in ys])
        # M > 0: K0 negative, strictly decreasing in |y|
        assert np.all(k0 < 0)
        assert np.all(np.diff(k0) < 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            K_mu(1.0, gaussian_source())


class TestEvalAEx:
    def test_zero_source(self):
        src = AsymSource(q_grid=np.linspace(-1, 1, 11), j=np.zeros(11))
        assert eval_A_ex(10.0, 1.0, src) == (0.0, 0.0)

    def test_indicator_oracle(self):
        # j = 1_[0,1], t=10, |x|=1: scalar part (1/4pi) int_0^1 (2pi/1)
        # ln((11+q)/(9+q)) dq, closed form by antiderivative
        src = CallableSource(lambda q: np.ones_like(np.asarray(q, dtype=float)),
                             (0.0, 1.0))
        # (1/4pi)(2pi/|x|) int_0^1 ln((11+q)/(9+q)) dq with the closed-form
        # antiderivative (eta+a)ln(eta+a) - (eta+b)ln(eta+b)
        exact = 0.5 * ((12 * np.log(12) - 10 * np.log(10))
                       - (11 * np.log(11) - 9 * np.log(9)))
        a0v, arv = eval_A_ex(10.0, 1.0, src)
        # temporal component carries L_0 = -1
        assert a0v == pytest.approx(-exact, rel=1e-8)
        assert np.isfinite(arv)

    def test_t_precondition(self):
        with pytest.raises(ValueError):
            eval_A_ex(0.5, 0.1, gaussian_source())


class TestEvalAExInfty:
    def test_homogeneity(self):
        src = gaussian_source()
        for (t, c) in ((4.0, 0.25), (10.0, 0.5), (40.0, 0.9)):
            a0v, arv = eval_A_ex_infty(t, c * t, src)
            k0, kr = K_mu(c, src)
            assert t * a0v == pytest.approx(k0, rel=1e-10)
            assert t * arv == pytest.approx(kr, rel=1e-10)

    def test_unit_mass_example(self):
        # M = 1, t = 2, |x| = 1: A0 = K0(0.5)/2 = -ln3/2
        src = CallableSource(lambda q: np.exp(-q * q) / np.sqrt(np.pi), (-8.0, 8.0))
        a0v, _ = eval_A_ex_infty(2.0, 1.0, src)
        assert a0v == pytest.approx(-np.log(3.0) / 2.0, rel=1e-10)
        assert a0v == pytest.approx(-0.54931, abs=1e-5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eval_A_ex_infty(1.0, 2.0, gaussian_source())


class TestChainDifference:
    def test_zero_source(self):
        src = AsymSource(q_grid=np.linspace(-1, 1, 11), j=np.zeros(11))
        rep = chain_difference_report([10.0, 20.0], 0.5, src, s=0.9)
        assert all(row["diff"] == 0.0 for row in rep["rows"])

    def test_compact_source_decay(self):
        src = CallableSource(lambda q: np.exp(-q * q), (-2.0, 2.0))
        rep = chain_difference_report([20.0, 40.0, 80.0], 0.5, src, s=0.9)
        # fitted exponent must beat -(2s-1) + 0.2 = -0.6
        assert rep["fitted_exponent"] <= -(2 * 0.9 - 1.0) + 0.2
        # envelope constant shows no growth trend
        assert rep["C_log_slope"] <= 0.2

    def test_far_interior_no_singularity(self):
        src = CallableSource(lambda q: np.exp(-q * q), (-2.0, 2.0))
        rep = chain_difference_report([50.0], 0.01, src, s=0.9)
        assert np.isfinite(rep["rows"][0]["diff"])


class TestCutoffChi0:
    def test_plateaus(self):
        x = np.linspace(0, 1.2, 400)
        v = chi0(x)
        assert np.all(v[x <= 0.5] == 1.0)
        assert np.all(v[x >= 0.75] == 0.0)
        assert np.all(np.diff(v) <= 1e-15)


class TestInteriorLimitCheck:
    def test_zero_everything(self):
        from mkglab.core import FieldState
        from mkglab.grid import RadialGrid
        grid = RadialGrid(100.0, 500)
        slices = {t: FieldState.zeros(grid, t=t) for t in (50.0, 80.0)}
        src = AsymSource(q_grid=np.linspace(-1, 1, 11), j=np.zeros(11))
        rows = interior_limit_check(list(slices.values()), grid, src, [0.3])
        assert all(r["abs_err0"] == 0.0 for r in rows)

    def test_rows_follow_the_slice_sequence(self):
        # y outer, the slices inner in the order given; a repeated slice
        # gives a repeated row
        from mkglab.core import FieldState
        from mkglab.grid import RadialGrid
        grid = RadialGrid(100.0, 500)
        early, late = (FieldState.zeros(grid, t=t) for t in (50.0, 80.0))
        src = AsymSource(q_grid=np.linspace(-1, 1, 11), j=np.zeros(11))
        rows = interior_limit_check([late, early, late], grid, src, [0.3, 0.5])
        assert [(r["y"], r["t"]) for r in rows] == [
            (0.3, 80.0), (0.3, 50.0), (0.3, 80.0),
            (0.5, 80.0), (0.5, 50.0), (0.5, 80.0)]

    def test_coulomb_interior_matches_K(self):
        # static a0 = Q/(4 pi r) capped: t*a0(t, yt) = Q/(4 pi y t) * t;
        # compare against a point-mass source with M = -Q/4pi... instead
        # verify that the reported simulated values are read correctly
        from mkglab.core import FieldState
        from conftest import coulomb_capped_profile
        from mkglab.grid import RadialGrid
        grid = RadialGrid(200.0, 1000)
        Q = 2.0
        prof = coulomb_capped_profile(Q, 1.0)
        slices = {}
        for t in (100.0, 150.0):
            st = FieldState.zeros(grid, t=t)
            st.a0 = prof(grid.r)
            slices[t] = st
        src = AsymSource(q_grid=np.linspace(-1, 1, 11), j=np.zeros(11))
        rows = interior_limit_check(list(slices.values()), grid, src, [0.4])
        for r in rows:
            expected = r["t"] * Q / (4 * np.pi * 0.4 * r["t"])
            assert r["tA0_sim"] == pytest.approx(expected, rel=1e-8)
