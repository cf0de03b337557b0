import numpy as np
import pytest

from conftest import GaugeFunction, gauge_transform
from mkglab.core import FieldState, Weights, current, field_strength, jbracket
from mkglab.grid import RadialGrid


@pytest.fixture
def grid():
    return RadialGrid(20.0, 400)


def make_state(grid, phi=None, phi_t=None, a0=None, ar=None, a0_t=None, ar_t=None, t=0.0):
    st = FieldState.zeros(grid, t=t)
    r = grid.r
    if phi is not None:
        st.phi = phi(r).astype(complex)
    if phi_t is not None:
        st.phi_t = phi_t(r).astype(complex)
    if a0 is not None:
        st.a0 = a0(r).astype(float)
    if ar is not None:
        st.ar = ar(r).astype(float)
    if a0_t is not None:
        st.a0_t = a0_t(r).astype(float)
    if ar_t is not None:
        st.ar_t = ar_t(r).astype(float)
    return st


class TestJBracket:
    def test_zero(self):
        assert jbracket(0.0) == 1.0

    def test_two(self):
        assert jbracket(2.0) == pytest.approx(np.sqrt(5.0), rel=1e-15)

    def test_even(self):
        x = np.linspace(0, 50, 101)
        assert np.allclose(jbracket(x), jbracket(-x), rtol=0, atol=0)

    def test_monotone_on_positive_axis(self):
        x = np.sort(np.random.default_rng(0).uniform(0, 1e4, 300))
        v = jbracket(x)
        assert np.all(np.diff(v) > 0)
        assert np.all(v >= 1.0)


class TestCurrent:
    def test_real_static_field(self, grid):
        st = make_state(grid, phi=lambda r: np.exp(-r ** 2))
        j0, jr = current(st, grid)
        assert np.max(np.abs(j0)) == 0.0
        assert np.max(np.abs(jr)) == 0.0

    def test_rotating_phase(self, grid):
        # phi = e^{-i w t} f(r) at t=0: phi = f, phi_t = -i w f, J0 = w f^2
        w, f = 1.7, lambda r: np.exp(-r ** 2)
        st = make_state(grid, phi=f, phi_t=lambda r: -1j * w * f(r))
        j0, _ = current(st, grid)
        assert np.allclose(j0, w * f(grid.r) ** 2, atol=1e-15)

    def test_gauge_invariance_of_current(self, grid):
        f = lambda r: np.exp(-r ** 2)
        st = make_state(grid, phi=f, phi_t=lambda r: 1j * f(r),
                        a0=lambda r: 0.1 * np.exp(-r),
                        ar=lambda r: 0.05 * r * np.exp(-r ** 2))
        gauge = GaugeFunction(
            psi=lambda t, r: np.sin(r) / np.maximum(r, 1e-300) * (r > 0) + (r == 0) * 1.0,
            psi_t=lambda t, r: np.zeros_like(r),
            psi_r=lambda t, r: _sinc_prime(r))
        errs = []
        for n in (200, 400):
            g = RadialGrid(20.0, n)
            s1 = make_state(g, phi=f, phi_t=lambda r: 1j * f(r),
                            a0=lambda r: 0.1 * np.exp(-r),
                            ar=lambda r: 0.05 * r * np.exp(-r ** 2))
            j0a, jra = current(s1, g)
            s2 = gauge_transform(s1, g, gauge)
            j0b, jrb = current(s2, g)
            errs.append(max(np.max(np.abs(j0a - j0b)), np.max(np.abs(jra - jrb))))
        # J0 is exactly invariant; Jr picks up only the discrete-vs-analytic
        # derivative mismatch on psi, which refines at 2nd order
        order = np.log2(errs[0] / errs[1])
        assert errs[1] < 2e-3
        assert order > 1.8


def _sinc_prime(r):
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    small = np.abs(r) < 1e-6
    rs = np.where(small, 1.0, r)
    out = (np.cos(rs) * rs - np.sin(rs)) / rs ** 2
    out[small] = -r[small] / 3.0
    return out


class TestGaugeTransform:
    def test_identity(self, grid):
        st = make_state(grid, phi=lambda r: np.exp(-r ** 2),
                        a0=lambda r: np.exp(-r))
        out = gauge_transform(st, grid, GaugeFunction.constant(0.0))
        assert np.allclose(out.phi, st.phi)
        assert np.allclose(out.a0, st.a0)

    def test_constant_phase(self, grid):
        st = make_state(grid, phi=lambda r: np.exp(-r ** 2),
                        phi_t=lambda r: (0.3 + 0.4j) * np.exp(-r ** 2))
        out = gauge_transform(st, grid, GaugeFunction.constant(0.7))
        assert np.allclose(out.a0, st.a0)
        assert np.allclose(out.ar, st.ar)
        assert np.allclose(np.abs(out.phi), np.abs(st.phi), rtol=1e-15)
        assert np.allclose(out.phi, np.exp(-0.7j) * st.phi)
        assert np.allclose(out.phi_t, np.exp(-0.7j) * st.phi_t)

    def test_linear_psi_field_strength_exact(self, grid):
        # psi = t*r: discrete d_r of a linear a0-shift is exact, F unchanged
        st = make_state(grid, a0=lambda r: np.exp(-r ** 2),
                        ar=lambda r: 0.1 * r * np.exp(-r ** 2), t=2.0)
        gauge = GaugeFunction(psi=lambda t, r: t * r,
                              psi_t=lambda t, r: r,
                              psi_r=lambda t, r: np.full_like(r, t),
                              psi_tt=lambda t, r: np.zeros_like(r),
                              psi_tr=lambda t, r: np.ones_like(r))
        e1 = field_strength(st, grid)
        e2 = field_strength(gauge_transform(st, grid, gauge), grid)
        # psi = t r is not even in r, so the origin node (parity stencil)
        # is excluded; everywhere else the linear shift differentiates exactly
        assert np.max(np.abs(e1[1:-1] - e2[1:-1])) < 1e-13

    def test_curved_psi_field_strength_second_order(self):
        # psi = sin(t) cos(r) (even in r): F invariance up to O(h^2)
        gauge = GaugeFunction(
            psi=lambda t, r: np.sin(t) * np.cos(r),
            psi_t=lambda t, r: np.cos(t) * np.cos(r),
            psi_r=lambda t, r: -np.sin(t) * np.sin(r),
            psi_tt=lambda t, r: -np.sin(t) * np.cos(r),
            psi_tr=lambda t, r: -np.cos(t) * np.sin(r))
        errs = []
        for n in (200, 400):
            g = RadialGrid(20.0, n)
            st = make_state(g, phi=lambda r: np.exp(-r ** 2),
                            a0=lambda r: np.exp(-r ** 2),
                            ar=lambda r: 0.1 * r * np.exp(-r ** 2), t=0.7)
            e1 = field_strength(st, g)
            e2 = field_strength(gauge_transform(st, g, gauge), g)
            errs.append(np.max(np.abs(e1 - e2)))
        assert np.log2(errs[0] / errs[1]) > 1.8
        # |phi| exactly invariant
        g = RadialGrid(20.0, 200)
        st = make_state(g, phi=lambda r: (1 + 1j) * np.exp(-r ** 2))
        out = gauge_transform(st, g, gauge)
        assert np.allclose(np.abs(out.phi), np.abs(st.phi), rtol=1e-15)


class TestFieldStrength:
    def test_static_constant_potential(self, grid):
        st = make_state(grid, a0=lambda r: np.full_like(r, 0.37))
        assert np.max(np.abs(field_strength(st, grid))) < 1e-13

    def test_quadratic_exact(self, grid):
        st = make_state(grid, a0=lambda r: -r ** 2 / 2.0)
        e = field_strength(st, grid)
        assert np.allclose(e, grid.r, atol=1e-11)

    def test_coulomb_tail(self):
        # E = -d_r (Q/(4 pi r)) = Q/(4 pi r^2) up to O(h^2) on r >= 2
        Q = 4.0 * np.pi
        errs = []
        for n in (400, 800):
            g = RadialGrid(20.0, n)
            st = FieldState.zeros(g)
            st.a0 = np.where(g.r >= 1.0, Q / (4 * np.pi * np.maximum(g.r, 1e-10)), 1.0)
            e = field_strength(st, g)
            mask = g.r >= 2.0
            exact = Q / (4 * np.pi * g.r[mask] ** 2)
            errs.append(np.max(np.abs(e[mask] - exact)))
        assert np.log2(errs[0] / errs[1]) > 1.8


class TestWeights:
    def test_invalid(self):
        with pytest.raises(ValueError):
            Weights(1.2, 0.1)
        with pytest.raises(ValueError):
            Weights(0.9, -0.1)
        with pytest.raises(ValueError):
            Weights(0.9, 0.7)


class TestFieldStateValidate:
    def test_parity_violation(self, grid):
        st = FieldState.zeros(grid)
        st.ar[0] = 1.0
        with pytest.raises(ValueError):
            st.validate(grid)

    def test_nonfinite(self, grid):
        st = FieldState.zeros(grid)
        st.phi[3] = np.nan
        with pytest.raises(ValueError):
            st.validate(grid)
