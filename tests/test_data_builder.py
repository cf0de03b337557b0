import numpy as np
import pytest
from scipy.integrate import quad

from mkglab.core import FieldState, current
from mkglab.data_builder import (BumpProfile, ChargeValue, CutoffChi, FreeData,
                                 GaussianProfile, PolyGaussianProfile,
                                 TableProfile, assemble_state, build_admissible,
                                 compute_charge, solve_a0,
                                 subtract_charge_tail, weighted_norm)
from mkglab.grid import RadialGrid, divergence_radial, simpson_integral


@pytest.fixture
def grid():
    return RadialGrid(30.0, 1500)


def quadrature_charge(phi0_func, phi0_dot_func) -> float:
    """Independent QUADPACK charge oracle for analytic profiles."""
    def integrand(r):
        return np.imag(phi0_func(r) * np.conj(phi0_dot_func(r))) * r ** 2
    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return 4.0 * np.pi * val


def gaussian_data(grid, eps=1.0):
    r = grid.r
    phi0 = eps * np.exp(-r ** 2) + 0j
    return FreeData(phi0=phi0, phi0_dot=1j * phi0,
                    ar0=np.zeros_like(r), ar0_dot=np.zeros_like(r))


class TestComputeCharge:
    def test_zero_data(self, grid):
        data = FreeData(phi0=np.zeros(grid.n_nodes, complex),
                        phi0_dot=np.zeros(grid.n_nodes, complex),
                        ar0=np.zeros(grid.n_nodes), ar0_dot=np.zeros(grid.n_nodes))
        assert compute_charge(data, grid).Q == 0.0

    def test_gaussian_oracle(self, grid):
        # Im(phi0 conj phidot0) = -e^{-2r^2}; adaptive-quadrature oracle
        oracle = quadrature_charge(lambda r: np.exp(-r ** 2),
                                   lambda r: 1j * np.exp(-r ** 2))
        assert oracle == pytest.approx(-4 * np.pi * np.sqrt(np.pi / 2) / 8, rel=1e-12)
        q = compute_charge(gaussian_data(grid), grid).Q
        assert q == pytest.approx(oracle, rel=1e-9)
        assert q == pytest.approx(-1.9687012, rel=1e-6)

    def test_linearity_in_modulation(self, grid):
        # phidot0 = i e^{-r^2} u(r), u real: Q = -4 pi int u e^{-2r^2} r^2 dr
        for c in (0.5, 2.0, -3.0):
            u = lambda r, c=c: c * (1.0 + 0.3 * np.cos(r))
            data = gaussian_data(grid)
            data.phi0_dot = 1j * np.exp(-grid.r ** 2) * u(grid.r)
            oracle = quadrature_charge(lambda r: np.exp(-r ** 2),
                                       lambda r: 1j * np.exp(-r ** 2) * u(r))
            assert compute_charge(data, grid).Q == pytest.approx(oracle, rel=1e-8)


class TestSolveA0:
    def test_zero(self, grid):
        data = FreeData(phi0=np.zeros(grid.n_nodes, complex),
                        phi0_dot=np.zeros(grid.n_nodes, complex),
                        ar0=np.zeros(grid.n_nodes), ar0_dot=np.zeros(grid.n_nodes))
        a0, a0_dot = solve_a0(data, grid)
        assert np.max(np.abs(a0)) == 0.0
        assert np.max(np.abs(a0_dot)) == 0.0

    def test_gaussian_center_value(self, grid):
        # rho = e^{-2r^2} (eps=1 gaussian data has Im = -e^{-2r^2}, so use
        # data with phidot = -i phi0 to get rho = +e^{-r^2}-type signs);
        # simplest: direct rho = e^{-r^2} via phi0 = e^{-r^2/2}, phidot = -i phi0
        r = grid.r
        phi0 = np.exp(-r ** 2 / 2) + 0j
        data = FreeData(phi0=phi0, phi0_dot=-1j * phi0,
                        ar0=np.zeros_like(r), ar0_dot=np.zeros_like(r))
        # rho = Im(phi0 conj(-i phi0)) = |phi0|^2 = e^{-r^2}
        a0, _ = solve_a0(data, grid)
        # a0(0) = int_0^inf rho s ds = 1/2
        assert a0[0] == pytest.approx(0.5, rel=1e-7)
        # r a0 -> int_0^inf rho s^2 ds = sqrt(pi)/4, consistent with Q/4pi
        i = int(0.8 * grid.n_cells)
        assert grid.r[i] * a0[i] == pytest.approx(np.sqrt(np.pi) / 4, rel=1e-6)
        Q = compute_charge(data, grid).Q
        assert Q == pytest.approx(4 * np.pi * np.sqrt(np.pi) / 4, rel=1e-9)
        assert Q == pytest.approx(np.pi ** 1.5, rel=1e-9)

    def test_domain_too_small(self):
        g = RadialGrid(3.0, 64)
        r = g.r
        # slowly decaying rho ~ (1+r^2)^{-2}: tail far above 1e-8 rel
        phi0 = (1.0 + r ** 2) ** -1 + 0j
        data = FreeData(phi0=phi0, phi0_dot=-1j * phi0,
                        ar0=np.zeros_like(r), ar0_dot=np.zeros_like(r))
        with pytest.raises(ValueError, match="domain too small"):
            solve_a0(data, g)

    def test_coulomb_tail_outside_support(self, grid):
        # compactly supported rho: a0 = Q/(4 pi r) exactly outside support
        r = grid.r
        bump = BumpProfile(1.0, 2.0)
        phi0 = np.sqrt(bump(r)) + 0j
        data = FreeData(phi0=phi0, phi0_dot=-1j * phi0,
                        ar0=np.zeros_like(r), ar0_dot=np.zeros_like(r))
        a0, _ = solve_a0(data, grid)
        Q = compute_charge(data, grid).Q
        mask = r > 2.5
        assert np.allclose(a0[mask], Q / (4 * np.pi * r[mask]), rtol=1e-10)


class TestBuildAdmissible:
    def test_zero(self, grid):
        data = FreeData(phi0=np.zeros(grid.n_nodes, complex),
                        phi0_dot=np.zeros(grid.n_nodes, complex),
                        ar0=np.zeros(grid.n_nodes), ar0_dot=np.zeros(grid.n_nodes))
        E, resid, _, _ = build_admissible(data, grid)
        assert np.max(np.abs(E)) == 0.0
        assert resid == 0.0

    def test_gauss_constraint_refinement(self):
        resids = []
        for n in (750, 1500):
            g = RadialGrid(30.0, n)
            _, resid, _, _ = build_admissible(gaussian_data(g), g)
            resids.append(resid)
        ratio = resids[0] / resids[1]
        assert 3.5 < ratio < 4.5

    def test_electric_field_matches_newtonian_derivative(self, grid):
        # E = -d_r a0 = (1/r^2) int_0^r rho s^2 ds for ardot = 0
        data = gaussian_data(grid)
        E, resid, a0, _ = build_admissible(data, grid)
        r = grid.r[1:]
        rho = data.charge_density()

        def m2(x):
            val, _ = quad(lambda s: -np.exp(-2 * s * s) * s * s, 0.0, x,
                          epsabs=1e-14)
            return val
        exact = np.array([m2(x) for x in r]) / r ** 2
        # 2nd-order d_r stencil error dominates
        assert np.max(np.abs(E[1:] - exact)) < 2e-4
        assert resid < 5e-3


class TestSubtractChargeTail:
    def test_zero_charge_identity(self, grid):
        st, _ = assemble_state(gaussian_data(grid), grid)
        out = subtract_charge_tail(st, grid, ChargeValue(0.0))
        assert np.allclose(out.a0, st.a0)

    def test_plateau_value(self, grid):
        st = FieldState.zeros(grid)
        out = subtract_charge_tail(st, grid, ChargeValue(4 * np.pi))
        i = int(round(2.0 / grid.h))
        # chi(2) = 1: a0 decremented by 1/r = 1/2
        assert out.a0[i] == pytest.approx(-0.5, rel=1e-12)

    def test_inside_cutoff_unchanged(self, grid):
        st = FieldState.zeros(grid)
        out = subtract_charge_tail(st, grid, ChargeValue(123.0))
        i = int(round(0.25 / grid.h))
        assert out.a0[i] == 0.0

    def test_improved_exterior_decay(self, grid):
        # after subtraction, |a0^1| r^2 bounded where chi = 1 (r - t >= 1)
        data = gaussian_data(grid)
        st, Q = assemble_state(data, grid)
        out = subtract_charge_tail(st, grid, Q)
        mask = grid.r >= 4.0
        raw = np.abs(st.a0[mask]) * grid.r[mask] ** 2
        sub = np.abs(out.a0[mask]) * grid.r[mask] ** 2
        # raw Coulomb grows linearly in r; subtracted stays near zero
        assert raw[-1] > 10.0 * raw[0] / 10.0
        assert np.max(sub) < 1e-6 * np.max(raw)


class TestCutoffChi:
    def test_plateaus_and_monotone(self):
        chi = CutoffChi()
        x = np.linspace(-1, 2, 601)
        v = chi(x)
        assert np.all(v[x <= 0.5] == 0.0)
        assert np.all(v[x >= 1.0] == 1.0)
        assert np.all(np.diff(v) >= 0.0)

    def test_c2_smoothness(self):
        # second difference stays bounded across the ramp endpoints
        chi = CutoffChi()
        h = 1e-4
        x = np.array([0.5 - h, 0.5, 0.5 + h, 1.0 - h, 1.0, 1.0 + h])
        second = (chi(x + h) - 2 * chi(x) + chi(x - h)) / h ** 2
        assert np.all(np.abs(second) < 40.0)


class TestWeightedNorm:
    def test_zero(self, grid):
        assert weighted_norm(np.zeros(grid.n_nodes), grid, 2, 1.0) == 0.0

    def test_gaussian_k0_oracle(self, grid):
        # 4 pi int (1+r^2) e^{-2 r^2} r^2 dr via adaptive quadrature
        val, _ = quad(lambda r: (1 + r * r) * np.exp(-2 * r * r) * r * r,
                      0, np.inf, epsabs=1e-14)
        closed = np.sqrt(np.pi / 2) / 8 + 3 * np.sqrt(np.pi / 2) / 32
        assert val == pytest.approx(closed, rel=1e-12)
        f = np.exp(-grid.r ** 2)
        norm = weighted_norm(f, grid, 0, 1.0)
        assert norm == pytest.approx(np.sqrt(4 * np.pi * val), rel=1e-8)

    def test_monotone_in_weight(self, grid):
        f = np.exp(-grid.r ** 2) * np.cos(grid.r)
        n1 = weighted_norm(f, grid, 1, 0.8)
        n2 = weighted_norm(f, grid, 1, 1.2)
        assert n1 <= n2

    def test_divergence_sentinel(self, grid):
        f = (1.0 + grid.r ** 2) ** -0.5
        with pytest.warns(RuntimeWarning):
            out = weighted_norm(f, grid, 0, 1.0)
        assert out == np.inf


class TestAssembledInvariants:
    def test_lorenz_condition_at_t0(self, grid):
        # data with nonzero ar0: a0_dot = div(ar0) holds by construction
        r = grid.r
        data = gaussian_data(grid)
        data.ar0 = 0.02 * r * np.exp(-r ** 2)
        st, _ = assemble_state(data, grid)
        resid = np.max(np.abs(-st.a0_t + divergence_radial(st.ar, grid)))
        assert resid < 1e-14

    def test_charge_two_ways(self, grid):
        data = gaussian_data(grid)
        st, Q = assemble_state(data, grid)
        j0, _ = current(st, grid)
        q2 = 4 * np.pi * simpson_integral(j0 * grid.r ** 2, grid.h)
        assert abs(q2 - Q.Q) <= 1e-6 * abs(Q.Q) + 1e-10


class TestProfiles:
    def test_table_profile_roundtrip(self, tmp_path):
        r = np.linspace(0, 10, 101)
        v = np.exp(-r)
        path = tmp_path / "prof.txt"
        np.savetxt(path, np.column_stack([r, v]))
        prof = TableProfile.from_file(path)
        x = np.linspace(0, 10, 37)
        assert np.allclose(prof(x), np.interp(x, r, v), atol=1e-12)
        assert prof(11.0) == 0.0

    def test_polygauss_derivative(self):
        p = PolyGaussianProfile(2.0, 3, 1.5)
        r = np.linspace(0.1, 4, 50)
        eps = 1e-6
        fd = (p(r + eps) - p(r - eps)) / (2 * eps)
        assert np.allclose(p.d(r), fd, rtol=1e-7, atol=1e-9)

    def test_bump_support(self):
        b = BumpProfile(1.0, 2.0)
        assert b(2.0) == 0.0
        assert b(2.5) == 0.0
        assert b(0.0) == pytest.approx(1.0)
