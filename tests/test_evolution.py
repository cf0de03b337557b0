import numpy as np
import pytest

from mkglab.core import FieldState, GaugeFunction, gauge_transform
from mkglab.data_builder import ChargeValue, FreeData, GaussianProfile, assemble_state
from mkglab.evolution import (EvolutionUnstable, ObservationPlan, SchemeParams,
                              Workspace, charge_monitor, energy_monitor, evolve,
                              frame_identity_residual, load_checkpoint,
                              lorenz_residual, rhs, save_checkpoint, step,
                              time_grid)
from mkglab.grid import (RadialGrid, d_r, laplacian_even,
                         laplacian_radial_vector, simpson_integral)
from mkglab.wave_oracle import GaussianLambdaH, dalembert_free


def gaussian_data(grid, eps=0.05, ar_amp=0.0):
    r = grid.r
    phi0 = eps * np.exp(-r ** 2) + 0j
    return FreeData(phi0=phi0, phi0_dot=1j * phi0,
                    ar0=ar_amp * r * np.exp(-r ** 2), ar0_dot=np.zeros_like(r))


FIELDS = ("phi", "phi_t", "a0", "a0_t", "ar", "ar_t")


def allocating_rk4_step(y, grid, dt):
    """The RK4 step with sommerfeld boundary, written out with fresh arrays
    for every intermediate: the reference the in-place kernel must match."""
    h = grid.h
    r = np.arange(grid.n_nodes) * h

    def deriv(f, parity):
        out = np.empty_like(f)
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
        out[0] = (f[1] - parity * f[1]) / (2.0 * h)
        out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
        return out

    def lap(f, vector):
        out = np.empty_like(f)
        out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h) \
            + (f[2:] - f[:-2]) / (2.0 * h) * (2.0 / r[1:-1])
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h) \
            + (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h) * (2.0 / r[-1])
        if vector:
            out[1:] -= 2.0 * f[1:] / (r[1:] * r[1:])
            out[0] = 0.0
        else:
            out[0] = 6.0 * (f[1] - f[0]) / (h * h)
        return out

    def f(phi, phi_t, a0, a0_t, ar, ar_t):
        drphi = deriv(phi, 1)
        absphi2 = np.abs(phi) ** 2
        j0 = -(np.conj(phi) * phi_t).imag - a0 * absphi2
        jr = -(np.conj(phi) * drphi).imag - ar * absphi2
        phi_tt = lap(phi, False) + 2j * (ar * drphi - a0 * phi_t) \
            + (a0 * a0 - ar * ar) * phi
        a0_tt = lap(a0, False) + j0
        ar_tt = lap(ar, True) + jr
        ar_tt[0] = 0.0
        for u_t, u_tt in ((phi_t, phi_tt), (a0_t, a0_tt), (ar_t, ar_tt)):
            u_tt[-1] = -(3.0 * u_t[-1] - 4.0 * u_t[-2] + u_t[-3]) / (2.0 * h) \
                - u_t[-1] / grid.r_max
        return phi_t, phi_tt, a0_t, a0_tt, ar_t, ar_tt

    k1 = f(*y)
    k2 = f(*(y[i] + 0.5 * dt * k1[i] for i in range(6)))
    k3 = f(*(y[i] + 0.5 * dt * k2[i] for i in range(6)))
    k4 = f(*(y[i] + dt * k3[i] for i in range(6)))
    new = [y[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
           for i in range(6)]
    new[4][0] = 0.0
    new[5][0] = 0.0
    return new


class TestKernel:
    def test_parity_with_allocating_rk4(self):
        grid = RadialGrid(20.0, 400)
        st, _ = assemble_state(gaussian_data(grid, eps=0.05, ar_amp=0.02), grid)
        scheme = SchemeParams(cfl=0.5, t_end=7.5, monitor_stride=10 ** 9)
        n_steps, dt = time_grid(scheme.t_end, scheme.cfl * grid.h)
        assert n_steps == 300
        y = [getattr(st, name).copy() for name in FIELDS]
        for _ in range(n_steps):
            y = allocating_rk4_step(y, grid, dt)
        final = evolve(st, grid, scheme).final
        for name, ref in zip(FIELDS, y):
            got = getattr(final, name)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_step_leaves_input_untouched(self):
        grid = RadialGrid(10.0, 100)
        st, _ = assemble_state(gaussian_data(grid, eps=0.1, ar_amp=0.05), grid)
        before = st.copy()
        for work in (None, Workspace(grid)):
            out = step(st, grid, SchemeParams(cfl=0.5), work=work)
            for name in FIELDS:
                assert np.array_equal(getattr(st, name), getattr(before, name))
                for other in FIELDS:
                    assert not np.shares_memory(getattr(out, name),
                                                getattr(st, other))
            assert not np.iscomplexobj(out.a0) and not np.iscomplexobj(out.a0_t)

    def test_workspace_state_steps_in_place(self):
        grid = RadialGrid(10.0, 100)
        st, _ = assemble_state(gaussian_data(grid, eps=0.1), grid)
        ws = Workspace(grid)
        loaded = ws.load(st)
        fresh = step(st, grid, SchemeParams(cfl=0.5))
        stepped = step(loaded, grid, SchemeParams(cfl=0.5), work=ws)
        for name in FIELDS:
            assert getattr(stepped, name) is getattr(loaded, name)
            assert np.array_equal(getattr(stepped, name), getattr(fresh, name))

    def test_evolve_outputs_share_no_memory(self):
        grid = RadialGrid(10.0, 100)
        st, _ = assemble_state(gaussian_data(grid, eps=0.1, ar_amp=0.05), grid)
        scheme = SchemeParams(cfl=0.5, t_end=1.0, monitor_stride=4)
        res = evolve(st, grid, scheme,
                     ObservationPlan(slice_times=(0.0, 0.5, 1.0)))
        states = [st, res.final, *res.slices.values()]
        assert len(states) == 5
        arrays = [getattr(s, name) for s in states for name in FIELDS]
        arrays += [getattr(snap, name) for snap in res.snapshots
                   for name in ("phi", "a0", "ar", "j0")]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("fn", [laplacian_even, laplacian_radial_vector])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stencil_out_buffer(self, fn, dtype):
        grid = RadialGrid(10.0, 100)
        f = (np.exp(-grid.r ** 2) * (1.0 + (0.5j if dtype is complex else 0.0))
             ).astype(dtype)
        buf = np.empty_like(f)
        assert fn(f, grid, out=buf) is buf
        assert np.array_equal(buf, fn(f, grid))
        assert d_r(f, grid, 1, out=buf) is buf
        with pytest.raises(ValueError, match="out must be"):
            fn(f, grid, out=np.empty(grid.n_nodes + 1, dtype=dtype))

    def test_grid_radii_read_only(self):
        grid = RadialGrid(10.0, 100)
        assert grid.r is grid.r
        with pytest.raises(ValueError):
            grid.r[0] = 1.0


class TestTimeGrid:
    def test_exact_multiples_keep_step_count_and_dt(self):
        # the reference config and the ladder, companion and quick-run grids
        for t_end, r_max, n_cells, steps in ((320.0, 400.0, 8000, 12800),
                                             (80.0, 100.0, 2000, 3200),
                                             (10.0, 800.0, 16000, 400),
                                             (20.0, 100.0, 500, 200),
                                             (20.0, 100.0, 1000, 400),
                                             (20.0, 100.0, 2000, 800)):
            dt_max = 0.5 * RadialGrid(r_max, n_cells).h
            assert time_grid(t_end, dt_max) == (steps, dt_max)

    def test_partial_step_rounds_up(self):
        n_steps, dt = time_grid(0.125, 0.05)
        assert n_steps == 3
        assert dt == pytest.approx(0.125 / 3, rel=1e-15)

    def test_run_ends_at_t_end_with_slices_at_their_times(self):
        # t_end / (cfl h) = 2.5: the run used to stop at t = 0.1 and store
        # that state as the t = 0.125 slice
        grid = RadialGrid(10.0, 100)
        st, _ = assemble_state(gaussian_data(grid), grid)
        scheme = SchemeParams(cfl=0.5, t_end=0.125, monitor_stride=1)
        times = (0.0, 0.125 / 3, 0.25 / 3, 0.125)
        res = evolve(st, grid, scheme, ObservationPlan(slice_times=times))
        assert res.final.t == pytest.approx(0.125, rel=1e-14)
        assert res.log.t[-1] == pytest.approx(0.125, rel=1e-14)
        assert sorted(res.slices) == list(times)
        for t, sl in res.slices.items():
            assert sl.t == pytest.approx(t, abs=1e-14)


class TestRHS:
    def test_zero_state(self):
        grid = RadialGrid(10.0, 100)
        out = rhs(FieldState.zeros(grid), grid)
        for name in ("phi", "phi_t", "a0", "a0_t", "ar", "ar_t"):
            assert np.max(np.abs(getattr(out, name))) == 0.0

    def test_linear_radial_wave_identity(self):
        # A = 0, phi real: the discrete Laplacian stencil coincides with
        # (1/r) d_rr(r phi) algebraically, so the two agree to roundoff
        grid = RadialGrid(10.0, 400)
        st = FieldState.zeros(grid)
        st.phi = np.exp(-grid.r ** 2) + 0j
        out = rhs(st, grid, boundary="none")
        r = grid.r[1:-1]
        u = grid.r * np.exp(-grid.r ** 2)
        h = grid.h
        alt = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2 / r
        assert np.max(np.abs(out.phi_t[1:-1].real - alt)) < 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_guard(self):
        grid = RadialGrid(10.0, 100)
        st = FieldState.zeros(grid)
        st.phi[5] = np.inf
        with pytest.raises(EvolutionUnstable):
            rhs(st, grid)


class TestStep:
    def test_zero_stays_zero(self):
        grid = RadialGrid(10.0, 100)
        st = FieldState.zeros(grid)
        out = step(st, grid, SchemeParams(cfl=0.5))
        assert np.max(np.abs(out.phi)) == 0.0
        assert out.t == pytest.approx(0.5 * grid.h)

    def test_time_reversal_single_step(self):
        # +dt then -dt returns the state to O(dt^5) per pair
        grid = RadialGrid(10.0, 200)
        st, _ = assemble_state(gaussian_data(grid, eps=0.1), grid)
        scheme = SchemeParams(cfl=0.5, boundary="none")
        dts = [0.5 * grid.h, 0.25 * grid.h]
        errs = []
        for dt in dts:
            fwd = step(st, grid, scheme, dt)
            back = step(fwd, grid, scheme, -dt)
            errs.append(np.max(np.abs(back.phi - st.phi)))
        order = np.log2(errs[0] / errs[1])
        assert order > 4.5  # O(dt^5) per pair


class TestFreeWaveConvergence:
    def test_order_two_vs_dalembert(self):
        g = GaussianProfile(1.0, 1.0)
        errs = []
        for n in (250, 500, 1000):
            grid = RadialGrid(50.0, n)
            st = FieldState.zeros(grid)
            st.phi = g(grid.r).astype(complex)
            st.phi_t = 1j * g(grid.r)
            scheme = SchemeParams(cfl=0.5, t_end=25.0, boundary="none",
                                  linear=True)
            res = evolve(st, grid, scheme, ObservationPlan(snapshot_every=10 ** 9))
            lam = GaussianLambdaH()
            r = grid.r[1:]
            t = res.final.t
            exact = dalembert_free(g, None, t, r) + 0.5j * (
                lam.lambda_antiderivative(r + t)
                - lam.lambda_antiderivative(np.abs(r - t))) / r
            errs.append(np.max(np.abs(res.final.phi[1:] - exact)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert abs(orders[-1] - 2.0) <= 0.2


class TestMonitors:
    def test_lorenz_polynomial_exactness(self):
        grid = RadialGrid(10.0, 100)
        st = FieldState.zeros(grid)
        # a0 = t, ar = r/3: residual = |-1 + 1| = 0 (exact for linears)
        st.a0_t = np.ones(grid.n_nodes)
        st.ar = grid.r / 3.0
        assert lorenz_residual(st, grid) < 1e-13

    def test_lorenz_unit_violation(self):
        grid = RadialGrid(10.0, 100)
        st = FieldState.zeros(grid)
        st.a0_t = np.ones(grid.n_nodes)
        assert lorenz_residual(st, grid) == pytest.approx(1.0)

    def test_constraint_built_data_second_order(self):
        resids = []
        for n in (200, 400):
            grid = RadialGrid(20.0, n)
            st, _ = assemble_state(gaussian_data(grid, ar_amp=0.02), grid)
            resids.append(lorenz_residual(st, grid))
        # data builder uses the same discrete divergence: residual ~ roundoff
        assert resids[-1] < 1e-12

    def test_charge_matches_data_builder(self):
        grid = RadialGrid(20.0, 400)
        st, Q = assemble_state(gaussian_data(grid), grid)
        assert charge_monitor(st, grid) == pytest.approx(Q.Q, rel=1e-8)

    def test_energy_zero_state(self):
        grid = RadialGrid(10.0, 100)
        assert energy_monitor(FieldState.zeros(grid), grid) == 0.0

    def test_energy_static_coulomb(self):
        from mkglab.data_builder import coulomb_capped_profile
        grid = RadialGrid(40.0, 2000)
        st = FieldState.zeros(grid)
        Q = 2.0
        st.a0 = coulomb_capped_profile(Q, 1.0)(grid.r)
        # E_r = -d_r a0; energy = 4 pi int E_r^2/2 r^2 dr
        from mkglab.core import field_strength
        er = field_strength(st, grid)
        expected = 4 * np.pi * simpson_integral(0.5 * er ** 2 * grid.r ** 2, grid.h)
        assert energy_monitor(st, grid) == pytest.approx(expected, rel=1e-12)


class TestEvolve:
    def test_zero_data_zero_monitors(self):
        grid = RadialGrid(10.0, 100)
        scheme = SchemeParams(cfl=0.5, t_end=2.0, monitor_stride=5)
        res = evolve(FieldState.zeros(grid), grid, scheme)
        assert np.max(np.abs(res.log.lorenz_residual_sup)) == 0.0
        assert np.max(np.abs(res.log.charge_Q)) == 0.0
        assert np.max(np.abs(res.log.energy_E)) == 0.0

    def test_smoke_run_stable(self):
        grid = RadialGrid(40.0, 400)
        st, _ = assemble_state(gaussian_data(grid, eps=0.01), grid)
        scheme = SchemeParams(cfl=0.5, t_end=0.8 * grid.r_max, boundary="none",
                              monitor_stride=20)
        res = evolve(st, grid, scheme)
        assert res.final.t == pytest.approx(32.0, abs=grid.h)
        assert np.isfinite(res.log.lorenz_residual_sup).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_instability_guard_reports(self):
        grid = RadialGrid(10.0, 200)
        st, _ = assemble_state(gaussian_data(grid, eps=0.1), grid)
        scheme = SchemeParams(cfl=1.5, t_end=8.0, boundary="none",
                              monitor_stride=5)
        with pytest.raises(EvolutionUnstable, match="instability|non-finite"):
            evolve(st, grid, scheme)

    def test_lorenz_residual_no_secular_growth(self):
        grid = RadialGrid(30.0, 600)
        st, _ = assemble_state(gaussian_data(grid, eps=0.05, ar_amp=0.02), grid)
        scheme = SchemeParams(cfl=0.5, t_end=24.0, boundary="none",
                              monitor_stride=10)
        res = evolve(st, grid, scheme)
        lor = np.array(res.log.lorenz_residual_sup)
        t = np.array(res.log.t)
        burn = np.max(lor[t <= 0.05 * 24.0 + 1e-9]) if np.any(t <= 1.2) else lor[0]
        assert np.max(lor) <= 10.0 * max(burn, lor[1])

    def test_charge_drift_second_order(self):
        drifts = []
        for n in (300, 600):
            grid = RadialGrid(30.0, n)
            st, _ = assemble_state(gaussian_data(grid, eps=0.05), grid)
            scheme = SchemeParams(cfl=0.5, t_end=20.0, boundary="none",
                                  monitor_stride=10)
            res = evolve(st, grid, scheme)
            q = np.array(res.log.charge_Q)
            drifts.append(np.max(np.abs(q - q[0])))
        # order >= 1.8 one-sided (superconvergence from the Simpson-dominated
        # regime at coarse resolution is acceptable)
        assert np.log2(drifts[0] / drifts[1]) >= 1.8

    def test_energy_conservation_second_order(self):
        rels = []
        for n in (300, 600):
            grid = RadialGrid(30.0, n)
            st, _ = assemble_state(gaussian_data(grid, eps=0.05), grid)
            scheme = SchemeParams(cfl=0.5, t_end=20.0, boundary="none",
                                  monitor_stride=10)
            res = evolve(st, grid, scheme)
            e = np.array(res.log.energy_E)
            rels.append(np.max(np.abs(e - e[0])) / e[0])
        assert 3.0 < rels[0] / rels[1] < 5.5

    def test_cfl_robustness(self):
        # halving cfl changes the final state far less than the spatial error
        grid = RadialGrid(20.0, 400)
        st, _ = assemble_state(gaussian_data(grid, eps=0.05), grid)
        finals = []
        for cfl in (0.5, 0.25):
            res = evolve(st, grid, SchemeParams(cfl=cfl, t_end=10.0, boundary="none",
                                                monitor_stride=10 ** 9))
            finals.append(res.final.phi.copy())
        dt_diff = np.max(np.abs(finals[0] - finals[1]))
        grid2 = RadialGrid(20.0, 800)
        st2, _ = assemble_state(gaussian_data(grid2, eps=0.05), grid2)
        res2 = evolve(st2, grid2, SchemeParams(cfl=0.5, t_end=10.0, boundary="none",
                                               monitor_stride=10 ** 9))
        spatial = np.max(np.abs(finals[0][::1] - res2.final.phi[::2]))
        assert dt_diff < 0.05 * spatial

    def test_discrete_gauge_covariance(self):
        # psi = sin(kt) j0(kr) solves the wave equation; evolving transformed
        # data matches transforming the evolved state to O(h^2)
        k = 0.7

        def j0(x):
            x = np.asarray(x, dtype=float)
            out = np.ones_like(x)
            nz = np.abs(x) > 1e-8
            out[nz] = np.sin(x[nz]) / x[nz]
            return out

        def j0p(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            nz = np.abs(x) > 1e-6
            out[nz] = (np.cos(x[nz]) * x[nz] - np.sin(x[nz])) / x[nz] ** 2
            out[~nz] = -x[~nz] / 3.0
            return out

        def gauge_at(t0):
            return GaugeFunction(
                psi=lambda t, r: np.sin(k * t0) * j0(k * r),
                psi_t=lambda t, r: k * np.cos(k * t0) * j0(k * r),
                psi_r=lambda t, r: np.sin(k * t0) * k * j0p(k * r),
                psi_tt=lambda t, r: -k * k * np.sin(k * t0) * j0(k * r),
                psi_tr=lambda t, r: k * np.cos(k * t0) * k * j0p(k * r))

        errs = []
        for n in (200, 400):
            grid = RadialGrid(20.0, n)
            st, _ = assemble_state(gaussian_data(grid, eps=0.05), grid)
            scheme = SchemeParams(cfl=0.4, t_end=6.0, boundary="none",
                                  monitor_stride=10 ** 9)
            res_a = evolve(gauge_transform(st, grid, gauge_at(0.0)), grid, scheme)
            res_b = evolve(st, grid, scheme)
            tb = res_b.final.t
            transformed = gauge_transform(res_b.final, grid, gauge_at(tb))
            errs.append(np.max(np.abs(res_a.final.phi - transformed.phi)))
        assert np.log2(errs[0] / errs[1]) > 1.6
        assert errs[-1] < 1e-3


class TestFrameIdentity:
    def test_zero_state(self):
        grid = RadialGrid(20.0, 200)
        scheme = SchemeParams(cfl=0.5, t_end=10.0, boundary="none", monitor_stride=10)
        plan = ObservationPlan(ray_qs=(0.0,))
        res = evolve(FieldState.zeros(grid), grid, scheme, plan)
        sup, _, _ = frame_identity_residual(res.rays[0.0], ChargeValue(0.0))
        assert sup == 0.0

    def test_starvation_error(self):
        from mkglab.evolution import RayHistory
        hist = RayHistory(q=0.0, offsets=np.array([-0.1, 0.0, 0.1]))
        with pytest.raises(ValueError, match="starvation"):
            frame_identity_residual(hist, ChargeValue(0.0))

    def test_second_order_convergence(self):
        sups, rmss = [], []
        for n in (600, 1200):
            grid = RadialGrid(30.0, n)
            st, Q = assemble_state(gaussian_data(grid, eps=0.1), grid)
            # fixed stride and stencil in cells: sampling intervals scale
            # with h, so every differencing error is O(h^2)
            scheme = SchemeParams(cfl=0.5, t_end=24.0, boundary="none",
                                  monitor_stride=2)
            plan = ObservationPlan(ray_qs=(0.0,), stencil_spacing_cells=2)
            res = evolve(st, grid, scheme, plan)
            _, ts, series = frame_identity_residual(res.rays[0.0], Q)
            # common late-time window: the earliest samples sit next to the
            # origin and enter the history at resolution-dependent times
            win = ts >= 5.0
            sups.append(np.max(np.abs(series[win])))
            rmss.append(np.sqrt(np.mean(series[win] ** 2)))
        assert 3.5 < rmss[0] / rmss[1] < 4.5
        assert sups[0] / sups[1] > 3.0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        grid = RadialGrid(15.0, 150)
        st, _ = assemble_state(gaussian_data(grid, eps=0.07), grid)
        st.t = 3.25
        path = tmp_path / "snap.mkgs"
        save_checkpoint(st, grid, path, meta={"config_hash": "abc123"})
        st2, grid2, meta = load_checkpoint(path)
        assert grid2.n_cells == grid.n_cells
        assert grid2.h == pytest.approx(grid.h)
        assert st2.t == 3.25
        assert meta["config_hash"] == "abc123"
        for name in ("phi", "phi_t", "a0", "a0_t", "ar", "ar_t"):
            assert np.array_equal(getattr(st2, name), getattr(st, name))

    def test_truncated_payload(self, tmp_path):
        grid = RadialGrid(15.0, 150)
        st, _ = assemble_state(gaussian_data(grid, eps=0.07), grid)
        path = tmp_path / "snap.mkgs"
        save_checkpoint(st, grid, path)
        full = path.read_bytes()
        for cut in (1, 8, 16 * grid.n_nodes + 3, len(full) - 20):
            path.write_bytes(full[:-cut])
            with pytest.raises(ValueError, match="truncated checkpoint"):
                load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)
