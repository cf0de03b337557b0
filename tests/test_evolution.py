import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GaugeFunction, gauge_transform
from mkglab.core import FieldState, current, current_density
from mkglab.data_builder import FreeData, GaussianProfile, assemble_state
from mkglab import evolution
from mkglab.evolution import (_TAIL_FLOOR, _WINDOW_CHUNK, EvolutionUnstable,
                              ObservationPlan, SchemeParams, Workspace,
                              _field_views, _rhs, charge_monitor,
                              energy_monitor, evolve, frame_identity_residual,
                              lorenz_residual, slice_step, step, time_grid)
from mkglab.grid import (EVEN, ODD, RadialGrid, _row_d_r_origin,
                         _row_d_r_outer, _row_lap_origin, _row_sommerfeld,
                         _run, _three_point_ops, d_r, divergence_radial,
                         simpson_integral)
from mkglab.wave_oracle import dalembert_free


def gaussian_state(grid, eps=0.05, ar_amp=0.0):
    """assemble_state's (state, Q) for phi0 = eps e^{-r^2}, phi0_dot = i phi0,
    then ar = ar_amp r e^{-r^2} with the a0_t = div(ar) of the Lorenz gauge."""
    r = grid.r
    phi0 = eps * np.exp(-r ** 2) + 0j
    st, Q = assemble_state(FreeData(phi0=phi0, phi0_dot=1j * phi0), grid)
    st.ar = ar_amp * r * np.exp(-r ** 2)
    st.a0_t = divergence_radial(st.ar, grid)
    return st, Q


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


def laplacian(f, grid, vector):
    """The array Laplacian of f, of the radial vector component when vector,
    else of an even field: the stencil of the RHS plan, run once on its own.

    The interior rows use the plan's coefficients: the vector rows of
    grid._interleaved, or grid._even repeated per float64 value for
    interleaved complex f; row 0 is 0 for a vector field and
    _row_lap_origin else.  The r_max row is NaN: every RHS overwrites it
    with its boundary row.
    """
    f = np.ascontiguousarray(f, dtype=np.result_type(f, np.float64))
    out = np.full_like(f, np.nan)
    m = f.itemsize // 8                 # float64 values per node
    if vector:
        table = tuple(c[0::3] for c in grid._interleaved)
    else:
        minus_over_plus, plus_over_c0, c0 = grid._even
        table = (np.repeat(minus_over_plus, m), np.repeat(plus_over_c0, m), c0)
    fv, ov = f.view(np.float64), out.view(np.float64)
    _run(_three_point_ops(fv, ov, table, m))
    ov[:m] = (0.0,) * m if vector else _row_lap_origin(fv[:2 * m].tolist(),
                                                      grid.h)
    return out


def reference_rhs(y, grid, boundary, linear):
    """(phi_tt, a0_tt, ar_tt) of the fields y, as the kernel computed them
    before its RHS plan: laplacian above, d_r and current_density, one field
    at a time, with numpy-scalar boundary rows.  The plan must match it byte
    for byte."""
    phi, phi_t, a0, a0_t, ar, ar_t = y
    n = grid.n_nodes
    phi_tt = laplacian(phi, grid, vector=False)
    a0_tt = laplacian(a0, grid, vector=False)
    ar_tt = laplacian(ar, grid, vector=True)
    if not linear:
        w, s, t = np.empty(n), np.empty(n), np.empty(n)
        drphi = d_r(phi, grid, EVEN)
        j0, jr = current_density(phi, phi_t, drphi, a0, ar)
        a0_tt += j0
        ar_tt += jr
        np.multiply(a0, a0, out=w)
        np.multiply(ar, ar, out=t)
        w -= t
        for part, sign, d_other, p_other, phi_part in (
                (phi_tt.real, 2.0, drphi.imag, phi_t.imag, phi.real),
                (phi_tt.imag, -2.0, drphi.real, phi_t.real, phi.imag)):
            np.multiply(a0, p_other, out=s)
            np.multiply(ar, d_other, out=t)
            s -= t
            s *= sign
            part += s
            np.multiply(w, phi_part, out=s)
            part += s
    ar_tt[0] = 0.0
    if boundary == "sommerfeld":
        h, rmax = grid.h, grid.r_max
        for u_t, u_tt in ((phi_t, phi_tt), (a0_t, a0_tt), (ar_t, ar_tt)):
            u_tt[-1] = -(3.0 * u_t[-1] - 4.0 * u_t[-2] + u_t[-3]) / (2.0 * h) \
                - u_t[-1] / rmax
    else:
        phi_tt[-1] = 0.0
        a0_tt[-1] = 0.0
        ar_tt[-1] = 0.0
    return phi_tt, a0_tt, ar_tt


def reference_step(y, grid, dt, boundary, linear):
    """The RK4 step around reference_rhs, in the kernel's order of rounding:
    complex fields are combined as float64 (re, im) pairs, as in its blocks,
    and the weights are summed as ((k1/2 + k2 + k3) * 2 + k4)."""
    def flat(fields):
        return [np.asarray(f).view(np.float64) for f in fields]

    def deriv(pos, vel):
        fields = [u for pair in zip(pos, vel) for u in pair]
        fields[:2] = [u.view(complex) for u in fields[:2]]
        return flat(reference_rhs(fields, grid, boundary, linear))

    pos, vel = flat(y[0::2]), flat(y[1::2])
    k = deriv(pos, vel)
    acc = [0.5 * v for v in vel] + [0.5 * d for d in k]
    z_vel = vel
    for stage, c in enumerate((0.5 * dt, 0.5 * dt, dt)):
        z_pos = [c * v + p for p, v in zip(pos, z_vel)]
        z_vel = [c * d + v for v, d in zip(vel, k)]
        k = deriv(z_pos, z_vel)
        if stage == 2:
            acc = [2.0 * a for a in acc]
        acc = [a + b for a, b in zip(acc, z_vel + k)]
    acc = [a * (dt / 6.0) for a in acc]
    new = [u + a for u, a in zip(pos + vel, acc)]
    new[2][0] = 0.0                 # ar(0) and ar_t(0)
    new[5][0] = 0.0
    return [new[0].view(complex), new[3].view(complex), new[1], new[4],
            new[2], new[5]]


def same_bytes(a, b):
    """Equal bit for bit; a workspace's fields may be strided views."""
    a, b = (np.ascontiguousarray(x) for x in (a, b))
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8),
                                                 b.view(np.uint8))


def random_fields(rng, n, signed_zeros):
    """Random fields; with signed_zeros, nine in ten of the float64 values
    next to both boundaries are +0 or -0."""
    y = [rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
         for _ in range(10)]
    y = [y[0] + 1j * y[1], y[2] + 1j * y[3], *y[4:8]]
    if signed_zeros:
        for f in y:
            v = f.view(np.float64)
            for i in (*range(8), *range(len(v) - 8, len(v))):
                if rng.random() < 0.9:
                    v[i] = rng.choice([0.0, -0.0])
    return y


class TestRHSPlan:
    @pytest.mark.parametrize("boundary", ["sommerfeld", "none"])
    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("signed_zeros", [False, True])
    @pytest.mark.parametrize("r_max, n_cells", [(10.0, 16), (20, 37), (3.3, 200)])
    def test_plan_matches_reference_bytewise(self, boundary, linear,
                                             signed_zeros, r_max, n_cells):
        grid = RadialGrid(r_max, n_cells)
        ws = Workspace(grid)
        ws._set_window(grid.n_nodes)    # the fields fill the grid
        rng = np.random.default_rng(n_cells)
        for trial in range(40 if signed_zeros else 4):
            y = random_fields(rng, grid.n_nodes, signed_zeros)
            ref = reference_rhs(y, grid, boundary, linear)
            for block, plan in zip((ws.y, ws.stage),
                                   ws.plans(boundary, linear)):
                for dst, src in zip(_field_views(block, grid.n_nodes), y):
                    np.copyto(dst, src)
                _rhs(plan)
                for name, got, want in zip(("phi_tt", "a0_tt", "ar_tt"),
                                           ws.dd, ref):
                    assert same_bytes(got, want), (name, trial)

    @pytest.mark.parametrize("boundary", ["sommerfeld", "none"])
    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("data", ["gaussian", "signed_zeros"])
    def test_steps_match_reference_bytewise(self, boundary, linear, data):
        grid = RadialGrid(6.0, 40)
        if data == "gaussian":
            st, _ = gaussian_state(grid, eps=0.1, ar_amp=0.05)
        else:
            fields = random_fields(np.random.default_rng(1), grid.n_nodes, True)
            st = FieldState(0.0, *(1e-3 * f for f in fields))
        y = [getattr(st, name).copy() for name in FIELDS]
        ws = Workspace(grid)
        state = ws.load(st)
        scheme = SchemeParams(cfl=0.5, boundary=boundary, linear=linear)
        dt = 0.5 * grid.h
        for _ in range(20 if data == "gaussian" else 3):
            y = reference_step(y, grid, dt, boundary, linear)
            state = step(state, grid, scheme, dt, work=ws)
        for name, want in zip(FIELDS, y):
            assert same_bytes(getattr(state, name), want), name

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("r_max", [10.0, 20, 3.3])
    def test_boundary_rows_match_numpy_scalars(self, dtype, r_max):
        # the rows written out with numpy scalars, as the stencils had them
        grid = RadialGrid(r_max, 32)
        h = grid.h
        rng = np.random.default_rng(3)
        for trial in range(400):
            f = random_fields(rng, grid.n_nodes, trial % 2 == 1)[
                0 if dtype is complex else 2]
            fv = f.view(np.float64)
            m = len(fv) // len(f)
            want = {
                "lap_origin": 6.0 * (f[1] - f[0]) / (h * h),
                "d_r_origin_even": (f[1] - EVEN * f[1]) / (2.0 * h),
                "d_r_origin_odd": (f[1] - ODD * f[1]) / (2.0 * h),
                "d_r_outer": (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h),
                "sommerfeld": -(3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
                - f[-1] / grid.r_max}
            tail = lambda k: fv[len(fv) - k * m:].tolist()
            got = {
                "lap_origin": _row_lap_origin(fv[:2 * m].tolist(), h),
                "d_r_origin_even": _row_d_r_origin(fv[m:2 * m].tolist(), EVEN, h),
                "d_r_origin_odd": _row_d_r_origin(fv[m:2 * m].tolist(), ODD, h),
                "d_r_outer": _row_d_r_outer(tail(3), h),
                "sommerfeld": _row_sommerfeld(tail(3), h, grid.r_max)}
            arrays = {"lap_origin": laplacian(f, grid, vector=False)[0],
                      "d_r_origin_even": d_r(f, grid, EVEN)[0],
                      "d_r_origin_odd": d_r(f, grid, ODD)[0],
                      "d_r_outer": d_r(f, grid, EVEN)[-1]}
            for key, w in want.items():
                w = np.array([w], dtype=dtype)
                assert same_bytes(np.array(got[key]), w.view(np.float64)), key
                if key in arrays:
                    assert same_bytes(np.array([arrays[key]]), w), key


def last_set_node(*fields):
    """The last node where any of the fields has a set bit (-1 if none)."""
    last = -1
    for f in fields:
        words = np.flatnonzero(np.ascontiguousarray(f).view(np.uint64))
        if len(words):
            last = max(last, int(words[-1]) // (f.itemsize // 8))
    return last


class _WindowCase:
    """step() does the work of ar and phi on the window only; every case
    must match the full-grid reference_step byte for byte."""

    GRID = RadialGrid(40.0, 400)    # eps exp(-r^2) is exactly 0 past r ~ 27

    def compact(self):
        st, _ = gaussian_state(self.GRID, eps=0.1, ar_amp=0.05)
        return st

    def check(self, state, y):
        for name, want in zip(FIELDS, y):
            assert same_bytes(getattr(state, name), want), name

    def run(self, st, steps, boundary="sommerfeld", linear=False):
        """Step st and the reference side by side, checking every step;
        returns the final state, the workspace and the window of each step."""
        grid = self.GRID
        y = [getattr(st, name).copy() for name in FIELDS]
        ws = Workspace(grid)
        state = ws.load(st)
        scheme = SchemeParams(cfl=0.5, boundary=boundary, linear=linear)
        windows = []
        for _ in range(steps):
            y = reference_step(y, grid, 0.5 * grid.h, boundary, linear)
            state = step(state, grid, scheme, 0.5 * grid.h, work=ws)
            windows.append(ws.window)
            self.check(state, y)
        return state, ws, windows


class TestPhiWindow(_WindowCase):
    """The window's growth and reuse, set by phi (and ar inside phi's
    support)."""

    @pytest.mark.parametrize("boundary", ["sommerfeld", "none"])
    @pytest.mark.parametrize("linear", [False, True])
    def test_compact_data_until_front_reaches_r_max(self, boundary, linear):
        grid, st = self.GRID, self.compact()
        assert 250 < last_set_node(st.phi, st.phi_t) < 300
        assert 250 < last_set_node(st.ar) < 300
        y = [getattr(st, name).copy() for name in FIELDS]
        ws = Workspace(grid)
        state = ws.load(st)
        scheme = SchemeParams(cfl=0.5, boundary=boundary, linear=linear)
        dt = 0.5 * grid.h
        windows = []
        for _ in range(320):
            y = reference_step(y, grid, dt, boundary, linear)
            state = step(state, grid, scheme, dt, work=ws)
            windows.append(ws.window)
            self.check(state, y)
        assert windows[0] < grid.n_nodes and windows[-1] == grid.n_nodes
        assert len(set(windows)) > 2 and windows == sorted(windows)

    def test_signed_zeros_beyond_support(self):
        grid, st = self.GRID, self.compact()
        st.phi[330] = complex(-0.0, 0.0)
        st.phi_t.view(np.float64)[2 * 340 + 1] = -0.0
        y = [getattr(st, name).copy() for name in FIELDS]
        ws = Workspace(grid)
        state = ws.load(st)
        for _ in range(3):
            y = reference_step(y, grid, 0.5 * grid.h, "sommerfeld", False)
            state = step(state, grid, SchemeParams(cfl=0.5), 0.5 * grid.h, ws)
            assert 340 < ws.window < grid.n_nodes
            self.check(state, y)

    def test_held_state_written_beyond_window(self):
        grid, st = self.GRID, self.compact()
        y = [getattr(st, name).copy() for name in FIELDS]
        ws = Workspace(grid)
        state = ws.load(st)
        scheme, dt = SchemeParams(cfl=0.5), 0.5 * grid.h
        for k in range(12):
            if k == 4:
                # the last node the window, grown by 2 fewer, would leave
                # outside; its stencil reaches 2 nodes further in one step
                node = ws.window + _WINDOW_CHUNK - 2
                for f in (state.phi, y[0]):
                    f[node] = 1e-3 + 2e-3j
                for f in (state.phi_t, y[1]):
                    f[node - 5] = -1e-3
            y = reference_step(y, grid, dt, "sommerfeld", False)
            state = step(state, grid, scheme, dt, work=ws)
            self.check(state, y)

    def test_workspace_reused_for_smaller_support(self):
        grid, wide = self.GRID, self.compact()
        wide.phi[390] = 1e-3
        ws = Workspace(grid)
        scheme, dt = SchemeParams(cfl=0.5), 0.5 * grid.h
        step(ws.load(wide), grid, scheme, dt, work=ws)
        st = self.compact()
        st.phi[:] = np.where(grid.r < 10.0, st.phi, 0.0)
        st.phi_t[:] = np.where(grid.r < 10.0, st.phi_t, 0.0)
        y = [getattr(st, name).copy() for name in FIELDS]
        state = ws.load(st)
        for _ in range(5):
            y = reference_step(y, grid, dt, "sommerfeld", False)
            state = step(state, grid, scheme, dt, work=ws)
            assert ws.window == grid.n_nodes    # a window never shrinks
            self.check(state, y)

    def test_bare_step_on_compact_data(self):
        # a fresh workspace each step: its first window must grow to cover
        # the state it loads
        grid, st = self.GRID, self.compact()
        y = [getattr(st, name).copy() for name in FIELDS]
        scheme, dt = SchemeParams(cfl=0.5, boundary="none"), 0.5 * grid.h
        for _ in range(10):
            y = reference_step(y, grid, dt, "none", False)
            ws = Workspace(grid)
            st = step(ws.load(st), grid, scheme, dt, ws)
            assert 250 < ws.window < grid.n_nodes
            self.check(st, y)


class TestArWindow(_WindowCase):
    """ar beyond phi's support sets the window too."""

    @pytest.mark.parametrize("linear", [False, True])
    def test_ar_alone_grows_the_window(self, linear):
        # phi lives on r < 10; ar and ar_t reach nodes 320-330, and set the
        # window from the first step until the front reaches r_max
        grid, st = self.GRID, self.compact()
        r = grid.r
        for f in (st.phi, st.phi_t):
            f[r >= 10.0] = 0.0
        st.ar = 0.05 * r * np.exp(-(r / 1.2) ** 2)
        st.ar_t = 0.01 * r * np.exp(-(r / 1.15) ** 2)
        st.a0_t = divergence_radial(st.ar, grid)
        assert last_set_node(st.phi, st.phi_t) < 100
        assert 310 < last_set_node(st.ar_t) < last_set_node(st.ar) < 340
        state, ws, windows = self.run(st, 160, linear=linear)
        assert last_set_node(st.ar) + 2 < windows[0] < grid.n_nodes
        assert windows[-1] == grid.n_nodes and windows == sorted(windows)

    def test_held_state_written_in_ar_beyond_window(self):
        grid, st = self.GRID, self.compact()
        y = [getattr(st, name).copy() for name in FIELDS]
        ws = Workspace(grid)
        state = ws.load(st)
        scheme, dt = SchemeParams(cfl=0.5), 0.5 * grid.h
        for k in range(12):
            if k == 4:
                # as in test_held_state_written_beyond_window, in ar and ar_t
                node = ws.window + _WINDOW_CHUNK - 2
                for f in (state.ar, y[4]):
                    f[node] = 1e-3
                for f in (state.ar_t, y[5]):
                    f[node - 5] = -2e-3
            y = reference_step(y, grid, dt, "sommerfeld", False)
            state = step(state, grid, scheme, dt, work=ws)
            self.check(state, y)
        assert ws.window > node + 2

    def test_signed_zeros_in_ar_beyond_support(self):
        grid, st = self.GRID, self.compact()
        st.ar[330] = -0.0
        st.ar_t[345] = -0.0
        state, ws, windows = self.run(st, 3)
        assert all(345 < w < grid.n_nodes for w in windows)

    def test_linear_run_keeps_ar_positive_zero(self):
        # the pipeline's data: ar = ar_t = +0, which a linear step keeps, so
        # phi alone sets the window
        grid, st = self.GRID, self.compact()
        st.ar = np.zeros(grid.n_nodes)
        st.a0_t = np.zeros(grid.n_nodes)
        state, ws, windows = self.run(st, 40, linear=True)
        assert last_set_node(state.ar, state.ar_t) == -1
        assert windows[-1] < grid.n_nodes


class TestTailFloor:
    """evolve() drops the values of ar, phi, ar_t and phi_t below
    _TAIL_FLOOR times the data's initial scale after load() and each step,
    so the window follows the physical front, not the stencil's tail."""

    GRID = RadialGrid(40.0, 800)    # eps exp(-r^2) underflows past r ~ 27

    @staticmethod
    def traced(monkeypatch):
        """Patch evolve's step() to record (state, window) at each call: the
        state as the previous drop left it, the window as cover() set it."""
        seen = []

        def traced_step(state, grid, scheme, dt, work):
            before = [getattr(state, f).copy()
                      for f in ("phi", "phi_t", "ar", "ar_t")]
            out = step(state, grid, scheme, dt, work)
            seen.append((before, work.window))
            return out

        monkeypatch.setattr(evolution, "step", traced_step)
        return seen

    def test_no_value_below_floor_and_window_near_front(self, monkeypatch):
        grid = self.GRID
        st, _ = gaussian_state(grid, eps=0.01, ar_amp=0.005)
        assert last_set_node(st.phi) > 520    # the data has a subnormal tail
        floor = _TAIL_FLOOR * max(np.max(np.abs(f)) for f in (st.phi, st.a0,
                                                             st.ar))
        seen = self.traced(monkeypatch)
        res = evolve(st, grid, SchemeParams(cfl=0.5, t_end=10.0,
                                            monitor_stride=50))
        fields = (res.final.phi, res.final.phi_t, res.final.ar, res.final.ar_t)
        for before, window in [*seen, (fields, None)]:
            for f in before:
                v = f.view(np.float64)
                assert not np.any((v != 0.0) & (np.abs(v) < floor))
                assert not np.any(np.signbit(v) & (v == 0.0))   # no -0.0
            last = last_set_node(*before)
            if window is not None:
                assert last + 3 <= window <= last + 3 + _WINDOW_CHUNK
        assert len(seen) == 400
        # the first window covers the data above the floor (r < 15.3), not
        # its subnormal tail
        assert seen[0][1] == 320

    def test_floor_is_relative_to_the_data(self):
        # a linear run is homogeneous, so tiny data is scaled, never erased
        grid = RadialGrid(40.0, 400)
        scheme = SchemeParams(cfl=0.5, t_end=16.0, boundary="none",
                              linear=True, monitor_stride=10 ** 9)

        def final(amp):
            st = FieldState.zeros(grid)
            st.phi = amp * np.exp(-grid.r ** 2) + 0j
            st.phi_t = 1j * st.phi
            return evolve(st, grid, scheme).final

        big, small = final(1e-2), final(1e-150)
        for name in ("phi", "phi_t"):
            want = 1e-148 * getattr(big, name)
            got = getattr(small, name)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert last_set_node(got) == last_set_node(getattr(big, name))

    def test_zero_data_drops_nothing(self, monkeypatch):
        grid = RadialGrid(10.0, 200)
        seen = self.traced(monkeypatch)
        res = evolve(FieldState.zeros(grid), grid,
                     SchemeParams(cfl=0.5, t_end=2.0, monitor_stride=5))
        assert len(seen) == 80
        assert {window for _, window in seen} == {_WINDOW_CHUNK}
        for name in FIELDS:
            assert not np.any(getattr(res.final, name).view(np.uint64))

    def test_nan_data_stops_at_t0(self):
        grid = RadialGrid(10.0, 100)
        st, _ = gaussian_state(grid, eps=0.1)
        st.phi[30] = complex(np.nan, 0.0)
        with pytest.raises(EvolutionUnstable, match="t=0:"):
            evolve(st, grid, SchemeParams(cfl=0.5, t_end=1.0))


class TestKernel:
    def test_parity_with_allocating_rk4(self):
        grid = RadialGrid(20.0, 400)
        st, _ = gaussian_state(grid, eps=0.05, ar_amp=0.02)
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
        # load() copies: the caller's state never shares memory with a step
        grid = RadialGrid(10.0, 100)
        st, _ = gaussian_state(grid, eps=0.1, ar_amp=0.05)
        before = st.copy()
        ws = Workspace(grid)
        out = step(ws.load(st), grid, SchemeParams(cfl=0.5), 0.5 * grid.h, ws)
        for name in FIELDS:
            assert np.array_equal(getattr(st, name), getattr(before, name))
            for other in FIELDS:
                assert not np.shares_memory(getattr(out, name),
                                            getattr(st, other))
        assert not np.iscomplexobj(out.a0) and not np.iscomplexobj(out.a0_t)

    def test_workspace_of_another_grid_rejected(self):
        grid = RadialGrid(10.0, 100)
        st = FieldState.zeros(grid)
        ws = Workspace(RadialGrid(10.0, 100))
        step(ws.load(st), grid, SchemeParams(), 0.5 * grid.h, ws)
        ws = Workspace(RadialGrid(20.0, 100))
        with pytest.raises(ValueError, match="workspace is for"):
            step(ws.load(st), grid, SchemeParams(), 0.5 * grid.h, ws)

    def test_state_not_loaded_by_the_workspace_rejected(self):
        grid = RadialGrid(10.0, 100)
        st, _ = gaussian_state(grid, eps=0.1)
        ws, other = Workspace(grid), Workspace(grid)
        loaded = ws.load(st)
        for foreign in (st, loaded.copy(), other.load(st)):
            with pytest.raises(ValueError, match="load"):
                step(foreign, grid, SchemeParams(cfl=0.5), 0.5 * grid.h, ws)
        assert np.array_equal(loaded.phi, st.phi)   # nothing was stepped

    def test_workspace_state_steps_in_place(self):
        grid = RadialGrid(10.0, 100)
        st, _ = gaussian_state(grid, eps=0.1)
        scheme, dt = SchemeParams(cfl=0.5), 0.5 * grid.h
        ws = Workspace(grid)
        loaded = ws.load(st)
        stepped = step(loaded, grid, scheme, dt, ws)
        again = step(stepped, grid, scheme, dt, ws)
        y = [getattr(st, name).copy() for name in FIELDS]
        for _ in range(2):
            y = reference_step(y, grid, dt, "sommerfeld", False)
        for name, want in zip(FIELDS, y):
            assert getattr(stepped, name) is getattr(loaded, name)
            assert getattr(again, name) is getattr(loaded, name)
            assert same_bytes(getattr(again, name), want), name

    def test_evolve_outputs_share_no_memory(self):
        grid = RadialGrid(10.0, 100)
        st, _ = gaussian_state(grid, eps=0.1, ar_amp=0.05)
        scheme = SchemeParams(cfl=0.5, t_end=1.0, monitor_stride=4)
        res = evolve(st, grid, scheme,
                     ObservationPlan(snapshot_every=1, slice_times=(0.0, 0.5, 1.0)))
        states = [st, res.final, *res.slices.values()]
        assert len(states) == 5
        arrays = [getattr(s, name) for s in states for name in FIELDS]
        arrays += [getattr(snap, name) for snap in res.snapshots
                   for name in ("phi", "j0")]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_snapshot_radii_are_shared_read_only_views(self):
        grid = RadialGrid(10.0, 100)
        st, _ = gaussian_state(grid, eps=0.1)
        scheme = SchemeParams(cfl=0.5, t_end=1.0, monitor_stride=4)
        res = evolve(st, grid, scheme,
                     ObservationPlan(snapshot_every=1, snapshot_subsample=3))
        assert len(res.snapshots) > 1
        for snap in res.snapshots:
            assert snap.r.base is grid.r
            assert not snap.r.flags.writeable
            assert np.array_equal(snap.r, grid.r[::3])
            assert snap.phi.shape == snap.j0.shape == snap.r.shape

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
        st, _ = gaussian_state(grid)
        scheme = SchemeParams(cfl=0.5, t_end=0.125, monitor_stride=1)
        times = (0.0, 0.125 / 3, 0.25 / 3, 0.125)
        _, dt = time_grid(0.125, scheme.cfl * grid.h)
        res = evolve(st, grid, scheme, ObservationPlan(slice_times=times))
        assert res.final.t == pytest.approx(0.125, rel=1e-14)
        assert res.log.t[-1] == pytest.approx(0.125, rel=1e-14)
        # each slice is keyed by its step
        assert set(res.slices) == {slice_step(t, dt) for t in times} == {0, 1, 2, 3}
        for t in times:
            assert res.slices[slice_step(t, dt)].t == pytest.approx(t, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(n_cells=st.integers(16, 40),
           cfl=st.floats(0.01, 0.9),
           t_end=st.floats(0.01, 3.0),
           fracs=st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=4))
    def test_every_slice_captured_and_run_ends_at_t_end(self, n_cells, cfl,
                                                         t_end, fracs):
        # cfl is kept above 0.01 only to bound the step count of an example
        grid = RadialGrid(4.0, n_cells)
        scheme = SchemeParams(cfl=cfl, t_end=t_end, monitor_stride=7)
        times = tuple(f * t_end for f in fracs) + (t_end,)
        n_steps, dt = time_grid(t_end, cfl * grid.h)
        # a second request a quarter step after a step's own time
        first = slice_step(times[0], dt) * dt
        times += (first, first + 0.25 * dt)
        rounding = 4.0 * np.finfo(float).eps * n_steps * t_end
        res = evolve(FieldState.zeros(grid), grid, scheme,
                     ObservationPlan(slice_times=times))
        assert abs(res.final.t - t_end) <= rounding
        # one copy per step: the two requests read one key
        assert slice_step(first, dt) == slice_step(first + 0.25 * dt, dt)
        assert set(res.slices) == {slice_step(t, dt) for t in times}
        for t in times:
            assert abs(res.slices[slice_step(t, dt)].t - t) <= 0.5 * dt + rounding


class TestRHS:
    def test_linear_radial_wave_identity(self):
        # A = 0, phi real: the discrete Laplacian stencil, phi_tt of the
        # free wave, coincides with (1/r) d_rr(r phi) algebraically, so the
        # two agree to roundoff
        grid = RadialGrid(10.0, 400)
        lap = laplacian(np.exp(-grid.r ** 2) + 0j, grid, vector=False)
        r = grid.r[1:-1]
        u = grid.r * np.exp(-grid.r ** 2)
        h = grid.h
        alt = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2 / r
        assert np.max(np.abs(lap[1:-1].real - alt)) < 1e-10


class TestStep:
    def test_zero_stays_zero(self):
        grid = RadialGrid(10.0, 100)
        ws = Workspace(grid)
        out = step(ws.load(FieldState.zeros(grid)), grid, SchemeParams(cfl=0.5),
                   0.5 * grid.h, ws)
        assert np.max(np.abs(out.phi)) == 0.0
        assert out.t == pytest.approx(0.5 * grid.h)

    def test_time_reversal_single_step(self):
        # +dt then -dt returns the state to O(dt^5) per pair
        grid = RadialGrid(10.0, 200)
        st, _ = gaussian_state(grid, eps=0.1)
        scheme = SchemeParams(cfl=0.5, boundary="none")
        dts = [0.5 * grid.h, 0.25 * grid.h]
        errs = []
        ws = Workspace(grid)
        for dt in dts:
            fwd = step(ws.load(st), grid, scheme, dt, ws)
            back = step(fwd, grid, scheme, -dt, ws)
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
            res = evolve(st, grid, scheme)
            r = grid.r[1:]
            t = res.final.t
            exact = dalembert_free(g, None, t, r) + 0.5j * (
                g.lambda_antiderivative(r + t)
                - g.lambda_antiderivative(np.abs(r - t))) / r
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
            st, _ = gaussian_state(grid, ar_amp=0.02)
            resids.append(lorenz_residual(st, grid))
        # data builder uses the same discrete divergence: residual ~ roundoff
        assert resids[-1] < 1e-12

    def test_charge_matches_data_builder(self):
        grid = RadialGrid(20.0, 400)
        st, Q = gaussian_state(grid)
        assert charge_monitor(current(st, grid)[0], grid) == pytest.approx(Q, rel=1e-8)

    def test_energy_zero_state(self):
        grid = RadialGrid(10.0, 100)
        assert energy_monitor(FieldState.zeros(grid), grid) == 0.0

    def test_energy_static_coulomb(self):
        from conftest import coulomb_capped_profile
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
        st, _ = gaussian_state(grid, eps=0.01)
        scheme = SchemeParams(cfl=0.5, t_end=0.8 * grid.r_max, boundary="none",
                              monitor_stride=20)
        res = evolve(st, grid, scheme)
        assert res.final.t == pytest.approx(32.0, abs=grid.h)
        assert np.isfinite(res.log.lorenz_residual_sup).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_instability_guard_reports(self):
        grid = RadialGrid(10.0, 200)
        st, _ = gaussian_state(grid, eps=0.1)
        scheme = SchemeParams(cfl=1.5, t_end=8.0, boundary="none",
                              monitor_stride=5)
        with pytest.raises(EvolutionUnstable, match="instability|non-finite"):
            evolve(st, grid, scheme)

    def test_lorenz_residual_no_secular_growth(self):
        grid = RadialGrid(30.0, 600)
        st, _ = gaussian_state(grid, eps=0.05, ar_amp=0.02)
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
            st, _ = gaussian_state(grid, eps=0.05)
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
            st, _ = gaussian_state(grid, eps=0.05)
            scheme = SchemeParams(cfl=0.5, t_end=20.0, boundary="none",
                                  monitor_stride=10)
            res = evolve(st, grid, scheme)
            e = np.array(res.log.energy_E)
            rels.append(np.max(np.abs(e - e[0])) / e[0])
        assert 3.0 < rels[0] / rels[1] < 5.5

    def test_cfl_robustness(self):
        # halving cfl changes the final state far less than the spatial error
        grid = RadialGrid(20.0, 400)
        st, _ = gaussian_state(grid, eps=0.05)
        finals = []
        for cfl in (0.5, 0.25):
            res = evolve(st, grid, SchemeParams(cfl=cfl, t_end=10.0, boundary="none",
                                                monitor_stride=10 ** 9))
            finals.append(res.final.phi.copy())
        dt_diff = np.max(np.abs(finals[0] - finals[1]))
        grid2 = RadialGrid(20.0, 800)
        st2, _ = gaussian_state(grid2, eps=0.05)
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
            st, _ = gaussian_state(grid, eps=0.05)
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
        sup, _, _ = frame_identity_residual(res.rays[0.0], 0.0)
        assert sup == 0.0

    def test_starvation_error(self):
        from mkglab.evolution import RayHistory
        hist = RayHistory(q=0.0, offsets=np.array([-0.1, 0.0, 0.1]))
        with pytest.raises(ValueError, match="starvation"):
            frame_identity_residual(hist, 0.0)

    def test_second_order_convergence(self):
        sups, rmss = [], []
        for n in (600, 1200):
            grid = RadialGrid(30.0, n)
            st, Q = gaussian_state(grid, eps=0.1)
            # fixed stride and stencil in cells: sampling intervals scale
            # with h, so every differencing error is O(h^2)
            scheme = SchemeParams(cfl=0.5, t_end=24.0, boundary="none",
                                  monitor_stride=2)
            plan = ObservationPlan(ray_qs=(0.0,))
            res = evolve(st, grid, scheme, plan)
            _, ts, series = frame_identity_residual(res.rays[0.0], Q)
            # common late-time window: the earliest samples sit next to the
            # origin and enter the history at resolution-dependent times
            win = ts >= 5.0
            sups.append(np.max(np.abs(series[win])))
            rmss.append(np.sqrt(np.mean(series[win] ** 2)))
        assert 3.5 < rmss[0] / rmss[1] < 4.5
        assert sups[0] / sups[1] > 3.0
