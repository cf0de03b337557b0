"""Time evolution of the spherically reduced MKG system in Lorenz gauge.

Method of lines: 2nd-order spatial stencils from grid.py and the classical
4-stage Runge-Kutta integrator on the first-order system
(phi, phi_t, a0, a0_t, ar, ar_t).  With Box = -d_t^2 + Lap the evolved
equations are

    d_t^2 phi = Lap phi + 2i (-a0 phi_t + ar d_r phi) - (ar^2 - a0^2) phi
    d_t^2 a0  = Lap a0 + J_0
    d_t^2 ar  = Lap_vec ar + J_r

where Lap_vec carries the -2 ar/r^2 term of the vector Laplacian acting on
omega_j ar(r).  Diagnostics: the Lorenz residual sup|-d_t a0 + div(omega ar)|,
the charge 4 pi int J_0 r^2 dr, the gauge-covariant energy, and the residual
of the null-frame identity

    L( r Lbar(r A_L) ) + L( r A^1_Lbar ) = r^2 J_L

measured along outgoing rays (the angular term vanishes here).

The RK4 kernel allocates nothing per step.  evolve() builds one Workspace
per run, which holds the state being stepped, the stage, the running
derivative sum, the second derivatives, the RHS scratch, and one RHS plan
per field block (state and stage) for the run's boundary and coupling.  A
plan binds once the ufunc calls of the stencils, of the current (core) and
of the phi couplings on fixed views, with their scalar factors, and the
views its boundary rows (grid's _row_* functions) read and write; _rhs()
runs it.  a0 and ar sit side by side in a block, so both Laplacians are one
stencil, and J_0, J_r are added in one call.  step() and rhs() go through
the plan; a linear plan has no current and no couplings.  The state
advances in place.  The caller's initial state, the slices, the snapshots
and the final state are copies and never share memory with a workspace.  A
bare step() without a workspace leaves its input untouched and returns
fresh arrays.  The run takes n_steps = ceil(t_end / (cfl h)) steps of
dt = t_end / n_steps, so it ends at t_end (time_grid).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FieldState, _current_ops, current
from .data_builder import ChargeValue, CutoffChi
from .grid import (EVEN, RadialGrid, _d_r_ops, _row_d_r_origin, _row_lap_origin,
                   _row_sommerfeld, _three_point_ops, d_r, divergence_radial,
                   interp_values, simpson_integral)


class EvolutionUnstable(RuntimeError):
    """Raised by the blow-up / NaN guard with the offending time and node."""


@dataclass
class SchemeParams:
    cfl: float = 0.5
    t_end: float = 320.0
    boundary: str = "sommerfeld"   # "sommerfeld" | "none"
    monitor_stride: int = 40
    linear: bool = False           # drop couplings and currents (oracle runs)

    def validate(self, grid: RadialGrid) -> list[str]:
        errs = []
        if not (0.0 < self.cfl <= 0.9):
            errs.append(f"cfl must satisfy 0 < cfl <= 0.9, got {self.cfl}")
        if self.boundary not in ("sommerfeld", "none"):
            errs.append(f"boundary must be 'sommerfeld' or 'none', got {self.boundary!r}")
        if self.boundary == "none" and self.t_end > 0.9 * grid.r_max:
            errs.append(
                f"causality shield: t_end = {self.t_end} exceeds 0.9*r_max = "
                f"{0.9 * grid.r_max} with boundary = none")
        if self.t_end <= 0.0:
            errs.append(f"t_end must be positive, got {self.t_end}")
        if self.monitor_stride < 1:
            errs.append("monitor_stride must be >= 1")
        return errs


@dataclass
class ObservationPlan:
    """What evolve() records along the way."""

    ray_qs: tuple = ()            # retarded coordinates of sampled rays
    stencil_spacing_cells: int = 2
    stencil_half: int = 2         # 2 -> 5-point radial stencil per ray
    snapshot_every: int = 1       # snapshots every this many monitor events
    snapshot_subsample: int = 4   # keep every k-th node in snapshots
    slice_times: tuple = ()       # full-resolution FieldState copies
    ray_domain_frac: float = 0.95


@dataclass
class MonitorLog:
    t: list = field(default_factory=list)
    lorenz_residual_sup: list = field(default_factory=list)
    charge_Q: list = field(default_factory=list)
    energy_E: list = field(default_factory=list)
    frame_identity_residual_sup: dict = field(default_factory=dict)  # t -> value

    def append(self, t, lorenz, q, e):
        if self.t and t <= self.t[-1]:
            raise ValueError("monitor timestamps must be strictly increasing")
        self.t.append(t)
        self.lorenz_residual_sup.append(lorenz)
        self.charge_Q.append(q)
        self.energy_E.append(e)


@dataclass
class RayHistory:
    """Time-resolved samples on a small radial stencil around r = t + q."""

    q: float
    offsets: np.ndarray           # stencil offsets around the ray radius
    times: list = field(default_factory=list)
    r0: list = field(default_factory=list)
    a0: list = field(default_factory=list)     # each entry: array over stencil
    ar: list = field(default_factory=list)
    phi: list = field(default_factory=list)
    j0: list = field(default_factory=list)
    jr: list = field(default_factory=list)

    def as_arrays(self):
        return (np.array(self.times), np.array(self.r0), np.array(self.a0),
                np.array(self.ar), np.array(self.phi), np.array(self.j0),
                np.array(self.jr))

    @property
    def center(self) -> int:
        return len(self.offsets) // 2


@dataclass
class Snapshot:
    t: float
    r: np.ndarray
    phi: np.ndarray
    a0: np.ndarray
    ar: np.ndarray
    j0: np.ndarray


@dataclass
class EvolveResult:
    final: FieldState
    log: MonitorLog
    rays: dict
    snapshots: list
    slices: dict


# ---------------------------------------------------------------------------
# right-hand side and stepper

def _fields(state: FieldState) -> tuple:
    return (state.phi, state.phi_t, state.a0, state.a0_t, state.ar, state.ar_t)


def _evolved(state: FieldState) -> tuple:
    """The six fields with the evolved dtypes (no copy when already so)."""
    phi, phi_t, a0, a0_t, ar, ar_t = _fields(state)
    return (np.asarray(phi, dtype=complex), np.asarray(phi_t, dtype=complex),
            np.real(a0), np.real(a0_t), np.real(ar), np.real(ar_t))


def _field_views(block: np.ndarray, n: int) -> tuple:
    """(phi, phi_t, a0, a0_t, ar, ar_t) laid out in one float64 block.

    The block holds the positions [phi (re, im interleaved), a0, ar] and
    then the velocities [phi_t, a0_t, ar_t] in the same layout, so that the
    derivative of the block is [velocity half, (phi_tt, a0_tt, ar_tt)].
    """
    m = 4 * n
    return (block[:2 * n].view(complex), block[m:m + 2 * n].view(complex),
            block[2 * n:3 * n], block[m + 2 * n:m + 3 * n],
            block[3 * n:m], block[m + 3 * n:])


class Workspace:
    """Every buffer an RK4 step needs on one grid, allocated once.

    y: the state being stepped; stage: the fields at the current RK4 stage;
    acc: the running weighted sum of the stage derivatives; each is one
    contiguous block laid out by _field_views, so that an RK4 combination
    of all six fields is one ufunc call.  dd: (phi_tt, a0_tt, ar_tt) of one
    RHS evaluation, in the layout of a velocity half.  drphi, j (J_0 then
    J_r) and scratch serve the RHS.  plans() gives the RHS plans at y and at
    the stage.  load() is the only way a caller sees a buffer.
    """

    def __init__(self, grid: RadialGrid):
        n = self.n_nodes = grid.n_nodes
        self.grid = grid
        self.y, self.stage, self.acc = (np.empty(8 * n) for _ in range(3))
        self.y_fields = _field_views(self.y, n)
        m = 4 * n
        self.halves = (self.y[:m], self.y[m:], self.stage[:m],
                       self.stage[m:], self.acc[:m], self.acc[m:])
        # zeroed: no RHS writes phi_tt[-1] or d_r phi[-1] before reading them
        # (their values only reach rows the outer boundary row overwrites)
        self.dd_block = np.zeros(m)
        self.dd = (self.dd_block[:2 * n].view(complex),
                   self.dd_block[2 * n:3 * n], self.dd_block[3 * n:])
        self.drphi = np.zeros(n, dtype=complex)
        self.j = np.empty(2 * n)
        self.scratch = (np.empty(n), np.empty(n), np.empty(n))
        self._plans: dict = {}

    def holds(self, state: FieldState) -> bool:
        """True when state's arrays are this workspace's y fields."""
        return all(a is b for a, b in zip(_fields(state), self.y_fields))

    def load(self, state: FieldState) -> FieldState:
        """Copy state into y; the result is stepped in place by step()."""
        for dst, src in zip(self.y_fields, _evolved(state)):
            np.copyto(dst, src)
        return FieldState(state.t, *self.y_fields)

    def plans(self, boundary: str, linear: bool) -> tuple:
        """The RHS plans at y and at the stage, built on first use."""
        key = (boundary, linear)
        if key not in self._plans:
            self._plans[key] = tuple(_RHSPlan(b, self, boundary, linear)
                                     for b in (self.y, self.stage))
        return self._plans[key]


class _RHSPlan:
    """One RHS evaluation on one field block of a Workspace, bound once.

    stencils: the ufunc calls (fn, args) of phi's Laplacian interior, of the
    one stencil over [a0, ar] and, when coupled, of d_r phi's interior.
    couplings (empty when linear): the current into ws.j, one add of J into
    (a0_tt, ar_tt), and phi_tt += 2i (ar d_r phi - a0 phi_t) + (a0^2 - ar^2)
    phi by parts.  The other slots are what the boundary rows read and write.
    """

    __slots__ = ("stencils", "couplings", "dd", "drphi", "h", "r_max",
                 "sommerfeld", "n2", "ar0", "phi_head", "a0_head",
                 "phi_t_tail", "a0_t_tail", "ar_t_tail")

    def __init__(self, block: np.ndarray, ws: Workspace, boundary: str,
                 linear: bool):
        grid, n, dd = ws.grid, ws.n_nodes, ws.dd_block
        m = 4 * n
        phi, phi_t, a0, _, ar, _ = _field_views(block, n)
        self.stencils = _three_point_ops(block[:2 * n], dd[:2 * n],
                                         grid._even_interleaved, 2)
        self.stencils += _three_point_ops(block[2 * n:m], dd[2 * n:],
                                          tuple(grid._coef))
        self.couplings = []
        if not linear:
            drphi, j, (w, s, t) = ws.drphi, ws.j, ws.scratch
            phi_tt = ws.dd[0]
            self.stencils += _d_r_ops(phi, drphi, grid.h)
            c = _current_ops(phi, phi_t, drphi, a0, ar, j[:n], j[n:], w, s)
            c += [(np.add, (dd[2 * n:], j, dd[2 * n:])),
                  (np.multiply, (a0, a0, w)), (np.multiply, (ar, ar, t)),
                  (np.subtract, (w, t, w))]
            for part, sign, d_other, p_other, phi_part in (
                    (phi_tt.real, 2.0, drphi.imag, phi_t.imag, phi.real),
                    (phi_tt.imag, -2.0, drphi.real, phi_t.real, phi.imag)):
                c += [(np.multiply, (a0, p_other, s)),
                      (np.multiply, (ar, d_other, t)), (np.subtract, (s, t, s)),
                      (np.multiply, (s, np.array(sign), s)),
                      (np.add, (part, s, part)),
                      (np.multiply, (w, phi_part, s)), (np.add, (part, s, part))]
            self.couplings = c
        self.dd, self.drphi = dd, ws.drphi.view(np.float64)
        self.h, self.r_max = grid.h, grid.r_max
        self.sommerfeld = boundary == "sommerfeld"
        self.n2, self.ar0 = 2 * n, 3 * n
        self.phi_head, self.a0_head = block[:4], block[2 * n:2 * n + 2]
        self.phi_t_tail = block[m + 2 * n - 6:m + 2 * n]
        self.a0_t_tail = block[m + 3 * n - 3:m + 3 * n]
        self.ar_t_tail = block[2 * m - 3:]


def _rhs(p: _RHSPlan) -> None:
    """Second time derivatives of p's block into its workspace's dd block.

    The first-order RHS is (phi_t, phi_tt, a0_t, a0_tt, ar_t, ar_tt); its
    velocity entries are the block's own arrays, so only dd is computed.
    """
    for fn, args in p.stencils:
        fn(*args)
    dd, h, n2 = p.dd, p.h, p.n2
    phi01 = p.phi_head.tolist()
    dd[0], dd[1] = _row_lap_origin(phi01, h)
    dd[n2], = _row_lap_origin(p.a0_head.tolist(), h)
    if p.couplings:
        p.drphi[0], p.drphi[1] = _row_d_r_origin(phi01[2:], EVEN, h)
        for fn, args in p.couplings:
            fn(*args)
    ar0 = p.ar0
    dd[ar0] = 0.0
    if p.sommerfeld:
        r_max = p.r_max
        dd[n2 - 2], dd[n2 - 1] = _row_sommerfeld(p.phi_t_tail.tolist(), h, r_max)
        dd[ar0 - 1], = _row_sommerfeld(p.a0_t_tail.tolist(), h, r_max)
        dd[-1], = _row_sommerfeld(p.ar_t_tail.tolist(), h, r_max)
    else:  # frozen outer node; the causality shield keeps it irrelevant
        dd[n2 - 2] = dd[n2 - 1] = dd[ar0 - 1] = dd[-1] = 0.0


def rhs(state: FieldState, grid: RadialGrid, boundary: str = "sommerfeld",
        linear: bool = False):
    """Time derivative of every evolved field (NaN-guarded)."""
    ws = Workspace(grid)
    ws.load(state)
    _rhs(ws.plans(boundary, linear)[0])
    finite = np.isfinite(ws.dd_block)
    if not finite.all():
        i, n = int(np.argmin(finite)), ws.n_nodes
        name, node = (("phi_tt", i // 2) if i < 2 * n else
                      ("a0_tt", i - 2 * n) if i < 3 * n else ("ar_tt", i - 3 * n))
        raise EvolutionUnstable(
            f"non-finite {name} at t={state.t}, node {node}")
    y = _evolved(state)
    phi_tt, a0_tt, ar_tt = ws.dd
    return FieldState(state.t, y[1], phi_tt, y[3], a0_tt, y[5], ar_tt)


_HALF, _TWO = np.array(0.5), np.array(2.0)
_HALF.flags.writeable = _TWO.flags.writeable = False


def step(state: FieldState, grid: RadialGrid, scheme: SchemeParams,
         dt: float | None = None, work: Workspace | None = None) -> FieldState:
    """One classical RK4 step; parity is re-pinned at r = 0 afterwards.

    work is a Workspace for this grid (ValueError otherwise), built here
    when None.  A state returned by work.load() (or by a step on it)
    advances in place, and the result holds the same arrays.  Any other
    state is left untouched and the result gets fresh arrays.
    """
    if dt is None:
        dt = scheme.cfl * grid.h
    ws = work if work is not None else Workspace(grid)
    if ws.grid is not grid and ws.grid != grid:
        raise ValueError(f"workspace is for {ws.grid}, not {grid}")
    in_place = ws.holds(state)
    if not in_place:
        ws.load(state)
    at_y, at_stage = ws.plans(scheme.boundary, scheme.linear)
    # 0-d arrays: a ufunc takes them faster than Python floats
    half, full, sixth = (np.array(c, dtype=np.float64)
                         for c in (0.5 * dt, dt, dt / 6.0))
    yp, yv, zp, zv, ap, av = ws.halves   # positions and velocities
    dd, acc = ws.dd_block, ws.acc
    mul, add = np.multiply, np.add

    # the stage-s derivative is [v's velocities, dd], with v the block its
    # RHS was evaluated on.  acc is summed as ((k1/2 + k2 + k3) * 2 + k4):
    # halving and doubling are exact, so it rounds exactly like
    # k1 + 2 k2 + 2 k3 + k4 summed left to right
    _rhs(at_y)
    mul(yv, _HALF, ap)
    mul(dd, _HALF, av)
    for v, c in ((yv, half), (zv, half), (zv, full)):
        mul(v, c, zp)               # positions first: they read
        add(zp, yp, zp)             # the previous stage's velocity
        mul(dd, c, zv)
        add(zv, yv, zv)
        _rhs(at_stage)
        if c is full:
            mul(acc, _TWO, acc)
        add(ap, zv, ap)
        add(av, dd, av)
    mul(acc, sixth, acc)
    y, n = ws.y, ws.n_nodes
    new = y if in_place else np.empty_like(y)
    add(y, acc, new)
    new[3 * n] = 0.0                # ar(0) and ar_t(0)
    new[7 * n] = 0.0
    fields = ws.y_fields if in_place else _field_views(new, n)
    return FieldState(state.t + dt, *fields)


# ---------------------------------------------------------------------------
# monitors

def lorenz_residual(state: FieldState, grid: RadialGrid) -> float:
    """sup | -d_t a0 + (1/r^2) d_r(r^2 ar) | over the grid."""
    res = -state.a0_t + divergence_radial(state.ar, grid)
    return float(np.max(np.abs(res)))


def charge_monitor(state: FieldState, grid: RadialGrid, j0=None) -> float:
    """Q = 4 pi int J_0 r^2 dr; j0, when given, is current(state, grid)[0]."""
    if j0 is None:
        j0, _ = current(state, grid)
    return 4.0 * np.pi * simpson_integral(j0 * grid.r ** 2, grid.h)


def energy_monitor(state: FieldState, grid: RadialGrid) -> float:
    """E = 4 pi int [ |D_t phi|^2 + |D_r phi|^2 + E_r^2 ] / 2 * r^2 dr."""
    dtphi = state.phi_t + 1j * state.a0 * state.phi
    drphi = d_r(state.phi, grid, EVEN) + 1j * state.ar * state.phi
    er = state.ar_t - d_r(state.a0, grid, EVEN)
    dens = 0.5 * (np.abs(dtphi) ** 2 + np.abs(drphi) ** 2 + er ** 2)
    return 4.0 * np.pi * simpson_integral(dens * grid.r ** 2, grid.h)


def frame_identity_residual(history: RayHistory, Q: ChargeValue,
                            chi: CutoffChi = CutoffChi()) -> tuple[float, np.ndarray, np.ndarray]:
    """Residual of L(r Lbar(r A_L)) + L(r A^1_Lbar) - r^2 J_L along the ray.

    Along a fixed ray, d/dt of a sampled series is exactly L applied to the
    field; radial derivatives come from the stencil.  Needs at least five
    sampled times (two L-differencings), otherwise raises.
    Returns (sup_residual, times_used, residual_series).
    """
    times, r0, a0, ar, phi, j0, jr = history.as_arrays()
    if len(times) < 5:
        raise ValueError(
            f"stencil starvation: {len(times)} ray samples, need >= 5")
    dt = np.diff(times)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
        raise ValueError("frame identity needs uniformly spaced ray samples")
    dm = dt[0]
    c = history.center
    dlt = history.offsets[1] - history.offsets[0]
    rmat = r0[:, None] + history.offsets[None, :]

    def ddr(fmat):
        return (fmat[:, c + 1] - fmat[:, c - 1]) / (2.0 * dlt)

    def along(series):
        out = np.empty_like(series)
        out[1:-1] = (series[2:] - series[:-2]) / (2.0 * dm)
        out[0] = out[-1] = np.nan
        return out

    rA_L = rmat * (a0 + ar)
    u = along(rA_L[:, c]) - 2.0 * ddr(rA_L)          # Lbar(r A_L)
    a1_lbar = (a0[:, c] - chi(rmat[:, c] - times) * Q.Q / (4.0 * np.pi * rmat[:, c])
               - ar[:, c])
    y = r0 * u + rmat[:, c] * a1_lbar
    resid = along(y) - rmat[:, c] ** 2 * (j0[:, c] + jr[:, c])
    ok = np.isfinite(resid)
    return float(np.max(np.abs(resid[ok]))), times[ok], resid[ok]


# ---------------------------------------------------------------------------
# the driver

def time_grid(t_end: float, dt_max: float) -> tuple[int, float]:
    """Step count and step size of a run that ends exactly at t_end.

    n_steps = ceil(t_end / dt_max), where a ratio within 1e-9 (relative) of
    an integer counts as that integer, so that an exact multiple never
    gains a step; dt = t_end / n_steps <= dt_max.
    """
    n_steps = math.ceil(t_end / dt_max * (1.0 - 1e-9))
    return n_steps, t_end / n_steps


def evolve(initial: FieldState, grid: RadialGrid, scheme: SchemeParams,
           plan: ObservationPlan | None = None,
           guard_factor: float = 1e6) -> EvolveResult:
    """Run RK4 to t_end, recording monitors, ray samples, and snapshots.

    The instability guard aborts when the sup norm of any field exceeds
    guard_factor times its initial scale (plus 1 to tolerate zero data).
    """
    plan = plan or ObservationPlan()
    # the cfl <= 0.9 invariant is enforced at config level; runs driven
    # programmatically with larger cfl are caught by the instability guard
    errs = [e for e in scheme.validate(grid) if "cfl" not in e]
    if errs:
        raise ValueError("; ".join(errs))
    if scheme.cfl <= 0.0:
        raise ValueError(f"cfl must be positive, got {scheme.cfl}")
    n_steps, dt = time_grid(scheme.t_end, scheme.cfl * grid.h)
    ws = Workspace(grid)
    state = ws.load(initial)        # stepped in place; copied out below
    log = MonitorLog()
    dlt = plan.stencil_spacing_cells * grid.h
    offsets = dlt * np.arange(-plan.stencil_half, plan.stencil_half + 1)
    rays = {q: RayHistory(q=q, offsets=offsets) for q in plan.ray_qs}
    snapshots: list[Snapshot] = []
    slices: dict[float, FieldState] = {}
    slice_times = sorted(plan.slice_times)
    guard0 = max(np.max(np.abs(initial.phi)), np.max(np.abs(initial.a0)),
                 np.max(np.abs(initial.ar)), 1e-30)
    monitor_count = 0

    def observe():
        nonlocal monitor_count
        sup = max(np.max(np.abs(state.phi)), np.max(np.abs(state.a0)),
                  np.max(np.abs(state.ar)))
        if not np.isfinite(sup) or sup > guard_factor * (guard0 + 1.0):
            raise EvolutionUnstable(
                f"instability detected at t={state.t:.6g}: sup={sup:.3e}, "
                f"initial scale {guard0:.3e}")
        j0, jr = current(state, grid)
        log.append(state.t, lorenz_residual(state, grid),
                   charge_monitor(state, grid, j0), energy_monitor(state, grid))
        for q, hist in rays.items():
            x = state.t + q
            pts = x + offsets
            if pts[0] <= 2.0 * dlt or pts[-1] >= plan.ray_domain_frac * grid.r_max:
                continue
            hist.times.append(state.t)
            hist.r0.append(x)
            hist.a0.append(interp_values(state.a0, grid, pts))
            hist.ar.append(interp_values(state.ar, grid, pts))
            hist.phi.append(interp_values(state.phi, grid, pts))
            hist.j0.append(interp_values(j0, grid, pts))
            hist.jr.append(interp_values(jr, grid, pts))
        if monitor_count % plan.snapshot_every == 0:
            k = plan.snapshot_subsample
            snapshots.append(Snapshot(
                t=state.t, r=grid.r[::k].copy(), phi=state.phi[::k].copy(),
                a0=state.a0[::k].copy(), ar=state.ar[::k].copy(),
                j0=j0[::k].copy()))
        monitor_count += 1

    next_slice = 0
    for k_step in range(n_steps):
        if k_step % scheme.monitor_stride == 0:
            observe()
        while next_slice < len(slice_times) and \
                state.t >= slice_times[next_slice] - 0.5 * dt:
            slices[slice_times[next_slice]] = state.copy()
            next_slice += 1
        state = step(state, grid, scheme, dt, work=ws)
    observe()
    while next_slice < len(slice_times) and \
            state.t >= slice_times[next_slice] - 0.5 * dt:
        slices[slice_times[next_slice]] = state.copy()
        next_slice += 1
    return EvolveResult(final=state.copy(), log=log, rays=rays, snapshots=snapshots,
                        slices=slices)
