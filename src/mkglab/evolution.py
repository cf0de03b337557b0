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
derivative sum, the second derivatives, the RHS scratch, and the RHS plans
of both field blocks (state and stage) for the run's boundary, coupling and
window.  A plan binds once the ufunc calls of the stencils, of the current
(core) and of the phi couplings on fixed views, with their scalar factors,
and the views its boundary rows (grid's _row_* functions) read and write;
_rhs() runs it.  Each half of a block is [a0 | (ar, Re phi, Im phi) node
by node], so the Laplacians of ar and phi are one stencil over the
interleaved part, and a0's is another.  A linear plan has no current and no
couplings.

phi travels along outgoing light cones, and in Lorenz gauge ar's only
source is J_r, which vanishes where phi does; a0 carries the charge tail
everywhere.  The stencil's support runs ahead of the light cones: one step
widens it by 2 nodes, so left alone it outruns them by about 300 nodes
(250-370 measured) of values below 1e-100 times the data, up to 140 of them
subnormal, and a subnormal costs ~14 ns per ufunc element against ~0.8 ns
for a normal value.  So after load() (on all nodes) and after each step (on
the window) evolve() sets to +0 every value of ar, phi, ar_t and phi_t
below the floor _TAIL_FLOOR * guard0, guard0 being the data's initial scale
that the blow-up guard uses.  2^-340 is 87 orders of magnitude below a
rounding of the data, and the floor is relative, so small data is scaled,
never erased, and zero data drops nothing.  ar and phi then stay exactly
zero beyond the physical front plus the stencil's reach.  The outputs move
at rounding level: a changed rounding anywhere reaches every value at
~1e-16 relative as the front sweeps in, and cancellation magnifies it in
differences (largest relative change of a benchmark-gated value: 3.4e-9,
the quick run's charge drift; of the quick run's frame-identity residual:
5.2e-7).

step() does the work of ar and phi only on the nodes [0, W) of the
workspace's window W: their Laplacians and d_r phi, the current and
a0^2 - ar^2, the phi couplings and their part of every RK4 combination, so
that the windowed part of a half is its prefix of n + 3 W values.  a0 stays
on the full grid.  The invariant: before each step, every bit of ar, phi,
ar_t and phi_t in the state is zero from node W - 2 on (-0.0 counts as
set), and one step widens their support by at most 2 nodes.
Workspace.cover() checks it at every step and, when a bit is set, grows W
past the last set node + 3, in whole chunks of _WINDOW_CHUNK nodes, capped
at n; W never shrinks.  The buffers start zeroed and no step writes at or
beyond W (acc, which a step reads only on the window and after writing it,
is also drop_below()'s scratch).  There the full computation gives
J_0 = +0, so the J_0 add over all of a0 is exact; ar_tt and phi_tt come out +-0 and reach the stage values
and the new state only as +0 + (+-0) = +0.  So every step is byte-identical
to the full-grid step.  The outer boundary
rows of ar and phi run only when W = n, which is reached by data with no
exact-zero tail or once the front reaches r_max; then the step is the
full-grid plan.

step() advances the state that Workspace.load() returned, in place, and
refuses any other.  The caller's initial state, the slices and the final
state are copies and never share memory with a workspace.  A snapshot
holds t, a strided view of the grid's read-only radii (shared by every
snapshot) and copies of phi and J_0 on those nodes; the envelope checks
read nothing else.  The run takes n_steps = ceil(t_end / (cfl h)) steps of
dt = t_end / n_steps, so it ends at t_end (time_grid).  A slice is the state
of the step nearest its time, keyed by that step (slice_step).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FieldState, _current_ops, current, field_strength
from .data_builder import coulomb_tail
from .grid import (EVEN, RadialGrid, _d_r_ops, _in_domain, _row_d_r_origin,
                   _row_lap_origin, _row_sommerfeld, _three_point_ops, d_r,
                   divergence_radial, interp_values, simpson_integral)

# evolve() stops when a field's sup norm exceeds this factor times its
# initial scale (plus 1, to tolerate zero data)
_GUARD_FACTOR = 1e6
# a ray sample holds 2 * _RAY_HALF + 1 radii _RAY_SPACING_CELLS cells apart, all
# in the domain; the frame identity reads the offsets +-1, the other readers the centre
_RAY_HALF = 1
_RAY_SPACING_CELLS = 2


class EvolutionUnstable(RuntimeError):
    """Raised by evolve's blow-up / NaN guard with the offending time."""


@dataclass
class SchemeParams:
    cfl: float = 0.5
    t_end: float = 320.0
    boundary: str = "sommerfeld"   # "sommerfeld" | "none"
    monitor_stride: int = 40
    linear: bool = False           # drop couplings and currents (oracle runs)

    def validate(self, r_max: float) -> list[str]:
        """Every bound the scheme breaks on a grid of radius r_max, each
        message led by its field; cfl has no cap (evolve's guard stops a blow-up)."""
        errs = []
        if not self.cfl > 0.0:
            errs.append(f"cfl must be positive, got {self.cfl}")
        if self.boundary not in ("sommerfeld", "none"):
            errs.append(f"boundary must be 'sommerfeld' or 'none', got {self.boundary!r}")
        if not self.t_end > 0.0:
            errs.append(f"t_end must be positive, got {self.t_end}")
        elif self.boundary == "none" and self.t_end > 0.9 * r_max:
            errs.append(
                f"t_end = {self.t_end} exceeds 0.9 r_max = {0.9 * r_max} with "
                "boundary = none: the causality shield requires a boundary condition")
        if self.monitor_stride < 1:
            errs.append(f"monitor_stride must be >= 1, got {self.monitor_stride}")
        return errs


@dataclass
class ObservationPlan:
    """What evolve() records along the way; by default only the monitors."""

    ray_qs: tuple = ()            # retarded coordinates of sampled rays
    snapshot_every: int = 0       # snapshots every this many monitor events (0: none)
    snapshot_subsample: int = 4   # keep every k-th node in snapshots
    slice_times: tuple = ()       # each t: a copy of step slice_step(t, dt)


@dataclass
class MonitorLog:
    t: list = field(default_factory=list)
    lorenz_residual_sup: list = field(default_factory=list)
    charge_Q: list = field(default_factory=list)
    energy_E: list = field(default_factory=list)

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
    """Every snapshot_subsample-th node of phi and J_0 at time t.

    r is a view of the grid's read-only radii, shared by every snapshot of
    the run; phi and j0 are copies.
    """

    t: float
    r: np.ndarray
    phi: np.ndarray
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


# the window of ar and phi grows in whole chunks of this many nodes; each
# growth rebuilds the workspace's plans
_WINDOW_CHUNK = 64
# evolve() drops the values of ar, phi, ar_t and phi_t below this factor times
# the data's initial scale (module docstring); the cube of a unit-scale value
# at the floor, 2^-1020, is still a normal float64 (the smallest is 2^-1022)
_TAIL_FLOOR = 2.0 ** -340


def _half_views(half: np.ndarray, n: int) -> tuple:
    """(phi, a0, ar) of one half [a0 | (ar, Re phi, Im phi) node by node]
    of a block; phi is a complex view with a stride of three float64s."""
    nodes = half[n:].reshape(n, 3)
    return nodes[:, 1:].view(complex)[:, 0], half[:n], nodes[:, 0]


def _field_views(block: np.ndarray, n: int) -> tuple:
    """(phi, phi_t, a0, a0_t, ar, ar_t) laid out in one float64 block.

    The block holds the positions [a0 | (ar, Re phi, Im phi) per node] and
    then the velocities [a0_t | (ar_t, Re phi_t, Im phi_t) per node], 4 n
    values each, so that the derivative of the block is [velocity half,
    (a0_tt | (ar_tt, phi_tt) per node)], and the first n + 3 W values of a
    half are a0 and (ar, phi) on a window of W nodes.
    """
    (phi, a0, ar), (phi_t, a0_t, ar_t) = (_half_views(half, n)
                                          for half in block.reshape(2, 4 * n))
    return phi, phi_t, a0, a0_t, ar, ar_t


class Workspace:
    """Every buffer an RK4 step needs on one grid, allocated once.

    y: the state being stepped; stage: the fields at the current RK4 stage;
    acc: the running weighted sum of the stage derivatives; each is one
    contiguous block laid out by _field_views.  dd_block: a0_tt and (ar_tt,
    phi_tt) of one RHS evaluation, in the layout of a velocity half; dd is
    its (phi_tt, a0_tt, ar_tt) views.  drphi, j (J_0 then J_r) and scratch
    serve the RHS.  window is the W of the light-cone window (module
    docstring); halves, dd_window, y_window and acc_window are the blocks'
    views on it, so that an RK4 combination is one ufunc call.  cover()
    grows the window over y; drop_below() zeroes y's tail below a floor;
    plans() gives the RHS plans at y and at the stage.  load() is the only
    way a caller sees a buffer.
    """

    def __init__(self, grid: RadialGrid):
        n = self.n_nodes = grid.n_nodes
        self.grid = grid
        # zeroed, as dd and j are: nothing at or beyond the window is written
        self.y, self.stage, self.acc = (np.zeros(8 * n) for _ in range(3))
        self.y_fields = _field_views(self.y, n)
        self._runs = self.y.reshape(2, 4 * n)[:, n:]    # (ar, phi) per half
        self.dd_block = np.zeros(4 * n)
        self.dd = _half_views(self.dd_block, n)
        # zeroed: with W = n no RHS writes d_r phi[-1] before reading it (its
        # values only reach rows the outer boundary row overwrites)
        self.drphi = np.zeros(n, dtype=complex)
        self.j = np.zeros(2 * n)
        self.scratch = (np.empty(n), np.empty(n), np.empty(n))
        self._set_window(min(_WINDOW_CHUNK, n))

    def _set_window(self, w: int) -> None:
        n = self.n_nodes
        self.window = w
        k = n + 3 * w               # a0, and (ar, phi) on nodes [0, w), of a half
        self.y_window, stage, self.acc_window = (
            b.reshape(2, 4 * n)[:, :k] for b in (self.y, self.stage, self.acc))
        self.halves = (*self.y_window, *stage, *self.acc_window)
        self.dd_window = self.dd_block[:k]
        # (ar, phi) and (ar_t, phi_t) from node w - 2 on: one run of each half
        self._tails = tuple(half[n + 3 * (w - 2):].view(np.uint64)
                            for half in self.y.reshape(2, 4 * n))
        # drop_below()'s scratch: magnitudes in the windowed (ar, phi) run
        # of acc and a mask in the bytes of its a0 parts.  acc is free
        # between steps (a step writes its windowed part before reading it),
        # and that part is the only one a step touches, so no page is added
        acc = self.acc.reshape(2, 4 * n)
        self._drop_scratch = (acc[:, n:n + 3 * w],
                              acc[:, :n].view(np.bool_)[:, :3 * w])
        self._plans = None          # (boundary, linear, plans) of this window

    def drop_below(self, floor: float, nodes: int) -> None:
        """Set to +0 every value of ar, phi, ar_t and phi_t in y on the nodes
        [0, nodes) whose magnitude is below floor (-0.0 included); NaN stays.
        Works a window's width at a time and allocates nothing."""
        mag, below = self._drop_scratch
        k, end = mag.shape[1], 3 * nodes
        for i in range(0, end, k):
            run = self._runs[:, i:min(i + k, end)]
            if run.shape[1] < k:    # the last part of a run wider than W
                mag, below = mag[:, :run.shape[1]], below[:, :run.shape[1]]
            np.abs(run, out=mag)
            np.less(mag, floor, out=below)
            np.copyto(run, _ZERO, where=below)

    def cover(self) -> None:
        """Grow the window until ar, phi, ar_t and phi_t in y are zero, bit
        for bit, from node window - 2 on."""
        # max() is the fastest full scan of a uint64 run measured: 4 us on
        # the 46k words of a tail at n = 16001, W = 640, against 9 us for
        # count_nonzero and 14 us for any() (numpy 2.4, one Xeon core)
        if self.window == self.n_nodes or not (
                self._tails[0].max() or self._tails[1].max()):
            return
        # three uint64 words per node
        last = self.window - 2 + max(int(np.flatnonzero(t)[-1]) // 3
                                     for t in self._tails if t.any())
        chunks = -(-(last + 3) // _WINDOW_CHUNK)
        self._set_window(min(chunks * _WINDOW_CHUNK, self.n_nodes))

    def holds(self, state: FieldState) -> bool:
        """True when state's arrays are this workspace's y fields."""
        return all(a is b for a, b in zip(_fields(state), self.y_fields))

    def load(self, state: FieldState) -> FieldState:
        """Copy state into y; the result is stepped in place by step()."""
        for dst, src in zip(self.y_fields, _evolved(state)):
            np.copyto(dst, src)
        return FieldState(state.t, *self.y_fields)

    def plans(self, boundary: str, linear: bool) -> tuple:
        """The RHS plans at y and at the stage on the current window, built
        on first use; only the last pair built is kept."""
        if self._plans is None or self._plans[:2] != (boundary, linear):
            self._plans = (boundary, linear,
                           tuple(_RHSPlan(b, self, boundary, linear)
                                 for b in (self.y, self.stage)))
        return self._plans[2]


class _RHSPlan:
    """One RHS evaluation on one field block of a Workspace, bound once for
    the workspace's window W.

    stencils: the ufunc calls (fn, args) of a0's Laplacian interior over the
    whole grid, of the one stencil over (ar, phi) on the window and, when
    coupled, of d_r phi's interior on the window.  couplings (empty when
    linear): the current into ws.j on the window, the add of J_0 into a0_tt
    over the whole grid and of J_r into ar_tt on the window, and phi_tt +=
    2i (ar d_r phi - a0 phi_t) + (a0^2 - ar^2) phi by parts on the window.
    The other slots are what the boundary rows read and write; tail, the
    (ar_t, phi_t) of the last 3 nodes, is None unless W = n, and the outer
    rows of ar and phi are skipped then.
    """

    __slots__ = ("stencils", "couplings", "dd", "drphi", "h", "r_max",
                 "sommerfeld", "n", "head", "a0_head", "tail", "a0_t_tail")

    def __init__(self, block: np.ndarray, ws: Workspace, boundary: str,
                 linear: bool):
        grid, n, dd, w = ws.grid, ws.n_nodes, ws.dd_block, ws.window
        m = 4 * n
        span = min(w + 1, n)        # the window's stencils read nodes [0, span)
        phi, phi_t, a0, _, ar, _ = _field_views(block, n)
        self.stencils = _three_point_ops(block[:n], dd[:n], grid._even)
        self.stencils += _three_point_ops(
            block[n:n + 3 * span], dd[n:n + 3 * span],
            tuple(c[:3 * span - 6] for c in grid._interleaved), 3)
        self.couplings = []
        if not linear:
            drphi, j = ws.drphi, ws.j
            phi_tt, a0_tt, ar_tt = ws.dd
            self.stencils += _d_r_ops(phi[:span], drphi[:span], grid.h)
            phi, phi_t, drphi, a0, ar, ar_tt, phi_tt = (
                f[:w] for f in (phi, phi_t, drphi, a0, ar, ar_tt, phi_tt))
            v, s, t = (f[:w] for f in ws.scratch)
            j0, jr = j[:n], j[n:n + w]
            c = _current_ops(phi, phi_t, drphi, a0, ar, j0[:w], jr, v, s)
            c += [(np.add, (a0_tt, j0, a0_tt)), (np.add, (ar_tt, jr, ar_tt)),
                  (np.multiply, (a0, a0, v)), (np.multiply, (ar, ar, t)),
                  (np.subtract, (v, t, v))]
            for part, sign, d_other, p_other, phi_part in (
                    (phi_tt.real, 2.0, drphi.imag, phi_t.imag, phi.real),
                    (phi_tt.imag, -2.0, drphi.real, phi_t.real, phi.imag)):
                c += [(np.multiply, (a0, p_other, s)),
                      (np.multiply, (ar, d_other, t)), (np.subtract, (s, t, s)),
                      (np.multiply, (s, np.array(sign), s)),
                      (np.add, (part, s, part)),
                      (np.multiply, (v, phi_part, s)), (np.add, (part, s, part))]
            self.couplings = c
        self.dd, self.drphi = dd, ws.drphi.view(np.float64)
        self.h, self.r_max = grid.h, grid.r_max
        self.sommerfeld = boundary == "sommerfeld"
        self.n = n
        self.head, self.a0_head = block[n:n + 6], block[:2]
        self.tail = block[2 * m - 9:] if w == n else None
        self.a0_t_tail = block[m + n - 3:m + n]


def _rhs(p: _RHSPlan) -> None:
    """Second time derivatives of p's block into its workspace's dd block.

    The first-order RHS is (phi_t, phi_tt, a0_t, a0_tt, ar_t, ar_tt); its
    velocity entries are the block's own arrays, so only dd is computed.
    """
    for fn, args in p.stencils:
        fn(*args)
    dd, h, n = p.dd, p.h, p.n
    head = p.head.tolist()          # (ar, Re phi, Im phi) at nodes 0 and 1
    phi01 = head[1:3] + head[4:]
    dd[n + 1], dd[n + 2] = _row_lap_origin(phi01, h)
    dd[0], = _row_lap_origin(p.a0_head.tolist(), h)
    if p.couplings:
        p.drphi[0], p.drphi[1] = _row_d_r_origin(phi01[2:], EVEN, h)
        for fn, args in p.couplings:
            fn(*args)
    dd[n] = 0.0                     # ar_tt(0)
    outer = p.tail is not None
    if p.sommerfeld:
        r_max = p.r_max
        dd[n - 1], = _row_sommerfeld(p.a0_t_tail.tolist(), h, r_max)
        if outer:
            tail = p.tail.tolist()
            dd[-3], = _row_sommerfeld(tail[::3], h, r_max)
            del tail[::3]
            dd[-2], dd[-1] = _row_sommerfeld(tail, h, r_max)
    else:  # frozen outer node; the causality shield keeps it irrelevant
        dd[n - 1] = 0.0
        if outer:
            dd[-3] = dd[-2] = dd[-1] = 0.0


_HALF, _TWO, _ZERO = np.array(0.5), np.array(2.0), np.array(0.0)
_HALF.flags.writeable = _TWO.flags.writeable = _ZERO.flags.writeable = False


def step(state: FieldState, grid: RadialGrid, scheme: SchemeParams,
         dt: float, work: Workspace) -> FieldState:
    """One classical RK4 step; parity is re-pinned at r = 0 afterwards.

    work is a Workspace for this grid, and state the one work.load()
    returned (or a step on it); it advances in place, and the result holds
    the same arrays.  Anything else raises ValueError.  The work of ar and
    phi runs on the workspace's window, grown first to cover the state.
    """
    if work.grid is not grid and work.grid != grid:
        raise ValueError(f"workspace is for {work.grid}, not {grid}")
    if not work.holds(state):
        raise ValueError("step() advances only the state its workspace's "
                         "load() returned")
    work.cover()
    at_y, at_stage = work.plans(scheme.boundary, scheme.linear)
    # 0-d arrays: a ufunc takes them faster than Python floats
    half, full, sixth = (np.array(c, dtype=np.float64)
                         for c in (0.5 * dt, dt, dt / 6.0))
    yp, yv, zp, zv, ap, av = work.halves   # positions and velocities
    dd, acc = work.dd_window, work.acc_window
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
    add(work.y_window, acc, work.y_window)
    y, n = work.y, work.n_nodes
    y[n] = 0.0                      # ar(0) and ar_t(0)
    y[5 * n] = 0.0
    return FieldState(state.t + dt, *work.y_fields)


# ---------------------------------------------------------------------------
# monitors

def lorenz_residual(state: FieldState, grid: RadialGrid) -> float:
    """sup | -d_t a0 + (1/r^2) d_r(r^2 ar) | over the grid."""
    res = -state.a0_t + divergence_radial(state.ar, grid)
    return float(np.max(np.abs(res)))


def charge_monitor(j0: np.ndarray, grid: RadialGrid) -> float:
    """Q = 4 pi int J_0 r^2 dr, with j0 = current(state, grid)[0]."""
    return 4.0 * np.pi * simpson_integral(j0 * grid.r ** 2, grid.h)


def energy_monitor(state: FieldState, grid: RadialGrid) -> float:
    """E = 4 pi int [ |D_t phi|^2 + |D_r phi|^2 + E_r^2 ] / 2 * r^2 dr."""
    dtphi = state.phi_t + 1j * state.a0 * state.phi
    drphi = d_r(state.phi, grid, EVEN) + 1j * state.ar * state.phi
    er = field_strength(state, grid)
    dens = 0.5 * (np.abs(dtphi) ** 2 + np.abs(drphi) ** 2 + er ** 2)
    return 4.0 * np.pi * simpson_integral(dens * grid.r ** 2, grid.h)


# samples the frame identity needs: two L-differencings
FRAME_SAMPLES = 5


def frame_identity_residual(history: RayHistory,
                            Q: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Residual of L(r Lbar(r A_L)) + L(r A^1_Lbar) - r^2 J_L along the ray.

    Along a fixed ray, d/dt of a sampled series is exactly L applied to the
    field; radial derivatives come from the stencil.  Needs at least
    FRAME_SAMPLES sampled times, otherwise raises.
    Returns (sup_residual, times_used, residual_series).
    """
    times, r0, a0, ar, phi, j0, jr = history.as_arrays()
    if len(times) < FRAME_SAMPLES:
        raise ValueError(f"stencil starvation: {len(times)} ray samples, "
                         f"need >= {FRAME_SAMPLES}")
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
    a1_lbar = a0[:, c] - coulomb_tail(times, rmat[:, c], Q) - ar[:, c]
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


def slice_step(t: float, dt: float) -> int:
    """The step of the slice at t: the nearest, the earlier at an exact tie."""
    return math.ceil(t / dt - 0.5)


def evolve(initial: FieldState, grid: RadialGrid, scheme: SchemeParams,
           plan: ObservationPlan | None = None) -> EvolveResult:
    """Run RK4 to t_end, recording monitors, ray samples, and snapshots.

    Monitors are taken every monitor_stride steps and at the last step, a
    snapshot at every plan.snapshot_every-th monitor (none at 0), and ray
    samples on the stride only (uniformly spaced in t) within grid._in_domain.
    result.slices: one state copy per step slice_step(t, dt), t in plan.slice_times.

    The instability guard aborts when the sup norm of any field exceeds
    _GUARD_FACTOR times its initial scale (plus 1 to tolerate zero data).
    After the load and each step, the values of ar, phi, ar_t and phi_t
    below _TAIL_FLOOR times that scale are set to +0 (module docstring).
    """
    plan = plan or ObservationPlan()
    errs = scheme.validate(grid.r_max)
    if errs:
        raise ValueError("; ".join(errs))
    n_steps, dt = time_grid(scheme.t_end, scheme.cfl * grid.h)
    ws = Workspace(grid)
    state = ws.load(initial)        # stepped in place; copied out below
    log = MonitorLog()
    offsets = _RAY_SPACING_CELLS * grid.h * np.arange(-_RAY_HALF, _RAY_HALF + 1)
    rays = {q: RayHistory(q=q, offsets=offsets) for q in plan.ray_qs}
    snapshots: list[Snapshot] = []
    slices: dict[int, FieldState] = {}
    slice_steps = {slice_step(t, dt) for t in plan.slice_times}
    guard0 = max(np.max(np.abs(initial.phi)), np.max(np.abs(initial.a0)),
                 np.max(np.abs(initial.ar)))
    floor = _TAIL_FLOOR * guard0    # 0 for zero data: nothing is dropped
    ws.drop_below(floor, grid.n_nodes)  # the window does not cover the data yet
    monitor_count = 0

    def observe(on_stride: bool):
        nonlocal monitor_count
        sup = max(np.max(np.abs(state.phi)), np.max(np.abs(state.a0)),
                  np.max(np.abs(state.ar)))
        if not np.isfinite(sup) or sup > _GUARD_FACTOR * (guard0 + 1.0):
            raise EvolutionUnstable(
                f"instability detected at t={state.t:.6g}: sup={sup:.3e}, "
                f"initial scale {guard0:.3e}")
        j0, jr = current(state, grid)
        log.append(state.t, lorenz_residual(state, grid),
                   charge_monitor(j0, grid), energy_monitor(state, grid))
        for q, hist in (rays.items() if on_stride else ()):
            x = state.t + q
            pts = x + offsets
            if not _in_domain(pts, grid).all():
                continue
            hist.times.append(state.t)
            hist.r0.append(x)
            hist.a0.append(interp_values(state.a0, grid, pts))
            hist.ar.append(interp_values(state.ar, grid, pts))
            hist.phi.append(interp_values(state.phi, grid, pts))
            hist.j0.append(interp_values(j0, grid, pts))
            hist.jr.append(interp_values(jr, grid, pts))
        if plan.snapshot_every and monitor_count % plan.snapshot_every == 0:
            k = plan.snapshot_subsample
            snapshots.append(Snapshot(t=state.t, r=grid.r[::k],
                                      phi=state.phi[::k].copy(),
                                      j0=j0[::k].copy()))
        monitor_count += 1

    for k_step in range(n_steps + 1):
        on_stride = k_step % scheme.monitor_stride == 0
        if on_stride or k_step == n_steps:
            observe(on_stride)
        if k_step in slice_steps:
            slices[k_step] = state.copy()
        if k_step < n_steps:
            state = step(state, grid, scheme, dt, ws)
            ws.drop_below(floor, ws.window)
    return EvolveResult(final=state.copy(), log=log, rays=rays, snapshots=snapshots,
                        slices=slices)
