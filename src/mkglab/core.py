"""Field containers, null-frame algebra, weights, gauge maps, and the current.

The evolved unknowns of the spherically reduced system are a complex scalar
phi and the real potentials (a0, ar), where the full spatial potential is
A_j = omega_j * ar.  The null frame is L = d_t + d_r, Lbar = d_t - d_r, so

    A_L = a0 + ar,        A_Lbar = a0 - ar,

and the angular components vanish identically in spherical symmetry.  The
current of the charged scalar is J_alpha = Im(phi * conj(D_alpha phi)) with
D_alpha = d_alpha + i A_alpha, which reduces to

    J_0 = -Im(conj(phi) * phi_t) - a0 |phi|^2,
    J_r = -Im(conj(phi) * d_r phi) - ar |phi|^2.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import EVEN, RadialGrid, _run, d_r, interp_values


@dataclass(frozen=True)
class Weights:
    """Decay-weight exponents: 1/2 < s < 1, gamma > 0, s + gamma < 3/2."""

    s: float
    gamma: float

    def __post_init__(self):
        errs = []
        if not (0.5 < self.s < 1.0):
            errs.append(f"s must satisfy 1/2 < s < 1, got {self.s}")
        if not (self.gamma > 0.0):
            errs.append(f"gamma must be positive, got {self.gamma}")
        if not (self.s + self.gamma < 1.5):
            errs.append(f"s + gamma must be < 3/2, got {self.s + self.gamma}")
        if errs:
            raise ValueError("; ".join(errs))


@dataclass
class FieldState:
    """One time slice of the evolved fields on a RadialGrid."""

    t: float
    phi: np.ndarray     # complex, even
    phi_t: np.ndarray   # complex, even
    a0: np.ndarray      # real, even
    a0_t: np.ndarray    # real, even
    ar: np.ndarray      # real, odd, ar[0] = 0
    ar_t: np.ndarray    # real, odd

    @staticmethod
    def zeros(grid: RadialGrid, t: float = 0.0) -> "FieldState":
        n = grid.n_nodes
        return FieldState(
            t=t,
            phi=np.zeros(n, dtype=complex),
            phi_t=np.zeros(n, dtype=complex),
            a0=np.zeros(n),
            a0_t=np.zeros(n),
            ar=np.zeros(n),
            ar_t=np.zeros(n),
        )

    def copy(self) -> "FieldState":
        return FieldState(self.t, self.phi.copy(), self.phi_t.copy(),
                          self.a0.copy(), self.a0_t.copy(),
                          self.ar.copy(), self.ar_t.copy())

    def validate(self, grid: RadialGrid, atol: float = 1e-12) -> None:
        """Check finiteness and the parity conditions at r = 0."""
        for name in ("phi", "phi_t", "a0", "a0_t", "ar", "ar_t"):
            arr = getattr(self, name)
            if len(arr) != grid.n_nodes:
                raise ValueError(f"{name} has {len(arr)} nodes, grid wants {grid.n_nodes}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite samples")
        scale = max(np.max(np.abs(self.ar)), 1.0)
        if abs(self.ar[0]) > atol * scale or abs(self.ar_t[0]) > atol * scale:
            raise ValueError("odd parity violated: ar(0) != 0")


@dataclass(frozen=True)
class NullFrameSample:
    """Frame components of the potential at one spacetime point."""

    t: float
    r: float
    A_L: float
    A_Lbar: float
    A_S1: float = 0.0
    A_S2: float = 0.0


def jbracket(x):
    """Japanese bracket <x> = sqrt(1 + x^2)."""
    return np.sqrt(1.0 + np.square(x))


def s0_weight(t, r):
    """Logarithmic loss weight S0(t, r) = ((t+r)/r) * ln(<t+r>/<t-r>).

    Quantifies the slow decay of the potential relative to a free wave.
    At r = 0 the analytic limit 2 t^2 / (1 + t^2) is used.  Negative radii
    are rejected.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("s0_weight requires r >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (t + r) / r * np.log(jbracket(t + r) / jbracket(t - r))
    limit = 2.0 * t * t / (1.0 + t * t)
    out = np.where(r == 0.0, limit, val)
    if out.ndim == 0:
        return float(out)
    return out


def null_decompose(state: FieldState, grid: RadialGrid, r: float) -> NullFrameSample:
    """Frame components of the potential at radius r (cubic interpolation)."""
    if not grid.contains(r):
        raise ValueError(f"radius {r} outside [0, {grid.r_max}]")
    a0 = float(interp_values(state.a0, grid, [r])[0])
    ar = float(interp_values(state.ar, grid, [r])[0])
    return NullFrameSample(t=state.t, r=r, A_L=a0 + ar, A_Lbar=a0 - ar)


def _current_ops(phi, phi_t, drphi, a0, ar, j0, jr, abs2, tmp) -> list:
    """The ufunc calls (fn, args) of current_density, on fixed buffers.

    Each J is formed in its own buffer as Im(phi) Re(u) - Re(phi) Im(u) -
    a |phi|^2, with u = phi_t, a = a0 for J_0 and u = d_r phi, a = ar for J_r.
    """
    pr, pi = phi.real, phi.imag
    ops = [(np.multiply, (pr, pr, abs2)), (np.multiply, (pi, pi, tmp)),
           (np.add, (abs2, tmp, abs2))]
    for j, u, a in ((j0, phi_t, a0), (jr, drphi, ar)):
        ops += [(np.multiply, (pi, u.real, j)), (np.multiply, (pr, u.imag, tmp)),
                (np.subtract, (j, tmp, j)),          # -Im(conj(phi) u)
                (np.multiply, (a, abs2, tmp)), (np.subtract, (j, tmp, j))]
    return ops


def current_density(phi, phi_t, drphi, a0, ar, out=None, work=None):
    """(J_0, J_r) from phi, phi_t, d_r phi and the potentials (a0, ar).

        J_0 = -Im(conj(phi) phi_t) - a0 |phi|^2,
        J_r = -Im(conj(phi) d_r phi) - ar |phi|^2.

    phi, phi_t and drphi are complex128 arrays, a0 and ar float64.  out =
    (j0, jr) and work = (abs2, tmp) are float64 buffers of the same length;
    each pair is allocated when not given.  Returns (j0, jr).
    """
    n = len(phi)
    j0, jr = out if out is not None else (np.empty(n), np.empty(n))
    abs2, tmp = work if work is not None else (np.empty(n), np.empty(n))
    _run(_current_ops(phi, phi_t, drphi, a0, ar, j0, jr, abs2, tmp))
    return j0, jr


def current(state: FieldState, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Charge and radial current densities (J_0, J_r) on the grid."""
    phi = np.asarray(state.phi, dtype=complex)
    return current_density(phi, np.asarray(state.phi_t, dtype=complex),
                           d_r(phi, grid, EVEN), np.real(state.a0),
                           np.real(state.ar))


def field_strength(state: FieldState, grid: RadialGrid) -> np.ndarray:
    """Radial electric field E = F_{tr} = d_t ar - d_r a0."""
    return state.ar_t - d_r(state.a0, grid, EVEN)


class GaugeFunction:
    """Gauge parameter psi(t, r) with the derivatives a full-state map needs.

    Callables take (t, r_array) and return arrays.  psi_tt and psi_tr are
    required to transform the time-derivative fields consistently.
    """

    def __init__(self, psi, psi_t, psi_r, psi_tt=None, psi_tr=None):
        self.psi = psi
        self.psi_t = psi_t
        self.psi_r = psi_r
        self.psi_tt = psi_tt if psi_tt is not None else (lambda t, r: np.zeros_like(r))
        self.psi_tr = psi_tr if psi_tr is not None else (lambda t, r: np.zeros_like(r))

    @staticmethod
    def constant(c: float) -> "GaugeFunction":
        z = lambda t, r: np.zeros_like(r)
        return GaugeFunction(lambda t, r: np.full_like(r, c), z, z, z, z)


def gauge_transform(state: FieldState, grid: RadialGrid, gauge: GaugeFunction) -> FieldState:
    """Apply A -> A + d psi, phi -> e^{-i psi} phi on the slice.

    With D = d + iA the phase must rotate opposite to the potential shift
    for D phi to transform covariantly; this keeps F_{tr}, |phi|, and the
    current J invariant (the latter up to the O(h^2) mismatch between the
    analytic derivatives of psi and the grid differencing).
    """
    t, r = state.t, grid.r
    psi = gauge.psi(t, r)
    psi_t = gauge.psi_t(t, r)
    phase = np.exp(-1j * psi)
    return replace(
        state,
        phi=phase * state.phi,
        phi_t=phase * (state.phi_t - 1j * psi_t * state.phi),
        a0=state.a0 + psi_t,
        a0_t=state.a0_t + gauge.psi_tt(t, r),
        ar=state.ar + gauge.psi_r(t, r),
        ar_t=state.ar_t + gauge.psi_tr(t, r),
    )
