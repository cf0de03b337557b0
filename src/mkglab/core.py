"""Field containers, decay weights, and the current.

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

from dataclasses import dataclass

import numpy as np

from .grid import EVEN, RadialGrid, _run, d_r


@dataclass(frozen=True)
class Weights:
    """Decay-weight exponents: 1/2 < s < 1, gamma > 0, s + gamma < 3/2."""

    s: float
    gamma: float

    @staticmethod
    def problems(s: float, gamma: float) -> list[str]:
        """Every bound these values break, each message led by its field."""
        errs = []
        if not (0.5 < s < 1.0):
            errs.append(f"s must satisfy 1/2 < s < 1, got {s}")
        if not (gamma > 0.0):
            errs.append(f"gamma must be positive, got {gamma}")
        if not (s + gamma < 1.5):
            errs.append(f"gamma must satisfy s + gamma < 3/2, got s + gamma = {s + gamma}")
        return errs

    def __post_init__(self):
        errs = self.problems(self.s, self.gamma)
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

    def validate(self, grid: RadialGrid) -> None:
        """Check finiteness and ar(0) = ar_t(0) = 0 (to 1e-12 relative)."""
        for name in ("phi", "phi_t", "a0", "a0_t", "ar", "ar_t"):
            arr = getattr(self, name)
            if len(arr) != grid.n_nodes:
                raise ValueError(f"{name} has {len(arr)} nodes, grid wants {grid.n_nodes}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite samples")
        scale = max(np.max(np.abs(self.ar)), 1.0)
        if abs(self.ar[0]) > 1e-12 * scale or abs(self.ar_t[0]) > 1e-12 * scale:
            raise ValueError("odd parity violated: ar(0) != 0")


def jbracket(x):
    """Japanese bracket <x> = sqrt(1 + x^2)."""
    return np.sqrt(1.0 + np.square(x))


def _current_ops(phi, phi_t, drphi, a0, ar, j0, jr, abs2, tmp) -> list:
    """The ufunc calls (fn, args) of the current on fixed buffers, run by
    current and by evolution's RHS plan.

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


def current(state: FieldState, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Charge and radial current densities (J_0, J_r) on the grid,

        J_0 = -Im(conj(phi) phi_t) - a0 |phi|^2,
        J_r = -Im(conj(phi) d_r phi) - ar |phi|^2.
    """
    phi = np.asarray(state.phi, dtype=complex)
    j0, jr, abs2, tmp = (np.empty(len(phi)) for _ in range(4))
    _run(_current_ops(phi, np.asarray(state.phi_t, dtype=complex),
                      d_r(phi, grid, EVEN), np.real(state.a0), np.real(state.ar),
                      j0, jr, abs2, tmp))
    return j0, jr


def field_strength(state: FieldState, grid: RadialGrid) -> np.ndarray:
    """Radial electric field E = F_{tr} = d_t ar - d_r a0."""
    return state.ar_t - d_r(state.a0, grid, EVEN)

