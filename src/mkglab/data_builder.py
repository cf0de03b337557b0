"""Construction of admissible Lorenz-gauge initial data.

The data is a charged scalar with A = 0 at t = 0: free data is (phi0,
phi0_dot), phi0_dot the covariant datum D_0 phi(0), and ar = d_t ar = 0.
The temporal potential is then fixed by the constraints

    Lap a0 = -Im(phi0 * conj(phi0_dot)),   a0_dot = div(a) = 0,

solved as the decaying radial Newtonian potential.  The conserved charge is

    Q = 4*pi * int_0^inf Im(phi0 * conj(phi0_dot)) r^2 dr,

which also fixes the Coulomb tail a0 ~ Q/(4*pi*r).  The charge-tail
subtraction removes chi(r - t) * Q/(4*pi*r) from a0, restoring r^-2 decay
of the data in the exterior.

GaussianProfile is the one data profile: the pipeline builds phi0 from it,
and the wave oracles take it as closed-form d'Alembert and Kirchhoff data.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import FieldState
from .grid import EVEN, RadialGrid, d_r, divergence_radial, simpson_integral


# ---------------------------------------------------------------------------
# the data profile

class GaussianProfile:
    """amplitude * exp(-(r/width)^2), with its derivative and the closed-form
    lambda-weighted antiderivative."""

    def __init__(self, amplitude=1.0, width=1.0):
        self.amplitude = amplitude
        self.width = width

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return self.amplitude * np.exp(-((r / self.width) ** 2))

    def d(self, r):
        r = np.asarray(r, dtype=float)
        return self(r) * (-2.0 * r / self.width ** 2)

    def lambda_antiderivative(self, x):
        """int_0^x lam * self(lam) dlam in closed form (d'Alembert velocity term)."""
        x = np.asarray(x, dtype=float)
        w2 = self.width ** 2
        return self.amplitude * 0.5 * w2 * (1.0 - np.exp(-(x ** 2) / w2))


@dataclass
class FreeData:
    """Free initial data; phi0_dot is the covariant datum D_0 phi(0)."""

    phi0: np.ndarray        # complex
    phi0_dot: np.ndarray    # complex

    def charge_density(self) -> np.ndarray:
        return np.imag(self.phi0 * np.conj(self.phi0_dot))


def smoothstep_quintic(x):
    """C^2 monotone ramp: 0 for x <= 0, 1 for x >= 1, 10x^3 - 15x^4 + 6x^5."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return x ** 3 * (10.0 - 15.0 * x + 6.0 * x ** 2)


@dataclass(frozen=True)
class CutoffChi:
    """Exterior cutoff: chi = 0 below lo, 1 above hi, quintic ramp between."""

    lo: float = 0.5
    hi: float = 1.0

    def __call__(self, x):
        return smoothstep_quintic((np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo))


# the cutoff of the Coulomb tail (coulomb_tail)
_CHI = CutoffChi()


# ---------------------------------------------------------------------------
# operations

def compute_charge(data: FreeData, grid: RadialGrid) -> float:
    """Conserved charge Q = 4*pi int Im(phi0 conj(phi0_dot)) r^2 dr,
    by composite Simpson on the grid."""
    q = 4.0 * np.pi * simpson_integral(data.charge_density() * grid.r ** 2, grid.h)
    return float(q)


def _tail_estimate(g: np.ndarray, grid: RadialGrid) -> float:
    """Bound int_{r_max}^inf g dr by fitting a local power law to g."""
    i1, i2 = int(0.9 * grid.n_cells), grid.n_cells
    g1, g2 = g[i1], g[i2]
    if g2 <= 0.0:
        return 0.0
    r1, r2 = grid.r[i1], grid.r[i2]
    if g1 <= g2:  # not decaying, no honest bound
        return float("inf")
    p = np.log(g1 / g2) / np.log(r2 / r1)
    if p <= 1.0:
        return float("inf")
    return float(g2 * r2 / (p - 1.0))


# largest truncated exterior tail of a0 that solve_a0 accepts, relative to max|a0|
_A0_TAIL_REL_TOL = 1e-8


def solve_a0(data: FreeData, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Temporal potential data from the constraints.

    With rho = Im(phi0 conj phi0_dot), the decaying solution of
    Lap a0 = -rho is

        a0(r) = (1/r) int_0^r rho s^2 ds + int_r^inf rho s ds,

    with the exterior integral truncated at r_max; a0_dot = div(omega ar)
    = 0, since ar = 0 at t = 0.  The truncated tail must be below
    _A0_TAIL_REL_TOL relative to max|a0|, otherwise the domain is too small.
    """
    r = grid.r
    rho = data.charge_density()
    m2 = _cumulative_moment(rho, r, 2)
    m1 = _cumulative_moment(rho, r, 1)
    m1_tail = m1[-1] - m1
    a0 = np.empty_like(rho)
    a0[1:] = m2[1:] / r[1:] + m1_tail[1:]
    a0[0] = m1_tail[0]
    tail = _tail_estimate(np.abs(rho * r), grid)
    scale = max(np.max(np.abs(a0)), 1e-300)
    if not (tail <= _A0_TAIL_REL_TOL * scale):
        raise ValueError(
            f"domain too small: exterior tail of a0 is {tail:.3e}, "
            f"tolerance {_A0_TAIL_REL_TOL * scale:.3e}; increase r_max")
    return a0, np.zeros_like(a0)


def _cumulative_moment(rho: np.ndarray, r: np.ndarray, power: int) -> np.ndarray:
    """Cumulative int_0^{r_j} rho(s) s^power ds, exact for the piecewise-
    quadratic interpolant of rho (Simpson-type node pairing).

    A plain trapezoid on rho * s^power has O(1) relative error near s = 0
    (the weight's curvature dominates the vanishing integral), which would
    wreck the discrete Gauss constraint at the origin; integrating the
    interpolant against the weight in closed form keeps uniform accuracy.
    """
    n = len(rho) - 1
    h = r[1] - r[0]
    incr = np.zeros(n)
    # quadratics through nodes i0, i0+1, i0+2 in xi = s - r[i0], one per node
    # pair; an odd interval count takes its last interval from the quadratic
    # through the last three nodes
    i0 = np.arange(0, n - 1, 2)
    if n % 2 == 1:
        i0 = np.append(i0, n - 2)
    a = rho[i0]
    b = (-3.0 * rho[i0] + 4.0 * rho[i0 + 1] - rho[i0 + 2]) / (2.0 * h)
    c = (rho[i0] - 2.0 * rho[i0 + 1] + rho[i0 + 2]) / (2.0 * h * h)
    x = r[i0]

    def seg(xi0, xi1):
        m = [(xi1 ** (k + 1) - xi0 ** (k + 1)) / (k + 1) for k in range(5)]
        s0 = a * m[0] + b * m[1] + c * m[2]
        s1 = a * m[1] + b * m[2] + c * m[3]
        s2 = a * m[2] + b * m[3] + c * m[4]
        if power == 1:
            return x * s0 + s1
        return x * x * s0 + 2.0 * x * s1 + s2

    pairs = n // 2
    incr[i0[:pairs]] = seg(0.0, h)[:pairs]
    incr[i0 + 1] = seg(h, 2.0 * h)
    out = np.empty_like(rho)
    out[0] = 0.0
    np.cumsum(incr, out=out[1:])
    return out


def build_admissible(data: FreeData, grid: RadialGrid
                     ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Electric field data and the Gauss-constraint residual.

    Returns (E, compat_residual, a0, a0_dot): E = -d_r a0 (d_t ar = 0), and
    compat_residual = sup |div(omega E) - Im(phi0 conj phi0_dot)|, which is
    O(h^2) for resolved data.  The magnetic part vanishes identically in
    spherical symmetry.
    """
    a0, a0_dot = solve_a0(data, grid)
    E = -d_r(a0, grid, EVEN)
    gauss = divergence_radial(E, grid) - data.charge_density()
    return E, float(np.max(np.abs(gauss))), a0, a0_dot


def assemble_state(data: FreeData, grid: RadialGrid) -> tuple[FieldState, float]:
    """Full Lorenz-gauge FieldState at t = 0 from free data, and its charge Q.

    The scalar time derivative is decoded from the covariant datum:
    d_t phi(0) = phi0_dot - i a0 phi0; ar = d_t ar = 0.
    """
    a0, a0_dot = solve_a0(data, grid)
    state = FieldState(
        t=0.0,
        phi=data.phi0.astype(complex),
        phi_t=data.phi0_dot.astype(complex) - 1j * a0 * data.phi0,
        a0=a0,
        a0_t=a0_dot,
        ar=np.zeros_like(a0),
        ar_t=np.zeros_like(a0),
    )
    state.validate(grid)
    return state, compute_charge(data, grid)


def coulomb_tail(t, r, Q: float) -> np.ndarray:
    """The cut-off Coulomb potential chi(r - t) Q/(4 pi r) at points (t, r);
    0 where chi = _CHI is (r - t <= 1/2), so regular at r = 0 for t >= 0."""
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(r, dtype=float))
    tail = np.zeros(r.shape)
    mask = r - t > _CHI.lo
    tail[mask] = _CHI(r[mask] - t[mask]) * Q / (4.0 * np.pi * r[mask])
    return tail


def subtract_charge_tail(state: FieldState, grid: RadialGrid,
                         Q: float) -> FieldState:
    """Remove the cut-off Coulomb potential coulomb_tail from a0."""
    return replace(state, a0=state.a0 - coulomb_tail(state.t, grid.r, Q))


def weighted_norm(f: np.ndarray, grid: RadialGrid, k: int, s0: float) -> float:
    """Weighted Sobolev norm (radial reduction) of an even field f.

    Returns sqrt( 4 pi sum_{j<=k} int (1+r^2)^(s0+j) |d_r^j f|^2 r^2 dr )
    with derivatives by repeated 2nd-order differencing.  If the integrand
    fails to decay at r_max the norm is reported as +inf.
    """
    r = grid.r
    total = 0.0
    g = np.asarray(f)
    par = EVEN
    for j in range(k + 1):
        w = (1.0 + r ** 2) ** (s0 + j)
        integrand = w * np.abs(g) ** 2 * r ** 2
        if integrand[-1] > 1e-14 * max(np.max(integrand), 1e-300):
            tail = _tail_estimate(integrand, grid)
            if not np.isfinite(tail):
                warnings.warn(
                    f"weighted_norm integrand not decaying at r_max "
                    f"(derivative order {j}, s0={s0}); returning inf",
                    RuntimeWarning)
                return float("inf")
        total += 4.0 * np.pi * simpson_integral(integrand, grid.h)
        g = d_r(g, grid, par)
        par = -par
    return float(np.sqrt(total))
