"""Construction of admissible Lorenz-gauge initial data.

Free data is (phi0, phi0_dot, ar0, ar0_dot) where phi0_dot is the covariant
datum D_0 phi(0).  The temporal potential is then fixed by the constraints

    Lap a0 = div(adot) - Im(phi0 * conj(phi0_dot)),   a0_dot = div(a),

solved as the decaying radial Newtonian potential.  The conserved charge is

    Q = 4*pi * int_0^inf Im(phi0 * conj(phi0_dot)) r^2 dr,

which also fixes the Coulomb tail a0 ~ Q/(4*pi*r).  The charge-tail
subtraction removes chi(r - t) * Q/(4*pi*r) from a0, restoring r^-2 decay
of the data in the exterior.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import FieldState
from .grid import EVEN, RadialGrid, d_r, divergence_radial, simpson_integral


# ---------------------------------------------------------------------------
# profiles

class Profile:
    """Radial profile with an optional analytic derivative."""

    def __call__(self, r):
        raise NotImplementedError

    def d(self, r):
        """Derivative; default is the 2nd-order two-point central difference."""
        r = np.asarray(r, dtype=float)
        eps = 1e-5 * max(1.0, float(np.max(np.abs(r))) if r.size else 1.0)
        return (self(r + eps) - self(r - eps)) / (2.0 * eps)


class GaussianProfile(Profile):
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


class PolyGaussianProfile(Profile):
    """amplitude * r^m * exp(-(r/width)^2); odd m gives an odd profile."""

    def __init__(self, amplitude=1.0, power=1, width=1.0):
        self.amplitude = amplitude
        self.power = power
        self.width = width

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return self.amplitude * r ** self.power * np.exp(-((r / self.width) ** 2))

    def d(self, r):
        r = np.asarray(r, dtype=float)
        g = np.exp(-((r / self.width) ** 2))
        m = self.power
        if m == 0:
            poly = -2.0 * r / self.width ** 2
        else:
            poly = m * r ** (m - 1) - 2.0 * r ** (m + 1) / self.width ** 2
        return self.amplitude * poly * g


class BumpProfile(Profile):
    """Compactly supported C^inf bump on [0, radius)."""

    def __init__(self, amplitude=1.0, radius=1.0):
        self.amplitude = amplitude
        self.radius = radius

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        x = r / self.radius
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = self.amplitude * np.exp(-1.0 / (1.0 - x[inside] ** 2) + 1.0)
        return out


class TableProfile(Profile):
    """Two-column (r, value) table with linear interpolation, zero outside."""

    def __init__(self, r, values):
        self.r_tab = np.asarray(r, dtype=float)
        self.v_tab = np.asarray(values, dtype=float)
        if self.r_tab.ndim != 1 or self.r_tab.shape != self.v_tab.shape:
            raise ValueError("table profile wants matching 1-D columns")

    @staticmethod
    def from_file(path) -> "TableProfile":
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"profile file {path} must have two columns (r, value)")
        return TableProfile(data[:, 0], data[:, 1])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.interp(r, self.r_tab, self.v_tab, left=0.0, right=0.0)


@dataclass
class FreeData:
    """Free initial data; phi0_dot is the covariant datum D_0 phi(0)."""

    phi0: np.ndarray        # complex
    phi0_dot: np.ndarray    # complex
    ar0: np.ndarray         # real, odd
    ar0_dot: np.ndarray     # real, odd

    def charge_density(self) -> np.ndarray:
        return np.imag(self.phi0 * np.conj(self.phi0_dot))


@dataclass(frozen=True)
class ChargeValue:
    Q: float
    truncation_estimate: float = 0.0


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


# ---------------------------------------------------------------------------
# operations

def compute_charge(data: FreeData, grid: RadialGrid) -> ChargeValue:
    """Conserved charge Q = 4*pi int Im(phi0 conj(phi0_dot)) r^2 dr.

    Composite Simpson on the grid; the domain-truncation error is estimated
    from the fitted power-law decay of the integrand near r_max.
    """
    rho = data.charge_density()
    q = 4.0 * np.pi * simpson_integral(rho * grid.r ** 2, grid.h)
    tail = _tail_estimate(np.abs(rho * grid.r ** 2), grid)
    return ChargeValue(Q=float(q), truncation_estimate=4.0 * np.pi * tail)


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


def solve_a0(data: FreeData, grid: RadialGrid, tail_rel_tol: float = 1e-8
             ) -> tuple[np.ndarray, np.ndarray]:
    """Temporal potential data from the constraints.

    With rho = Im(phi0 conj phi0_dot) - div(omega ar0_dot), the decaying
    solution of Lap a0 = -rho is

        a0(r) = (1/r) int_0^r rho s^2 ds + int_r^inf rho s ds,

    with the exterior integral truncated at r_max; a0_dot = div(omega ar0)
    evaluated with the discrete divergence.  The truncated tail must be
    below tail_rel_tol relative to max|a0|, otherwise the domain is too
    small.
    """
    r, h = grid.r, grid.h
    rho = data.charge_density() - divergence_radial(data.ar0_dot, grid)
    m2 = _cumulative_moment(rho, r, 2)
    m1 = _cumulative_moment(rho, r, 1)
    m1_tail = m1[-1] - m1
    a0 = np.empty_like(rho)
    a0[1:] = m2[1:] / r[1:] + m1_tail[1:]
    a0[0] = m1_tail[0]
    tail = _tail_estimate(np.abs(rho * r), grid)
    scale = max(np.max(np.abs(a0)), 1e-300)
    if not (tail <= tail_rel_tol * scale):
        raise ValueError(
            f"domain too small: exterior tail of a0 is {tail:.3e}, "
            f"tolerance {tail_rel_tol * scale:.3e}; increase r_max")
    a0_dot = divergence_radial(data.ar0, grid)
    return a0, a0_dot


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

    def pair_increments(i0):
        # quadratic through nodes i0, i0+1, i0+2 in xi = s - r[i0]
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
        return seg(0.0, h), seg(h, 2.0 * h)

    i0 = np.arange(0, n - 1, 2)
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

    incr[i0] = seg(0.0, h)
    incr[i0 + 1] = seg(h, 2.0 * h)
    if n % 2 == 1:
        # odd interval count: quadratic through the last three nodes
        lo, hi = pair_increments(n - 2)
        incr[n - 1] = hi
    out = np.empty_like(rho)
    out[0] = 0.0
    np.cumsum(incr, out=out[1:])
    return out


def build_admissible(data: FreeData, grid: RadialGrid
                     ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Electric field data and the Gauss-constraint residual.

    Returns (E, compat_residual, a0, a0_dot): E = ar0_dot - d_r a0, and
    compat_residual = sup |div(omega E) - Im(phi0 conj phi0_dot)|, which is
    O(h^2) for resolved data.  The magnetic part vanishes identically in
    spherical symmetry.
    """
    a0, a0_dot = solve_a0(data, grid)
    E = data.ar0_dot - d_r(a0, grid, EVEN)
    gauss = divergence_radial(E, grid) - data.charge_density()
    return E, float(np.max(np.abs(gauss))), a0, a0_dot


def assemble_state(data: FreeData, grid: RadialGrid) -> tuple[FieldState, ChargeValue]:
    """Full Lorenz-gauge FieldState at t = 0 from free data.

    The scalar time derivative is decoded from the covariant datum:
    d_t phi(0) = phi0_dot - i a0 phi0.
    """
    a0, a0_dot = solve_a0(data, grid)
    state = FieldState(
        t=0.0,
        phi=data.phi0.astype(complex),
        phi_t=data.phi0_dot.astype(complex) - 1j * a0 * data.phi0,
        a0=a0,
        a0_t=a0_dot,
        ar=data.ar0.astype(float),
        ar_t=data.ar0_dot.astype(float),
    )
    state.validate(grid)
    return state, compute_charge(data, grid)


def subtract_charge_tail(state: FieldState, grid: RadialGrid, Q: ChargeValue,
                         chi: CutoffChi = CutoffChi()) -> FieldState:
    """Remove the cut-off Coulomb potential chi(r - t) Q/(4 pi r) from a0.

    chi vanishes for r - t < 1/2, so the subtraction is regular at r = 0
    for all t >= 0.
    """
    r = grid.r
    coul = np.zeros_like(state.a0)
    mask = r - state.t > chi.lo
    coul[mask] = chi(r[mask] - state.t) * Q.Q / (4.0 * np.pi * r[mask])
    return replace(state, a0=state.a0 - coul)


def weighted_norm(f: np.ndarray, grid: RadialGrid, k: int, s0: float,
                  parity: int = EVEN) -> float:
    """Weighted Sobolev norm (radial reduction).

    Returns sqrt( 4 pi sum_{j<=k} int (1+r^2)^(s0+j) |d_r^j f|^2 r^2 dr )
    with derivatives by repeated 2nd-order differencing.  If the integrand
    fails to decay at r_max the norm is reported as +inf.
    """
    r = grid.r
    total = 0.0
    g = np.asarray(f)
    par = parity
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


def coulomb_capped_profile(Q: float, r_cap: float = 1.0):
    """Static potential Q/(4 pi r) smoothly capped inside r < r_cap.

    Used for pure-Coulomb validation states: quadratic match keeps a0 C^1.
    """
    def f(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        far = r >= r_cap
        out[far] = Q / (4.0 * np.pi * r[far])
        # parabola a - b r^2 matched to value and slope at r_cap
        a = 3.0 * Q / (8.0 * np.pi * r_cap)
        b = Q / (8.0 * np.pi * r_cap ** 3)
        out[~far] = a - b * r[~far] ** 2
        return out
    return f
