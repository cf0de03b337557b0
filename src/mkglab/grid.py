"""Uniform radial grid on [0, r_max] and parity-aware finite differencing.

All fields live on the nodes r_i = i*h, i = 0..n_cells, h = r_max/n_cells.
Regularity at the origin is encoded through parity: even fields (phi, a0)
satisfy f(-r) = f(r), the radial vector component ar is odd, ar(0) = 0.
Stencils are 2nd-order centered in the interior, one-sided 2nd-order at
r_max, and parity ghost values at r = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EVEN = +1
ODD = -1


@dataclass(frozen=True)
class RadialGrid:
    """Uniform 1-D radial grid.

    Attributes:
        r_max: outer radius of the domain
        n_cells: number of cells; there are n_cells + 1 nodes
        ghost_count: ghost nodes available to boundary stencils (>= 2)

    The node radii r and the interior stencil coefficients are computed once,
    at construction; r is read-only.
    """

    r_max: float
    n_cells: int
    ghost_count: int = 2

    def __post_init__(self):
        if self.n_cells < 16:
            raise ValueError(f"n_cells must be >= 16, got {self.n_cells}")
        if self.r_max <= 0:
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if self.ghost_count < 2:
            raise ValueError(f"ghost_count must be >= 2, got {self.ghost_count}")
        h = self.h
        r = np.arange(self.n_nodes) * h
        r.flags.writeable = False
        object.__setattr__(self, "_r", r)
        # interior rows c_- f_{i-1} + c_0 f_i + c_+ f_{i+1} of both Laplacians
        # in the nested form c_0 (f_i + (c_+/c_0) (f_{i+1} + (c_-/c_+) f_{i-1})),
        # which _three_point evaluates in its output buffer alone
        ri = r[1:-1]
        c_plus = 1.0 / (h * h) + 1.0 / (h * ri)
        c0_even = -2.0 / (h * h)
        c0_vec = c0_even - 2.0 / (ri * ri)
        minus_over_plus = (ri - h) / (ri + h)
        stencils = {"even": (minus_over_plus, c_plus / c0_even, c0_even),
                    "vector": (minus_over_plus, c_plus / c0_vec, c0_vec)}
        # per_node = 2: each array repeated for interleaved (re, im) values
        object.__setattr__(self, "_stencils", {
            1: stencils,
            2: {kind: tuple(c if np.isscalar(c) else np.repeat(c, 2) for c in cs)
                for kind, cs in stencils.items()}})

    @property
    def h(self) -> float:
        return self.r_max / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def r(self) -> np.ndarray:
        """Node radii i*h (read-only, shared by every caller)."""
        return self._r

    def contains(self, x: float) -> bool:
        return 0.0 <= x <= self.r_max


def _out_like(f: np.ndarray, out: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """f as a contiguous float64/complex128 array, and the output buffer."""
    f = np.ascontiguousarray(f, dtype=np.result_type(f, np.float64))
    if out is None:
        out = np.empty_like(f)
    elif out.dtype != f.dtype or out.shape != f.shape:
        raise ValueError(f"out must be a {f.dtype} array of shape {f.shape}, "
                         f"got {out.dtype} {out.shape}")
    return f, out


def _three_point(f: np.ndarray, out: np.ndarray, grid: RadialGrid,
                 kind: str) -> None:
    """Interior rows of a Laplacian stencil, computed in out[1:-1] alone.

    Complex arrays are differenced as interleaved (re, im) float64 values, so
    every ufunc sees contiguous float64 operands and never casts.
    """
    m = 1
    if f.dtype == np.complex128:
        f, out, m = f.view(np.float64), out.view(np.float64), 2
    minus_over_plus, plus_over_c0, c0 = grid._stencils[m][kind]
    o = out[m:-m]
    np.multiply(f[:-2 * m], minus_over_plus, out=o)
    o += f[2 * m:]
    o *= plus_over_c0
    o += f[m:-m]
    o *= c0


def d_r(f: np.ndarray, grid: RadialGrid, parity: int,
        out: np.ndarray | None = None) -> np.ndarray:
    """First radial derivative, 2nd order (centered interior, one-sided at r_max).

    Writes into out when given (same dtype and shape as f) and returns it.
    """
    f, out = _out_like(f, out)
    h = grid.h
    o = out[1:-1]
    np.subtract(f[2:], f[:-2], out=o)
    if f.dtype == np.complex128:
        o *= 1.0 / (2.0 * h)    # bit for bit numpy's complex / real, faster
    else:
        o /= 2.0 * h
    # node 0 via parity ghost f[-1] = parity*f[1]
    out[0] = (f[1] - parity * f[1]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def laplacian_even(f: np.ndarray, grid: RadialGrid,
                   out: np.ndarray | None = None) -> np.ndarray:
    """3-D radial Laplacian d_rr + (2/r) d_r of an even scalar field.

    At r = 0 the l'Hopital limit (2/r) d_r f -> 2 d_rr f gives
    Lap f(0) = 3 f''(0) = 6 (f_1 - f_0)/h^2 to 2nd order.  Writes into out
    when given (same dtype and shape as f) and returns it.
    """
    f, out = _out_like(f, out)
    h = grid.h
    r = grid.r
    _three_point(f, out, grid, "even")
    out[0] = 6.0 * (f[1] - f[0]) / (h * h)
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h) \
        + (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h) * (2.0 / r[-1])
    return out


def laplacian_radial_vector(f: np.ndarray, grid: RadialGrid,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Radial component of the vector Laplacian acting on A_j = omega_j f(r).

    Equals d_rr f + (2/r) d_r f - 2 f / r^2; odd parity forces f(0) = 0 and
    the whole expression vanishes at r = 0 (odd functions map to odd).
    Writes into out when given (same dtype and shape as f) and returns it.
    """
    f, out = _out_like(f, out)
    h = grid.h
    r = grid.r
    _three_point(f, out, grid, "vector")
    out[0] = 0.0
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h) \
        + (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h) * (2.0 / r[-1]) \
        - 2.0 * f[-1] / (r[-1] * r[-1])
    return out


def divergence_radial(f: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """div of the radial vector field omega_j f(r): (1/r^2) d_r (r^2 f).

    Expanded as d_r f + 2 f / r; at the origin the odd-parity limit is
    3 f'(0).
    """
    r = grid.r
    df = d_r(f, grid, ODD)
    out = np.empty_like(f)
    out[1:] = df[1:] + 2.0 * f[1:] / r[1:]
    out[0] = 3.0 * df[0]
    return out


def interp_values(f: np.ndarray, grid: RadialGrid, x: np.ndarray) -> np.ndarray:
    """Cubic (4-point Lagrange) interpolation of nodal values at radii x.

    Error is O(h^4) for smooth f.  x must lie inside [0, r_max].
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0) or np.any(x > grid.r_max):
        bad = x[(x < 0.0) | (x > grid.r_max)]
        raise ValueError(f"interpolation points outside [0, {grid.r_max}]: {bad[:4]}")
    h = grid.h
    j = np.floor(x / h).astype(int)
    j = np.clip(j, 1, grid.n_cells - 2)
    # local coordinate in units of h relative to node j
    s = x / h - j
    ym1 = f[j - 1]
    y0 = f[j]
    y1 = f[j + 1]
    y2 = f[j + 2]
    # Lagrange weights on nodes {-1, 0, 1, 2}
    wm1 = -s * (s - 1.0) * (s - 2.0) / 6.0
    w0 = (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0
    w1 = -(s + 1.0) * s * (s - 2.0) / 2.0
    w2 = (s + 1.0) * s * (s - 1.0) / 6.0
    return wm1 * ym1 + w0 * y0 + w1 * y1 + w2 * y2


def interp_value(f: np.ndarray, grid: RadialGrid, x: float):
    """Scalar convenience wrapper around interp_values."""
    return interp_values(f, grid, np.array([x]))[0]


def simpson_integral(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule on uniformly spaced samples.

    Falls back to a trapezoid on the last interval when the count is even.
    """
    y = np.asarray(y)
    n = len(y) - 1
    if n < 2:
        return float(np.real_if_close(0.5 * h * (y[0] + y[-1]))) if n == 1 else 0.0
    if n % 2 == 1:
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        core = h / 3.0 * np.dot(w, y[:-1])
        return float(core + 0.5 * h * (y[-2] + y[-1]))
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(w, y))
