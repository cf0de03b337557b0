"""Uniform radial grid on [0, r_max] and parity-aware finite differencing.

All fields live on the nodes r_i = i*h, i = 0..n_cells, h = r_max/n_cells.
Regularity at the origin is encoded through parity: even fields (phi, a0)
satisfy f(-r) = f(r), the radial vector component ar is odd, ar(0) = 0.
Stencils are 2nd-order centered in the interior, one-sided 2nd-order at
r_max, and parity ghost values at r = 0.

The Laplacian of an even field is d_rr + (2/r) d_r, that of the radial
vector component d_rr + (2/r) d_r - 2/r^2.  Their interior rows come from
two coefficient tables per grid: the even one (n_nodes - 2 rows, c_0 a
scalar), which differences a0, and an interleaved one with three values
per node, the vector row and then the even row twice, which differences
(ar, Re phi, Im phi) stored node by node in one stencil.  The
stencils and d_r are lists of ufunc calls on fixed operands
(_three_point_ops, _d_r_ops), which d_r runs once per call and evolution's
RHS plan binds once per run.  Every boundary row is one _row_* function
shared by both.  A row reads and returns Python floats, a complex value as
its (re, im) pair, and spells out numpy's scalar rounding: a real factor x
acts as x + 0j, and a division by a real x multiplies by 1/x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EVEN = +1
ODD = -1

# ray samples and radiation-table points lie below this fraction of r_max,
# clear of the outer boundary rows
DOMAIN_FRAC = 0.95


def _in_domain(x, grid: RadialGrid):
    """Whether radii x lie in the extraction domain 4h < x < DOMAIN_FRAC r_max."""
    return (x > 4.0 * grid.h) & (x < DOMAIN_FRAC * grid.r_max)


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

    @staticmethod
    def problems(r_max: float, n_cells: int, ghost_count: int = 2) -> list[str]:
        """Every bound these values break, each message led by its field."""
        errs = []
        if not r_max > 0:
            errs.append(f"r_max must be positive, got {r_max}")
        if n_cells < 16:
            errs.append(f"n_cells must be >= 16, got {n_cells}")
        if ghost_count < 2:
            errs.append(f"ghost_count must be >= 2, got {ghost_count}")
        return errs

    def __post_init__(self):
        errs = self.problems(self.r_max, self.n_cells, self.ghost_count)
        if errs:
            raise ValueError("; ".join(errs))
        h = self.h
        n = self.n_nodes
        r = np.arange(n) * h
        r.flags.writeable = False
        object.__setattr__(self, "_r", r)
        # interior rows c_- f_{i-1} + c_0 f_i + c_+ f_{i+1} of both Laplacians
        # in the nested form c_0 (f_i + (c_+/c_0) (f_{i+1} + (c_-/c_+) f_{i-1})),
        # which _three_point_ops evaluates in its output buffer alone.  Each
        # table is (c_-/c_+, c_+/c_0, c_0) over the rows 1..n-2
        ri = r[1:-1]
        minus_over_plus = (ri - h) / (ri + h)
        c_plus = 1.0 / (h * h) + 1.0 / (h * ri)
        c0_even = -2.0 / (h * h)
        c0_vec = c0_even - 2.0 / (ri * ri)
        object.__setattr__(self, "_even", (
            minus_over_plus, c_plus / c0_even, np.array(c0_even)))
        # per node (ar, Re phi, Im phi): the vector row, then the even one twice
        table = np.empty((3, n - 2, 3))
        table[0] = minus_over_plus[:, None]
        table[1, :, 0], table[1, :, 1:] = c_plus / c0_vec, self._even[1][:, None]
        table[2, :, 0], table[2, :, 1:] = c0_vec, c0_even
        object.__setattr__(self, "_interleaved", tuple(table.reshape(3, -1)))

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


def _three_point_ops(f: np.ndarray, out: np.ndarray, table: tuple,
                     m: int = 1) -> list:
    """Interior rows of a three-point stencil as ufunc calls (fn, args).

    f and out are float64 arrays of m values per node (m = 2 for interleaved
    complex values, m = 3 for evolution's (ar, Re phi, Im phi)); the rows
    are computed in out[m:-m] alone, from the table's (c_-/c_+, c_+/c_0,
    c_0), each an array over those values or a scalar.
    """
    minus_over_plus, plus_over_c0, c0 = table
    o = out[m:-m]
    return [(np.multiply, (f[:-2 * m], minus_over_plus, o)),
            (np.add, (o, f[2 * m:], o)),
            (np.multiply, (o, plus_over_c0, o)),
            (np.add, (o, f[m:-m], o)),
            (np.multiply, (o, c0, o))]


def _d_r_ops(f: np.ndarray, out: np.ndarray, h: float) -> list:
    """Interior rows of d_r, (f_{i+1} - f_{i-1}) / (2h), as ufunc calls."""
    o = out[1:-1]
    if f.dtype == np.complex128:
        # times 1/(2h) is bit for bit numpy's complex / real, and faster
        scale = (np.multiply, (o, np.array(complex(1.0 / (2.0 * h))), o))
    else:
        scale = (np.true_divide, (o, np.array(2.0 * h), o))
    return [(np.subtract, (f[2:], f[:-2], o)), scale]


def _run(ops: list) -> None:
    """Make the ufunc calls (fn, args) of ops in order."""
    for fn, args in ops:
        fn(*args)


def _ends(out: np.ndarray, first: tuple, last: tuple) -> np.ndarray:
    """Write the boundary rows first and last (Python floats) into out."""
    o = out.view(np.float64)
    o[:len(first)] = first
    o[len(o) - len(last):] = last
    return out


# boundary rows: v holds the samples a row reads, as Python floats, one per
# node of a real field and (re, im) per node of a complex one

def _scale(x: float, a: float, b: float) -> tuple:
    """x (a + ib) for a real x, rounded as numpy rounds (x + 0j)(a + ib)."""
    return x * a - 0.0 * b, x * b + 0.0 * a


def _over(a: float, b: float, x: float) -> tuple:
    """(a + ib) / x for a real x > 0, as numpy divides: by the reciprocal."""
    s = 1.0 / x
    return (a + b * 0.0) * s, (b - a * 0.0) * s


def _row_lap_origin(v: list, h: float) -> tuple:
    """Row 0 of the even Laplacian, 6 (f_1 - f_0) / h^2, the l'Hopital
    limit 3 f''(0) to 2nd order, from v = f_0, f_1."""
    if len(v) == 2:
        return (6.0 * (v[1] - v[0]) / (h * h),)
    return _over(*_scale(6.0, v[2] - v[0], v[3] - v[1]), h * h)


def _row_d_r_origin(v: list, parity: int, h: float) -> tuple:
    """Row 0 of d_r through the parity ghost f_{-1} = parity f_1, v = f_1."""
    if len(v) == 1:
        return ((v[0] - parity * v[0]) / (2.0 * h),)
    g = _scale(parity, *v)
    return _over(v[0] - g[0], v[1] - g[1], 2.0 * h)


def _one_sided(v: list) -> tuple:
    """3 f_n - 4 f_{n-1} + f_{n-2} from v = f_{n-2}, f_{n-1}, f_n."""
    if len(v) == 3:
        return (3.0 * v[2] - 4.0 * v[1] + v[0],)
    p, q = _scale(3.0, v[4], v[5]), _scale(4.0, v[2], v[3])
    return p[0] - q[0] + v[0], p[1] - q[1] + v[1]


def _row_d_r_outer(v: list, h: float) -> tuple:
    """Row n of d_r, one-sided 2nd order, from v = f_{n-2}, f_{n-1}, f_n."""
    num = _one_sided(v)
    if len(num) == 1:
        return (num[0] / (2.0 * h),)
    return _over(*num, 2.0 * h)


def _row_sommerfeld(v: list, h: float, r_max: float) -> tuple:
    """The outgoing-wave row u_tt = -d_r u_t - u_t / r at r_max, with the
    one-sided d_r, from v = u_t at nodes n-2, n-1, n."""
    num = _one_sided(v)
    if len(num) == 1:
        return (-num[0] / (2.0 * h) - v[2] / r_max,)
    a, b = _over(-num[0], -num[1], 2.0 * h)
    c = _over(v[4], v[5], r_max)
    return a - c[0], b - c[1]


def _tail(f: np.ndarray, k: int) -> list:
    """The last k node values of f as a row's samples."""
    v = f.view(np.float64)
    return v[len(v) - k * (f.itemsize // 8):].tolist()


def d_r(f: np.ndarray, grid: RadialGrid, parity: int) -> np.ndarray:
    """First radial derivative, 2nd order (centered interior, one-sided at r_max)."""
    f = np.ascontiguousarray(f, dtype=np.result_type(f, np.float64))
    out = np.empty_like(f)
    h = grid.h
    _run(_d_r_ops(f, out, h))
    m = f.itemsize // 8
    return _ends(out, _row_d_r_origin(f.view(np.float64)[m:2 * m].tolist(),
                                      parity, h),
                 _row_d_r_outer(_tail(f, 3), h))


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
