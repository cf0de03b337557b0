"""Shared quadrature helpers.

Fixed-order Gauss-Legendre rules, the one adaptive rule of the package
(globally adaptive Gauss-Legendre panels, used by the representation-formula
oracles), a product quadrature on the unit sphere, and the exact integral of
a tabulated source against the logarithmic null kernel
ln((eta+t+r)/(eta+t-r)), whose lower endpoint eta = r - t is log-singular.
The source is a table read through its linear interpolant, so that integral
is a sum of closed-form segment integrals of (a + b u) ln u; it is evaluated
for many (t, r) points in one array call.
"""
from __future__ import annotations

import functools

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


# the panel rule of adaptive_quad: Gauss-Legendre with 8 and 16 nodes, built
# on first use so that importing the package makes no LAPACK call
_PANEL_ORDER = 8
# bisections adaptive_quad makes before it gives up and raises
_MAX_BISECTIONS = 400


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] of the n- and 2n-node Gauss-Legendre rules together
    (n = _PANEL_ORDER), and the (3n, 2) weight matrix whose columns give the
    two sums (the rules share no node, so a panel costs 3n integrand values)."""
    n = _PANEL_ORDER
    x1, w1 = gauss_legendre(n)
    x2, w2 = gauss_legendre(2 * n)
    weights = np.zeros((3 * n, 2))
    weights[:n, 0], weights[n:, 1] = w1, w2
    return np.concatenate((x1, x2)), weights


def _panels(f, lo: np.ndarray, hi: np.ndarray):
    """Value and error of the rule pair on the panels [lo_k, hi_k].

    Returns (value, error, shape): value is the 2n-node sum and error
    |2n-node sum - n-node sum|, both (panels, components), and shape is the
    shape of one value of f.
    """
    x, w = _panel_rule()
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * x
    y = np.asarray(f(nodes.ravel()))
    if y.ndim == 0:
        y = np.full(nodes.size, y)
    sums = ((y.reshape(-1, *nodes.shape) @ w).transpose(1, 0, 2)
            * half[:, None, None])
    return sums[..., 1], np.abs(sums[..., 1] - sums[..., 0]), y.shape[:-1]


def adaptive_quad(f, a: float, b: float, points=(), abs_tol: float = 1e-10,
                  rel_tol: float = 1e-10):
    """int_a^b f(x) dx (a <= b finite) by globally adaptive Gauss-Legendre panels.

    f takes a 1-D array of nodes and returns an array, real or complex,
    whose last axis runs over the nodes; the result has the shape of the
    other axes (a float or complex for a scalar integrand).  The breakpoints
    in points that lie inside (a, b) start the panels; put every kink or
    jump of f there.  Each panel is integrated with the n- and 2n-node
    Gauss-Legendre rules; it contributes the 2n-node value and, as its
    error, the difference of the two.  While the summed error of some
    component exceeds max(abs_tol, rel_tol |integral|), the panel with the
    largest error relative to that bound is bisected, both halves in one
    call of f.  Raises RuntimeError on a non-finite integrand value and
    when _MAX_BISECTIONS bisections do not reach the tolerance: it never
    returns a result that missed it.
    """
    if not a <= b:
        raise ValueError(f"adaptive_quad needs finite a <= b, got a={a}, b={b}")
    inner = np.unique([p for p in points if a < p < b])
    edges = np.concatenate(([a], inner, [b])).astype(float)
    val, err, shape = _panels(f, edges[:-1], edges[1:])
    n = len(edges) - 1
    # panel k is [lo[k], hi[k]]; rows n and on are filled by bisections
    lo = np.concatenate((edges[:-1], np.empty(_MAX_BISECTIONS)))
    hi = np.concatenate((edges[1:], np.empty(_MAX_BISECTIONS)))
    spare = (_MAX_BISECTIONS, val.shape[1])
    vals = np.concatenate((val, np.empty(spare, val.dtype)))
    errs = np.concatenate((err, np.empty(spare)))
    for bisections in range(_MAX_BISECTIONS + 1):
        total = vals[:n].sum(axis=0)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        err = errs[:n].sum(axis=0)
        if (err <= tol).all():
            return total.reshape(shape)[()]
        if not np.isfinite(err).all():
            raise RuntimeError(f"adaptive_quad on [{a}, {b}]: non-finite "
                               "integrand value")
        if bisections == _MAX_BISECTIONS:
            break
        k = (errs[:n] / np.where(tol > 0.0, tol, 1.0)).max(axis=1).argmax()
        mid = 0.5 * (lo[k] + hi[k])
        lo[n], hi[n], hi[k] = mid, hi[k], mid
        val, err, _ = _panels(f, lo[[k, n]], hi[[k, n]])
        vals[[k, n]], errs[[k, n]] = val, err
        n += 1
    raise RuntimeError(
        f"adaptive_quad on [{a}, {b}]: error estimate {np.max(err):.3e} above "
        f"its tolerance {np.min(tol):.3e} after {_MAX_BISECTIONS} bisections")


# Below d = L/u2 = 1/4 the closed forms of _log_hat_weights cancel, and
# their power series, truncated after 24 terms, is exact to rounding.
_SERIES_BELOW = 0.25
_M = np.arange(1.0, 25.0)
_P_SERIES = np.concatenate(([0.0], 1.0 / (_M * (_M + 2.0))))
_S_SERIES = np.concatenate(([0.0], -1.0 / (_M * (_M + 1.0) * (_M + 2.0))))
# points x segments per block of integrate_log_kernel: 32 KB temporaries
_BLOCK = 4096


def _log_hat_weights(u1, u2, length):
    """Integrals of ln u against the two hat functions of segments [u1, u2].

    Returns (a, b) with a = int (u2-u)/L ln u du and b = int (u-u1)/L ln u du
    over [u1, u2], where L = length = u2 - u1 and 0 <= u1 < u2.  With
    d = L/u2 and y = u1/u2 = 1 - d they are exactly

        a = L (ln(u2)/2 - p(d)),  p(d) = 1/(2d) + 1/4 + (1+d) y ln(y) / (2d^2)
                                       = sum_{m>=1} d^m / (m (m+2)),
        b = L (ln(u2)/2 + s(d)),  s(d) = 1/(2d) - 3/4 + y^2 ln(y) / (2d^2)
                                       = -sum_{m>=1} d^m / (m (m+1) (m+2)),

    with 0 ln 0 = 0 at the log zero u1 = 0 (d = 1: p = 3/4, s = -1/4).
    L is passed separately because u2 - u1 loses digits when the u are far
    from 0; the segment length itself is known to rounding.
    """
    d = length / u2
    p = np.polynomial.polynomial.polyval(d, _P_SERIES)
    s = np.polynomial.polynomial.polyval(d, _S_SERIES)
    near = d >= _SERIES_BELOW     # the few segments next to the log zero
    if np.any(near):
        dn = d[near]
        y = u1[near] / u2[near]
        ylny = np.where(y > 0.0, y * np.log(y), 0.0)
        c = ylny / (2.0 * dn * dn)
        p[near] = 0.5 / dn + 0.25 + (1.0 + dn) * c
        s[near] = 0.5 / dn - 0.75 + y * c
    half_log = 0.5 * np.log(u2)
    return length * (half_log - p), length * (half_log + s)


def integrate_log_kernel(q_grid, J, t, r) -> np.ndarray:
    """int_{r-t}^{q_grid[-1]} J(eta) ln((eta+t+r)/(eta+t-r)) deta, exactly.

    J(eta) is the linear interpolant of the table (q_grid, J), zero outside
    it.  t and r are arrays (broadcast against each other); the result has
    their shape.  On each segment the two logs are ln u with
    u = eta + t + r and u = eta - (r - t), and the segment integral is the
    table's end values times the hat-function weights of _log_hat_weights.
    The log zero u = 0 sits at the lower limit q_lo = r - t: the segment
    holding q_lo is cut there, so q_lo may fall anywhere, a table node or a
    few ulps off one included.  Points are taken in blocks so no temporary
    exceeds _BLOCK elements.
    """
    q = np.asarray(q_grid, dtype=float)
    J = np.asarray(J, dtype=float)
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float),
                               np.asarray(r, dtype=float))
    t_flat, r_flat = t.ravel(), r.ravel()
    out = np.zeros(t_flat.shape)
    q_left, q_right = q[:-1], q[1:]
    slope = np.diff(J) / np.diff(q)
    rows = max(1, _BLOCK // len(q_left))
    for i in range(0, len(out), rows):
        tb = t_flat[i:i + rows, None]
        rb = r_flat[i:i + rows, None]
        q_lo, shift = rb - tb, tb + rb
        lo = np.clip(q_lo, q_left, q_right)   # segment starts cut at q_lo
        length = q_right - lo
        j_lo = J[:-1] + slope * (lo - q_left)
        # 0 ln 0 at the log zero and the segments wholly below q_lo, which
        # have length 0 and no defined weights, divide by zero in passing
        with np.errstate(divide="ignore", invalid="ignore"):
            a_plus, b_plus = _log_hat_weights(lo + shift, q_right + shift,
                                              length)
            a_minus, b_minus = _log_hat_weights(lo - q_lo, q_right - q_lo,
                                                length)
            seg = j_lo * (a_plus - a_minus) + J[1:] * (b_plus - b_minus)
        out[i:i + rows] = np.sum(np.where(length > 0.0, seg, 0.0), axis=1)
    return out.reshape(t.shape)


def sphere_quadrature(n_mu: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Product Gauss-Legendre (cos theta) x uniform (azimuth) rule on S^2.

    Returns (omega, weights) with omega of shape (n_mu*n_phi, 3); weights
    sum to 4*pi.
    """
    mu, wmu = gauss_legendre(n_mu)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    wphi = 2.0 * np.pi / n_phi
    smu = np.sqrt(1.0 - mu ** 2)
    omega = np.empty((n_mu * n_phi, 3))
    weights = np.empty(n_mu * n_phi)
    k = 0
    for i in range(n_mu):
        omega[k:k + n_phi, 0] = smu[i] * np.cos(phi)
        omega[k:k + n_phi, 1] = smu[i] * np.sin(phi)
        omega[k:k + n_phi, 2] = mu[i]
        weights[k:k + n_phi] = wmu[i] * wphi
        k += n_phi
    return omega, weights


def sphere_integral_adaptive(f, abs_tol: float = 1e-8, n_start: int = 16,
                             n_max: int = 1024) -> float:
    """Integrate f(omega) over S^2, doubling the mu-order until stable.

    f takes an (m, 3) array of unit vectors and returns m values.
    """
    n = n_start
    omega, w = sphere_quadrature(n, max(4, n // 2))
    prev = float(np.dot(w, f(omega)))
    while n <= n_max:
        n *= 2
        omega, w = sphere_quadrature(n, max(4, n // 2))
        cur = float(np.dot(w, f(omega)))
        if abs(cur - prev) < abs_tol:
            return cur
        prev = cur
    raise RuntimeError(
        f"sphere quadrature did not reach {abs_tol} by mu-order {n_max}")
