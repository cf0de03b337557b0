"""Reference solvers and decay certifiers for the radial wave equation.

Independent of the finite-difference evolution: everything here is built
from representation formulas and quadrature, so it can serve as an oracle.

For -Box phi = F (Box = -d_t^2 + Lap) with vanishing data and radial F the
solution obeys (d_t^2 - d_r^2)(r phi) = r F, and integrating in the null
coordinates xi = t + r, eta = t - r over the backwards characteristic
triangle gives

    (r phi)(t, r) = (1/4) int_{t-r}^{t+r} int_{-xi}^{t-r}
                        rho F(s, rho) deta dxi,
    s = (xi + eta)/2,  rho = (xi - eta)/2,

where the eta lower limit reflects sources supported in s >= 0.  Radial
homogeneous data is propagated either by the d'Alembert formula for
r phi or by Kirchhoff's sphere mean reduced to a 1-D integral; the two
must agree, which is one of the standing cross checks.  The d'Alembert
velocity term int lam h(lam) dlam uses h.lambda_antiderivative when h has
one (data_builder.GaussianProfile does, in closed form) and
quadrature.adaptive_quad otherwise.  The adaptive paths (that velocity
term, Kirchhoff without a fixed order, the double integral without
fast=True) all run on quadrature.adaptive_quad; the double integral takes
the eta integrals of all xi nodes of a panel pair in one array-valued call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import jbracket
from .quadrature import adaptive_quad, gauss_legendre


@dataclass
class RadialSource:
    """Source F(t, r) with a declared decay envelope.

    decay_C, decay_delta declare |F| <= C / ((1+r)(1+t+r)(1+|t-r|)^(1+delta)).
    verify_envelope samples the claim; callers may skip it for manufactured
    sources that only live on a compact window.
    """

    F: callable
    decay_C: float = 1.0
    decay_delta: float = 1.0

    def envelope(self, t, r):
        return self.decay_C / ((1.0 + r) * (1.0 + t + r)
                               * (1.0 + np.abs(t - r)) ** (1.0 + self.decay_delta))

    def verify_envelope(self, t_max: float = 50.0, r_max: float = 50.0,
                        n: int = 40) -> float:
        """Max of |F|/envelope over a sample grid (should be <= 1)."""
        ts = np.linspace(0.0, t_max, n)
        rs = np.linspace(1e-3, r_max, n)
        T, R = np.meshgrid(ts, rs, indexing="ij")
        vals = np.abs(self.F(T, R)) / self.envelope(T, R)
        return float(np.max(vals))


def solve_inhom_radial(source: RadialSource, t: float, r: float,
                       abs_tol: float = 1e-8, fast: bool = False) -> float:
    """Zero-data solution of -Box phi = F at (t, r) via the double integral.

    The prefactor is 1/4 in (xi, eta) variables, as fixed by the
    manufactured-solution gate (see tests).  fast=True switches to a
    fixed-order Gauss-Legendre product rule, used by the envelope sweeps
    where many points are needed at modest accuracy.
    """
    if t < 0.0 or r <= 0.0:
        raise ValueError("solve_inhom_radial wants t >= 0, r > 0")
    F = source.F
    lo, hi = t - r, t + r

    if fast:
        nx, ne = 96, 96
        x, wx = gauss_legendre(nx)
        xi = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        wxi = 0.5 * (hi - lo) * wx
        y, wy = gauss_legendre(ne)
        total = 0.0
        for k in range(nx):
            e_lo, e_hi = -xi[k], lo
            if e_hi <= e_lo:
                continue
            eta = 0.5 * (e_hi + e_lo) + 0.5 * (e_hi - e_lo) * y
            weta = 0.5 * (e_hi - e_lo) * wy
            s = 0.5 * (xi[k] + eta)
            rho = 0.5 * (xi[k] - eta)
            total += wxi[k] * np.dot(weta, rho * F(s, rho))
        return float(total / (4.0 * r))

    def inner(xi):
        # eta = -xi + length u, u in [0, 1]; zero where the triangle is empty
        length = np.maximum(lo + xi, 0.0)[:, None]

        def f(u):
            eta = length * u - xi[:, None]
            s = 0.5 * (xi[:, None] + eta)
            rho = 0.5 * (xi[:, None] - eta)
            return length * rho * F(s, rho)
        return adaptive_quad(f, 0.0, 1.0, abs_tol=abs_tol, rel_tol=1e-10)

    val = adaptive_quad(inner, lo, hi, points=[-lo], abs_tol=abs_tol,
                        rel_tol=1e-10)
    return float(val / (4.0 * r))


def dalembert_free(g, h, t: float, r, g_prime=None):
    """Radial d'Alembert solution with data phi(0) = g, d_t phi(0) = h.

    r phi = ((r-t) g(|r-t|) + (r+t) g(r+t))/2 + (1/2) int_{|r-t|}^{r+t}
    lam h(lam) dlam.  g and h take |x| >= 0; h may be None (taken as 0)
    or complex-valued.  r > 0; vectorized in r.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0.0):
        raise ValueError("dalembert_free wants r > 0")
    rphi = 0.5 * ((r_arr - t) * g(np.abs(r_arr - t)) + (r_arr + t) * g(r_arr + t))
    rphi = rphi.astype(complex)
    if h is not None:
        hint = getattr(h, "lambda_antiderivative", None)
        if hint is not None:
            # analytic H(x) = int_0^x lam h(lam) dlam when available
            rphi += 0.5 * (hint(r_arr + t) - hint(np.abs(r_arr - t)))
        else:
            vals = [adaptive_quad(lambda lam: lam * h(lam), abs(ri - t), ri + t,
                                  abs_tol=1e-12, rel_tol=1e-12) for ri in r_arr]
            rphi += 0.5 * np.array(vals)
    out = rphi / r_arr
    if np.isscalar(r) or np.ndim(r) == 0:
        return complex(out[0])
    return out


def kirchhoff_eval(w0, w1, t: float, x_norm: float, w0_prime=None,
                   abs_tol: float = 1e-10, points=None,
                   order: int | None = None) -> float:
    """Kirchhoff's formula for radial data, reduced to a mu-integral.

    w = (1/4pi) oint [ t w1(|x + t omega|) + t <grad w0, omega> + w0 ] dS.
    With rho = |x + t omega| = sqrt(r^2 + t^2 + 2 r t mu) the sphere mean
    collapses to (1/2) int_{-1}^{1} ... dmu.  w0_prime is required when
    w0 is nonzero and carries no analytic derivative of its own.  w0, w1
    and w0_prime take arrays of rho.  The mu integral is adaptive, with the
    breakpoints points (put a jump of the data there); order switches to a
    fixed Gauss-Legendre rule (smooth data only).
    """
    r = float(x_norm)
    if w0_prime is None and w0 is not None:
        w0_prime = getattr(w0, "d", None)

    def integrand(mu):
        rho = np.sqrt(np.maximum(r * r + t * t + 2.0 * r * t * mu, 0.0))
        out = 0.0
        if w1 is not None:
            out = out + t * w1(rho)
        if w0 is not None:
            rho_safe = np.maximum(rho, 1e-300)
            out = out + t * w0_prime(rho) * (r * mu + t) / rho_safe + w0(rho)
        return out

    if order is not None:
        x, w = gauss_legendre(order)
        return float(0.5 * np.dot(w, integrand(x)))
    val = adaptive_quad(integrand, -1.0, 1.0, points=() if points is None else points,
                        abs_tol=abs_tol, rel_tol=1e-12)
    return float(0.5 * val)


# ---------------------------------------------------------------------------
# decay-bound certification

BOUND_IDS = ("logest1", "logest2", "logest3", "homoest")


def _s0_appendix(t, r):
    """Appendix variant of the log weight, (t/r) ln(<t+r>/<t-r>)."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = t / r * np.log(jbracket(t + r) / jbracket(t - r))
    return np.where(r == 0.0, 2.0 * t * t / (1.0 + t * t), val)


def bound_envelope(bound_id: str, t, r, params: dict):
    """Pointwise envelope for |phi| asserted by the named estimate."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    qp = np.maximum(r - t, 0.0)
    qm = np.maximum(t - r, 0.0)
    if bound_id == "logest1":
        delta = params["delta"]
        if delta <= 0:
            raise ValueError("logest1 requires delta > 0")
        return _s0_appendix(t, r) / ((1.0 + t + r) * (1.0 + qp) ** delta)
    if bound_id == "logest2":
        dm, dp, mu = params["delta_minus"], params["delta_plus"], params["mu"]
        if not (0.0 < dm < mu and dm <= dp):
            raise ValueError(
                f"logest2 hypotheses need 0 < delta_- < mu and delta_- <= delta_+; "
                f"got delta_-={dm}, delta_+={dp}, mu={mu}")
        return 1.0 / ((1.0 + t + r) * (1.0 + qp) ** dp * (1.0 + qm) ** dm)
    if bound_id == "logest3":
        dm, dp, mu = params["delta_minus"], params["delta_plus"], params["mu"]
        if not (0.0 < mu < dm <= dp):
            raise ValueError(
                f"logest3 hypotheses need 0 < mu < delta_- <= delta_+; "
                f"got delta_-={dm}, delta_+={dp}, mu={mu}")
        q = np.abs(r - t)
        return 1.0 / ((1.0 + t + r) * (1.0 + q) ** mu * (1.0 + qp) ** (dp - mu))
    if bound_id == "homoest":
        gamma = params["gamma"]
        if not (0.0 < gamma < 1.0):
            raise ValueError("homoest requires 0 < gamma < 1")
        return 1.0 / ((1.0 + t + r) * (1.0 + np.abs(r - t)) ** gamma)
    raise ValueError(f"unknown bound id {bound_id!r}; known: {BOUND_IDS}")


def verify_decay_bound(samples, bound_id: str, params: dict) -> tuple[float, tuple]:
    """Observed envelope constant over solution samples.

    samples: iterable of (t, r, value).  Returns (C_observed, argmax_point)
    where C_observed = sup |value| / envelope(t, r).  Pass/fail at the
    caller's level means C stays stable when the sample domain grows.
    """
    best, arg = 0.0, None
    for (t, r, v) in samples:
        env = float(bound_envelope(bound_id, t, r, params))
        if env <= 0.0:
            continue
        c = abs(v) / env
        if c > best:
            best, arg = c, (t, r)
    return best, arg
