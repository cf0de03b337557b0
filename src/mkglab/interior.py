"""Interior (timelike-infinity) asymptotics of the potential.

The asymptotic source concentrated on the light cone is
J_mu(q, omega) = L_mu(omega) j(q) with j = Im(Phi0 conj d_q Phi0) and
L_mu = (-1, omega).  Its interior imprint is the homogeneous profile

    K_mu(y) = (1/4pi) int dq int_S2 J_mu(q, omega) / (1 - <y, omega>) dS,

so that t A_mu(t, t y) -> K_mu(y) for |y| < 1.  The angular integrals
reduce to closed forms through the identity (|x| < a)

    int_S2 dS(omega) / (a - <x, omega>) = (2 pi / |x|) ln((a+|x|)/(a-|x|)),

and the explicit wave approximations A^ex (with the cutoff _CHI0) and
A^ex,inf bridge the exact potential to K_mu with quantified differences.
The q integral of A^ex runs on quadrature.adaptive_quad, both components
in one array-valued call, with breakpoints at q = 0 and at the nodes of a
tabulated source; the kernels above are elementwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_builder import smoothstep_quintic
from .grid import RadialGrid, interp_values
from .quadrature import adaptive_quad, sphere_integral_adaptive

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True)
class CutoffChi0:
    """Smooth decreasing cutoff: 1 for x <= lo, 0 for x >= hi (quintic)."""

    lo: float = 0.5
    hi: float = 0.75

    def __call__(self, x):
        return 1.0 - smoothstep_quintic((np.asarray(x, dtype=float) - self.lo)
                                        / (self.hi - self.lo))


# the cutoff of A^ex's q integral, and the absolute tolerance of that integral
_CHI0 = CutoffChi0()
_A_EX_ABS_TOL = 1e-8


@dataclass
class AsymSource:
    """Tabulated scalar source j(q); the four-vector is L_mu(omega) j(q)."""

    q_grid: np.ndarray
    j: np.ndarray

    def j_of(self, q):
        return np.interp(q, self.q_grid, self.j, left=0.0, right=0.0)

    def mass(self) -> float:
        """M = int j dq."""
        return float(np.trapezoid(self.j, self.q_grid))

    def breakpoints(self) -> np.ndarray:
        """The q where j_of is not smooth: the nodes of its interpolant."""
        return self.q_grid

    def support_bounds(self) -> tuple[float, float]:
        big = np.abs(self.j) > 1e-12 * max(np.max(np.abs(self.j)), 1e-300)
        if not np.any(big):
            return 0.0, 0.0
        idx = np.where(big)[0]
        return float(self.q_grid[idx[0]]), float(self.q_grid[idx[-1]])


class CallableSource:
    """A source with AsymSource's methods, backed by an analytic j(q) with
    known support instead of a table.

    Used by oracle checks where a tabulated interpolant would smear
    discontinuous profiles.
    """

    def __init__(self, j_func, q_support: tuple[float, float]):
        self._func = j_func
        self._support = q_support

    def j_of(self, q):
        q = np.asarray(q, dtype=float)
        lo, hi = self._support
        return np.where((q >= lo) & (q <= hi), self._func(q), 0.0)

    def mass(self) -> float:
        return float(adaptive_quad(self._func, *self._support,
                                   abs_tol=1e-13, rel_tol=1e-12))

    def breakpoints(self) -> np.ndarray:
        return np.empty(0)

    def support_bounds(self) -> tuple[float, float]:
        return self._support


def _kernel_domain(a, x_norm):
    """(a, |x|) as arrays, once 0 <= |x| < a holds everywhere."""
    a, x = np.asarray(a, dtype=float), np.asarray(x_norm, dtype=float)
    if not np.all((0.0 <= x) & (x < a)):
        raise ValueError(f"angular kernel needs 0 <= |x| < a, got |x|={x_norm}, a={a}")
    return a, x


def angular_kernel_integral(a, x_norm):
    """int_S2 dS(omega)/(a - <x, omega>) = (2 pi/|x|) ln((a+|x|)/(a-|x|)).

    Valid for 0 <= |x| < a; the |x| -> 0 limit is 4 pi / a.  Elementwise
    over arrays a and x_norm; scalars give a scalar.
    """
    a, x = _kernel_domain(a, x_norm)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(x < 1e-6 * a,
                       FOUR_PI / a * (1.0 + x ** 2 / (3.0 * a ** 2)),
                       2.0 * np.pi / x * np.log((a + x) / (a - x)))
    return val[()]


def angular_kernel_vector(a, x_norm):
    """int_S2 <xhat, omega>/(a - <x, omega>) dS, the spatial companion.

    Closed form 2 pi [ -2/|x| + (a/|x|^2) ln((a+|x|)/(a-|x|)) ]; the
    |x| -> 0 limit vanishes like (4 pi/3) |x| / a^2.  Elementwise like
    angular_kernel_integral.
    """
    a, x = _kernel_domain(a, x_norm)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(x < 1e-6 * a, FOUR_PI / 3.0 * x / a ** 2,
                       2.0 * np.pi * (-2.0 / x
                                      + a / x ** 2 * np.log((a + x) / (a - x))))
    return val[()]


def angular_kernel_quadrature(a: float, x_norm: float,
                              abs_tol: float = 1e-8) -> float:
    """Independent S^2 product-quadrature path for angular_kernel_integral."""
    x = np.array([0.0, 0.0, x_norm])
    return sphere_integral_adaptive(lambda omega: 1.0 / (a - omega @ x),
                                    abs_tol=abs_tol)


def K_mu(y_norm: float, source: AsymSource) -> tuple[float, float]:
    """Interior limit profile (K_0, K_radial) at |y| = y_norm < 1.

    Closed forms (spherically symmetric source, L_0 = -1, L_j = omega_j):
        K_0 = -(M / 2|y|) ln((1+|y|)/(1-|y|)),
        K_r = (M/4pi) * [2 pi (-2/|y| + ln(..)/|y|^2)].
    The S^2 integrals are angular_kernel_integral and angular_kernel_vector
    at a = 1; angular_kernel_quadrature is the scalar one's independent
    cross check.
    """
    if not (0.0 <= y_norm < 1.0):
        raise ValueError(f"K_mu needs |y| < 1, got {y_norm}")
    M = source.mass()
    k0 = -M / FOUR_PI * angular_kernel_integral(1.0, y_norm)
    kr = M / FOUR_PI * angular_kernel_vector(1.0, y_norm)
    return float(k0), float(kr)


def eval_A_ex(t: float, x_norm: float, source: AsymSource) -> tuple[float, float]:
    """Explicit near solution A^ex_mu (temporal, radial components).

    A^ex_mu(t,x) = int_{|x|-t}^inf (1/4pi) [int_S2 J_mu/(t+q-<x,omega>) dS]
                   chi0(<q>/(t+|x|)) dq,
    with chi0 = _CHI0.  The angular integral per q is the closed form with
    a = t + q, valid since a > |x| strictly inside the q range; the
    integrable log singularity of the scalar kernel at the lower endpoint
    is split off analytically.  The q integral is adaptive, to the absolute
    tolerance _A_EX_ABS_TOL.
    """
    if t < 1.0:
        raise ValueError("eval_A_ex is defined for t >= 1")
    q_lo = x_norm - t
    q_min, q_max = source.support_bounds()
    lo = max(q_lo, q_min)
    hi = q_max
    if hi <= lo:
        return 0.0, 0.0
    tx = t + x_norm

    def integrand(q):
        # the kernels raise where a = t + q <= |x|
        w = source.j_of(q) * _CHI0(np.sqrt(1.0 + q * q) / tx) / FOUR_PI
        return np.stack((-w * angular_kernel_integral(t + q, x_norm),
                         w * angular_kernel_vector(t + q, x_norm)))

    points = [p for p in (0.0, *source.breakpoints()) if lo < p < hi]
    if abs(lo - q_lo) < 1e-12:
        # endpoint log singularity: integrate with the substitution
        # q = q_lo + u^2 which regularizes ln(q - q_lo)
        a0v, arv = adaptive_quad(lambda u: 2.0 * u * integrand(lo + u * u),
                                 0.0, np.sqrt(hi - lo),
                                 points=[np.sqrt(p - lo) for p in points],
                                 abs_tol=_A_EX_ABS_TOL, rel_tol=1e-12)
    else:
        a0v, arv = adaptive_quad(integrand, lo, hi, points=points,
                                 abs_tol=_A_EX_ABS_TOL, rel_tol=1e-12)
    return float(a0v), float(arv)


def eval_A_ex_infty(t: float, x_norm: float, source: AsymSource
                    ) -> tuple[float, float]:
    """A^ex,inf_mu: the q-independent kernel 1/(t - <x, omega>).

    Equals (1/t) K_mu(x/t) by homogeneity; implemented directly through the
    a = t closed forms so the homogeneity identity is a real cross check.
    """
    if x_norm >= t:
        raise ValueError(f"eval_A_ex_infty needs |x| < t, got |x|={x_norm}, t={t}")
    M = source.mass()
    a0v = -M / FOUR_PI * angular_kernel_integral(t, x_norm)
    arv = M / FOUR_PI * angular_kernel_vector(t, x_norm)
    return float(a0v), float(arv)


def chain_difference_report(t_list, c: float, source: AsymSource,
                            s: float) -> dict:
    """|A^ex - A^ex,inf| at r = c t against the Lemma-type envelope.

    envelope(t) = t^-1 <t-r>^(1-2s) (1 + ln((t+r)/(t-r))).  Reports the
    per-t differences, envelope constants, the log-log fitted decay
    exponent, and the slope of ln(C) against ln(t) (flat means the bound
    is saturated uniformly).
    """
    rows = []
    for t in t_list:
        r = c * t
        a0_ex, ar_ex = eval_A_ex(t, r, source)
        a0_inf, ar_inf = eval_A_ex_infty(t, r, source)
        diff = max(abs(a0_ex - a0_inf), abs(ar_ex - ar_inf))
        tmr = np.sqrt(1.0 + (t - r) ** 2)
        env = (1.0 / t) * tmr ** (1.0 - 2.0 * s) * (1.0 + np.log((t + r) / (t - r)))
        rows.append({"t": t, "r": r, "diff": diff, "envelope": env,
                     "C": diff / env})
    if len(rows) >= 2:
        logt = np.log([row["t"] for row in rows])
        logd = np.log([max(row["diff"], 1e-300) for row in rows])
        exponent = float(np.polyfit(logt, logd, 1)[0])
        logC = np.log([max(row["C"], 1e-300) for row in rows])
        c_slope = float(np.polyfit(logt, logC, 1)[0])
    else:
        exponent = c_slope = float("nan")
    return {"rows": rows, "fitted_exponent": exponent, "C_log_slope": c_slope}


def interior_limit_check(slices, grid: RadialGrid, source: AsymSource,
                         y_list) -> list[dict]:
    """Simulated t A_mu(t, t|y|) against K_mu(y) from the extracted source.

    One row per y of y_list and per slice of the sequence slices, y outer
    and the slices in their order, each at its slice's own t: simulated
    values, predictions and absolute errors of the raw potential (the
    charge-tail correction only matters in the exterior r > t).  Callers
    assert the error decreases in t.  A point beyond r_max raises
    ValueError (interp_values).
    """
    out = []
    for y in y_list:
        k0, kr = K_mu(y, source)
        for st in slices:
            r_pt = y * st.t
            a0 = float(interp_values(st.a0, grid, r_pt)[0])
            ar = float(interp_values(st.ar, grid, r_pt)[0])
            out.append({
                "y": y, "t": st.t,
                "tA0_sim": st.t * a0, "K0_pred": k0,
                "abs_err0": abs(st.t * a0 - k0),
                "tAr_sim": st.t * ar, "Kr_pred": kr,
                "abs_errr": abs(st.t * ar - kr),
            })
    return out
