"""Integrator for the (q, s) asymptotic system and the weak-null certificate.

State: P(q) = d_q Phi and B_Lbar(q) = d_q A_Lbar, the bad null-frame
component of B_mu = d_q A_mu, on a uniform q grid, evolved in the slow
time s = ln r.  The four-vector equation d_s B_mu = (L_mu/2) Im(Phi conj P),
contracted with Lbar^mu = (1, -omega), gives

    d_s P      = -i A_L_param * P,
    d_s B_Lbar = (Lbar.L/2) Im(Phi conj P) = -Im(Phi conj P),

with the good-component coefficient A_L_param held constant (its dynamical
value is Q/4pi).  Lbar.L = -2 for every unit omega, so the state does not
depend on the direction omega.  The good component B_L is not marched: L
is null (L.L = 0), so its drive (L.L/2) Im(Phi conj P) vanishes and B_L
keeps its initial value.  Phi is reconstructed by integrating P downward
from q_max where Phi vanishes.  The decoupled system has closed-form
solutions: P rotates by the unit phase e^{-i A_L (s - s0)} (so |P| is
exactly preserved), Phi factorizes the same way, and B_Lbar grows linearly
in s with s-independent rates.  These exact features are what the
weak-null certificate measures.

integrate() works a block of steps at a time.  P needs neither B_Lbar nor
Phi, so each RK4 step marches P alone, in preallocated buffers, with the
arithmetic of the plain per-step RK4.  The B_Lbar drive is taken at each
step's starting P, for all steps of a block in one batched call, and
B_Lbar advances through a running sum of the scaled drives.  The slope
c P (c = -i A_L) is linear, so each stage input is alpha_j P with
alpha_0 = 1, alpha_1 = 1 + (ds/2) c, alpha_2 = 1 + (ds/2) c alpha_1 and
alpha_3 = 1 + ds c alpha_2; Phi is linear in P, so stage j's drive is
|alpha_j|^2 Im(Phi(P) conj P), and the RK4 sum
(ds/6)(d1 + 2 d2 + 2 d3 + d4) is that one drive times
(ds/6)(1 + 2|alpha_1|^2 + 2|alpha_2|^2 + |alpha_3|^2), exact up to
rounding.  The march takes whole steps only: s_target must lie n * ds from
the start, to 1e-9 relative as in evolution.time_grid, or integrate raises
ValueError naming the nearest end it can reach.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass
class AsymState:
    s: float
    q_grid: np.ndarray
    P: np.ndarray                 # complex, d_q Phi per q
    B_Lbar: np.ndarray            # real, d_q A_Lbar per q
    A_L_param: float

    @staticmethod
    def from_phi0(q_grid: np.ndarray, phi0: np.ndarray,
                  A_L_param: float) -> "AsymState":
        """Initial state at s = 0 from a radiation profile Phi(q, s=0)."""
        dq = q_grid[1] - q_grid[0]
        P = np.gradient(np.asarray(phi0, dtype=complex), dq)
        return AsymState(s=0.0, q_grid=np.asarray(q_grid, dtype=float), P=P,
                         B_Lbar=np.zeros(len(q_grid)), A_L_param=A_L_param)

    def phi(self) -> np.ndarray:
        """Phi(q) = -int_q^{q_max} P, anchored at Phi(q_max) = 0."""
        return _cum_from_top(self.P, self.q_grid)

    def A_Lbar(self) -> np.ndarray:
        """A_Lbar(q) = -int_q^{q_max} B_Lbar."""
        return _cum_from_top(self.B_Lbar, self.q_grid)


def _cum_from_top(f: np.ndarray, q: np.ndarray, out=None, work=None) -> np.ndarray:
    """g(q) = -int_q^{q_max} f dq' by the trapezoid rule, g(q_max) = 0.

    Works along the last axis, so a stack of profiles goes in one call;
    out (f's shape) and work (one q point shorter) are optional buffers.
    """
    dq = q[1] - q[0]
    incr = np.add(f[..., 1:], f[..., :-1], out=work)
    np.multiply(0.5 * dq, incr, out=incr)
    if out is None:
        out = np.empty_like(f)
    np.cumsum(incr[..., ::-1], axis=-1, out=out[..., -2::-1])
    flat = out.view(float)      # a complex out as (re, im) pairs
    np.negative(flat, out=flat)
    out[..., -1] = 0.0
    return out


# steps whose drives are reduced in one batched call
_CHUNK = 16
# the most RK4 steps one march may take (integrate refuses more)
_MAX_STEPS = 10 ** 7


def _step_count(s0: float, s_target: float, ds: float) -> int:
    """Number of steps ds from s0 that end exactly at s_target.

    A ratio (s_target - s0)/ds within 1e-9 (relative) of an integer counts
    as that integer, as in evolution.time_grid; any other ratio is an error
    that names the nearest end the march can reach, and so is a march of
    more than _MAX_STEPS steps.
    """
    if ds <= 0.0:
        raise ValueError("ds must be positive")
    ratio = (s_target - s0) / ds
    if ratio < 0.0:
        raise ValueError("s_target must be >= state.s")
    if ratio > _MAX_STEPS + 0.5:
        raise ValueError(
            f"(s_target - s) / ds = {ratio:.3g} steps exceeds the cap of "
            f"{_MAX_STEPS:.0e} steps; raise ds or lower s_target")
    n = int(round(ratio))
    if abs(ratio - n) > 1e-9 * ratio:
        raise ValueError(
            f"s_target = {s_target!r} is not a whole number of steps "
            f"ds = {ds!r} from s = {s0!r}; the nearest reachable end is "
            f"{s0 + n * ds:.15g}")
    return n


def integrate(state: AsymState, s_target: float, ds: float,
              record_every: int | None = None) -> tuple[AsymState, list]:
    """RK4 march of the asymptotic system from state.s to s_target.

    s_target must lie a whole number of steps ds from state.s (_step_count).
    Returns the final state and, when record_every is set, a history of
    intermediate states (including the initial and final ones).
    """
    n = _step_count(state.s, s_target, ds)
    q = state.q_grid
    nq = len(q)
    # a step's B_Lbar drive is scale * Im(Phi conj P) at its starting P
    cs = -1j * state.A_L_param
    a1 = 1.0 + 0.5 * ds * cs
    a2 = 1.0 + 0.5 * ds * cs * a1
    a3 = 1.0 + ds * cs * a2
    scale = ds / 6.0 * (1.0 + 2.0 * abs(a1) ** 2 + 2.0 * abs(a2) ** 2
                        + abs(a3) ** 2)
    # the march's scalars as 0-d complex arrays, the cheapest operand form
    # for a ufunc call; they give the same products as Python scalars
    c, hds, fds, ds6, two = (np.array(x, dtype=complex) for x in
                             (cs, 0.5 * ds, ds, ds / 6.0, 2.0))
    P = state.P.copy()
    drive_sum = np.zeros(nq)
    history = []
    if record_every:
        history.append(replace(state, P=P.copy(), B_Lbar=state.B_Lbar.copy()))
    m = max(1, min(_CHUNK, n))
    Y = np.empty((m, nq), dtype=complex)            # each step's starting P
    Phi = np.empty_like(Y)
    work = np.empty((m, nq - 1), dtype=complex)
    W = np.empty((m, nq))                           # drive per step
    K = tuple(np.empty((4, nq), dtype=complex))     # stage slopes
    T = np.empty(nq, dtype=complex)
    y1, y2, y3 = np.empty((3, nq), dtype=complex)   # later stage inputs
    for k0 in range(0, n, m):
        steps = min(m, n - k0)
        recorded = []
        for i in range(steps):
            np.copyto(Y[i], P)
            np.multiply(c, P, K[0])
            np.multiply(K[0], hds, T)
            np.add(P, T, y1)
            np.multiply(c, y1, K[1])
            np.multiply(K[1], hds, T)
            np.add(P, T, y2)
            np.multiply(c, y2, K[2])
            np.multiply(K[2], fds, T)
            np.add(P, T, y3)
            np.multiply(c, y3, K[3])
            # P += ds/6 (K0 + 2 K1 + 2 K2 + K3), summed left to right
            np.multiply(K[1], two, T)
            np.add(K[0], T, T)
            np.multiply(K[2], two, K[2])
            np.add(T, K[2], T)
            np.add(T, K[3], T)
            np.multiply(T, ds6, T)
            np.add(P, T, P)
            k = k0 + i + 1
            if record_every and (k % record_every == 0 or k == n):
                recorded.append((i, k, P.copy()))
        # the drive Im(Phi conj Y) of all steps at once; Y is conjugated in
        # place, the next block overwrites it
        Ys, Phis, w = Y[:steps], Phi[:steps], W[:steps]
        _cum_from_top(Ys, q, out=Phis, work=work[:steps])
        d = np.multiply(Phis, np.conjugate(Ys, out=Ys), out=Phis).imag
        np.multiply(d, scale, w)
        # running sum over the steps, row by row: np.cumsum along axis 0
        # takes twice as long at these sizes, with the same additions
        w[0] += drive_sum
        for prev, row in zip(w[:-1], w[1:]):
            np.add(prev, row, row)
        np.copyto(drive_sum, w[-1])
        for i, k, Pk in recorded:
            history.append(replace(state, s=state.s + k * ds, P=Pk,
                                   B_Lbar=state.B_Lbar - w[i]))
    final = replace(state, s=state.s + n * ds, P=P,
                    B_Lbar=state.B_Lbar - drive_sum)
    return final, history


def Albar_profile(states: list) -> dict:
    """Per-q linear regression of A_Lbar(q, s) against s.

    Returns slopes, intercepts, the max regression residual, and the
    predicted slope int_q^inf Im(Phi conj P) dq' evaluated from the first
    recorded state.
    """
    if len(states) < 3:
        raise ValueError("Albar_profile needs at least 3 recorded states")
    s_vals = np.array([st.s for st in states])
    albar = np.stack([st.A_Lbar() for st in states])  # (ns, nq)
    A = np.vstack([s_vals, np.ones_like(s_vals)]).T
    coef, _, _, _ = np.linalg.lstsq(A, albar, rcond=None)
    slopes, intercepts = coef[0], coef[1]
    resid = float(np.max(np.abs(albar - A @ coef)))
    st0 = states[0]
    j = np.imag(st0.phi() * np.conj(st0.P))
    predicted = -_cum_from_top(j, st0.q_grid)  # int_q^{q_max} j dq'
    return {"s": s_vals, "slopes": slopes, "intercepts": intercepts,
            "max_residual": resid, "predicted_slopes": predicted}


# weak_null_certificate's bounds on the drift of |P| and on the residual of
# the affine fit of sup_q |A_Lbar| in s
_MODULUS_TOL = 1e-10
_AFFINE_TOL = 1e-6


def weak_null_certificate(states: list, ds: float) -> dict:
    """Certify the weak-null behaviour over a recorded s history.

    Checks: (1) sup_q |P| drifts from its initial value by less than
    _MODULUS_TOL (exact invariant of the analytic flow, so drift is pure
    integrator error); (2) sup_q |A_Lbar| fits an affine function of s
    with residual below _AFFINE_TOL; (3) no blow-up: sup |P| stays
    bounded by twice its initial value.
    """
    if len(states) < 3:
        raise ValueError("certificate needs at least 3 recorded states")
    s_vals = np.array([st.s for st in states])
    p_sup = np.array([np.max(np.abs(st.P)) for st in states])
    mod_drift = float(np.max(np.abs(np.abs(states[-1].P) - np.abs(states[0].P))))
    blow_up = bool(np.any(p_sup > 2.0 * max(p_sup[0], 1e-300)) or
                   not np.all(np.isfinite(p_sup)))
    alb_sup = np.array([np.max(np.abs(st.A_Lbar())) for st in states])
    A = np.vstack([s_vals, np.ones_like(s_vals)]).T
    coef, _, _, _ = np.linalg.lstsq(A, alb_sup, rcond=None)
    affine_resid = float(np.max(np.abs(alb_sup - A @ coef)))
    passed = (mod_drift < _MODULUS_TOL and affine_resid < _AFFINE_TOL
              and not blow_up)
    return {
        "passed": bool(passed),
        "modulus_drift": mod_drift,
        "albar_affine_residual": affine_resid,
        "albar_slope": float(coef[0]),
        "blow_up": blow_up,
        "s_range": (float(s_vals[0]), float(s_vals[-1])),
        "ds": ds,
    }


def phase_factorization_error(state0: AsymState, state1: AsymState) -> float:
    """sup_q | Phi(s1) - e^{-i A_L (s1-s0)} Phi(s0) |, the RK4 error gauge."""
    rot = np.exp(-1j * state0.A_L_param * (state1.s - state0.s))
    return float(np.max(np.abs(state1.phi() - rot * state0.phi())))
