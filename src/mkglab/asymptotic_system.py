"""Integrator for the (q, s) asymptotic system and the weak-null certificate.

State: P(q) = d_q Phi and B_mu(q) = d_q A_mu on a uniform q grid, evolved in
the slow time s = ln r:

    d_s P    = -i A_L_param * P,
    d_s B_mu = (L_mu(omega)/2) * Im(Phi conj P),

with the good-component coefficient A_L_param held constant (its dynamical
value is Q/4pi).  Phi is reconstructed by integrating P downward from
q_max where Phi vanishes.  The decoupled system has closed-form solutions:
P rotates by the unit phase e^{-i A_L (s - s0)} (so |P| is exactly
preserved), Phi factorizes the same way, and the frame components of B
grow linearly in s with s-independent rates.  These exact features are
what the weak-null certificate measures.

integrate() works a block of steps at a time.  P needs neither B nor Phi,
so each RK4 step marches P alone and keeps its four stage inputs in a
(steps, 4, nq) block; P's arithmetic is the plain per-step RK4.  Phi and
the drive Im(Phi conj P) of every stage in the block then come from one
batched call, and B advances by (L_mu/2) (ds/6)(d1 + 2 d2 + 2 d3 + d4) per
step through a running sum of those drives.  The march takes whole steps
only: s_target must lie n * ds from the start, to 1e-9 relative as in
evolution.time_grid, or integrate raises ValueError naming the nearest
end it can reach.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


def null_vector_lower(omega: np.ndarray) -> np.ndarray:
    """L_mu(omega) = (-1, omega): the lowered null generator."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (3,):
        raise ValueError("omega must be a 3-vector")
    n = np.linalg.norm(omega)
    if abs(n - 1.0) > 1e-12:
        raise ValueError(f"omega must be a unit vector, |omega| = {n}")
    return np.array([-1.0, omega[0], omega[1], omega[2]])


def contract_L(components: np.ndarray, omega: np.ndarray):
    """A_L = A_0 + omega . A  (raised L against lowered components)."""
    return components[0] + omega @ components[1:]


def contract_Lbar(components: np.ndarray, omega: np.ndarray):
    """A_Lbar = A_0 - omega . A."""
    return components[0] - omega @ components[1:]


@dataclass
class AsymState:
    s: float
    q_grid: np.ndarray
    P: np.ndarray                 # complex, d_q Phi per q
    B: np.ndarray                 # real, shape (4, nq): d_q A_mu per q
    A_L_param: float
    omega: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        null_vector_lower(self.omega)  # validates unit omega

    @staticmethod
    def from_phi0(q_grid: np.ndarray, phi0: np.ndarray, A_L_param: float,
                  omega=(0.0, 0.0, 1.0)) -> "AsymState":
        """Initial state at s = 0 from a radiation profile Phi(q, s=0)."""
        dq = q_grid[1] - q_grid[0]
        P = np.gradient(np.asarray(phi0, dtype=complex), dq)
        return AsymState(s=0.0, q_grid=np.asarray(q_grid, dtype=float), P=P,
                         B=np.zeros((4, len(q_grid))), A_L_param=A_L_param,
                         omega=np.asarray(omega, dtype=float))

    def phi(self) -> np.ndarray:
        """Phi(q) = -int_q^{q_max} P, anchored at Phi(q_max) = 0."""
        return _cum_from_top(self.P, self.q_grid)

    def A_frame(self) -> dict:
        """Frame components of A_mu(q) = -int_q^{q_max} B_mu."""
        a = _cum_from_top(self.B, self.q_grid)
        return {
            "A_L": contract_L(a, self.omega),
            "A_Lbar": contract_Lbar(a, self.omega),
            "components": a,
        }

    def B_L(self):
        return contract_L(self.B, self.omega)


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


# RK4 steps whose stage drives are reduced in one batched call
_CHUNK = 4
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


def _slope(P: np.ndarray, c: complex, source_mode: str, out: np.ndarray) -> None:
    """d_s P into out: -i A_L P, or the negative control -i |P| P."""
    if source_mode == "standard":
        np.multiply(c, P, out=out)
    else:
        # negative control, not the physical system: phase speed |P|
        np.multiply(-1j * np.abs(P), P, out=out)


def integrate(state: AsymState, s_target: float, ds: float,
              source_mode: str = "standard",
              record_every: int | None = None) -> tuple[AsymState, list]:
    """RK4 march of the asymptotic system from state.s to s_target.

    s_target must lie a whole number of steps ds from state.s (_step_count).
    Returns the final state and, when record_every is set, a history of
    intermediate states (including the initial and final ones).
    """
    if source_mode not in ("standard", "non_null_control"):
        raise ValueError(f"unknown source mode {source_mode!r}")
    n = _step_count(state.s, s_target, ds)
    half_L = 0.5 * null_vector_lower(state.omega)[:, None]
    q = state.q_grid
    c = -1j * state.A_L_param
    P = state.P.copy()
    drive_sum = np.zeros(len(q))
    history = []
    if record_every:
        history.append(replace(state, P=P.copy(), B=state.B.copy()))
    m = max(1, min(_CHUNK, n))
    Y = np.empty((m, 4, len(q)), dtype=complex)     # stage inputs per step
    K = np.empty((4, len(q)), dtype=complex)        # stage slopes
    Phi = np.empty_like(Y)
    work = np.empty((m, 4, len(q) - 1), dtype=complex)
    for k0 in range(0, n, m):
        steps = min(m, n - k0)
        recorded = []
        for i in range(steps):
            y = Y[i]
            y[0] = P
            _slope(y[0], c, source_mode, K[0])
            np.add(P, 0.5 * ds * K[0], out=y[1])
            _slope(y[1], c, source_mode, K[1])
            np.add(P, 0.5 * ds * K[1], out=y[2])
            _slope(y[2], c, source_mode, K[2])
            np.add(P, ds * K[2], out=y[3])
            _slope(y[3], c, source_mode, K[3])
            P = P + ds / 6.0 * (K[0] + 2.0 * K[1] + 2.0 * K[2] + K[3])
            k = k0 + i + 1
            if record_every and (k % record_every == 0 or k == n):
                recorded.append((i, k, P.copy()))
        # d_s B = (L/2) Im(Phi conj P) at all 4 * steps stage inputs at once;
        # Y is conjugated in place, the next block overwrites it
        Ys, Phis = Y[:steps], Phi[:steps]
        _cum_from_top(Ys, q, out=Phis, work=work[:steps])
        d = np.multiply(Phis, np.conjugate(Ys, out=Ys), out=Phis).imag
        w = ds / 6.0 * (d[:, 0] + 2.0 * d[:, 1] + 2.0 * d[:, 2] + d[:, 3])
        w[0] += drive_sum
        np.cumsum(w, axis=0, out=w)
        drive_sum = w[-1]
        for i, k, Pk in recorded:
            history.append(replace(state, s=state.s + k * ds, P=Pk,
                                   B=state.B + half_L * w[i]))
    final = replace(state, s=state.s + n * ds, P=P, B=state.B + half_L * drive_sum)
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
    albar = np.stack([st.A_frame()["A_Lbar"] for st in states])  # (ns, nq)
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
    with residual below _AFFINE_TOL; (3) the good components B_L (and the
    tangential ones, identically zero here) are s-independent; (4) no
    blow-up: sup |P| stays bounded by twice its initial value.
    """
    if len(states) < 3:
        raise ValueError("certificate needs at least 3 recorded states")
    s_vals = np.array([st.s for st in states])
    p_sup = np.array([np.max(np.abs(st.P)) for st in states])
    mod_drift = float(np.max(np.abs(np.abs(states[-1].P) - np.abs(states[0].P))))
    blow_up = bool(np.any(p_sup > 2.0 * max(p_sup[0], 1e-300)) or
                   not np.all(np.isfinite(p_sup)))
    alb_sup = np.array([np.max(np.abs(st.A_frame()["A_Lbar"])) for st in states])
    A = np.vstack([s_vals, np.ones_like(s_vals)]).T
    coef, _, _, _ = np.linalg.lstsq(A, alb_sup, rcond=None)
    affine_resid = float(np.max(np.abs(alb_sup - A @ coef)))
    bl = np.stack([st.B_L() for st in states])
    bl_drift = float(np.max(np.abs(bl - bl[0])))
    passed = (mod_drift < _MODULUS_TOL and affine_resid < _AFFINE_TOL
              and not blow_up)
    return {
        "passed": bool(passed),
        "modulus_drift": mod_drift,
        "albar_affine_residual": affine_resid,
        "albar_slope": float(coef[0]),
        "B_L_drift": bl_drift,
        "blow_up": blow_up,
        "s_range": (float(s_vals[0]), float(s_vals[-1])),
        "ds": ds,
    }


def phase_factorization_error(state0: AsymState, state1: AsymState) -> float:
    """sup_q | Phi(s1) - e^{-i A_L (s1-s0)} Phi(s0) |, the RK4 error gauge."""
    rot = np.exp(-1j * state0.A_L_param * (state1.s - state0.s))
    return float(np.max(np.abs(state1.phi() - rot * state0.phi())))
