"""Radiation extraction along outgoing null rays r = t + q.

The scalar radiation field carries a charge-driven logarithmic phase:

    Phi_0(q) = lim_{t->inf} ( r e^{i (Q/4pi) ln(1+r)} phi )(t, t+q),

while r A_L -> Q/(4 pi) and the bad component needs a log subtraction,

    A_Lbar^mod(t, r) = A_Lbar - (1/2r) int_{r-t}^inf J_Lbar(eta)
                        ln((eta + t + r)/(eta + t - r)) deta,

with the asymptotic source J_Lbar(q) = -2 Im(Phi_0 conj d_q Phi_0).
Limits are estimated by the last sampled value with Cauchy-increment error
bars; no extrapolation.  The radiation table is built column by column in
array calls; its A_Lbar^mod column integrates the tabulated J_Lbar against
the log kernel exactly (quadrature.integrate_log_kernel).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import jbracket
from .grid import RadialGrid, _in_domain, interp_values
from .quadrature import integrate_log_kernel


@dataclass
class RaySample:
    """Samples of one outgoing ray at a fixed retarded coordinate q = r - t."""

    q: float
    t: np.ndarray
    r: np.ndarray
    A_L: np.ndarray
    rphi: np.ndarray      # complex

    def __post_init__(self):
        drift = np.max(np.abs((self.r - self.t) - self.q)) if len(self.t) else 0.0
        if drift > 1e-9:
            raise ValueError(f"ray samples drift off q={self.q}: max |r-t-q| = {drift}")


@dataclass
class LimitEstimate:
    value: complex
    err_est: float
    converged: bool
    increments: np.ndarray
    diagnostic: str = ""


@dataclass
class RadiationTable:
    """Sampled radiation data on a uniform q grid."""

    q: np.ndarray
    Phi0: np.ndarray
    J_Lbar: np.ndarray
    A_Lbar_mod: np.ndarray

    def j_scalar(self) -> np.ndarray:
        """j(q) = Im(Phi0 conj d_q Phi0) = -J_Lbar / 2."""
        return -0.5 * self.J_Lbar


def sample_ray(slices: dict, grid: RadialGrid, q: float) -> RaySample:
    """Build a RaySample from stored full-resolution time slices.

    slices: mapping {label: FieldState}; every slice is interpolated at
    r = t + q (cubic, O(h^4)).  Rays that exit the safe domain are
    truncated.
    """
    ts, rs, als, phis = [], [], [], []
    for st in sorted(slices.values(), key=lambda s: s.t):
        x = st.t + q
        if not _in_domain(x, grid):
            continue
        a0 = float(interp_values(st.a0, grid, x)[0])
        ar = float(interp_values(st.ar, grid, x)[0])
        ph = complex(interp_values(st.phi, grid, x)[0])
        ts.append(st.t)
        rs.append(x)
        als.append(a0 + ar)
        phis.append(ph)
    ts, rs, phis = np.array(ts), np.array(rs), np.array(phis)
    return RaySample(q=q, t=ts, r=rs, A_L=np.array(als), rphi=rs * phis)


def charge_phase(Q: float, r):
    """The corrective phase e^{i (Q/4pi) ln(1+r)}."""
    return np.exp(1j * (Q / (4.0 * np.pi)) * np.log1p(np.asarray(r, dtype=float)))


# samples a limit estimate needs: two Cauchy increments
LIMIT_SAMPLES = 3


def _limit_from_sequence(values: np.ndarray) -> LimitEstimate:
    """Last-value limit with Cauchy increments as the error estimate."""
    values = np.asarray(values)
    if len(values) < LIMIT_SAMPLES:
        raise ValueError(f"limit estimation needs at least {LIMIT_SAMPLES} samples")
    inc = np.abs(np.diff(values))
    err = float(inc[-1])
    converged = bool(inc[-1] <= inc[0] + 1e-300) and not np.any(np.isnan(inc))
    diag = ""
    if inc[-1] > inc[0]:
        diag = ("no-limit: Cauchy increments increase "
                f"({inc[0]:.3e} -> {inc[-1]:.3e})")
    return LimitEstimate(value=complex(values[-1]), err_est=err,
                         converged=converged, increments=inc, diagnostic=diag)


def extract_phi0(ray: RaySample, Q: float) -> LimitEstimate:
    """Phase-corrected scalar radiation value along the ray.

    The expected Cauchy rate is <t+r>^(1/2 - (s+gamma)); the increments are
    returned so callers can test it.  A non-decreasing increment sequence
    is flagged in the diagnostic, never silently dropped.
    """
    corrected = ray.rphi * charge_phase(Q, ray.r)
    return _limit_from_sequence(corrected)


def extract_AL_limit(ray: RaySample) -> LimitEstimate:
    """Limit of r A_L along the ray; Theorem target is Q/(4 pi)."""
    est = _limit_from_sequence(ray.r * ray.A_L)
    est.value = complex(est.value).real
    return est


def phase_slope_fit(ray_r: np.ndarray, rphi: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of unwrapped arg(r phi) against ln(1+r).

    Returns (slope, r2).  The slope estimates -Q/(4 pi).  Raises when r phi
    vanishes on the window or the phase is undersampled (a jump of more
    than pi between consecutive samples).
    """
    rphi = np.asarray(rphi)
    if np.any(np.abs(rphi) == 0.0):
        raise ValueError("phase_slope_fit: |r phi| not bounded away from 0 "
                         "on the fit window")
    raw = np.angle(rphi)
    jumps = np.abs(np.diff(raw))
    jumps = np.minimum(jumps, 2.0 * np.pi - jumps)
    # wrapped jumps close to pi cannot be distinguished from aliased ones
    if np.any(jumps > 0.9 * np.pi):
        raise ValueError("phase_slope_fit: undersampled phase (jump > pi)")
    theta = np.unwrap(raw)
    x = np.log1p(np.asarray(ray_r, dtype=float))
    A = np.vstack([x, np.ones_like(x)]).T
    coef, _, _, _ = np.linalg.lstsq(A, theta, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((theta - fit) ** 2))
    ss_tot = float(np.sum((theta - np.mean(theta)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


def compute_J_asym(q_grid: np.ndarray, Phi0: np.ndarray) -> np.ndarray:
    """J_Lbar(q) = -2 Im(Phi0 conj d_q Phi0) on a uniform q grid.

    d_q Phi0 is np.gradient's: centred inside, one-sided at the endpoints.
    """
    d = np.gradient(Phi0, q_grid[1] - q_grid[0])
    return -2.0 * np.imag(Phi0 * np.conj(d))


def mod_ALbar(A_Lbar, q_grid: np.ndarray, J_Lbar: np.ndarray, t, r,
              q_min: float | None = None) -> np.ndarray:
    """A_Lbar minus the log-kernel correction, at arrays of points (t, r).

    A^mod = A_Lbar - (1/2r) int_{r-t}^{q_grid[-1]} J_Lbar(eta)
            ln((eta+t+r)/(eta+t-r)) deta,
    with J_Lbar the linear interpolant of the table (q_grid, J_Lbar), zero
    outside it; the tail beyond the table is treated as zero.  The
    integral, log-singular endpoint included, is evaluated exactly for every
    point in one call.  With q_min given, a point whose ray needs the source
    below q_min raises ValueError.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if q_min is not None:
        q_lo = r - t
        uncovered = q_lo < q_min - 1e-12
        if np.any(uncovered):
            raise ValueError(
                f"source table does not cover the ray: it starts at q = "
                f"{q_min}, and must start at or below {np.min(q_lo[uncovered])}")
    integral = integrate_log_kernel(q_grid, np.asarray(J_Lbar, dtype=float),
                                    t, r)
    return A_Lbar - integral / (2.0 * r)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays, rounded as four products and two sums.

    numpy's vector loop for complex multiplication may fuse a product into
    the sum (FMA), which rounds differently from the plain formula.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def build_radiation_table(slices: dict, grid: RadialGrid, Q: float,
                          q_grid: np.ndarray) -> RadiationTable:
    """Assemble the radiation table from late-time slices.

    Phi0 per q comes from the latest slice containing r = t + q, else from
    the previous slice; A_Lbar^mod is taken on the latest slice.  The
    table holds no ray quantity (extract_AL_limit gives A_L's limit).
    """
    states = sorted(slices.values(), key=lambda s: s.t)
    if len(states) < 2:
        raise ValueError("radiation table needs at least two time slices")
    last, prev = states[-1], states[-2]
    Phi0 = np.zeros(len(q_grid), dtype=complex)
    for st in (prev, last):
        x = st.t + q_grid
        ok = _in_domain(x, grid)
        Phi0[ok] = _product(x[ok] * interp_values(st.phi, grid, x[ok]),
                            charge_phase(Q, x[ok]))
    jlbar = compute_J_asym(q_grid, Phi0)
    # modified A_Lbar at the last slice, on the q grid
    x = last.t + q_grid
    ok = _in_domain(x, grid)
    albar = interp_values(last.a0, grid, x[ok]) - interp_values(last.ar, grid, x[ok])
    mod = np.zeros(len(q_grid))
    mod[ok] = x[ok] * mod_ALbar(albar, q_grid, jlbar, last.t, x[ok],
                                q_min=q_grid[0])
    return RadiationTable(q=q_grid.copy(), Phi0=Phi0, J_Lbar=jlbar,
                          A_Lbar_mod=mod)


# ---------------------------------------------------------------------------
# decay-envelope checks

@dataclass(frozen=True)
class EnvelopeSpec:
    """Weight <t+r>^a <t-r>^b <(r-t)_+>^c multiplying the envelope."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    label: str = ""

    def __call__(self, t, r):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        return jbracket(t + r) ** self.a * jbracket(t - r) ** self.b \
            * jbracket(np.maximum(r - t, 0.0)) ** self.c


def phi_peeling_spec(w) -> EnvelopeSpec:
    """|phi| envelope <t+r>^-1 <t-r>^(1/2-s) <(r-t)_+>^-gamma."""
    return EnvelopeSpec(a=-1.0, b=0.5 - w.s, c=-w.gamma, label="phi_peeling4")


def j0_envelope_spec(w) -> EnvelopeSpec:
    """|J_0| envelope <t+r>^-2 <t-r>^(-2s) <(r-t)_+>^(-2 gamma)."""
    return EnvelopeSpec(a=-2.0, b=-2.0 * w.s, c=-2.0 * w.gamma,
                        label="J0_estimate")


# envelope_check skips the snapshots before this time (degenerate weights at t = 0)
_ENVELOPE_T_MIN = 1.0


def envelope_check(snapshots, spec: EnvelopeSpec,
                   quantity: str) -> tuple[float, tuple]:
    """sup of |quantity| / envelope over stored snapshots.

    quantity: attribute name on Snapshot objects ('phi' or 'j0').
    Returns (sup_weighted, (t, r) argmax).  Snapshots earlier than
    _ENVELOPE_T_MIN are skipped.
    """
    sup, arg = 0.0, (np.nan, np.nan)
    for snap in snapshots:
        if snap.t < _ENVELOPE_T_MIN:
            continue
        vals = np.abs(getattr(snap, quantity))
        env = spec(snap.t, snap.r)
        ratio = vals / env
        i = int(np.argmax(ratio))
        if ratio[i] > sup:
            sup, arg = float(ratio[i]), (snap.t, float(snap.r[i]))
    return sup, arg
