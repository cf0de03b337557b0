"""Null-infinity extraction on a mid-size charged run.

Evolves the reference data family on a reduced domain, then extracts the
phase-corrected radiation field Phi0, the r A_L -> Q/4pi limit, and the
log-corrected bad component along an outgoing ray.
"""
import numpy as np

from mkglab import RadialGrid, SchemeParams, ObservationPlan, evolve
from mkglab.data_builder import FreeData, assemble_state
from mkglab.null_extraction import (build_radiation_table, extract_AL_limit,
                                    extract_phi0, sample_ray)

grid = RadialGrid(200.0, 4000)
r = grid.r
eps = 0.02
phi0 = eps * np.exp(-r ** 2) + 0j
data = FreeData(phi0=phi0, phi0_dot=1j * phi0)
state, Q = assemble_state(data, grid)
target = Q / (4 * np.pi)
print(f"Q = {Q:+.6e}, Q/4pi = {target:+.6e}")

t_end = 160.0
fracs = (0.3, 0.5, 0.65, 0.8, 0.9, 1.0)
plan = ObservationPlan(slice_times=tuple(f * t_end for f in fracs))
print(f"evolving to t = {t_end} ...")
res = evolve(state, grid, SchemeParams(cfl=0.5, t_end=t_end, monitor_stride=40), plan)

ray = sample_ray(res.slices, grid, q=0.0)
al = extract_AL_limit(ray)
print(f"r A_L along q=0: last three values {[f'{v:.5e}' for v in (ray.r * ray.A_L)[-3:]]}")
print(f"  extracted limit {al.value.real:+.6e}  (rel err vs Q/4pi: "
      f"{abs(al.value.real - target) / abs(target):.2%}, err est {al.err_est:.1e})")

ph = extract_phi0(ray, Q)
print(f"phase-corrected r phi at q=0: {ph.value:+.6e}, Cauchy increments "
      f"{[f'{v:.2e}' for v in ph.increments]}")

dq = 2 * grid.h
q_grid = np.arange(-10.0, 10.0 + dq / 2, dq)
table = build_radiation_table(res.slices, grid, Q, q_grid)
j = table.j_scalar()
M = np.trapezoid(j, table.q)
print(f"radiation table: int j dq = {M:+.6e} vs -Q/4pi = {-target:+.6e} "
      f"(ratio {M / -target:.4f})")
print(f"A_Lbar^mod sample (q = 0): {table.A_Lbar_mod[len(q_grid) // 2]:+.6e}")
