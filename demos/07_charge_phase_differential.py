"""Recovering the charge phase with a matched free-wave control.

At desk resolutions the 2nd-order scheme's dispersion drifts arg(r phi)
along a ray by far more than the charge-induced -(Q/4pi) ln(1+r).  The
drift is a property of the discrete propagator, so it cancels in the ratio
of the charged run to a linear control evolved with the same scheme on the
same grid; what remains is the physical phase.
"""
import numpy as np

from mkglab import FieldState, ObservationPlan, RadialGrid, SchemeParams, evolve
from mkglab.data_builder import FreeData, assemble_state
from mkglab.null_extraction import phase_slope_fit

grid = RadialGrid(100.0, 2000)
eps = 0.1
r = grid.r
phi0 = eps * np.exp(-r ** 2) + 0j
data = FreeData(phi0=phi0, phi0_dot=1j * phi0)
state, Q = assemble_state(data, grid)
expected = -Q / (4 * np.pi)
print(f"Q = {Q:+.6e}; expected phase slope -Q/4pi = {expected:+.6e}")

plan = ObservationPlan(ray_qs=(0.0,))
charged = evolve(state, grid, SchemeParams(0.5, 80.0, "none", 8), plan)

control = FieldState.zeros(grid)
control.phi = phi0.copy()
control.phi_t = 1j * phi0.copy()
linear = evolve(control, grid, SchemeParams(0.5, 80.0, "none", 8, linear=True),
                plan)

t1, r1, _, _, ph1, _, _ = charged.rays[0.0].as_arrays()
t2, r2, _, _, ph2, _, _ = linear.rays[0.0].as_arrays()
c = charged.rays[0.0].center
n = min(len(t1), len(t2))
mask = r1[:n] > r1[n - 1] / 10.0

slope_raw, _ = phase_slope_fit(r1[:n][mask], (r1[:n] * ph1[:n, c])[mask])
ratio = (r1[:n] * ph1[:n, c]) / (r2[:n] * ph2[:n, c])
slope_diff, r2fit = phase_slope_fit(r1[:n][mask], ratio[mask])

print(f"raw single-run slope:  {slope_raw:+.6e}   "
      f"(dispersion-dominated, off by {abs(slope_raw - expected) / expected:.0%})")
print(f"differential slope:    {slope_diff:+.6e}   "
      f"(rel err {abs(slope_diff - expected) / expected:.1%}, r^2 = {r2fit:.4f})")
print("the oscillating factor imposed by the charge is in the evolution;")
print("a single run at acceptance resolution simply cannot see it above the")
print("scheme's own dispersion (see the acceptance notes).")
