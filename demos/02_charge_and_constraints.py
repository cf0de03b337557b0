"""Admissible data construction: charge, constraints, Coulomb tail.

Builds Lorenz-gauge initial data for the reference Gaussian family, checks
the charge two ways, the discrete Gauss constraint, the Coulomb tail of a0,
and the effect of the charge-tail subtraction on the exterior decay.
"""
import numpy as np

from mkglab import RadialGrid, current
from mkglab.data_builder import (FreeData, assemble_state, build_admissible,
                                 subtract_charge_tail, weighted_norm)
from mkglab.grid import simpson_integral

grid = RadialGrid(60.0, 3000)
r = grid.r
eps = 0.05
phi0 = eps * np.exp(-r ** 2) + 0j
data = FreeData(phi0=phi0, phi0_dot=1j * phi0)

state, Q = assemble_state(data, grid)
print(f"charge from data:        Q = {Q:+.10e}")
j0, _ = current(state, grid)
q2 = 4 * np.pi * simpson_integral(j0 * r ** 2, grid.h)
print(f"charge from J0 integral: Q = {q2:+.10e}  (diff {abs(q2 - Q):.2e})")

E, gauss_resid, a0, a0_dot = build_admissible(data, grid)
print(f"discrete Gauss-constraint residual: {gauss_resid:.3e} (O(h^2))")

i = int(0.8 * grid.n_cells)
print(f"Coulomb tail: 4 pi r a0 at r = {r[i]:.0f}: {4 * np.pi * r[i] * a0[i]:+.6e} "
      f"vs Q = {Q:+.6e}")

sub = subtract_charge_tail(state, grid, Q)
mask = r >= 4.0
print("exterior decay of |a0| r^2 (raw vs charge-tail subtracted):")
for frac in (0.2, 0.5, 0.9):
    k = int(frac * grid.n_cells)
    print(f"  r = {r[k]:6.1f}: raw {abs(state.a0[k]) * r[k] ** 2:.3e}   "
          f"subtracted {abs(sub.a0[k]) * r[k] ** 2:.3e}")

print("weighted Sobolev norms of phi0 (k = 0, 1, 2 at s0 = 1.3):")
for k in (0, 1, 2):
    print(f"  k = {k}: {weighted_norm(np.abs(phi0), grid, k, 1.3):.6e}")
