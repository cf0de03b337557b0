"""Free-wave convergence against the d'Alembert oracle.

Evolves the linear radial wave equation (couplings off) for complex Gaussian
data and compares the final slice against the closed-form solution at three
resolutions.  The scheme is 2nd-order centered + RK4, so the observed order
should be 2.
"""
import time

import numpy as np

from mkglab import FieldState, ObservationPlan, RadialGrid, SchemeParams, evolve
from mkglab.data_builder import GaussianProfile
from mkglab.wave_oracle import dalembert_free

R_MAX, T_END = 100.0, 50.0
g = GaussianProfile(1.0, 1.0)

print(f"free radial wave on [0, {R_MAX}], data phi = e^(-r^2), phi_t = i e^(-r^2)")
print(f"{'n_cells':>8} {'h':>9} {'sup error':>12} {'order':>7} {'seconds':>8}")
prev = None
for n in (500, 1000, 2000):
    grid = RadialGrid(R_MAX, n)
    state = FieldState.zeros(grid)
    state.phi = g(grid.r).astype(complex)
    state.phi_t = 1j * g(grid.r)
    scheme = SchemeParams(cfl=0.5, t_end=T_END, boundary="none", linear=True)
    t0 = time.perf_counter()
    res = evolve(state, grid, scheme, ObservationPlan(snapshot_every=10 ** 9))
    dt_wall = time.perf_counter() - t0
    r = grid.r[1:]
    t = res.final.t
    exact = dalembert_free(g, None, t, r) + 0.5j * (
        g.lambda_antiderivative(r + t)
        - g.lambda_antiderivative(np.abs(r - t))) / r
    err = np.max(np.abs(res.final.phi[1:] - exact))
    order = f"{np.log2(prev / err):7.2f}" if prev else "      -"
    print(f"{n:>8} {grid.h:>9.4f} {err:>12.3e} {order} {dt_wall:>8.2f}")
    prev = err
