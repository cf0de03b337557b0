"""Interior asymptotics: t A_0(t, ty) against the closed-form K_0(y).

Runs a mid-size charged evolution, extracts the asymptotic source from the
radiation field of the same run, and compares the simulated interior
potential with the kernel prediction at several interior fractions y.
Each slice is read back under its step, slice_step(t, dt), the key evolve
stores it by.
"""
import numpy as np

from mkglab import RadialGrid, SchemeParams, ObservationPlan, evolve
from mkglab.data_builder import FreeData, assemble_state
from mkglab.evolution import slice_step, time_grid
from mkglab.interior import AsymSource, K_mu, eval_A_ex, eval_A_ex_infty, \
    interior_limit_check
from mkglab.null_extraction import build_radiation_table

grid = RadialGrid(200.0, 4000)
r = grid.r
eps = 0.02
phi0 = eps * np.exp(-r ** 2) + 0j
data = FreeData(phi0=phi0, phi0_dot=1j * phi0)
state, Q = assemble_state(data, grid)

t_end = 160.0
t_list = (60.0, 110.0, 160.0)
fracs = (0.5, 0.8, 0.9, 1.0)
frac_times = tuple(f * t_end for f in fracs)
scheme = SchemeParams(cfl=0.5, t_end=t_end, monitor_stride=40)
res = evolve(state, grid, scheme,
             ObservationPlan(slice_times=frac_times + t_list))
_, dt = time_grid(t_end, scheme.cfl * grid.h)

dq = 2 * grid.h
q_grid = np.arange(-10.0, 10.0 + dq / 2, dq)
frac_slices = {k: res.slices[k] for k in {slice_step(t, dt) for t in frac_times}}
table = build_radiation_table(frac_slices, grid, Q, q_grid)
source = AsymSource(q_grid=table.q, j=table.j_scalar())
print(f"source mass M = {source.mass():+.6e} (vs -Q/4pi = {-Q / 4 / np.pi:+.6e})")

print(f"{'y':>5} {'t':>6} {'t*A0 sim':>14} {'K0 pred':>14} {'rel err':>9}")
rows = interior_limit_check([res.slices[slice_step(t, dt)] for t in t_list],
                            grid, source, [0.1, 0.3, 0.5])
for row in rows:
    rel = row["abs_err0"] / abs(row["K0_pred"])
    print(f"{row['y']:>5.1f} {row['t']:>6.0f} {row['tA0_sim']:>14.6e} "
          f"{row['K0_pred']:>14.6e} {rel:>9.2%}")

print("\nexplicit-solution chain at c = r/t = 0.5:")
for t in (40.0, 80.0):
    a0ex, _ = eval_A_ex(t, 0.5 * t, source)
    a0inf, _ = eval_A_ex_infty(t, 0.5 * t, source)
    print(f"  t = {t:5.0f}: A^ex = {a0ex:+.6e}, A^ex,inf = {a0inf:+.6e}, "
          f"|diff| = {abs(a0ex - a0inf):.3e}")
k0, kr = K_mu(0.5, source)
print(f"K(0.5): K0 = {k0:+.6e}, K_r = {kr:+.6e}")
