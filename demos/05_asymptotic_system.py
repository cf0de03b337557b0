"""The (q, s) asymptotic system and the weak-null certificate.

Integrates the decoupled system at a constant good component, verifies the
exact invariants (modulus preservation, phase factorization, linear growth
of the bad component), and shows the negative control failing.
"""
from dataclasses import replace

import numpy as np

from mkglab.asymptotic_system import (Albar_profile, AsymState, integrate,
                                      phase_factorization_error,
                                      weak_null_certificate)

q = np.linspace(-8.0, 8.0, 1601)
phi0 = np.exp(-q ** 2) * (q / 2.0 + 0.25j)
state = AsymState.from_phi0(q, phi0, A_L_param=1.0)

print("integrating dP/ds = -i A_L P, dB_Lbar/ds = -Im(Phi conj P) to s = 50")
final, hist = integrate(state, 50.0, 1e-2, record_every=500)
cert = weak_null_certificate(hist, 1e-2)
print(f"  |P| drift:              {cert['modulus_drift']:.3e}  (tol 1e-10)")
print(f"  A_Lbar affine residual: {cert['albar_affine_residual']:.3e}  (tol 1e-6)")
print(f"  certificate: {'PASS' if cert['passed'] else 'FAIL'}")

errs = []
for ds in (4e-2, 2e-2, 1e-2):
    f2, _ = integrate(state, 2.0, ds)
    errs.append(phase_factorization_error(state, f2))
orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
print(f"phase-factorization RK4 errors {[f'{e:.2e}' for e in errs]}, "
      f"orders {[f'{o:.3f}' for o in orders]}")

prof = Albar_profile(hist)
i0 = np.argmin(np.abs(q))
print(f"A_Lbar growth: slope(q=0) = {prof['slopes'][i0]:+.6e} vs predicted "
      f"{prof['predicted_slopes'][i0]:+.6e}, regression residual "
      f"{prof['max_residual']:.2e}")


def control_rhs(st):
    """(d_s P, d_s B_Lbar) of the control: phase speed |P| instead of A_L."""
    return -1j * np.abs(st.P) * st.P, -np.imag(st.phi() * np.conj(st.P))


def shifted(st, h, k):
    return replace(st, P=st.P + h * k[0], B_Lbar=st.B_Lbar + h * k[1])


# integrate marches the physical system only, so a plain per-step RK4 here
print("\nnegative control (dP/ds = -i |P| P, not the physical system):")
ds, st, hist_bad = 1e-2, state, [state]
for step in range(1, 5001):
    k1 = control_rhs(st)
    k2 = control_rhs(shifted(st, 0.5 * ds, k1))
    k3 = control_rhs(shifted(st, 0.5 * ds, k2))
    k4 = control_rhs(shifted(st, ds, k3))
    k = [k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j] for j in (0, 1)]
    st = replace(shifted(st, ds / 6.0, k), s=step * ds)
    if step % 500 == 0:
        hist_bad.append(st)
cert_bad = weak_null_certificate(hist_bad, 1e-2)
print(f"  A_Lbar affine residual: {cert_bad['albar_affine_residual']:.3e}")
print(f"  certificate: {'PASS' if cert_bad['passed'] else 'FAIL (expected)'}")
