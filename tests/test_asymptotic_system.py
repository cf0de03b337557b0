from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import erfc

from mkglab.asymptotic_system import (_CHUNK, Albar_profile, AsymState,
                                      integrate, null_vector_lower,
                                      phase_factorization_error,
                                      weak_null_certificate)


def gaussian_state(a_l=1.0, n=801, span=8.0, profile=None):
    q = np.linspace(-span, span, n)
    phi0 = np.exp(-q ** 2) if profile is None else profile(q)
    return AsymState.from_phi0(q, phi0.astype(complex), A_L_param=a_l)


def per_step_rk4(state, s_target, ds, source_mode="standard", record_every=None):
    """The one-stage-at-a-time RK4 that integrate() replaced, as reference."""
    def cum_from_top(f, q):
        incr = 0.5 * (q[1] - q[0]) * (f[1:] + f[:-1])
        out = np.empty_like(f)
        out[-1] = 0.0
        out[:-1] = -np.cumsum(incr[::-1])[::-1]
        return out

    def rhs(P, L_mu):
        if source_mode == "standard":
            dP = -1j * state.A_L_param * P
        else:
            dP = -1j * np.abs(P) * P
        drive = np.imag(cum_from_top(P, state.q_grid) * np.conj(P))
        return dP, 0.5 * L_mu[:, None] * drive[None, :]

    n = int(round((s_target - state.s) / ds))
    L_mu = null_vector_lower(state.omega)
    P, B = state.P.copy(), state.B.copy()
    history = [replace(state, P=P.copy(), B=B.copy())] if record_every else []
    for k in range(n):
        k1P, k1B = rhs(P, L_mu)
        k2P, k2B = rhs(P + 0.5 * ds * k1P, L_mu)
        k3P, k3B = rhs(P + 0.5 * ds * k2P, L_mu)
        k4P, k4B = rhs(P + ds * k3P, L_mu)
        P = P + ds / 6.0 * (k1P + 2.0 * k2P + 2.0 * k3P + k4P)
        B = B + ds / 6.0 * (k1B + 2.0 * k2B + 2.0 * k3B + k4B)
        if record_every and ((k + 1) % record_every == 0 or k == n - 1):
            history.append(replace(state, s=state.s + (k + 1) * ds,
                                   P=P.copy(), B=B.copy()))
    return replace(state, s=state.s + n * ds, P=P, B=B), history


def _unit(v):
    v = np.asarray(v)
    return tuple(v / np.linalg.norm(v))


class TestAgainstPerStepRK4:
    @pytest.mark.parametrize("source_mode", ["standard", "non_null_control"])
    @pytest.mark.parametrize("record_every", [None, 7])
    @pytest.mark.parametrize("omega", [(0.0, 0.0, 1.0), (0.36, 0.48, 0.8)])
    def test_same_march(self, source_mode, record_every, omega):
        q = np.linspace(-6.0, 6.0, 241)
        st = AsymState.from_phi0(q, np.exp(-q ** 2) * (q / 2.0 + 0.25j), 1.3,
                                 omega=omega)
        # 45 steps: whole blocks, a ragged last block, 7 not dividing 45
        got, got_hist = integrate(st, 0.45, 1e-2, source_mode, record_every)
        ref, ref_hist = per_step_rk4(st, 0.45, 1e-2, source_mode, record_every)
        # continue from a state whose B is already nonzero
        got2, _ = integrate(got, 0.6, 1e-2, source_mode)
        ref2, _ = per_step_rk4(ref, 0.6, 1e-2, source_mode)
        pairs = list(zip(got_hist, ref_hist)) + [(got, ref), (got2, ref2)]
        assert len(got_hist) == len(ref_hist)
        for a, b in pairs:
            assert a.s == b.s
            assert np.array_equal(a.P, b.P)
            assert np.max(np.abs(a.B - b.B)) <= 1e-14 * np.max(np.abs(b.B))
        assert np.max(np.abs(got2.B)) > 0.0

    @settings(max_examples=150, deadline=None)
    @given(nq=hst.integers(3, 300),
           amplitude=hst.one_of(hst.just(0.0), hst.floats(0.1, 10.0)),
           a_l=hst.one_of(hst.just(0.0), hst.floats(-5.0, 5.0)),
           omega=hst.one_of(
               hst.sampled_from([(0.0, 0.0, 1.0), (0.36, 0.48, 0.8)]),
               hst.tuples(*[hst.floats(-1.0, 1.0)] * 3)
               .filter(lambda v: np.linalg.norm(v) > 0.1).map(_unit)),
           # whole blocks and a ragged last one, for both block lengths
           n1=hst.integers(1, 3 * _CHUNK + 1),
           n2=hst.integers(1, 3 * _CHUNK + 1),
           record_every=hst.one_of(hst.none(), hst.integers(1, 50)),
           source_mode=hst.sampled_from(["standard", "non_null_control"]))
    def test_same_march_drawn(self, nq, amplitude, a_l, omega, n1, n2, record_every,
                        source_mode):
        ds = 1e-2
        # the spacing of a 241-point grid on [-6, 6], for every nq: on a
        # coarser grid (nq = 3 there) the Gaussian is not resolved, the
        # discrete drive Im(Phi conj P) is a residue of cancellation at
        # rounding level, and the one-row and four-row drives differ by
        # rounding of |Phi| |P|, which is more than 1e-14 of max |B|
        q = 0.05 * (np.arange(nq) - 0.5 * (nq - 1))
        st = AsymState.from_phi0(q, amplitude * np.exp(-q ** 2) * (q / 2.0 + 0.25j),
                                 a_l, omega=omega)
        got, got_hist = integrate(st, n1 * ds, ds, source_mode, record_every)
        ref, ref_hist = per_step_rk4(st, n1 * ds, ds, source_mode, record_every)
        # continue from a state whose B is already nonzero
        got2, _ = integrate(got, got.s + n2 * ds, ds, source_mode)
        ref2, _ = per_step_rk4(ref, ref.s + n2 * ds, ds, source_mode)
        pairs = list(zip(got_hist, ref_hist)) + [(got, ref), (got2, ref2)]
        assert len(got_hist) == len(ref_hist)
        for a, b in pairs:
            assert a.s == b.s
            assert np.array_equal(a.P, b.P)
            assert np.max(np.abs(a.B - b.B)) <= 1e-14 * np.max(np.abs(b.B))
        if amplitude > 0.0:
            assert np.max(np.abs(got2.B)) > 0.0


class TestEndPoint:
    def test_ragged_end_rejected(self):
        st = gaussian_state(n=41)
        with pytest.raises(ValueError, match=r"s_target = 1\.0 .* ds = 0\.3 .*"
                                             r"nearest reachable end is 0\.9"):
            integrate(st, 1.0, 0.3)
        with pytest.raises(ValueError, match="nearest reachable end is 0.2"):
            integrate(st, 0.25, 0.1)

    def test_bad_arguments(self):
        st = gaussian_state(n=41)
        with pytest.raises(ValueError, match="ds must be positive"):
            integrate(st, 1.0, 0.0)
        with pytest.raises(ValueError, match="s_target must be >= state.s"):
            integrate(st, -1.0, 0.1)
        with pytest.raises(ValueError, match="unknown source mode"):
            integrate(st, 1.0, 0.1, source_mode="other")

    @settings(max_examples=60, deadline=None)
    @given(s0=hst.floats(-5.0, 5.0),
           n=hst.integers(0, 40),
           ds=hst.floats(1e-3, 2.0),
           offset=hst.one_of(hst.just(0.0), hst.floats(-0.5, 0.5)))
    def test_ends_at_s_target_or_raises(self, s0, n, ds, offset):
        st = replace(gaussian_state(n=17), s=s0)
        s_target = s0 + (n + offset) * ds
        try:
            final, _ = integrate(st, s_target, ds)
        except ValueError:
            # only a target off the step lattice may be refused
            assert offset != 0.0 or s_target < s0
            return
        assert abs(final.s - s_target) <= 1e-9 * abs(s_target - s0) + 8e-16 * (
            abs(s0) + abs(s_target))


class TestIntegrate:
    def test_zero_coupling_constant_P(self):
        st = gaussian_state(a_l=0.0)
        final, hist = integrate(st, 5.0, 1e-2, record_every=100)
        assert np.max(np.abs(final.P - st.P)) < 1e-14
        # B grows linearly: compare s-derivative against the drive
        drive = np.imag(st.phi() * np.conj(st.P))
        expected = 0.5 * (-1.0) * drive * final.s   # L_0 = -1
        assert np.allclose(final.B[0], expected, atol=1e-12)

    def test_exact_phase_rotation(self):
        st = gaussian_state(a_l=1.0)
        final, _ = integrate(st, 3.0, 1e-3)
        exact = np.exp(-1j * 1.0 * 3.0) * st.P
        assert np.max(np.abs(final.P - exact)) < 1e-11

    def test_rk4_order(self):
        st = gaussian_state(a_l=1.0)
        errs = []
        for ds in (4e-2, 2e-2, 1e-2):
            final, _ = integrate(st, 2.0, ds)
            exact = np.exp(-1j * 2.0) * st.P
            errs.append(np.max(np.abs(final.P - exact)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert abs(np.mean(orders) - 4.0) <= 0.1

    def test_phi_factorization(self):
        st = gaussian_state(a_l=0.7)
        final, _ = integrate(st, 4.0, 1e-3)
        err = phase_factorization_error(st, final)
        assert err < 1e-10

    def test_modulus_invariance(self):
        st = gaussian_state(a_l=1.0)
        final, _ = integrate(st, 50.0, 1e-2)
        drift = np.max(np.abs(np.abs(final.P) - np.abs(st.P)))
        assert drift < 1e-10

    def test_B_L_structurally_constant(self):
        st = gaussian_state(a_l=0.9)
        final, _ = integrate(st, 10.0, 1e-2)
        bl = final.B_L()
        assert np.max(np.abs(bl)) < 1e-13 * max(1.0, np.max(np.abs(final.B)))


class TestAlbarProfile:
    def test_zero_profile(self):
        st = gaussian_state(profile=lambda q: np.zeros_like(q))
        _, hist = integrate(st, 3.0, 1e-2, record_every=100)
        out = Albar_profile(hist)
        assert np.max(np.abs(out["slopes"])) < 1e-14

    def test_gaussian_with_unit_phase_slope(self):
        # Phi0 = e^{iq} e^{-q^2}: j = Im(Phi0 conj dPhi0) = -e^{-2q^2}
        # (symbolic oracle), so slope(q) = int_q^inf j = -int_q^inf e^{-2rho^2}
        st = gaussian_state(a_l=0.5, n=3201, span=10.0,
                            profile=lambda q: np.exp(1j * q) * np.exp(-q ** 2))
        _, hist = integrate(st, 5.0, 1e-2, record_every=100)
        out = Albar_profile(hist)
        q = st.q_grid
        # erfc-based oracle: int_q^inf e^{-2 rho^2} drho = sqrt(pi/8) erfc(sqrt2 q)
        oracle = -np.sqrt(np.pi / 8.0) * erfc(np.sqrt(2.0) * q)
        mask = np.abs(q) < 6.0
        # agreement at the q-grid's own 2nd-order differencing accuracy
        assert np.max(np.abs(out["slopes"][mask] - oracle[mask])) < 2e-4
        assert out["max_residual"] < 1e-8

    def test_linear_regression_residual(self):
        st = gaussian_state(a_l=1.0)
        _, hist = integrate(st, 10.0, 1e-2, record_every=200)
        out = Albar_profile(hist)
        assert out["max_residual"] < 1e-8

    def test_too_few_states(self):
        st = gaussian_state()
        with pytest.raises(ValueError):
            Albar_profile([st, st])

    def test_predicted_slopes_match_fit(self):
        st = gaussian_state(a_l=1.3, profile=lambda q: (q + 0.5j) * np.exp(-q ** 2))
        _, hist = integrate(st, 8.0, 1e-2, record_every=100)
        out = Albar_profile(hist)
        assert np.max(np.abs(out["slopes"] - out["predicted_slopes"])) < 1e-7


class TestWeakNullCertificate:
    def test_zero_state_passes(self):
        st = gaussian_state(profile=lambda q: np.zeros_like(q))
        _, hist = integrate(st, 10.0, 1e-2, record_every=200)
        cert = weak_null_certificate(hist, 1e-2)
        assert cert["passed"]

    def test_gaussian_reference_run(self):
        st = gaussian_state(a_l=1.0)
        _, hist = integrate(st, 50.0, 1e-2, record_every=500)
        cert = weak_null_certificate(hist, 1e-2)
        assert cert["passed"]
        assert cert["modulus_drift"] < 1e-10
        assert cert["albar_affine_residual"] < 1e-6
        assert not cert["blow_up"]

    def test_adversarial_control_fails(self):
        # phase speed |P| instead of the good component: the phase no longer
        # factorizes and A_Lbar stops being affine in s
        st = gaussian_state(a_l=1.0)
        _, hist = integrate(st, 50.0, 1e-2, record_every=500,
                            source_mode="non_null_control")
        cert = weak_null_certificate(hist, 1e-2)
        assert not cert["passed"]
        assert cert["albar_affine_residual"] >= 1e-6


class TestStateHelpers:
    def test_phi_reconstruction_anchored_at_top(self):
        st = gaussian_state()
        phi = st.phi()
        assert phi[-1] == 0.0
        # d_q of the reconstruction returns P up to grid accuracy
        dq = st.q_grid[1] - st.q_grid[0]
        dphi = np.gradient(phi, dq)
        mask = np.abs(st.q_grid) < 6.0
        assert np.max(np.abs(dphi[mask] - st.P[mask])) < 1e-3

    def test_bad_omega_rejected(self):
        q = np.linspace(-1, 1, 21)
        with pytest.raises(ValueError):
            AsymState.from_phi0(q, np.zeros(21, complex), 1.0,
                                omega=(1.0, 1.0, 0.0))
