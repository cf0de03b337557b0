import numpy as np
import pytest
from scipy.integrate import quad

from mkglab.core import FieldState
from conftest import coulomb_capped_profile
from mkglab.grid import RadialGrid, interp_values
from mkglab.null_extraction import (EnvelopeSpec, RaySample,
                                    build_radiation_table, charge_phase,
                                    compute_J_asym, envelope_check,
                                    extract_AL_limit, extract_phi0, mod_ALbar,
                                    phase_slope_fit, sample_ray)
from mkglab.quadrature import integrate_log_kernel
from mkglab.wave_oracle import dalembert_free


def coulomb_slices(grid, Q, times):
    prof = coulomb_capped_profile(Q, 1.0)
    out = {}
    for t in times:
        st = FieldState.zeros(grid, t=t)
        st.a0 = prof(grid.r)
        out[t] = st
    return out


class TestSampleRay:
    def test_q_constancy(self):
        grid = RadialGrid(100.0, 1000)
        slices = coulomb_slices(grid, 2.0, [10.0, 20.0, 30.0])
        ray = sample_ray(slices, grid, q=5.0)
        assert np.max(np.abs((ray.r - ray.t) - 5.0)) < 1e-12

    def test_static_coulomb_A_L(self):
        grid = RadialGrid(100.0, 2000)
        Q = 2.0
        slices = coulomb_slices(grid, Q, [10.0, 25.0, 40.0])
        ray = sample_ray(slices, grid, q=3.0)
        expected = Q / (4 * np.pi * ray.r)
        assert np.allclose(ray.A_L, expected, rtol=1e-8)
        # r A_L equals Q/4pi on the nose for the static field
        est = extract_AL_limit(ray)
        assert est.value.real == pytest.approx(Q / (4 * np.pi), rel=1e-8)

    def test_free_wave_radiation_field(self):
        # r phi along the ray tends to (q/2) g(|q|) for data g, h = 0
        grid = RadialGrid(400.0, 4000)
        g = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
        q = 1.0
        slices = {}
        for t in (150.0, 250.0, 350.0):
            st = FieldState.zeros(grid, t=t)
            # phi(t, 0) limit: g(t) + t g'(t) for h = 0 data
            origin = g(t) + t * (-2.0 * t) * g(t)
            st.phi = np.concatenate(
                [[origin], dalembert_free(g, None, t, grid.r[1:])])
            slices[t] = st
        ray = sample_ray(slices, grid, q=q)
        limit = 0.5 * q * np.exp(-q * q)
        # only the O(h^4) cubic ray interpolation separates us from the limit
        assert abs(ray.rphi[-1].real - limit) < 1e-5
        est = extract_phi0(ray, 0.0)
        assert est.value.real == pytest.approx(limit, abs=1e-5)
        assert est.value.real == pytest.approx(0.18394, abs=1e-4)

    def test_exits_domain_truncated(self):
        grid = RadialGrid(50.0, 500)
        slices = coulomb_slices(grid, 1.0, [10.0, 30.0, 46.0])
        ray = sample_ray(slices, grid, q=3.0)
        # the t = 46 slice would need r = 49 > 0.95 r_max: dropped
        assert len(ray.t) == 2


class TestExtractPhi0:
    def test_zero_field(self):
        grid = RadialGrid(50.0, 500)
        slices = {t: FieldState.zeros(grid, t=t) for t in (10.0, 20.0, 30.0)}
        ray = sample_ray(slices, grid, q=0.0)
        est = extract_phi0(ray, 0.0)
        assert est.value == 0.0
        assert est.err_est == 0.0

    def test_no_limit_diagnostic(self):
        # increments that grow trigger the non-Cauchy diagnostic
        ray = RaySample(q=0.0, t=np.array([10.0, 20.0, 30.0]),
                        r=np.array([10.0, 20.0, 30.0]),
                        A_L=np.zeros(3),
                        rphi=np.array([1.0, 1.1, 1.4], dtype=complex))
        est = extract_phi0(ray, 0.0)
        assert not est.converged
        assert "no-limit" in est.diagnostic

    def test_phase_correction_removes_drift(self):
        # synthetic r phi with the charge phase: corrected sequence is
        # Cauchy while the raw one keeps rotating
        Q = 4 * np.pi * 0.5  # Q/4pi = 0.5
        ts = np.array([40.0, 80.0, 160.0, 320.0])
        rs = ts + 1.0
        base = 0.3 + 0.1j
        rphi = base * np.exp(-1j * (Q / (4 * np.pi)) * np.log1p(rs)) \
            * (1.0 + 30.0 / rs ** 3)
        ray = RaySample(q=1.0, t=ts, r=rs, A_L=np.zeros(4), rphi=rphi)
        est = extract_phi0(ray, Q)
        raw_inc = np.abs(np.diff(rphi))
        cor_inc = est.increments
        assert cor_inc[-1] < 0.2 * cor_inc[-2]
        assert cor_inc[-1] < raw_inc[-1]
        assert est.converged


class TestPhaseSlopeFit:
    def test_exact_synthetic(self):
        r = np.linspace(20, 300, 200)
        rphi = np.exp(-1j * 0.3 * np.log1p(r))
        slope, r2 = phase_slope_fit(r, rphi)
        assert slope == pytest.approx(-0.3, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_charge_oracle_ray(self):
        # free-wave oracle data: slope 0 within the fit tolerance
        g = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
        ts = np.linspace(30.0, 200.0, 60)
        q = 0.5
        rphi = np.array([complex((t + q) * dalembert_free(g, None, t, t + q).real,
                                 0.25 * (np.exp(-q ** 2)
                                         - np.exp(-(2 * t + q) ** 2)))
                         for t in ts])
        slope, _ = phase_slope_fit(ts + q, rphi)
        assert abs(slope) < 1e-3

    def test_noise_recovery_within_five_percent(self):
        rng = np.random.default_rng(123)
        r = np.linspace(30, 400, 400)
        noise = (rng.standard_normal(len(r)) + 1j * rng.standard_normal(len(r)))
        rphi = np.exp(-1j * 0.3 * np.log1p(r)) + 0.15 * r ** -0.5 * noise
        slope, _ = phase_slope_fit(r, rphi)
        assert abs(slope + 0.3) < 0.05 * 0.3

    def test_undersampled_raises(self):
        r = np.array([10.0, 11.0, 12.0])
        rphi = np.exp(1j * np.array([0.0, 3.0, 6.0]))
        with pytest.raises(ValueError, match="undersampled"):
            phase_slope_fit(r, rphi)

    def test_zero_amplitude_raises(self):
        r = np.linspace(10, 20, 5)
        rphi = np.zeros(5, dtype=complex)
        with pytest.raises(ValueError, match="bounded away"):
            phase_slope_fit(r, rphi)


class TestComputeJAsym:
    def test_real_profile_gives_zero(self):
        q = np.linspace(-5, 5, 201)
        jl = compute_J_asym(q, np.exp(-q ** 2) + 0j)
        assert np.max(np.abs(jl)) < 1e-14

    def test_unit_phase_profile(self):
        # Phi0 = e^{iq} f, f real: Im(Phi0 conj dPhi0) = -f^2, J_Lbar = 2 f^2
        q = np.linspace(-6, 6, 1201)
        f = np.exp(-q ** 2)
        jl = compute_J_asym(q, np.exp(1j * q) * f)
        assert np.allclose(jl, 2 * f ** 2, atol=5e-4)

    def test_identity_against_contraction(self):
        # J_Lbar = -2 j must match the Lbar contraction of L_mu j; along
        # omega = e_z, L_mu = (-1, 0, 0, 1) and Lbar^mu = (1, 0, 0, -1)
        q = np.linspace(-6, 6, 801)
        Phi0 = np.exp(1j * q) * np.exp(-q ** 2) * (q + 0.3j)
        jl = compute_J_asym(q, Phi0)
        j = np.imag(Phi0 * np.conj(np.gradient(Phi0, q[1] - q[0])))
        J_mu = np.array([-1.0, 0.0, 0.0, 1.0])[:, None] * j[None, :]
        jl2 = np.array([1.0, 0.0, 0.0, -1.0]) @ J_mu
        assert np.max(np.abs(jl - jl2)) < 1e-12


def segmentwise_log_kernel(q_grid, J, t, r):
    """The log-kernel integral by adaptive QUADPACK, one table segment at a
    time: the reference integrate_log_kernel must match.

    Each segment integrates its two hat functions separately, so no
    integrand changes sign.  The piece from q_lo = r - t to the next node
    takes the 'alg-loga' weight ln(eta - q_lo); a node within 1e-9 of q_lo
    is merged into that piece.  Every other piece is smooth.
    """
    q_lo = r - t
    f = lambda e: np.interp(e, q_grid, J, left=0.0, right=0.0)
    nodes = q_grid[q_grid > q_lo]
    if len(nodes) > 1 and nodes[0] - q_lo < 1e-9 * max(1.0, abs(q_lo)):
        nodes = nodes[1:]
    breaks = np.concatenate(([max(q_lo, q_grid[0])], nodes))
    tol = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        for end, hat in ((a, lambda e: (b - e) / (b - a)),
                         (b, lambda e: (e - a) / (b - a))):
            if a == q_lo:
                plus, _ = quad(lambda e: hat(e) * np.log(e + t + r), a, b, **tol)
                minus, _ = quad(hat, a, b, weight="alg-loga", wvar=(0.0, 0.0),
                                **tol)
                val = plus - minus
            else:
                val, _ = quad(lambda e: hat(e) * np.log((e + t + r) / (e + t - r)),
                              a, b, **tol)
            total += float(f(end)) * val
    return total


class TestLogKernel:
    @pytest.mark.parametrize("table", ["uniform", "random"])
    def test_matches_segmentwise_quad(self, table):
        rng = np.random.default_rng(7)
        q = (np.linspace(-10.0, 10.0, 41) if table == "uniform"
             else np.sort(rng.uniform(-10.0, 10.0, 41)))
        J = np.exp(-q ** 2 / 8.0) * np.cos(2.0 * q) + 0.1 * rng.normal(size=41)
        # the log zero q_lo = r - t on a node, 1 and 3 ulps of r either side
        # of it, between two nodes, and below the table; t = 400 puts the
        # segments of the smooth half far from the log zero, where closed
        # forms cancel
        for t in (40.0, 400.0):
            on_node = t + q[17]
            ulp = np.spacing(on_node)
            rs = [on_node, on_node + ulp, on_node - ulp, on_node + 3 * ulp,
                  on_node - 3 * ulp, t + 0.5 * (q[25] + q[26]), t + q[0] - 2.0]
            for r in rs:
                got = float(integrate_log_kernel(q, J, t, r))
                want = segmentwise_log_kernel(q, J, t, r)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_past_the_table_is_zero(self):
        q = np.linspace(0.0, 1.0, 5)
        assert integrate_log_kernel(q, np.ones(5), 10.0, 11.5) == 0.0

    def test_vectorized_equals_per_point(self):
        q = np.linspace(-5.0, 5.0, 101)
        J = np.exp(-q ** 2)
        t = np.repeat([30.0, 60.0], 200)
        r = t + np.tile(np.linspace(-6.0, 6.0, 200), 2)
        together = integrate_log_kernel(q, J, t, r)
        one_by_one = [float(integrate_log_kernel(q, J, tt, rr))
                      for tt, rr in zip(t, r)]
        np.testing.assert_array_equal(together, one_by_one)


class TestModALbar:
    def test_zero_source_identity(self):
        q = np.linspace(-5.0, 10.0, 31)
        val = mod_ALbar(0.7, q, np.zeros_like(q), t=20.0, r=15.0)
        assert val == pytest.approx(0.7, abs=1e-12)

    def test_indicator_closed_form(self):
        # J_Lbar = indicator of [0,1], which this table's linear
        # interpolant (zero outside it) represents exactly
        t, r = 10.0, 6.0  # r - t = -4 < 0
        a, b = t + r, t - r
        # closed form: int_0^1 ln((eta+a)/(eta+b)) deta
        exact = ((1 + a) * np.log(1 + a) - a * np.log(a)
                 - (1 + b) * np.log(1 + b) + b * np.log(b))
        got = mod_ALbar(0.0, np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                        t=t, r=r)
        # A^mod = A - (1/2r) * integral of J_Lbar * ln(...) = -(1/2r) exact
        assert got == pytest.approx(-exact / (2 * r), rel=1e-12)

    def test_coverage_error(self):
        # the rays need the table down to q = r - t = -0.5 < q_min = 0
        q = np.linspace(0.0, 5.0, 11)
        with pytest.raises(ValueError, match="does not cover"):
            mod_ALbar(np.zeros(2), q, np.zeros_like(q), t=np.array([1.0, 1.0]),
                      r=np.array([2.0, 0.5]), q_min=0.0)

    def test_log_singular_endpoint(self):
        # a smooth tabulated J_Lbar crossing the singular endpoint eta = r - t:
        # the integral must match a brute-force substitution quadrature of
        # the same interpolant
        t, r = 30.0, 33.0
        q_lo = r - t
        q = np.linspace(-4.0, 8.0, 61)
        Jt = -2.0 * np.exp(-q ** 2)
        J = lambda e: np.interp(e, q, Jt, left=0.0, right=0.0)
        kinks = np.sqrt(q[(q > q_lo) & (q < 8.0)] - q_lo)

        def brute():
            # eta = q_lo + u^2 regularizes the log endpoint
            val, _ = quad(lambda u: 2 * u * J(q_lo + u * u)
                          * np.log((q_lo + u * u + t + r) / (u * u)),
                          0.0, np.sqrt(8.0 - q_lo), points=kinks, limit=400,
                          epsabs=1e-12)
            return val
        got = mod_ALbar(0.0, q, Jt, t=t, r=r)
        assert got == pytest.approx(-brute() / (2 * r), abs=1e-9)


class TestBuildRadiationTable:
    def slices(self, grid):
        out = {}
        for t in (60.0, 80.0):
            st = FieldState.zeros(grid, t=t)
            r = grid.r
            bump = np.exp(-(r - t) ** 2 / 4.0)
            st.phi = bump * np.exp(0.7j * (r - t)) / (1.0 + r)
            st.a0 = 0.01 * bump / (1.0 + r)
            st.ar = -0.004 * bump * (r - t) / (1.0 + r)
            out[t] = st
        return out

    def test_columns_match_per_q_loops(self):
        # the per-q loops the array calls replaced; q up to 18 leaves the
        # t = 80 slice's domain (0.95 r_max = 95) before the t = 60 one
        grid = RadialGrid(100.0, 1000)
        Q = -0.3
        q_grid = np.arange(-8.0, 36.0 + 0.1, 0.2)
        slices = self.slices(grid)
        table = build_radiation_table(slices, grid, Q, q_grid)
        prev, last = slices[60.0], slices[80.0]
        phi0 = np.zeros(len(q_grid), dtype=complex)
        held = []       # how many of the two slices hold each q
        mod = np.zeros(len(q_grid))
        for i, q in enumerate(q_grid):
            vals = []
            for st in (prev, last):
                x = st.t + q
                if x <= 4.0 * grid.h or x >= 0.95 * grid.r_max:
                    continue
                ph = complex(interp_values(st.phi, grid, x)[0])
                vals.append(x * ph * complex(charge_phase(Q, x)))
            if vals:
                phi0[i] = vals[-1]
            held.append(len(vals))
        for i, q in enumerate(q_grid):
            x = last.t + q
            if x <= 4.0 * grid.h or x >= 0.95 * grid.r_max:
                continue
            a0 = float(interp_values(last.a0, grid, x)[0])
            ar = float(interp_values(last.ar, grid, x)[0])
            mod[i] = x * mod_ALbar(a0 - ar, q_grid, table.J_Lbar, last.t, x,
                                   q_min=q_grid[0])
        assert set(held) == {0, 1, 2}
        np.testing.assert_array_equal(table.Phi0, phi0)
        np.testing.assert_array_equal(table.J_Lbar, compute_J_asym(q_grid, phi0))
        np.testing.assert_array_equal(table.A_Lbar_mod, mod)
        assert np.any(mod != 0.0)


class TestEnvelopeCheck:
    class Snap:
        def __init__(self, t, r, phi):
            self.t = t
            self.r = r
            self.phi = phi

    def test_zero_quantity(self):
        spec = EnvelopeSpec(a=-1.0, b=0.5)
        snaps = [self.Snap(2.0, np.linspace(0, 10, 11), np.zeros(11))]
        sup, _ = envelope_check(snaps, spec, "phi")
        assert sup == 0.0

    def test_quantity_equal_envelope(self):
        spec = EnvelopeSpec(a=-1.0, b=0.5, c=-0.4)
        r = np.linspace(0.0, 10.0, 21)
        snaps = [self.Snap(t, r, spec(t, r)) for t in (2.0, 5.0, 9.0)]
        sup, arg = envelope_check(snaps, spec, "phi")
        assert sup == pytest.approx(1.0, rel=1e-12)

    def test_argmax_location(self):
        spec = EnvelopeSpec()
        r = np.linspace(0, 10, 101)
        field = np.exp(-((r - 4.0) ** 2))
        snaps = [self.Snap(3.0, r, field)]
        sup, arg = envelope_check(snaps, spec, "phi")
        assert arg[0] == 3.0
        assert arg[1] == pytest.approx(4.0, abs=0.1)


class TestChargePhase:
    def test_unit_modulus(self):
        r = np.linspace(0, 100, 11)
        ph = charge_phase(2.5, r)
        assert np.allclose(np.abs(ph), 1.0, rtol=1e-15)

    def test_slope_matches_definition(self):
        Q = 3.0
        r = 10.0
        assert np.angle(charge_phase(Q, r)) == pytest.approx(
            Q / (4 * np.pi) * np.log1p(r))
