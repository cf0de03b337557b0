"""Shared quadrature helpers.

Adaptive 1-D integration delegates to QUADPACK (Gauss-Kronrod) through
scipy; on top of that this module provides the pieces the asymptotic
evaluators need repeatedly: fixed-order Gauss-Legendre panels, integrals
against the logarithmic null kernel ln((eta+t+r)/(eta+t-r)) whose lower
endpoint is log-singular, and a product quadrature on the unit sphere.
"""
from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def gl_panel(f, a: float, b: float, order: int = 20) -> float:
    """Fixed-order Gauss-Legendre on [a, b] for a vectorized integrand."""
    x, w = gauss_legendre(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.dot(w, f(mid + half * x)))


def integrate_log_kernel(j, q_lo: float, q_hi: float, t: float, r: float,
                         abs_tol: float = 1e-8) -> float:
    """Evaluate int_{q_lo}^{q_hi} j(eta) * ln((eta+t+r)/(eta+t-r)) deta.

    The kernel has an integrable logarithmic singularity when the lower
    limit sits at eta = r - t (there eta + t - r = 0).  The integral is
    split as j*ln(eta+t+r) minus j*ln(eta+t-r); the singular half is
    handled with the QUADPACK log-weight rule when the endpoint is within
    round-off of r - t, and plain adaptive quadrature otherwise.
    """
    if q_hi <= q_lo:
        return 0.0
    a_plus = t + r
    with warnings.catch_warnings():
        # near-zero integrands trip QUADPACK's roundoff heuristics; the
        # absolute target is what matters here
        warnings.simplefilter("ignore", IntegrationWarning)
        val_plus, _ = quad(lambda e: j(e) * np.log(e + a_plus), q_lo, q_hi,
                           epsabs=abs_tol, epsrel=1e-12, limit=200)
        b_minus = t - r
        sing = q_lo + b_minus  # location of log zero relative to eta = q_lo
        if abs(sing) < 1e-12 * max(1.0, abs(q_lo)):
            # ln(eta + t - r) = ln(eta - q_lo): QUADPACK 'alg-loga' weight
            val_minus, _ = quad(j, q_lo, q_hi, weight="alg-loga",
                                wvar=(0.0, 0.0), epsabs=abs_tol,
                                epsrel=1e-12, limit=200)
        elif sing > 0:
            val_minus, _ = quad(lambda e: j(e) * np.log(e + b_minus),
                                q_lo, q_hi, epsabs=abs_tol, epsrel=1e-12,
                                limit=200)
        else:
            raise ValueError(
                f"log kernel singular inside the integration range: "
                f"r-t = {r - t} > q_lo = {q_lo}")
    return val_plus - val_minus


def sphere_quadrature(n_mu: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Product Gauss-Legendre (cos theta) x uniform (azimuth) rule on S^2.

    Returns (omega, weights) with omega of shape (n_mu*n_phi, 3); weights
    sum to 4*pi.
    """
    mu, wmu = gauss_legendre(n_mu)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    wphi = 2.0 * np.pi / n_phi
    smu = np.sqrt(1.0 - mu ** 2)
    omega = np.empty((n_mu * n_phi, 3))
    weights = np.empty(n_mu * n_phi)
    k = 0
    for i in range(n_mu):
        omega[k:k + n_phi, 0] = smu[i] * np.cos(phi)
        omega[k:k + n_phi, 1] = smu[i] * np.sin(phi)
        omega[k:k + n_phi, 2] = mu[i]
        weights[k:k + n_phi] = wmu[i] * wphi
        k += n_phi
    return omega, weights


def sphere_integral_adaptive(f, abs_tol: float = 1e-8, n_start: int = 16,
                             n_max: int = 1024) -> float:
    """Integrate f(omega) over S^2, doubling the mu-order until stable.

    f takes an (m, 3) array of unit vectors and returns m values.
    """
    n = n_start
    omega, w = sphere_quadrature(n, max(4, n // 2))
    prev = float(np.dot(w, f(omega)))
    while n <= n_max:
        n *= 2
        omega, w = sphere_quadrature(n, max(4, n // 2))
        cur = float(np.dot(w, f(omega)))
        if abs(cur - prev) < abs_tol:
            return cur
        prev = cur
    raise RuntimeError(
        f"sphere quadrature did not reach {abs_tol} by mu-order {n_max}")
