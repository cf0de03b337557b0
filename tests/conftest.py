"""Shared test plumbing: the acceptance criteria register their PASS/FAIL
verdict lines here so they appear in the terminal summary even under
captured output; coulomb_capped_profile builds the static Coulomb states
several modules test against; GaugeFunction and gauge_transform are the
gauge map the gauge-covariance tests apply to a slice; run_python runs a
fresh interpreter on this checkout."""
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

from mkglab.core import FieldState
from mkglab.grid import RadialGrid

VERDICT_LINES = []


def record_verdict(line: str) -> None:
    VERDICT_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)


TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with args, importing mkglab from src/ and the
    test modules from tests/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=600)


def coulomb_capped_profile(Q: float, r_cap: float = 1.0):
    """Static potential Q/(4 pi r) smoothly capped inside r < r_cap.

    Used for pure-Coulomb validation states: quadratic match keeps a0 C^1.
    """
    def f(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        far = r >= r_cap
        out[far] = Q / (4.0 * np.pi * r[far])
        # parabola a - b r^2 matched to value and slope at r_cap
        a = 3.0 * Q / (8.0 * np.pi * r_cap)
        b = Q / (8.0 * np.pi * r_cap ** 3)
        out[~far] = a - b * r[~far] ** 2
        return out
    return f


class GaugeFunction:
    """Gauge parameter psi(t, r) with the derivatives a full-state map needs.

    Callables take (t, r_array) and return arrays.  psi_tt and psi_tr are
    required to transform the time-derivative fields consistently.
    """

    def __init__(self, psi, psi_t, psi_r, psi_tt=None, psi_tr=None):
        self.psi = psi
        self.psi_t = psi_t
        self.psi_r = psi_r
        self.psi_tt = psi_tt if psi_tt is not None else (lambda t, r: np.zeros_like(r))
        self.psi_tr = psi_tr if psi_tr is not None else (lambda t, r: np.zeros_like(r))

    @staticmethod
    def constant(c: float) -> "GaugeFunction":
        z = lambda t, r: np.zeros_like(r)
        return GaugeFunction(lambda t, r: np.full_like(r, c), z, z, z, z)


def gauge_transform(state: FieldState, grid: RadialGrid, gauge: GaugeFunction) -> FieldState:
    """Apply A -> A + d psi, phi -> e^{-i psi} phi on the slice.

    With D = d + iA the phase must rotate opposite to the potential shift
    for D phi to transform covariantly; this keeps F_{tr}, |phi|, and the
    current J invariant (the latter up to the O(h^2) mismatch between the
    analytic derivatives of psi and the grid differencing).
    """
    t, r = state.t, grid.r
    psi = gauge.psi(t, r)
    psi_t = gauge.psi_t(t, r)
    phase = np.exp(-1j * psi)
    return replace(
        state,
        phi=phase * state.phi,
        phi_t=phase * (state.phi_t - 1j * psi_t * state.phi),
        a0=state.a0 + psi_t,
        a0_t=state.a0_t + gauge.psi_tt(t, r),
        ar=state.ar + gauge.psi_r(t, r),
        ar_t=state.ar_t + gauge.psi_tr(t, r),
    )
