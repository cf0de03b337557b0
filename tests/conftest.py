"""Shared test plumbing: the acceptance criteria register their PASS/FAIL
verdict lines here so they appear in the terminal summary even under
captured output; coulomb_capped_profile builds the static Coulomb states
several modules test against."""
import numpy as np

VERDICT_LINES = []


def record_verdict(line: str) -> None:
    VERDICT_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)


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
