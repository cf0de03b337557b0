"""Correctness gate: compare one run's summary with the recorded reference.

reference.json holds, per size ("full", "tiny") and workload, the summary
of a run of the seed code (see record_reference.py).  A run passes when
  - every verdict id is present with the same pass flag,
  - every value matches its reference to rounding level (RTOL), and
  - every seed-dependent value is finite and below its recorded limit.
"""
from __future__ import annotations

import json
import math
import os

# Rounding level: a reordered kernel moves the fields by ~1e-12 relative
# over thousands of steps; a changed result moves them far more.
RTOL = 1e-7
ATOL = 1e-20

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def load_reference(size: str, workload: str, path: str = REFERENCE) -> dict:
    with open(path) as f:
        return json.load(f)[size][workload]


def _close(value, ref) -> bool:
    if isinstance(ref, float) and math.isnan(ref):
        return isinstance(value, float) and math.isnan(value)
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def compare(summary: dict, ref: dict) -> list[str]:
    """Every way summary differs from ref; empty when the gate passes."""
    errors = []
    for group in ("verdicts", "values", "bounded"):
        got, want = summary[group], ref[group]
        for key in sorted(set(got) ^ set(want)):
            errors.append(f"{group}.{key}: {'missing' if key in want else 'unexpected'}")
    for key in sorted(set(summary["verdicts"]) & set(ref["verdicts"])):
        if summary["verdicts"][key] != ref["verdicts"][key]:
            errors.append(f"verdict {key}: passed={summary['verdicts'][key]}, "
                          f"reference {ref['verdicts'][key]}")
    for key in sorted(set(summary["values"]) & set(ref["values"])):
        got, want = summary["values"][key], ref["values"][key]
        if not _close(got, want):
            errors.append(f"value {key}: {got!r} vs reference {want!r}")
    for key in sorted(set(summary["bounded"]) & set(ref["bounded"])):
        got, limit = summary["bounded"][key]
        if limit != ref["bounded"][key][1]:
            errors.append(f"bounded {key}: limit {limit!r} vs reference "
                          f"{ref['bounded'][key][1]!r}")
        if not (math.isfinite(got) and got < limit):
            errors.append(f"bounded {key}: {got!r} not below {limit!r}")
    return errors
