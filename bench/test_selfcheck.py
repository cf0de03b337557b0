"""Self-checks of the benchmark at tiny sizes.

    python3 -m pytest bench/test_selfcheck.py -q

They run the real command on tenfold smaller grids (--tiny) and check the
printed metrics against BENCHMARK.json, the gate against perturbed
references, and the refusal to run outside a checkout.
"""
from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import gate
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("bench", "run.py")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert run.END_TO_END == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(run.WORKLOADS) == [w["name"] for w in spec["workloads"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(ln.split()[:1] == [m["name"]] and ln.split()[2] == m["unit"]
                   for ln in lines[:-1]), m["name"]
    assert any(ln.startswith("gate_fail_frac 0.0000 frac") for ln in lines)


@pytest.fixture(scope="module")
def tiny_summaries():
    out = {}
    env = dict(os.environ, PYTHONHASHSEED="0", **run.PINNED)
    for workload in run.WORKLOADS:
        args = type("Args", (), {"workload": workload, "seed": 3, "tiny": True})
        work_dir = os.path.join(".bench_run", "selfcheck", workload)
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            rep = run.run_rep(args, 0, False, work_dir, env, timeout=170)
        finally:
            os.chdir(cwd)
        assert "error" not in rep, rep.get("error")
        out[workload] = rep["summary"]
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_gate_accepts_reference_and_rejects_each_perturbation(tiny_summaries, workload):
    summary = tiny_summaries[workload]
    ref = gate.load_reference("tiny", workload)
    assert gate.compare(summary, ref) == []
    for key, val in ref["values"].items():
        bad = copy.deepcopy(ref)
        bad["values"][key] = (1.0 if math.isnan(val)
                              else val * (1.0 + 10 * gate.RTOL) + 10 * gate.ATOL)
        errors = gate.compare(summary, bad)
        assert len(errors) == 1 and key in errors[0], (key, errors)
    for key in ref["verdicts"]:
        bad = copy.deepcopy(ref)
        bad["verdicts"][key] = not bad["verdicts"][key]
        assert len(gate.compare(summary, bad)) == 1
    for key in ref["bounded"]:
        bad = copy.deepcopy(ref)
        bad["bounded"][key] = [bad["bounded"][key][0], 0.0]
        assert gate.compare(summary, bad)


def test_changed_output_bytes_count_as_failure(tiny_summaries):
    rep = {"summary": tiny_summaries["quick_run"], "gate_errors": []}
    other = copy.deepcopy(rep)
    other["summary"]["hashes"]["report.json"] = "0" * 64
    assert run.failures([rep, rep]) == []
    assert run.failures([rep, other]) == ["rep 1: output files differ from rep 0"]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("quick_run", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
