"""Smoke test of the benchmark at its smallest run length.

    python3 -m pytest -q bench/test_smoke.py

For every workload it runs the benchmark untraced and traced with
``--seconds 1`` (whole passes up to the 100-task minimum) and checks that
every metric of BENCHMARK.json is printed with its unit, that no task failed,
and that the two runs give the same result digest.  It also checks that the
tracer's call counts equal cProfile's on pass 0, and pins the defect that
bounds the growth of the flows-numeric inputs.  It takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stderr
    report, result = (json.loads(line) for line in out.stdout.splitlines())
    return report, result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    runs = [bench(workload, 0), bench(workload, 1)]
    for (report, result), kind in zip(runs, ("end_to_end", "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert units(result) == {m["name"]: m["unit"] for m in SPEC[kind]}
        assert report["fail_ratio"] == 0 and result["failed"] == 0
        assert result["correct"] is True
    assert runs[0][0]["digest"] == runs[1][0]["digest"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_trace_counts_match_cprofile(workload):
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--mode", "profile"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stdout + out.stderr
    check = json.loads(out.stdout.splitlines()[-1])
    assert check["calls"] > 0 and check["mismatches"] == {}


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="the CMPoint check v_i . w_i = -1 has a tolerance "
                   "that does not scale with |v_i| |w_i|")
def test_flow_past_growth_bound():
    """A flow with growth |lam^k t| |alpha| = 12, past the workload's
    MAX_GROWTH of 8: v(t) = (cosh 12, sinh 12) is computed to 1e-15, yet the
    point check rejects it at tolerance 1e-8.  When this passes, the bound in
    workloads.py can go."""
    sys.path.insert(0, str(ROOT / "src"))
    from cmgrass import cmspace, flows
    from cmgrass.scalar import Scalar, set_tolerance, tolerance

    p = cmspace.CMPoint(n=1, r=2, lam=[2], alpha=[0], vrow=[[1, 0]],
                        wcol=[[-1, 0]])
    alpha = [[0, 30], [30, 0]]
    t = Scalar.numeric(0.1)
    old = tolerance()
    set_tolerance(1e-8)
    try:
        closed = flows.flow_closed(p, 2, alpha, t)
        rk4 = flows.flow_numeric(cmspace.from_cd_coords(p), 2, alpha, t,
                                 steps=1000)
        assert cmspace.canonicalize(rk4) == closed
    finally:
        set_tolerance(old)
