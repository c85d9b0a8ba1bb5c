"""cmgrass benchmark: one closed-loop client, one task in flight, no threads.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.  Each
workload runs in its own child process (``worker.py``), after
``SETUP_PROBES`` fresh interpreters that only set up, so ``setup_s`` is a
median of fresh starts.  For every workload the script prints a report line
(fail ratio, digest of pass 0) and then the result line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  It exits 1
without a result line when a child fails, and 2 when there is no package.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import normalized

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("bispectral-library", "grass-waves", "flows-numeric")
SETUP_PROBES = 5
# a traced child runs the passes twice, the second time under the tracer
TRACE_ALLOWANCE = 4
# one task in flight and no threads: keep BLAS from spinning on the other core
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


class ChildFailed(Exception):
    pass


def child_timeout(seconds, mode):
    """Seconds a child may take: set-up, then the run, which is whole passes
    of task time plus the reference kernel around each task; a traced child
    runs the passes once untraced and once more under the tracer."""
    if mode == "probe":
        return 60
    return 60 + seconds * (TRACE_ALLOWANCE if mode == "trace" else 3)


def child(workload, seed, seconds, mode):
    """(set-up seconds, set-up split, result or None) of one child.

    Set-up runs from the spawn of a fresh interpreter to its first line,
    printed once the first task is ready, less the child's own reference
    runs, and is normalized by those runs.
    """
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        wall = perf_counter() - t0
        rest, _ = proc.communicate(timeout=child_timeout(seconds, mode))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{mode} child timed out")
    if proc.returncode != 0 or not ready:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    split = json.loads(ready)
    setup = normalized(wall - split["ref_s"], split["ref_before"],
                       split["ref_after"])
    lines = rest.splitlines()
    return setup, split, json.loads(lines[-1]) if lines else None


def run_workload(workload, seed, seconds, trace):
    setups, splits = [], []
    for mode in ["probe"] * SETUP_PROBES + ["trace" if trace else "run"]:
        setup, split, res = child(workload, seed, seconds, mode)
        setups.append(setup)
        splits.append(split)
    if res is None:
        raise ChildFailed("workload child printed no result")
    print(json.dumps({"workload": workload, "seed": seed,
                      "fail_ratio": res["failed"] / res["attempted"],
                      "attempted": res["attempted"], "passes": res["passes"],
                      "digest": res["digest"]}), flush=True)
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
        for part in ("import_s", "inputs_s"):
            metrics[f"setup.{part}"] = {
                "value": statistics.median(s[part] for s in splits),
                "unit": "s"}
        correct = res["failed"] == 0 and res["trace_ok"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "tasks_per_s": {"value": res["tasks_per_s"], "unit": "1/s"},
            "task_s_p50": {"value": res["task_s_p50"], "unit": "s"},
            "task_s_p90": {"value": res["task_s_p90"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        correct = res["failed"] == 0
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cmgrass benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cmgrass" / "__init__.py").is_file():
        print(f"error: no cmgrass package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except ChildFailed as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
