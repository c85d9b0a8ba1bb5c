"""Child process of the benchmark: set up, run one workload, print JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --mode probe|run|trace|profile

The first stdout line reports the set-up as soon as the first task is ready;
``probe`` stops there.  The other modes print one more line with the run's
results.  ``run`` executes whole passes, untraced, until ``S`` seconds of task
time and at least ``MIN_TASKS`` tasks are done.  ``trace`` does the same,
then replays the same passes under the span tracer.  ``profile`` compares the
tracer's call counts on pass 0 with cProfile's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from reference import normalized, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# p90 then has at least ten samples beyond it
MIN_TASKS = 100


def run_pass(workload, tasks, first_id, tracer=None):
    """[(seconds, normalized seconds, ok, output text or None)] per task.

    The reference kernel runs before and after every task, and a task's
    time is normalized by the two reference times around it.
    """
    from workloads import run_task
    out = []
    ref = reference_s()
    for i, (kind, text) in enumerate(tasks):
        if tracer is not None:
            tracer.task = first_id + i
        t0 = perf_counter()
        try:
            ok, result = run_task(workload.tasks[kind], text)
        except Exception:
            traceback.print_exc()
            ok, result = False, None
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.task = -1
        after = reference_s()
        if not ok:
            print(f"task {first_id + i} ({kind}) failed", file=sys.stderr)
        out.append((dt, normalized(dt, ref, after), ok, result))
        ref = after
    return out


def throughput(results):
    """Tasks per second of normalized task time."""
    return len(results) / sum(r[1] for r in results)


def digest(results):
    h = hashlib.sha256()
    for *_, text in results:
        h.update((text or "").encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def bits_max(texts):
    """Largest numerator or denominator bit length among exact scalars."""
    best = 0

    def walk(x):
        nonlocal best
        if isinstance(x, dict):
            if x.get("mode") == "exact":
                for part in (Fraction(x["re"]), Fraction(x["im"])):
                    best = max(best, abs(part.numerator).bit_length(),
                               part.denominator.bit_length())
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    for text in texts:
        if text:
            walk(json.loads(text))
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace", "profile"),
                    required=True)
    args = ap.parse_args(argv)

    r0 = perf_counter()
    ref_before = reference_s()
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cmgrass.cli  # noqa: F401  every module, numpy and scipy
    t1 = perf_counter()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    passes = [workloads.build_pass(args.workload, args.seed, 0)]
    t2 = perf_counter()
    ref_after = reference_s()
    print(json.dumps({
        "import_s": normalized(t1 - t0, ref_before, ref_after),
        "inputs_s": normalized(t2 - t1, ref_before, ref_after),
        "ref_before": ref_before, "ref_after": ref_after,
        "ref_s": t0 - r0 + perf_counter() - t2}), flush=True)
    if args.mode == "probe":
        return 0
    if wl.tolerance is not None:
        from cmgrass.scalar import set_tolerance
        set_tolerance(wl.tolerance)
    if args.mode == "profile":
        return profile_check(wl, passes[0])

    # Untraced, only pass 0's outputs are kept (for the digest), and a later
    # pass's inputs and outputs go once it is timed, so peak_rss_mb does not
    # grow with the number of passes a faster program fits into the run.
    # The traced run keeps them all to replay and compare them.
    keep = args.mode == "trace"
    results = run_pass(wl, passes[0], 0)
    first = digest(results)
    rates = [throughput(results)]
    busy = sum(r[0] for r in results)
    npasses = 1
    while busy < args.seconds or len(results) < MIN_TASKS:
        tasks = workloads.build_pass(args.workload, args.seed, npasses)
        npasses += 1
        more = run_pass(wl, tasks, len(results))
        busy += sum(r[0] for r in more)
        rates.append(throughput(more))
        if keep:
            passes.append(tasks)
        else:
            more = [(dt, norm, ok, None) for dt, norm, ok, _text in more]
        results += more
    lat = [r[1] for r in results]
    report = {
        "attempted": len(results),
        "failed": sum(1 for r in results if not r[2]),
        "passes": npasses,
        "digest": first,
        # every pass holds the same mix, so a pass made slow by its inputs
        # or by the host is one sample of several, not a share of the mean
        "tasks_per_s": statistics.median(rates),
        "task_s_p50": statistics.median(lat),
        "task_s_p90": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if args.mode == "trace":
        report.update(trace(wl, passes, results, args))
    print(json.dumps(report), flush=True)
    return 0


def trace(workload, passes, untraced, args):
    """Replay the same passes under the tracer; per-layer metrics."""
    import tracer as tracing
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = []
        for tasks in passes:
            traced += run_pass(workload, tasks, len(traced), tracer=tr)
    finally:
        tr.uninstall()
    tr.write(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.csv.gz")
    # self times on the same normalized scale as the task times
    scale = sum(r[1] for r in traced) / sum(r[0] for r in traced)
    layers = tracing.layer_metrics(tr.by_name(), tr, scale)
    texts = [text for tasks in passes for _kind, text in tasks]
    outputs = [r[3] for r in untraced]
    layers["scalar.bits_max"] = (bits_max(outputs), "bits")
    layers["serialize.bytes"] = (
        sum(len(t) for t in texts) + sum(len(t or "") for t in outputs),
        "bytes")
    layers["trace.overhead_ratio"] = (
        sum(r[1] for r in traced) / sum(r[1] for r in untraced), "ratio")
    # the tracer must not change a single output
    n0 = len(passes[0])
    same = (digest(traced[:n0]) == digest(untraced[:n0])
            and all(a[2:] == b[2:] for a, b in zip(traced, untraced)))
    return {"layers": layers, "trace_ok": same}


def profile_check(workload, tasks):
    """Tracer call counts on pass 0 against cProfile ncalls."""
    import tracer as tracing
    tr = tracing.Tracer()
    tr.install()
    try:
        run_pass(workload, tasks, 0, tracer=tr)
    finally:
        tr.uninstall()
    traced = {name: v[0] for name, v in tr.by_name().items()}
    profiled = tracing.profile_counts(lambda: run_pass(workload, tasks, 0))
    names = sorted(set(traced) | {k for k, v in profiled.items() if v})
    mismatches = {n: [traced.get(n, 0), profiled.get(n, 0)] for n in names
                  if traced.get(n, 0) != profiled.get(n, 0)}
    print(json.dumps({"functions": len(names), "calls": sum(traced.values()),
                      "mismatches": mismatches}), flush=True)
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
