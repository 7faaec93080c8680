"""One fresh benchmark process: set up, warm up, run ops, report JSON.

``run.py`` starts this script once per sample of set-up time, so imports,
lazy caches and peak memory belong to one workload in one process.  The
last line of standard output is a JSON object with this process's
samples; everything before it is free-form.

Modes:

``measure``  set-up (process start to first timed op, including one
             untimed warm-up op), then untraced ops for ``--seconds``.
``trace``    the same set-up, untraced ops for half of ``--seconds``,
             then traced ops for the other half; per-layer numbers come
             from the traced ops and the spans are written to
             ``--out-dir``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from statistics import median

import tracing


def calibrate() -> dict:
    """Time a fixed NumPy and pure-Python loop (median of three)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 256))

    def numpy_part():
        for _ in range(50):
            np.fft.irfft(np.fft.rfft(a, axis=1), n=256, axis=1)
            a @ a.T

    def python_part():
        total = 0
        for i in range(500_000):
            total += i * i % 7
        return total

    out = {}
    for name, fn in (("calib_numpy_s", numpy_part),
                     ("calib_python_s", python_part)):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[name] = median(times)
    return out


def run_ops(wl, seconds: float, tracer=None):
    """Ops back to back until ``seconds`` have been spent measuring."""
    samples, per_op, failed, attempted = [], [], 0, 0
    spent = 0.0
    while spent < seconds:
        gc.collect()
        attempted += 1
        if tracer is not None:
            tracer.op = attempted
            tracer.reset_counts()
            first = len(tracer.names)
            root = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            raw = wl.op(tracer)
        except Exception:  # noqa: BLE001 - an op failure is a result
            traceback.print_exc()
            failed += 1
            spent += time.perf_counter() - t0
            if tracer is not None:
                tracer.end(root)
            continue
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(root)
        spent += dt
        out = wl.outcome(raw)
        del raw
        problems = wl.check(out)
        if problems:
            failed += 1
            print(f"op {attempted} failed its check:", *problems[:10],
                  sep="\n  ", file=sys.stderr)
        else:
            samples.append(dt)
            if tracer is not None:
                per_op.append(layer_metrics(tracer, first, out.counts))
        del out
    return samples, per_op, failed, attempted


def layer_metrics(tracer, first: int, counts: dict) -> dict:
    """Per-layer numbers of the op whose spans start at ``first``."""
    selfs = tracer.self_times(first)

    def self_s(name):
        return selfs.get(name, (0.0, 0))[0]

    ops = sum(tracer.op_counts.values())
    m = {
        "scheduler.self_s": self_s("scheduler"),
        "scheduler.ops": ops,
        "scheduler.ns_per_op": self_s("scheduler") * 1e9 / ops if ops else 0.0,
        "model.self_s": self_s("model"),
        "bench.self_s": self_s("op"),
        "trace.spans": len(tracer.names) - first,
        "physics.columns": tracer.columns,
    }
    for kind in tracing.OP_KINDS:
        m[f"scheduler.ops.{kind}"] = tracer.op_counts.get(kind, 0)
    for layer, span in (("comm", "comm"), ("filter", "filter"),
                        ("halo", "halo"), ("dynamics", "dynamics"),
                        ("physics", "physics"),
                        ("physics_balance", "physics_balance")):
        m[f"{layer}.s"] = self_s(span)
        m[f"{layer}.calls"] = tracer.calls.get(span, 0)
    m["filter.setup_s"] = self_s("filter.setup")
    m["filter.setup_calls"] = tracer.calls.get("filter.setup", 0)
    for layer in ("cache.get", "results_db.record"):
        m[f"{layer}_s"] = self_s(layer)
        m[f"{layer}_calls"] = tracer.calls.get(layer, 0)
    for name in ("sim.messages", "sim.bytes", "sim.virtual_s", "sim.wait_s",
                 "campaign.cold_s", "campaign.warm_s", "campaign.computed",
                 "campaign.hits", "campaign.failed", "campaign.hit_ratio"):
        m[name] = counts.get(name, 0)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), default="measure")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    import numpy as np

    import workloads

    work_dir = os.path.join(args.out_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, work_dir)

    # Warm-up op: fills lazy caches; checked, never timed.
    warm_failed = 0
    try:
        out = wl.outcome(wl.op())
        problems = wl.check(out)
        if problems:
            warm_failed = 1
            print("warm-up op failed its check:", *problems[:10],
                  sep="\n  ", file=sys.stderr)
        del out
    except Exception:  # noqa: BLE001
        traceback.print_exc()
        warm_failed = 1
    gc.collect()
    setup_s = time.monotonic() - args.t0

    result = {"setup_s": setup_s}
    if args.mode == "measure":
        samples, _, failed, attempted = run_ops(wl, args.seconds)
    else:
        half = args.seconds / 2
        samples, _, failed, attempted = run_ops(wl, half)
        tracer = tracing.Tracer()
        patches = tracing.install(tracer, workloads)
        try:
            traced, per_op, t_failed, t_attempted = run_ops(
                wl, half, tracer)
        finally:
            patches.undo()
        failed += t_failed
        attempted += t_attempted
        result["traced_samples"] = traced
        result["per_op"] = per_op
        spans = os.path.join(
            args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(spans)
        result["spans_file"] = spans
    os.rmdir(work_dir)

    result.update(
        samples=samples,
        failed=failed + warm_failed,
        attempted=attempted + 1,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        host=platform.node(),
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    if samples:
        result.update(calibrate())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
