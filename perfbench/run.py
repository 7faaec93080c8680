"""Host-time benchmark of the simulator and the campaign executor.

Run from the repository root::

    python3 perfbench/run.py --workload agcm-physlb-240 --seed 7 \\
        --seconds 30 --trace 0

Prints every metric by name with its unit, checks every op's output, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  A full record (samples, quartiles, provenance, host calibration)
is written under ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Every workload this script runs.  ``BENCHMARK.json`` gates the first
#: two; the other two are for diagnosis (see README.md).
WORKLOADS = ("agcm-physlb-240", "campaign-tiny-units", "agcm-table5-240",
             "filter-bigmesh-1280")

#: Fresh processes per untraced run; ``setup_s`` is their median.  Each
#: then runs timed ops for an equal share of ``--seconds`` and the samples
#: are pooled, so the samples span the whole run: on a shared host whose
#: speed drifts over tens of seconds, one slow spell weighs less.
SETUPS = 3

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 160

#: Environment shared by every child: the source tree on the path, one
#: BLAS thread, and a fixed string hash so set and dict iteration orders,
#: and with them host timings, repeat from run to run.
CHILD_ENV = {
    "PYTHONPATH": os.path.join(ROOT, "src"),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def load_benchmark():
    """``BENCHMARK.json``: every metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def timing_stats(samples):
    """Sample count, median, quartiles, and the highest percentile that
    has at least ten samples beyond it (absent below eleven samples)."""
    xs = sorted(samples)
    n = len(xs)
    if not n:
        return {"n": 0}
    stats = {"n": n, "p50": statistics.median(xs)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        stats.update(q1=q1, q3=q3)
    if n >= 11:
        stats[f"p{100 * (n - 10) / n:.0f}"] = xs[n - 11]
    return stats


def src_digest() -> str:
    """sha256 over every file under ``src/``: identifies the code measured
    where no git metadata exists."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    """HEAD of this checkout; None when it is not a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_child(workload, seed, seconds, mode):
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode,
           "--out-dir", OUT_DIR, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} child exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    # The default is the seed whose results perfbench/reference/ pins.
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no source tree at {os.path.join(ROOT, 'src', 'repro')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.trace:
        children = [run_child(args.workload, args.seed, args.seconds,
                              "trace")]
    else:
        children = [run_child(args.workload, args.seed,
                              args.seconds / SETUPS, "measure")
                    for _ in range(SETUPS)]

    samples = [s for c in children for s in c["samples"]]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "op_s": timing_stats(samples),
        "setup_s": [c["setup_s"] for c in children],
        "children": [{k: v for k, v in c.items() if k != "per_op"}
                     for c in children],
        "attempted": attempted, "failed": failed,
    }
    if args.trace:
        child = children[0]
        per_op = child["per_op"]
        values = {name: statistics.median(op[name] for op in per_op)
                  for name in per_op[0]} if per_op else {}
        traced = child["traced_samples"]
        values["trace.op_s_p50"] = statistics.median(traced) if traced else 0.0
        values["trace.overhead_frac"] = (
            values["trace.op_s_p50"] / statistics.median(samples) - 1.0
            if traced and samples else 0.0)
        values["failed_frac"] = failed / attempted
        record["traced_op_s"] = timing_stats(traced) if traced else None
        kind = "per_layer"
    else:
        values = {
            "op_s_p50": statistics.median(samples) if samples else 0.0,
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mb": statistics.median(
                c["peak_rss_mb"] for c in children),
            "ok_frac": 1.0 - failed / attempted,
        }
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]}
               for m in bench[kind]}
    record["metrics"] = metrics

    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    stats = record["op_s"]
    print(f"{args.workload} seed={args.seed} ops={stats['n']} "
          f"attempted={attempted} failed={failed} record={path}")
    print("op_s " + " ".join(f"{k}={v:.6g}" for k, v in stats.items()))
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(samples),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
