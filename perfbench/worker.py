"""Run one workload in this (fresh) interpreter and write its result as JSON.

Started by run.py; not meant to be run by hand. Passes of the workload
repeat until the next one would end after `--seconds` of wall time
(at least one pass runs). Only the operations themselves are timed;
input preparation, oracles, digests and clean-up are not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lettucesim  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402


def machine_record():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lettucesim": lettucesim.__version__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", action="store_true", help="self-test: damage one artifact")
    ap.add_argument("--out", required=True, help="directory for spans and scratch outputs")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if not Path(lettucesim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"lettucesim imported from {lettucesim.__file__}, not from {src}")

    out_root = Path(args.out)
    work_dir = out_root / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(sys.modules)
        tracer.start_run("setup")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, work_dir)
    if tracer:
        tracer.stop_run()

    samples = {}
    pass_seconds = []
    work = []  # (seconds, Op.count) for operations whose work depends on their data
    attempted = failed = 0
    failures = []
    digest = hashlib.sha256()
    corrupt_pending = args.corrupt

    start = time.perf_counter()
    last_pass_wall = 0.0
    index = 0
    while True:
        # start another pass only if it should end within the budget
        pass_start = time.perf_counter()
        if pass_seconds and pass_start - start + last_pass_wall > args.seconds:
            break
        timed = 0.0
        for op in workload.ops(index):
            attempted += 1
            op.prepare()
            run_id = f"p{index}:{op.label}"
            if tracer:
                tracer.start_run(run_id)
            t0 = time.perf_counter()
            try:
                value = op.run()
                error = None
            except Exception:
                value, error = None, traceback.format_exc(limit=3)
            took = time.perf_counter() - t0
            ran = error is None
            if tracer:
                tracer.stop_run()
            timed += took
            samples.setdefault(op.sample, []).append(took)
            if ran:
                try:
                    if op.count is not None:
                        work.append((took, op.count(value)))
                    if corrupt_pending and op.corrupt is not None:
                        op.corrupt()
                        corrupt_pending = False
                    op.check(value)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                failures.append(f"{run_id}: {error}")
            if index == 0:
                workloads.digest_update(digest, op.artifacts(value) if ran else [])
            op.cleanup()
        pass_seconds.append(timed)
        last_pass_wall = time.perf_counter() - pass_start
        index += 1
    shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "machine": machine_record(),
        "passes": index,
        "pass_seconds": pass_seconds,
        "samples": samples,
        "work": work,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.uninstall()
        spans = tracer.spans
        timed_spans = [s for s in spans if s[6] != "setup"]
        result["per_layer"] = tracing.per_layer_metrics(
            spans, tracer.failed, index, sum(samples.get("fit_s", ()))
        )
        result["layer_self_s"] = {k: v / index for k, v in tracing.layer_self_seconds(timed_spans).items()}
        result["top_level_coverage"] = tracing.top_level_coverage(timed_spans) / sum(pass_seconds)
        spans_path = out_root / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "thread", "run", "attrs")
        spans_path.write_text(json.dumps([dict(zip(fields, s)) for s in spans]))
        result["spans_file"] = str(spans_path)
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
