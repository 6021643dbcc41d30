"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload scenario_study --seed 1 --seconds 20 --trace 0

Run from a source checkout (the package is imported from its `src/`).
With `--trace 0` the last stdout line holds the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run; the lines before it
give every named metric with its median, tail percentile and sample
count, the artifact digest and the machine record. Results and spans are
also written under `.perfbench_out/` in the checkout. See
perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("scenario_study", "field_ensemble", "dose_sweep", "fit_batch")
SETUP_PROBES = 5
DEADLINE_S = 170.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

END_TO_END_UNITS = {"setup_s": "s", "workload_s": "s", "peak_rss_mb": "MB"}


def timing(values):
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail_pct": None, "tail": None}
    eligible = [p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0]
    if eligible:
        p = eligible[-1]
        out["tail_pct"] = p
        out["tail"] = xs[max(0, math.ceil(p / 100.0 * n) - 1)]
    return out


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _remaining(started):
    return max(1.0, DEADLINE_S - (time.monotonic() - started))


def setup_seconds(workload, size, started):
    probes = []
    for _ in range(SETUP_PROBES if size == "full" else 2):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, size],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=_remaining(started),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        probes.append(float(proc.stdout.strip().splitlines()[-1]))
    return probes


def run_worker(args, started):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        "--out", str(OUT),
    ]
    if args.corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=_remaining(started))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


FIT_NORMAL_ITERATION_DAYS = 100 * 50.0


def workload_seconds(res):
    """Seconds per pass. On fit_batch the work of a pass depends on the seeded data (how many
    L-BFGS-B iterations each series takes, and how far each iteration integrates: to the
    series' last observation day), so each `fit` command is scaled to 100 iterations on a
    50-day series. Only fit_batch records such work."""
    scaled = [took * FIT_NORMAL_ITERATION_DAYS / counted["iteration_days"]
              for took, counted in res["work"] if counted["iteration_days"] > 0]
    return scaled or res["pass_seconds"]  # unscaled only when no `fit` produced results


def named_metrics(res, setup):
    """Every end-to-end metric of the workload, by name (see README.md)."""
    s = res["samples"]
    named = {
        "setup_s": ("s", timing(setup)),
        "workload_s": ("s", timing(workload_seconds(res))),
        "peak_rss_mb": ("MB", res["peak_rss_mb"]),
        "failed_frac": ("ratio", res["failed"] / res["attempted"]),
    }
    if "simulate_s" in s:
        named["simulate_s"] = ("s", timing(s["simulate_s"]))
    if "ensemble_run_s" in s:
        named["ensemble_runs_per_s"] = ("runs/s", len(s["ensemble_run_s"]) / sum(s["ensemble_run_s"]))
        named["large_field_s"] = ("s", timing(s["large_field_s"]))
    if "sweep_s" in s:
        named["sweep_s"] = ("s", timing(s["sweep_s"]))
        named["verify_s"] = ("s", timing(s["verify_s"]))
    if res["workload"] == "fit_batch" and res["work"]:
        cores = res["machine"]["cpus_usable"]
        named[f"fit_series_s[threads=2,cores={cores}]"] = (
            "s/series", timing([took / counted["series"] for took, counted in res["work"]])
        )
    return named


def _fmt(value):
    if isinstance(value, dict):
        tail = f", p{value['tail_pct']:g} {value['tail']:.6g}" if value["tail_pct"] is not None else ", no tail pct"
        return f"median {value['median']:.6g}{tail} (n={value['n']})"
    return f"{value:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the self-test")
    ap.add_argument("--corrupt", action="store_true", help="self-test: damage one artifact")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "lettucesim" / "__init__.py").is_file():
        print(f"no lettucesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setup = setup_seconds(args.workload, args.size, started)
        res = run_worker(args, started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    named = named_metrics(res, setup)
    res["setup_probes"] = setup
    res["named"] = {k: {"unit": u, "value": v} for k, (u, v) in named.items()}
    if args.trace:
        from spans import PER_LAYER_UNITS

        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in res["per_layer"].items()}
    else:
        metrics = {
            k: {"value": named[k][1]["median"] if isinstance(named[k][1], dict) else named[k][1], "unit": unit}
            for k, unit in END_TO_END_UNITS.items()
        }
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(res, indent=1))

    m = res["machine"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} size={args.size} passes={res['passes']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    print(f"  machine: nproc={m['nproc']} usable={m['cpus_usable']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} lettucesim={m['lettucesim']}")
    for name, (unit, value) in named.items():
        print(f"  {name:<36} {_fmt(value)} {unit}")
    if args.trace:
        print(f"  top-level span coverage of timed work: {res['top_level_coverage']:.4f}")
        for name, value in res["layer_self_s"].items():
            print(f"  self time {name:<12} {value:.6g} s/pass")
    print(f"  artifacts sha256 (first pass): {res['digest']}")
    for failure in res["failures"]:
        print(f"  FAILED {failure.strip().splitlines()[-1]}")
    print(f"  results: {results.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
