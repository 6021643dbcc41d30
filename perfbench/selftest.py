"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Checks that each workload runs and prints every metric with its unit,
untraced and traced; that a corrupted trajectory.csv value is counted as
a failure; and that the traced run's top-level spans cover the workload's
timed work. Exits non-zero on the first check that fails. It is not part
of the package's test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, OUT, WORKLOAD_NAMES  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402

NAMED = {
    "scenario_study": ("simulate_s",),
    "field_ensemble": ("ensemble_runs_per_s", "large_field_s"),
    "dose_sweep": ("sweep_s", "verify_s"),
    "fit_batch": ("fit_series_s[threads=2,cores=",),
}
COMMON = ("setup_s", "workload_s", "peak_rss_mb", "failed_frac")


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    results = json.loads((OUT / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    return proc.stdout, last, results


def check_metrics(metrics, units):
    assert set(metrics) == set(units), sorted(set(metrics) ^ set(units))
    for name, entry in metrics.items():
        assert entry["unit"] == units[name], (name, entry)
        assert isinstance(entry["value"], (int, float)), (name, entry)


def main():
    for workload in WORKLOAD_NAMES:
        stdout, last, results = run(workload, 0)
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, last
        check_metrics(last["metrics"], END_TO_END_UNITS)
        for prefix in COMMON + NAMED[workload]:
            names = [n for n in results["named"] if n.startswith(prefix)]
            assert names, f"{workload}: no {prefix}"
            for name in names:
                assert name in stdout and results["named"][name]["unit"] in stdout, name
        print(f"ok  {workload}: end-to-end metrics and units")

        stdout, last, results = run(workload, 1)
        assert last["correct"], last
        check_metrics(last["metrics"], PER_LAYER_UNITS)
        coverage = results["top_level_coverage"]
        assert coverage >= 0.95, f"{workload}: top-level spans cover {coverage:.2%} of timed work"
        print(f"ok  {workload}: per-layer metrics; top-level spans cover {coverage:.2%}")

    _, last, results = run("scenario_study", 0, "--corrupt")
    assert not last["correct"] and last["failed"] >= 1, last
    assert any("trajectory.csv" in f for f in results["failures"]), results["failures"]
    print(f"ok  corrupted trajectory.csv counted: failed {last['failed']} of {last['attempted']}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
