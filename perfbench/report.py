"""Per-workload table of self time by layer next to the untraced numbers.

    python3 perfbench/report.py [--seed N]

Reads the results run.py wrote under `.perfbench_out/results/` (one
untraced and one traced run per workload, same seed) and prints a
markdown report, also written to `.perfbench_out/report.md`. Tracing
overhead is the traced minus the untraced `workload_s`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402
from spans import REPORT_LAYERS  # noqa: E402


def _load(workload, seed, trace):
    path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def _median(res, name):
    value = res["named"][name]["value"]
    return value["median"] if isinstance(value, dict) else value


def control_share_of_large_field(res):
    """Control spans' share of the large-field runs' wall time, from the spans file."""
    spans = json.loads(Path(res["spans_file"]).read_text())
    runs = {s["run"] for s in spans if s["run"].endswith(":large_field")}
    top = sum(s["end"] - s["start"] for s in spans if s["run"] in runs and s["parent"] is None)
    control = sum(s["end"] - s["start"] for s in spans if s["run"] in runs and s["name"].startswith("control."))
    return control / top if top else 0.0


def shape_checks(workload, traced):
    """The attribution the benchmark's design predicts, as measured."""
    pl = traced["per_layer"]
    if workload == "scenario_study":
        share = pl["field.export_trajectory_s"] / _median(traced, "simulate_s")
        return [f"field.export_trajectory_s / simulate_s = {share:.1%} (expected about 80%)"]
    if workload == "field_ensemble":
        return [
            f"control spans / large_field_s = {control_share_of_large_field(traced):.1%} (expected about 40%)",
            f"exporter and fitting work: export_trajectory_s={pl['field.export_trajectory_s']}, "
            f"fitting.fit_s={pl['fitting.fit_s']} (expected 0)",
        ]
    if workload == "fit_batch":
        covered = pl["fitting.cost_calls_per_fit"] * pl["fitting.cost_ms"] / 1e3 / pl["fitting.fit_s"]
        cores = traced["machine"]["cpus_usable"]
        return [
            f"fitting.cost spans / fitting.fit_s = {covered:.1%} (expected at least 95%)",
            f"fitting.parallelism = {pl['fitting.parallelism']:.2f} with --threads 2 on {cores} cores",
        ]
    return []


def report(seed):
    lines = [
        f"# perfbench trace report (seed {seed})",
        "",
        "Self time is summed over threads, so with `fit --threads 2` a layer's share of the",
        "pass can exceed 100%; time a thread waits for the interpreter lock counts as its",
        "span's own time.",
        "",
    ]
    for workload in WORKLOAD_NAMES:
        plain, traced = _load(workload, seed, 0), _load(workload, seed, 1)
        if plain is None or traced is None:
            lines += [f"## {workload}", "", "missing untraced or traced result for this seed", ""]
            continue
        m = plain["machine"]
        untraced_s = _median(plain, "workload_s")
        traced_s = _median(traced, "workload_s")
        lines += [
            f"## {workload}",
            "",
            f"machine: nproc {m['nproc']}, {m['cpu_model']}, Python {m['python']}, numpy {m['numpy']}, "
            f"scipy {m['scipy']}, lettucesim {m['lettucesim']}",
            "",
            "| untraced metric | value | unit |",
            "|---|---|---|",
        ]
        for name, entry in plain["named"].items():
            value = entry["value"]
            shown = f"{value['median']:.4g} (median of {value['n']})" if isinstance(value, dict) else f"{value:.4g}"
            lines.append(f"| {name} | {shown} | {entry['unit']} |")
        lines += [
            "",
            f"tracing overhead: traced {traced_s:.4g} s - untraced {untraced_s:.4g} s = "
            f"{traced_s - untraced_s:+.4g} s per pass ({(traced_s - untraced_s) / untraced_s:+.1%})",
            f"top-level spans cover {traced['top_level_coverage']:.2%} of the traced run's timed work",
            "",
            "| layer | self time s/pass | share of traced pass |",
            "|---|---|---|",
        ]
        pass_s = sum(traced["pass_seconds"]) / traced["passes"]
        for layer in REPORT_LAYERS:
            value = traced["layer_self_s"][layer]
            lines.append(f"| {layer} | {value:.4g} | {value / pass_s:.1%} |")
        lines.append("")
        lines += [f"- {check}" for check in shape_checks(workload, traced)]
        lines.append("")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    text = report(args.seed)
    OUT.mkdir(exist_ok=True)
    (OUT / "report.md").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
