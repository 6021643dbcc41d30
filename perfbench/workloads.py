"""The four benchmark workloads, their inputs and their output oracles.

A workload is a closed loop from one caller: each operation starts only
after the previous one returned. Every pass of a workload is a fixed list
of operations whose inputs derive from (workload seed, pass index).
Every CLI operation gets its own empty output directory; its oracle runs
after the timed call, outside the timed region, and the directory is
deleted afterwards.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from pathlib import Path

import numpy as np

import lettucesim.cli as cli
import lettucesim.config as config
import lettucesim.field as field
import lettucesim.fitting as fitting
import lettucesim.metrics as metrics
from lettucesim.integrator import PiecewiseConstantSignal, integrate
from lettucesim.model import NOMINAL_PARAMS, PARAM_NAMES, PlantParams

SCENARIOS = ("uncontrolled", "ideal", "sparse_local_noisy")
ENSEMBLE_SCENARIOS = (
    "uncontrolled",
    "ideal",
    "sparse",
    "sparse_local",
    "sparse_local_noisy",
    "ideal_reduced",
    "sparse_local_noisy_reduced",
)
LARGE_FIELD = ("field.n_plants=1000", "field.grid_rows=25", "field.grid_cols=40", "schedule.interval_days=1.0")
FIT_FREE = ("k_l", "k_ml", "sigma_c", "sigma_n", "v", "j_c", "j_n", "psi")  # the CLI default
FIT_THREADS = 2

# Smaller inputs for the self-test; "full" applies no overrides.
TINY_SEASON = ("field.season_days=4.0",)
TINY_FIELD = ("field.n_plants=4", "field.grid_rows=2", "field.grid_cols=2") + TINY_SEASON
TINY_LARGE = ("field.n_plants=9", "field.grid_rows=3", "field.grid_cols=3", "schedule.interval_days=1.0") + TINY_SEASON


class OracleError(Exception):
    """An operation's output is wrong."""


def check(ok, message):
    if not ok:
        raise OracleError(message)


def derived_seed(seed, *keys):
    """A nonnegative 31-bit seed from the workload seed and a key path."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] % (2**31 - 1))


def run_cli(argv):
    """Call `lettucesim.cli.main` as the shell would; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def require_exit_zero(result):
    code, _ = result
    check(code == 0, f"exit code {code}")


def check_cli(result, oracle, *args):
    """A CLI operation passes when it exits 0 and its artifacts pass `oracle`."""
    require_exit_zero(result)
    oracle(*args)


class Op:
    """One timed operation: `run` is timed; `count`, `check` and `cleanup` are not.

    `sample` names the end-to-end timing the operation feeds, `artifacts`
    lists what the digest covers (paths, or bytes for library results).
    `check` raises on a wrong output. Where the operation's work depends on
    its data, `count` returns what it did (fit: series and iterations).
    """

    def __init__(self, label, sample, run, check=None, prepare=None, cleanup=None, artifacts=None,
                 corrupt=None, count=None):
        self.label = label
        self.sample = sample
        self.run = run
        self.check = check or (lambda result: None)
        self.prepare = prepare or (lambda: None)
        self.cleanup = cleanup or (lambda: None)
        self.artifacts = artifacts or (lambda result: [])
        self.corrupt = corrupt  # self-test hook: damage the output before `check`
        self.count = count


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _files(directory):
    return sorted(p for p in Path(directory).rglob("*") if p.is_file())


def digest_update(h, items):
    for item in items:
        if isinstance(item, Path):
            h.update(item.name.encode() + b"\0")
            with open(item, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        else:
            h.update(item)


# --- oracles ---------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _ledger_signal(times, doses):
    return PiecewiseConstantSignal(breakpoints=tuple(times), values=tuple(doses))


def check_simulate(out, cfg, plants):
    """Rebuild chosen plants from ledger.csv and params.csv; trajectory rows must match
    a scalar `integrate` repr for repr."""
    fc = cfg.field
    params_rows = _read_csv(out / "params.csv")
    check(params_rows[0] == ["plant_id", *PARAM_NAMES], "params.csv header")
    check(len(params_rows) == 1 + fc.n_plants, "params.csv row count")
    ledger = _read_csv(out / "ledger.csv")[1:]
    expected = {}
    for i in plants:
        p = PlantParams(**{name: float(v) for name, v in zip(PARAM_NAMES, params_rows[1 + i][1:])})
        rows = [r for r in ledger if int(r[0]) == i]
        check(rows, f"plant {i} has no ledger rows")
        signal = _ledger_signal([float(r[1]) for r in rows], [float(r[2]) for r in rows])
        traj = integrate(p, fc.s0, signal, fc.env, 0.0, fc.season_days, fc.dt)
        expected[i] = [
            [str(i), repr(float(t)), repr(float(b)), repr(float(c)), repr(float(n)), repr(float(y)),
             repr(signal.value_at(float(t)))]
            for t, (b, c, n), y in zip(traj.times, traj.states, traj.outputs)
        ]
    per_plant = len(next(iter(expected.values())))
    lines = 0
    with open(out / "trajectory.csv", newline="") as fh:
        check(fh.readline().rstrip("\r\n") == "plant_id,t,b,c,n,y,u", "trajectory.csv header")
        for k, line in enumerate(fh):
            lines += 1
            plant, j = divmod(k, per_plant)
            if plant in expected:
                row = line.rstrip("\r\n").split(",")
                check(row == expected[plant][j], f"trajectory.csv plant {plant} row {j}: {row} != {expected[plant][j]}")
    check(lines == fc.n_plants * per_plant, f"trajectory.csv has {lines} rows")
    summary = metrics.ScenarioSummary.from_json((out / "summary.json").read_text())
    check(summary.n_plants == fc.n_plants, "summary.json plant count")
    check_summary(summary)


def check_summary(summary):
    values = [summary.mean, summary.variance, summary.threshold, summary.fraction_above_threshold,
              summary.total_nitrogen, *summary.five_number]
    check(all(math.isfinite(v) for v in values), f"summary {summary.name} is not finite")


def check_field_row(traj, i):
    """Plant i of a field run equals a scalar `integrate` under its recorded doses."""
    fc = traj.config
    signal = _ledger_signal(traj.application_times, traj.applied_u[:, i])
    single = integrate(traj.plant_params[i], fc.s0, signal, fc.env, 0.0, fc.season_days, fc.dt)
    check(np.array_equal(traj.states[i], single.states), f"field plant {i} differs from scalar integrate")


def check_report(out, names):
    rows = _read_csv(out / "comparison.csv")
    check([r[0] for r in rows[1:]] == list(names), f"comparison.csv rows {[r[0] for r in rows[1:]]}")


def check_sweep(out, cfg, param_sets, day, cells):
    fc = cfg.field
    rows = _read_csv(out / "dose_response.csv")
    grid = [float(u) for u in rows[0][1:]]
    table = [[float(x) for x in r[1:]] for r in rows[1:]]
    check(len(table) == param_sets, "dose_response.csv row count")
    for i, row in enumerate(table):
        scale = max(abs(x) for x in row)
        check(all(b - a >= -1e-9 * scale for a, b in zip(row, row[1:])), f"sweep row {i} is not monotone")
    for i, j in cells:
        p = field.sample_params(fc.nominal_params, fc.perturbation_frac, fc.seed, i)
        traj = integrate(p, fc.s0, PiecewiseConstantSignal.constant(grid[j]), fc.env, 0.0, day, fc.dt)
        check(rows[1 + i][1 + j] == repr(float(traj.states[-1, 0])), f"sweep cell ({i}, {j})")


def check_verify(result):
    code, stdout = result
    check(code == 0, f"verify-monotone exit code {code}")
    check("verify-monotone: PASS" in stdout, "verify-monotone did not print PASS")


def check_fit(out, dataset):
    rows = _read_csv(out / "fit_results.csv")
    header = rows[0]
    check(header[-1] == "error", "fit_results.csv header")
    check([r[0] for r in rows[1:]] == [s.plant_id for s in dataset], "fit_results.csv plant ids")
    spec = fitting.FitSpec(guess=NOMINAL_PARAMS, fixed=frozenset(PARAM_NAMES) - set(FIT_FREE))
    for row, series in zip(rows[1:], dataset):
        record = dict(zip(header, row))
        check(record["error"] == "", f"fit error row: {record['error']}")
        p = PlantParams(**{name: float(record[name]) for name in PARAM_NAMES})
        recomputed = fitting.cost(p, spec, fitting.to_dry(series))
        check(repr(recomputed) == record["cost"], f"fit cost {record['cost']} != recomputed {recomputed!r}")
    check((out / "nrmse_hist.csv").is_file(), "nrmse_hist.csv missing")


def fit_work(out, dataset):
    """Series fitted and L-BFGS-B iterations run, from fit_results.csv."""
    with open(out / "fit_results.csv", newline="") as fh:
        iterations = {row["plant_id"]: int(row["iterations"] or 0) for row in csv.DictReader(fh)}
    return {
        "series": len(dataset),
        "iterations": sum(iterations.values()),
        # each iteration's integrations run to the series' last observation day
        "iteration_days": sum(iterations.get(s.plant_id, 0) * s.times[-1] for s in dataset),
    }


def corrupt_trajectory(path, plant):
    """Change the last digit of plant `plant`'s first biomass value."""
    lines = path.read_text().split("\n")
    per_plant = (len(lines) - 2) // max(1, int(lines[-2].split(",")[0]) + 1)
    k = 1 + plant * per_plant
    row = lines[k].split(",")
    row[2] = row[2][:-1] + ("1" if row[2][-1] != "1" else "2")
    lines[k] = ",".join(row)
    path.write_text("\n".join(lines))


# --- workloads -------------------------------------------------------------


class Workload:
    """Setup (configs loaded once, before timing) and the ops of each pass."""

    name = ""

    def __init__(self, seed, size, work_dir):
        self.seed = seed
        self.size = size
        self.work = work_dir
        self.configs = {
            (path, overrides): config.load_config(path, list(overrides))
            for path, overrides in self.setup_configs_for(size)
        }

    @classmethod
    def setup_configs_for(cls, size):
        """(config path, overrides) pairs loaded at set-up."""
        return ()

    def ops(self, index):
        raise NotImplementedError

    def pass_seed(self, index):
        return derived_seed(self.seed, index)

    def rng(self, index, key):
        return np.random.default_rng([self.seed, index, key])


class ScenarioStudy(Workload):
    """The paper's study through the CLI: three scenarios, then `report`."""

    name = "scenario_study"

    @classmethod
    def setup_configs_for(cls, size):
        overrides = TINY_FIELD if size == "tiny" else ()
        return tuple((f"builtin:{name}", overrides) for name in SCENARIOS)

    def ops(self, index):
        seed = self.pass_seed(index)
        overrides = TINY_FIELD if self.size == "tiny" else ()
        sets = [arg for item in overrides for arg in ("--set", item)]
        report_dir = self.work / f"p{index}-report"
        summaries = []
        ops = []
        for name in SCENARIOS:
            out = self.work / f"p{index}-{name}"
            cfg = config.with_seed(self.configs[(f"builtin:{name}", overrides)], seed)
            plants = sorted(self.rng(index, SCENARIOS.index(name)).choice(cfg.field.n_plants, 3, replace=False))
            summary_copy = report_dir / "in" / f"{name}.json"
            summaries.append(summary_copy)

            def run(out=out, name=name):
                return run_cli(["simulate", "--config", f"builtin:{name}", "--seed", str(seed),
                                "--out-dir", str(out), *sets])

            def check_op(result, out=out, cfg=cfg, plants=plants, summary_copy=summary_copy):
                require_exit_zero(result)
                summary_copy.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(out / "summary.json", summary_copy)
                check_simulate(out, cfg, plants)

            ops.append(Op(
                f"simulate:{name}", "simulate_s", run, check_op,
                prepare=lambda out=out: _fresh(out),
                cleanup=lambda out=out: shutil.rmtree(out, ignore_errors=True),
                artifacts=lambda result, out=out: _files(out),
                corrupt=lambda out=out, plant=plants[0]: corrupt_trajectory(out / "trajectory.csv", plant),
            ))

        report_out = report_dir / "out"
        ops.append(Op(
            "report", "report_s",
            lambda: run_cli(["report", *map(str, summaries), "--out-dir", str(report_out)]),
            lambda result: check_cli(result, check_report, report_out, SCENARIOS),
            prepare=lambda: _fresh(report_out),
            cleanup=lambda: shutil.rmtree(report_dir, ignore_errors=True),
            artifacts=lambda result: _files(report_out),
        ))
        return ops


class FieldEnsemble(Workload):
    """Library-level Monte Carlo: every builtin at a pass seed, then one large field."""

    name = "field_ensemble"

    @classmethod
    def setup_configs_for(cls, size):
        small = TINY_FIELD if size == "tiny" else ()
        large = TINY_LARGE if size == "tiny" else LARGE_FIELD
        pairs = tuple((f"builtin:{name}", small) for name in ENSEMBLE_SCENARIOS)
        return pairs + (("builtin:sparse_local_noisy", large),)

    def _op(self, label, sample, cfg, plant):
        def run():
            traj = field.simulate_field(cfg.field, cfg.policy, cfg.schedule)
            return traj, metrics.summarize(traj, threshold=cfg.threshold_g, name=cfg.name)

        def check_op(result):
            traj, summary = result
            check_summary(summary)
            check_field_row(traj, plant)

        return Op(label, sample, run, check_op, artifacts=lambda result: [result[1].to_json().encode()])

    def ops(self, index):
        seed = self.pass_seed(index)
        specs = self.setup_configs_for(self.size)
        ops = []
        for k, key in enumerate(specs):
            cfg = config.with_seed(self.configs[key], seed)
            plant = int(self.rng(index, k).integers(cfg.field.n_plants))
            large = k == len(specs) - 1
            ops.append(self._op(
                "large_field" if large else f"ensemble:{cfg.name}",
                "large_field_s" if large else "ensemble_run_s",
                cfg, plant,
            ))
        return ops


class DoseSweep(Workload):
    """`sweep` and `verify-monotone` on the uncontrolled scenario: scalar integrations only."""

    name = "dose_sweep"

    @classmethod
    def setup_configs_for(cls, size):
        return (("builtin:uncontrolled", ()),)

    def ops(self, index):
        seed = self.pass_seed(index)
        cfg = config.with_seed(self.configs[("builtin:uncontrolled", ())], seed)
        if self.size == "tiny":
            param_sets, points, day, samples = 2, 3, 2.0, 100
            extra = ["--param-sets", str(param_sets), "--points", str(points)]
        else:
            param_sets, points, day, samples = 10, 20, cfg.field.season_days, 10000
            extra = []
        rng = self.rng(index, 0)
        cells = [(int(rng.integers(param_sets)), int(rng.integers(points))) for _ in range(3)]
        out = self.work / f"p{index}-sweep"
        sweep_args = ["sweep", "--config", "builtin:uncontrolled", "--seed", str(seed),
                      "--out-dir", str(out), *extra]
        verify_args = ["verify-monotone", "--config", "builtin:uncontrolled", "--seed", str(seed),
                       "--samples", str(samples), *extra]
        if self.size == "tiny":
            sweep_args += ["--day", repr(day)]
            verify_args += ["--set", f"field.season_days={day!r}"]
        return [
            Op(
                "sweep", "sweep_s", lambda: run_cli(sweep_args),
                lambda result: check_cli(result, check_sweep, out, cfg, param_sets, day, cells),
                prepare=lambda: _fresh(out),
                cleanup=lambda: shutil.rmtree(out, ignore_errors=True),
                artifacts=lambda result: _files(out),
            ),
            Op("verify-monotone", "verify_s", lambda: run_cli(verify_args), check_verify,
               artifacts=lambda result: [result[1].encode()]),
        ]


class FitBatch(Workload):
    """`fit --threads 2` over a synthetic dataset generated (untimed) at the pass seed."""

    name = "fit_batch"
    SERIES = 4
    SPAN_DAYS = 30.0
    N_OBS = (8, 12)

    def ops(self, index):
        seed = self.pass_seed(index)
        if self.size == "tiny":
            count, span, n_obs = 2, 6.0, (4, 5)
        else:
            count, span, n_obs = self.SERIES, self.SPAN_DAYS, self.N_OBS
        dataset = fitting.generate_synthetic(
            count, NOMINAL_PARAMS, 0.05, seed, n_obs=n_obs, t_span=span, noise_frac=0.05, spacing="random"
        )
        op_dir = self.work / f"p{index}-fit"
        data, out = op_dir / "obs.csv", op_dir / "out"

        def prepare():
            _fresh(out)
            fitting.write_timeseries_csv(data, dataset)

        return [Op(
            "fit", "fit_s",
            lambda: run_cli(["fit", "--data", str(data), "--out-dir", str(out), "--threads", str(FIT_THREADS)]),
            lambda result: check_cli(result, check_fit, out, dataset),
            prepare=prepare,
            cleanup=lambda: shutil.rmtree(op_dir, ignore_errors=True),
            artifacts=lambda result: _files(out),
            count=lambda result: fit_work(out, dataset),
        )]


WORKLOADS = {w.name: w for w in (ScenarioStudy, FieldEnsemble, DoseSweep, FitBatch)}
