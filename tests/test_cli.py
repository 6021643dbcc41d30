"""Config parsing and the command-line pipeline."""

import csv
import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lettucesim as ls
import lettucesim.cli as cli
from lettucesim.cli import main
from lettucesim.config import apply_overrides, builtin_config_names, load_config

TINY = """
[scenario]
name = tiny
seed = 3

[field]
n_plants = 4
grid_rows = 2
grid_cols = 2
season_days = 3.0
dt = 0.05

[env]
T = 22.0
I = 530.0

[control]
variant = global

[schedule]
interval_days = 1.0
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


@pytest.fixture
def pool_sizes(in_process_pool):
    """Swap the process pool (fit's or simulate's) for an in-process stand-in; returns the sizes asked for."""
    return in_process_pool.sizes


@pytest.fixture
def pool_inputs(in_process_pool, monkeypatch):
    """Swap fit's process pool for an in-process stand-in; returns the plant ids in submission order."""
    in_process_pool.label = lambda series: series.plant_id
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    return in_process_pool.inputs


def write_dataset(path, count):
    assert main(["generate-data", "--out", str(path), "--count", str(count), "--seed", "5",
                 "--n-obs", "4", "--span", "10", "--spacing", "even"]) == 0
    return path


class TestConfig:
    def test_parse_defaults(self, tiny_cfg):
        cfg = load_config(tiny_cfg)
        assert cfg.name == "tiny"
        assert cfg.field.seed == 3
        assert cfg.field.n_plants == 4
        assert cfg.policy.variant == "global"
        assert cfg.field.nominal_params == ls.NOMINAL_PARAMS
        assert cfg.schedule.interval_days == 1.0

    def test_round_trip(self, tiny_cfg):
        cfg = load_config(tiny_cfg)
        text = ls.serialize_config(cfg)
        assert ls.parse_config(text) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ls.ConfigError, match="unknown key"):
            ls.parse_config("[field]\nn_plnts = 4\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ls.ConfigError, match="unknown config section"):
            ls.parse_config("[fields]\nn_plants = 4\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ls.ConfigError, match="bad value"):
            ls.parse_config("[field]\nn_plants = four\n")

    def test_overrides(self, tiny_cfg):
        cfg = load_config(tiny_cfg, overrides=["field.u_bar=0.073", "control.variant=local"])
        assert cfg.field.u_bar == 0.073
        assert cfg.policy.variant == "local"
        assert cfg.policy.saturation.u_bar == 0.073

    def test_bad_override_rejected(self):
        with pytest.raises(ls.ConfigError, match="override"):
            apply_overrides(TINY, ["field.bogus=1"])
        with pytest.raises(ls.ConfigError, match="override"):
            apply_overrides(TINY, ["u_bar=0.073"])

    def test_builtins_present(self):
        names = builtin_config_names()
        for expected in ("uncontrolled", "ideal", "sparse", "sparse_local",
                         "sparse_local_noisy", "ideal_reduced", "sparse_local_noisy_reduced"):
            assert expected in names
        cfg = load_config("builtin:ideal")
        assert cfg.policy.variant == "global"
        assert cfg.schedule.interval_days == 1.0

    def test_missing_builtin(self):
        with pytest.raises(ls.ConfigError, match="builtin"):
            load_config("builtin:nope")


class TestSimulateCommand:
    def test_writes_artifacts(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(tiny_cfg), "--out-dir", str(out)])
        assert code == 0
        for name in ("trajectory.csv", "ledger.csv", "params.csv", "summary.json", "summary.csv"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["name"] == "tiny"
        assert summary["n_plants"] == 4
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "plant_id,t,b,c,n,y,u"

    def test_seed_override_changes_results(self, tiny_cfg, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["simulate", "--config", str(tiny_cfg), "--out-dir", str(a)]) == 0
        assert main(["simulate", "--config", str(tiny_cfg), "--out-dir", str(b), "--seed", "99"]) == 0
        assert main(["simulate", "--config", str(tiny_cfg), "--out-dir", str(c), "--seed", "99"]) == 0
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        sc = json.loads((c / "summary.json").read_text())
        assert sb["mean"] != sa["mean"]
        assert sb == sc

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_exits_2(self):
        assert main(["simulate", "--bogus"]) == 2

    def test_invalid_override_exits_2(self, tiny_cfg, capsys):
        assert main(["simulate", "--config", str(tiny_cfg), "--set", "field.n_plants=5"]) == 2


SIMULATE_FILES = ("trajectory.csv", "ledger.csv", "params.csv", "summary.json", "summary.csv")


class TestSimulateThreads:
    def test_two_worker_processes_give_the_same_bytes(self, tiny_cfg, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # a real pool even on a one-CPU machine
        outs, stdouts = {}, {}
        for threads in ("1", "2"):
            outs[threads] = tmp_path / threads
            assert main(["simulate", "--config", str(tiny_cfg), "--out-dir", str(outs[threads]),
                         "--threads", threads]) == 0
            stdouts[threads] = capsys.readouterr().out.replace(str(outs[threads]), "OUT")
        for name in SIMULATE_FILES:
            assert filecmp.cmp(outs["1"] / name, outs["2"] / name, shallow=False), name
        assert stdouts["1"] == stdouts["2"]

    @pytest.mark.parametrize("name", ["ideal", "sparse_local_noisy"])
    def test_default_runs_a_real_pool_with_the_same_bytes(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # a real pool even on a one-CPU machine
        outs, stdouts = {}, {}
        for key, flags in (("one", ["--threads", "1"]), ("default", [])):
            outs[key] = tmp_path / key
            assert main(["simulate", "--config", f"builtin:{name}", "--set", "field.season_days=3.0",
                         "--out-dir", str(outs[key]), *flags]) == 0
            stdouts[key] = capsys.readouterr().out.replace(str(outs[key]), "OUT")
        for file in SIMULATE_FILES:
            assert filecmp.cmp(outs["one"] / file, outs["default"] / file, shallow=False), file
        assert stdouts["one"] == stdouts["default"]

    @pytest.mark.parametrize("threads, cpus, pools", [
        ("64", 8, [4]),  # capped at the 4 plants
        ("64", 2, [2]),  # capped at the CPUs
        ("3", 8, [3]),
        ("1", 8, []),
        ("64", 1, []),
    ])
    def test_pool_capped_at_plants_and_cpus(self, tiny_cfg, tmp_path, pool_sizes, monkeypatch,
                                            threads, cpus, pools):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        one, many = tmp_path / "one", tmp_path / "many"
        assert main(["simulate", "--config", str(tiny_cfg), "--out-dir", str(one)]) == 0
        default = min(4, cpus)  # by default, a pool of min(plants, CPUs), and none for one worker
        assert pool_sizes == ([default] if default > 1 else [])
        pool_sizes.clear()
        assert main(["simulate", "--config", str(tiny_cfg), "--out-dir", str(many), "--threads", threads]) == 0
        assert pool_sizes == pools
        assert filecmp.cmp(one / "trajectory.csv", many / "trajectory.csv", shallow=False)


class TestVerifyMonotoneCommand:
    def test_clean_parameters_pass(self, tiny_cfg, capsys):
        code = main(["verify-monotone", "--config", str(tiny_cfg), "--samples", "200",
                     "--param-sets", "2", "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "200 sampled states" in out
        assert "PASS" in out

    def test_corrupted_parameters_exit_1(self, tiny_cfg, capsys, monkeypatch):
        # configs cannot express invalid parameters (validated on load), so
        # inject the corruption between load and check
        import lettucesim.cli as cli

        real = cli.check_cooperativity

        def corrupted(p, env, **kw):
            bad = ls.PlantParams(**{n: getattr(p, n) for n in ls.PARAM_NAMES})
            object.__setattr__(bad, "sigma_c", -bad.sigma_c)
            return real(bad, env, **kw)

        monkeypatch.setattr(cli, "check_cooperativity", corrupted)
        code = main(["verify-monotone", "--config", str(tiny_cfg), "--samples", "100",
                     "--param-sets", "1", "--points", "3"])
        assert code == 1
        out = capsys.readouterr().out
        assert "offdiagonal" in out and "FAIL" in out


class TestFitCommands:
    def test_generate_and_fit_pipeline(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        code = main(["generate-data", "--out", str(data), "--count", "3", "--seed", "4",
                     "--n-obs", "5", "--span", "12", "--spacing", "even"])
        assert code == 0
        out = tmp_path / "fits"
        code = main(["fit", "--data", str(data), "--free", "sigma_c", "--out-dir", str(out)])
        assert code == 0
        lines = (out / "fit_results.csv").read_text().splitlines()
        assert len(lines) == 4  # header + 3 series
        assert (out / "nrmse_hist.csv").exists()
        text = capsys.readouterr().out
        assert "median NRMSE" in text

    @pytest.mark.parametrize("column, bad", [("day", "nan"), ("day", "inf"), ("mass_g", "nan"), ("mass_g", "-inf")])
    def test_non_finite_observation_is_a_config_error(self, column, bad, tmp_path, capsys):
        data = write_dataset(tmp_path / "obs.csv", 1)
        with open(data, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[1][column] = bad
        with open(data, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--free", "sigma_c", "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot load dataset {data}: observation times and masses must be finite\n"
        assert not (tmp_path / "o").exists()

    def test_threads_do_not_change_results(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        main(["generate-data", "--out", str(data), "--count", "3", "--seed", "5",
              "--n-obs", "4", "--span", "10", "--spacing", "even"])
        capsys.readouterr()
        outs, stdouts = {}, {}
        for threads in ("1", "2", "4"):
            outs[threads] = tmp_path / f"t{threads}"
            assert main(["fit", "--data", str(data), "--free", "sigma_c,psi", "--out-dir", str(outs[threads]),
                         "--threads", threads]) == 0
            stdouts[threads] = capsys.readouterr().out.replace(str(outs[threads]), "<out>")
        out1, out2 = outs["1"], outs["4"]
        assert filecmp.cmp(out1 / "fit_results.csv", out2 / "fit_results.csv", shallow=False)
        for threads in ("2", "4"):
            for name in ("fit_results.csv", "nrmse_hist.csv"):
                assert filecmp.cmp(out1 / name, outs[threads] / name, shallow=False), (threads, name)
            assert stdouts[threads] == stdouts["1"]

    @pytest.mark.parametrize("cpus, sizes", [(8, [3]), (2, [2]), (1, [])])
    def test_pool_capped_at_series_and_cpus(self, tmp_path, pool_sizes, monkeypatch, cpus, sizes):
        data = write_dataset(tmp_path / "obs.csv", 3)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert main(["fit", "--data", str(data), "--free", "sigma_c", "--out-dir", str(tmp_path / "o"),
                     "--threads", "64"]) == 0
        assert pool_sizes == sizes
        assert len((tmp_path / "o" / "fit_results.csv").read_text().splitlines()) == 4

    def test_pool_never_exceeds_usable_cpus(self, tmp_path, pool_sizes):
        data = write_dataset(tmp_path / "obs.csv", 3)
        assert main(["fit", "--data", str(data), "--free", "sigma_c", "--out-dir", str(tmp_path / "o"),
                     "--threads", "64"]) == 0
        assert all(size <= min(3, cli._usable_cpus()) for size in pool_sizes)
        assert 1 <= cli._usable_cpus() <= os.cpu_count()

    @pytest.mark.parametrize("count, threads", [(3, "1"), (1, "4")])
    def test_no_pool_for_one_worker(self, tmp_path, pool_sizes, count, threads):
        data = write_dataset(tmp_path / "obs.csv", count)
        assert main(["fit", "--data", str(data), "--free", "sigma_c", "--out-dir", str(tmp_path / "o"),
                     "--threads", threads]) == 0
        assert pool_sizes == []

    def test_pool_gets_longest_series_first(self, tmp_path, pool_inputs, capsys):
        # last observation days: a 6, b 12, c 9, d 12 -> b and d (dataset order), then c, then a
        data = tmp_path / "obs.csv"
        lines = ["plant_id,day,mass_g,kind"]
        for pid, days in (("a", (2, 4, 6)), ("b", (3, 6, 9, 12)), ("c", (3, 6, 9)), ("d", (4, 8, 12))):
            lines += [f"{pid},{d},{0.002 * d * d!r},dry" for d in days]
        data.write_text("\n".join(lines) + "\n")
        outs, stdouts = {}, {}
        for threads in ("1", "2"):
            outs[threads] = tmp_path / f"t{threads}"
            assert main(["fit", "--data", str(data), "--free", "sigma_c", "--out-dir", str(outs[threads]),
                         "--threads", threads]) == 0
            stdouts[threads] = capsys.readouterr().out.replace(str(outs[threads]), "<out>")
        assert pool_inputs == ["b", "d", "c", "a"]
        rows = (outs["2"] / "fit_results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["a", "b", "c", "d"]
        for name in ("fit_results.csv", "nrmse_hist.csv"):
            assert filecmp.cmp(outs["1"] / name, outs["2"] / name, shallow=False), name
        assert stdouts["1"] == stdouts["2"]

    def test_overrides_apply_without_config(self, tmp_path):
        data = write_dataset(tmp_path / "obs.csv", 2)
        outs = {}
        for label, extra in (("plain", []), ("set", ["--set", "params.k_l=0.2"])):
            outs[label] = tmp_path / label
            assert main(["fit", "--data", str(data), "--free", "sigma_c", "--out-dir", str(outs[label]),
                         *extra]) == 0
        assert not filecmp.cmp(outs["plain"] / "fit_results.csv", outs["set"] / "fit_results.csv",
                               shallow=False)
        header, *rows = (outs["set"] / "fit_results.csv").read_text().splitlines()
        k_l = header.split(",").index("k_l")
        assert all(row.split(",")[k_l] == "0.2" for row in rows)

    def test_seed_flag_removed(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "obs.csv", 1)
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--seed", "1"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_empty_dataset_exits_2(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("plant_id,day,mass_g,kind\n")
        assert main(["fit", "--data", str(data), "--free", "sigma_c"]) == 2

    def test_unknown_free_parameter_exits_2(self, tmp_path):
        data = tmp_path / "obs.csv"
        main(["generate-data", "--out", str(data), "--count", "2", "--seed", "5",
              "--n-obs", "4", "--span", "10"])
        assert main(["fit", "--data", str(data), "--free", "bogus"]) == 2


class TestScipyImport:
    def run(self, code):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout

    def test_importing_the_package_leaves_scipy_out(self):
        assert self.run("import sys, lettucesim.cli; print(any(m.startswith('scipy') for m in sys.modules))") == "False\n"

    def test_fit_loads_scipy_before_its_pool_starts(self, tmp_path):
        data = write_dataset(tmp_path / "obs.csv", 2)
        code = f"""
import concurrent.futures, sys
import lettucesim.cli as cli

class Pool:
    def __init__(self, max_workers):
        print("scipy.optimize" in sys.modules)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def map(self, fn, items):
        return map(fn, items)

concurrent.futures.ProcessPoolExecutor = Pool
cli._usable_cpus = lambda: 2
cli.main(["fit", "--data", {str(data)!r}, "--free", "sigma_c", "--threads", "2", "--out-dir", {str(tmp_path / "o")!r}])
"""
        out = self.run(code)
        assert out.splitlines()[0] == "True" and "fit 2/2 series" in out


class TestThreadsFlag:
    @pytest.mark.parametrize("command", [
        ["simulate", "--config", "builtin:ideal"],
        ["verify-monotone", "--config", "builtin:ideal"],
        ["sweep", "--config", "builtin:ideal"],
        ["fit", "--data", "obs.csv"],
    ])
    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_below_one_is_a_usage_error(self, command, value, capsys):
        assert main(command + ["--threads", value]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--threads" in err


class TestCountFlags:
    @pytest.mark.parametrize("command, flag", [
        ("verify-monotone", "--samples"),
        ("verify-monotone", "--param-sets"),
        ("verify-monotone", "--points"),
        ("sweep", "--param-sets"),
        ("sweep", "--points"),
    ])
    def test_zero_is_a_usage_error(self, command, flag, tmp_path, capsys):
        argv = [command, "--config", "builtin:uncontrolled", "--out-dir", str(tmp_path), flag, "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err


class TestGenerateDataFlags:
    @pytest.mark.parametrize("flag, value", [
        ("--count", "0"), ("--count", "-1"),
        ("--n-obs", "3:x"), ("--n-obs", "2"), ("--n-obs", "2:5"), ("--n-obs", "4:3"), ("--n-obs", ""),
    ])
    def test_bad_value_is_a_usage_error(self, flag, value, tmp_path, capsys):
        assert main(["generate-data", "--out", str(tmp_path / "obs.csv"), flag, value]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err
        assert not (tmp_path / "obs.csv").exists()

    @pytest.mark.parametrize("flag, value, rule", [
        ("--noise-frac", "-0.5", "nonnegative"), ("--noise-frac", "nan", "nonnegative"),
        ("--noise-frac", "inf", "nonnegative"), ("--span", "nan", "positive"), ("--span", "0", "positive"),
        ("--span", "-5", "positive"), ("--span", "inf", "positive"),
    ])
    def test_noise_and_span_must_be_finite_and_in_range(self, flag, value, rule, tmp_path, capsys):
        assert main(["generate-data", "--out", str(tmp_path / "obs.csv"), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {flag}: must be {rule} and finite, got {value}" in err
        assert not (tmp_path / "obs.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "0.5", "0.6"])
    def test_perturbation_frac_follows_the_field_rule(self, value, tmp_path, capsys):
        assert main(["generate-data", "--out", str(tmp_path / "obs.csv"), "--perturbation-frac", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument --perturbation-frac: perturbation_frac must lie in [0, 0.5), got {float(value)}" in err
        assert not (tmp_path / "obs.csv").exists()

    @pytest.mark.parametrize("value, counts", [("4", {4}), ("3:5", {3, 4, 5}), ("6:6", {6})])
    def test_observation_counts(self, value, counts, tmp_path):
        out = tmp_path / "obs.csv"
        assert main(["generate-data", "--out", str(out), "--count", "12", "--n-obs", value, "--span", "10"]) == 0
        drawn = {len(series.times) for series in ls.fitting.read_timeseries_csv(out)}
        assert drawn <= counts and (len(counts) == 1 or len(drawn) > 1)

    def test_fit_free_default_is_every_parameter_not_fixed_by_default(self, monkeypatch):
        def free_default():
            return cli._build_parser().parse_args(["fit", "--data", "obs.csv"]).free.split(",")

        assert free_default() == [name for name in ls.PARAM_NAMES if name not in ls.fitting.DEFAULT_FIXED]
        monkeypatch.setattr(cli, "DEFAULT_FIXED", frozenset({"k", "psi"}))
        assert free_default() == [name for name in ls.PARAM_NAMES if name not in ("k", "psi")]


class TestUnstableStepWarning:
    COMMANDS = {
        "simulate": [],
        "sweep": ["--param-sets", "1", "--points", "3"],
        "verify-monotone": ["--samples", "50", "--param-sets", "1", "--points", "3"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_coarse_step_warns_on_stderr(self, command, tiny_cfg, tmp_path, capsys):
        # tiny_cfg's dt = 0.05 gives dt * |lambda_fast| = 8.99 at the initial state
        argv = [command, "--config", str(tiny_cfg), *self.COMMANDS[command]]
        if command != "verify-monotone":
            argv += ["--out-dir", str(tmp_path / "o")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and "dt=0.05" in warnings[0] and "2.785" in warnings[0]
        assert "warning" not in captured.out

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_stable_step_is_quiet(self, command, tiny_cfg, tmp_path, capsys):
        # dt = 0.01 gives 1.80, inside RK4's real-axis bound
        argv = [command, "--config", str(tiny_cfg), "--set", "field.dt=0.01", *self.COMMANDS[command]]
        if command != "verify-monotone":
            argv += ["--out-dir", str(tmp_path / "o")]
        assert main(argv) == 0
        assert "warning" not in capsys.readouterr().err

    def test_spectral_radius_matches_eigvals(self):
        rng = np.random.default_rng(0)
        matrices = [rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 3, size=(3, 3)) for _ in range(500)]
        matrices += [np.zeros((3, 3)), 2.0 * np.eye(3), np.diag([1.0, -5.0, 3.0]),
                     np.eye(3, k=1), 2.0 * np.eye(3) + np.eye(3, k=1)]
        for m in matrices:
            assert cli._spectral_radius_3x3(m) == pytest.approx(np.abs(np.linalg.eigvals(m)).max(),
                                                                rel=1e-9, abs=1e-12)

    def test_warning_changes_no_output(self, tiny_cfg, tmp_path, capsys, monkeypatch):
        outs, stdouts = {}, {}
        for label in ("warned", "quiet"):
            if label == "quiet":
                monkeypatch.setattr(cli, "RK4_REAL_AXIS_BOUND", float("inf"))
            outs[label] = tmp_path / label
            assert main(["sweep", "--config", str(tiny_cfg), "--param-sets", "2", "--points", "3",
                         "--out-dir", str(outs[label])]) == 0
            captured = capsys.readouterr()
            stdouts[label] = captured.out.replace(str(outs[label]), "<out>")
            assert ("warning:" in captured.err) == (label == "warned")
        assert stdouts["warned"] == stdouts["quiet"]
        assert filecmp.cmp(outs["warned"] / "dose_response.csv", outs["quiet"] / "dose_response.csv",
                           shallow=False)


class TestReportCommand:
    def make_summary(self, tmp_path, name, seed, n_plants=4):
        cfg = ls.FieldConfig(n_plants=n_plants, grid_rows=1, grid_cols=n_plants, seed=seed,
                             season_days=3.0, dt=0.05)
        traj = ls.simulate_field(
            cfg,
            ls.ControlPolicy("constant", ls.SaturationSpec(0.075, 0.0075)),
            ls.ActuationSchedule(1.0),
        )
        path = tmp_path / f"{name}.json"
        path.write_text(ls.summarize(traj, name=name).to_json())
        return path

    def test_single_input(self, tmp_path, capsys):
        a = self.make_summary(tmp_path, "base", seed=1)
        assert main(["report", str(a)]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "var ratio" in out

    def test_ratio_columns_and_outputs(self, tmp_path, capsys):
        a = self.make_summary(tmp_path, "base", seed=1)
        b = self.make_summary(tmp_path, "other", seed=2)
        out_dir = tmp_path / "rep"
        assert main(["report", str(a), str(b), "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "comparison.csv").read_text().splitlines()
        assert len(lines) == 3
        assert (out_dir / "histograms.csv").exists()

    def test_mismatched_counts_warn_not_error(self, tmp_path, capsys):
        a = self.make_summary(tmp_path, "base", seed=1, n_plants=4)
        b = self.make_summary(tmp_path, "other", seed=2, n_plants=6)
        assert main(["report", str(a), str(b)]) == 0
        assert "warning" in capsys.readouterr().err

    def test_missing_summary_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 2


class TestNonFiniteEnvironment:
    """A NaN or infinite temperature or light is a config error for every command."""

    @pytest.mark.parametrize("override", ["env.T=nan", "env.T=inf", "env.I=nan", "env.I=inf"])
    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_is_a_config_error(self, command, override, tmp_path, capsys):
        if command == "fit":
            argv = ["fit", "--data", str(write_dataset(tmp_path / "obs.csv", 2))]
        else:
            argv = ["simulate", "--config", "builtin:uncontrolled"]
        capsys.readouterr()
        assert main([*argv, "--set", override, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be finite" in err
        assert not (tmp_path / "o").exists()


class TestNonFiniteStep:
    """A NaN or infinite step, season, baseline dose, harvest day or top dose fails before any work."""

    @pytest.mark.parametrize("override", [
        "field.dt=nan", "field.dt=inf", "field.season_days=nan", "field.season_days=inf", "field.u_bar=inf",
    ])
    def test_field_value_is_a_config_error(self, override, tmp_path, capsys):
        capsys.readouterr()
        argv = ["simulate", "--config", "builtin:uncontrolled", "--set", override, "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        key = override.split(".")[1].split("=")[0]
        assert err.startswith(f"config error: {key} must be") and "finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, code", [
        ("--u-max", "nan", 2), ("--u-max", "inf", 2), ("--u-max", "0", 2), ("--u-max", "-0.1", 2),
        ("--day", "nan", 1), ("--day", "inf", 1),
    ])
    def test_sweep_stderr_holds_only_the_error(self, flag, value, code, tmp_path):
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-m", "lettucesim.cli", "sweep", "--config", "builtin:uncontrolled",
             flag, value, "--out-dir", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == code
        assert not out.exists()
        lines = result.stderr.splitlines()
        if code == 2:
            assert lines[0].startswith("usage:")
            assert lines[-1].endswith(f"argument {flag}: must be positive and finite, got {value}")
        else:
            assert lines == [f"error: ValueError: t1={value} must exceed t0=0.0, and both must be finite"]
        assert "Warning" not in result.stderr


    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_step_count_overflow_is_a_config_error(self, command, tmp_path, capsys):
        capsys.readouterr()
        argv = [command, "--config", "builtin:uncontrolled", "--set", "field.dt=1e-320", "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: dt=1e-320 is too small for season_days=50.0")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_step_count_bound_is_a_config_error(self, command, tmp_path, capsys):
        """A dt that leaves a finite but huge step count is refused before numpy is asked for its grid."""
        capsys.readouterr()
        argv = [command, "--config", "builtin:uncontrolled", "--set", "field.dt=1e-9", "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: dt=1e-09 is too small for season_days=50.0")
        assert not (tmp_path / "o").exists()


class TestExtremeParameters:
    """The step-stability warning never fails a command, however large or small a parameter."""

    def simulate(self, tiny_cfg, tmp_path, capsys, override):
        with np.errstate(all="ignore"):
            code = main(["simulate", "--config", str(tiny_cfg), "--set", override, "--out-dir", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("params.k=1e200", "times the fastest rate"),  # finite Jacobian, entries near 1e200
        ("params.k_ml=1e300", "could not be evaluated"),  # (b + k_ml) ** 2 overflows
        ("params.j_c=1e300", "times the fastest rate"),  # j_c is never squared: a finite Jacobian, a real rate
        ("params.j_n=5e-324", "could not be evaluated"),  # root * j_n underflows to a zero divisor
    ])
    def test_warns_once_and_runs(self, override, message, tiny_cfg, tmp_path, capsys):
        code, err = self.simulate(tiny_cfg, tmp_path, capsys, override)
        # k=1e200 grows the plants to ~1e196 g, whose variance overflows: the summary fails loudly
        overflows = override == "params.k=1e200"
        assert code == (1 if overflows else 0)
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and message in warnings[0]
        assert (tmp_path / "o" / "summary.csv").exists() != overflows

    def test_non_finite_summary_fails_and_writes_no_summary(self, tmp_path, capsys):
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            code = main(["simulate", "--config", "builtin:uncontrolled", "--set", "params.k=1e200",
                         "--set", "field.season_days=2.0", "--out-dir", str(out)])
        assert code == 1
        assert "error: ValueError: summary statistic variance is not finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists() and not (out / "summary.csv").exists()

    def test_non_finite_field_is_reported_by_the_field(self, tiny_cfg, tmp_path, capsys):
        code, err = self.simulate(tiny_cfg, tmp_path, capsys, "params.sigma_c=1e300")
        assert code == 1
        assert "error: ValueError: plant 0 has a non-finite state at t=1.0;" in err

    def test_spectral_radius_of_huge_entries(self):
        rng = np.random.default_rng(1)
        for m in [*(rng.normal(size=(3, 3)) for _ in range(50)), np.eye(3), np.diag([1.0, -5.0, 3.0])]:
            assert cli._spectral_radius_3x3(1e200 * m) == pytest.approx(
                np.abs(np.linalg.eigvals(1e200 * m)).max(), rel=1e-9)


class TestFitStepWarning:
    def test_fit_warns_at_its_own_step_and_changes_no_output(self, tmp_path, capsys, monkeypatch):
        data = write_dataset(tmp_path / "obs.csv", 2)
        outs, stdouts = {}, {}
        for label in ("warned", "quiet"):
            if label == "quiet":
                monkeypatch.setattr(cli, "RK4_REAL_AXIS_BOUND", float("inf"))
            outs[label] = tmp_path / label
            capsys.readouterr()
            assert main(["fit", "--data", str(data), "--free", "k_l,sigma_c", "--out-dir", str(outs[label])]) == 0
            captured = capsys.readouterr()
            stdouts[label] = captured.out.replace(str(outs[label]), "<out>")
            warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
            if label == "warned":
                # the fit's dt of 0.02 times 180/day at the nominal initial state
                assert len(warnings) == 1 and "dt=0.02" in warnings[0] and "is 3.6," in warnings[0]
            else:
                assert warnings == []
        assert stdouts["warned"] == stdouts["quiet"]
        for name in ("fit_results.csv", "nrmse_hist.csv"):
            assert filecmp.cmp(outs["warned"] / name, outs["quiet"] / name, shallow=False)


class TestFailedRunLeavesNoOutput:
    def test_overflowing_summary(self, tmp_path):
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-m", "lettucesim.cli", "simulate", "--config", "builtin:uncontrolled",
             "--set", "params.k=1e200", "--set", "field.season_days=2.0", "--out-dir", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 1
        assert not out.exists()
        lines = result.stderr.splitlines()
        assert lines and all(line.startswith(("warning:", "error:")) for line in lines)
        # three significant digits, not the 200 of a fixed-point float
        assert any("times the fastest rate" in line and len(line) < 200 for line in lines)
        assert "summary statistic variance is not finite" in lines[-1]

    @pytest.mark.parametrize("grid", [["--param-sets", "2", "--points", "3"], []], ids=["scalar", "batched"])
    def test_non_finite_sweep(self, grid, tmp_path):
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-m", "lettucesim.cli", "sweep", "--config", "builtin:uncontrolled",
             "--set", "params.sigma_c=1e300", "--day", "2.0", *grid, "--out-dir", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 1
        assert not out.exists()
        lines = result.stderr.splitlines()
        assert lines and all(line.startswith(("warning:", "error:")) for line in lines)
        assert lines[-1] == ("error: ValueError: final biomass of parameter set 0 at dose 0.0 is not finite; "
                             "check dt and the plant parameters")

    def test_failed_sweep(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "o"
        # day 1.01 is off the config's dt = 0.05 grid
        assert main(["sweep", "--config", str(tiny_cfg), "--param-sets", "1", "--points", "3",
                     "--day", "1.01", "--out-dir", str(out)]) == 1
        assert "does not divide" in capsys.readouterr().err
        assert not out.exists()
