"""Building, caching and loading the compiled lane RK4 kernel (`lettucesim._rk4`)."""

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import lettucesim as ls
import rk4_reference
from lettucesim import _rk4
from lettucesim.cli import main
from lettucesim.fitting import BiomassTimeseries, write_timeseries_csv
from lettucesim.integrator import StepGrid, _lanes, integrate_lanes

SRC = Path(__file__).resolve().parents[1] / "src"
P = ls.NOMINAL_PARAMS
PMAT = np.array([ls.sample_params(P, 0.1, 5, i).as_array() for i in range(3)])
DOSES = np.array([0.0, 0.075, 0.15])


def lanes_final():
    """Final (b, c, n) of three 2-day lanes."""
    return integrate_lanes(PMAT, DOSES, ls.DEFAULT_ENV, ls.DEFAULT_INITIAL_STATE, 2.0, 0.02)


def scalar_final():
    """The same lanes, each as one run of the reference RK4 loop: rows b, c and n."""
    return np.array([
        rk4_reference.integrate(ls.PlantParams.from_array(row), ls.DEFAULT_INITIAL_STATE,
                                ls.PiecewiseConstantSignal.constant(u), ls.DEFAULT_ENV, 0.0, 2.0, 0.02).states[-1]
        for row, u in zip(PMAT, DOSES.tolist())
    ]).T


def script(path: Path, body: str) -> Path:
    """An executable shell script at `path`, to stand in for the compiler."""
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(0o755)
    return path


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """No library loaded in this process, and a cache directory of this test's own; returns that directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _rk4.load.cache_clear()
    yield tmp_path / "cache" / "lettucesim"
    _rk4.load.cache_clear()


def test_a_second_process_loads_the_cached_library_without_compiling(fresh_kernel, monkeypatch, tmp_path):
    """After the first build, the compiler is made to fail: a new process still runs lanes from the cache."""
    cc = script(tmp_path / "cc", f'exec {shlex.join(_rk4.compiler())} "$@"')
    monkeypatch.setattr(_rk4, "compiler", lambda: [str(cc)])
    expected = lanes_final()
    assert [p.name[:4] for p in fresh_kernel.iterdir()] == ["rk4-"]  # the library alone, no temporary file

    script(cc, "echo 'the compiler ran' >&2; exit 1")
    child = (
        "import numpy as np, lettucesim as ls; from lettucesim import _rk4, integrator\n"
        f"_rk4.compiler = lambda: [{str(cc)!r}]\n"
        f"b, c, n = integrator.integrate_lanes(np.array({PMAT.tolist()!r}), np.array({DOSES.tolist()!r}), ls.DEFAULT_ENV,"
        " ls.DEFAULT_INITIAL_STATE, 2.0, 0.02)\n"
        "print(np.array([b, c, n]).tobytes().hex())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(tmp_path / "cache")}
    result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == np.array(expected).tobytes().hex()


def test_a_failing_compiler_names_its_command_and_stderr(fresh_kernel, monkeypatch, tmp_path, capsys):
    cc = script(tmp_path / "cc", "echo 'fatal: this compiler is out of order' >&2; exit 3")
    monkeypatch.setattr(_rk4, "compiler", lambda: [str(cc)])
    with pytest.raises(RuntimeError) as exc:
        lanes_final()
    message = str(exc.value)
    assert message.startswith(f"building the lane RK4 kernel failed: {cc} -O3 -fPIC -shared -ffp-contract=off -o ")
    assert message.endswith("\nfatal: this compiler is out of order")
    assert list(fresh_kernel.iterdir()) == []  # the temporary output is removed

    data = tmp_path / "data.csv"
    write_timeseries_csv(data, [BiomassTimeseries((1.0, 2.0, 3.0), (0.1, 0.2, 0.3), plant_id=f"p{i}")
                                for i in range(2)])
    out = tmp_path / "o"
    for argv in (
        ["simulate", "--config", "builtin:uncontrolled", "--set", "field.season_days=1.0", "--out-dir", str(out)],
        ["fit", "--data", str(data), "--out-dir", str(out)],
        ["fit", "--data", str(data), "--threads", "2", "--out-dir", str(out)],
        ["generate-data", "--count", "2", "--out", str(out / "data.csv")],
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv
        # warnings (fit's dt), then one error, the build's: no fit's error row or summary line
        warnings, _, error = capsys.readouterr().err.partition("error: ")
        assert all(line.startswith("warning: ") for line in warnings.splitlines()), argv
        assert error.startswith(f"RuntimeError: building the lane RK4 kernel failed: {cc} "), argv
        assert error.endswith("\nfatal: this compiler is out of order\n"), argv
        assert not out.exists(), argv


def test_a_missing_compiler_is_the_same_error(fresh_kernel, monkeypatch, tmp_path):
    missing = str(tmp_path / "no-such-cc")
    monkeypatch.setattr(_rk4, "compiler", lambda: [missing])
    with pytest.raises(RuntimeError) as exc:
        lanes_final()
    assert str(exc.value).startswith(f"building the lane RK4 kernel failed: {missing} -O3 ")
    assert "No such file or directory" in str(exc.value).splitlines()[-1]


def test_an_unwritable_cache_falls_back_to_a_temporary_directory(fresh_kernel, monkeypatch, tmp_path):
    """A cache path under a regular file cannot be created, whoever runs the test: the build goes elsewhere."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
    made = []
    mkdtemp = tempfile.mkdtemp
    monkeypatch.setattr(tempfile, "mkdtemp", lambda **kw: made.append(mkdtemp(dir=tmp_path, **kw)) or made[-1])
    assert np.array_equal(lanes_final(), scalar_final())
    assert len(made) == 1 and [p.name[:4] for p in Path(made[0]).iterdir()] == ["rk4-"]
    assert blocker.read_text() == ""


def test_importing_the_cli_neither_builds_nor_loads_the_kernel():
    code = "import sys, lettucesim.cli; print('lettucesim._rk4' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert result.stdout.strip() == "False", result.stderr


def test_lanes_check_the_history_and_step_range_before_calling_the_kernel():
    """The kernel writes through raw pointers: a history of the wrong shape, dtype or layout and a step range off
    the grid are refused in Python."""
    grid = StepGrid(0.0, 0.1, 0.02)
    for states in (np.empty((3, 5, 3)), np.empty((3, 6, 3), dtype=np.float32), np.empty((3, 3, 6)).transpose(0, 2, 1)):
        with pytest.raises(ValueError, match=r"^states must be a C-contiguous float64 array of shape \(3, 6, 3\)$"):
            _lanes(PMAT, ls.DEFAULT_INITIAL_STATE, grid, ls.DEFAULT_ENV, states)
    x, advance = _lanes(PMAT, ls.DEFAULT_INITIAL_STATE, grid, ls.DEFAULT_ENV)
    before = x.copy()
    for start, stop in ((-1, 2), (3, 2), (0, 6)):
        with pytest.raises(ValueError, match=rf"^steps {start} to {stop} are not within the grid's 5$"):
            advance(DOSES, start, stop)
    assert np.array_equal(x, before)
