"""Exact fit gradients: the stage derivatives, the RK4 tangent and the fit objective."""

import hashlib
import inspect
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lettucesim as ls
from lettucesim import fitting
from lettucesim.model import (
    FLUX_PARAMS,
    _flux_core,
    _param_values,
    _rates,
    _stage,
    jacobian_state,
    temperature_response,
)

import sensitivity_reference
from jacobian_reference import cleared_jacobian_state

SRC = Path(__file__).resolve().parents[1] / "src"
P = ls.NOMINAL_PARAMS
BOUNDS = fitting.default_bounds(P)
# rows and columns of `_stage`'s seven Jacobian entries
JAC_ENTRIES = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2))


def fd_gradient(p, spec, series, free, h=1e-7):
    """Central differences of `cost` in log(theta)."""
    def at(name, step):
        return ls.cost(replace(p, **{name: getattr(p, name) * math.exp(step)}), spec, series)

    return np.array([(at(name, h) - at(name, -h)) / (2.0 * h) for name in free])


def exact_gradient(p, spec, series, free):
    y, dy = fitting._outputs_and_sensitivities(p, spec, series.times, free)
    r = y - np.asarray(series.masses)
    return (2.0 / len(r)) * (r @ dy)


@st.composite
def parameter_points(draw):
    """A parameter set inside the default fit box, log-uniform per parameter."""
    values = {}
    for name in ls.PARAM_NAMES:
        lo, hi = BOUNDS[name]
        values[name] = math.exp(draw(st.floats(math.log(lo), math.log(hi))))
    return ls.PlantParams(**values)


class TestStage:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p=parameter_points(),
        state=st.tuples(st.floats(-6.0, 3.0), st.floats(-8.0, 2.0), st.floats(-8.0, 2.0)),
        u=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
        T=st.floats(-5.0, 50.0),
        I=st.one_of(st.just(0.0), st.floats(1e-3, 1000.0)),
    )
    def test_jacobian_matches_jacobian_state(self, p, state, u, T, I):
        b, c, n = (10.0**e for e in state)
        env = ls.EnvPoint(T=T, I=I)
        R = temperature_response(T, p.T_op)
        _, jac, _ = _stage(b, c, n, u, R, I, *_param_values(p))
        dense = np.zeros((3, 3))
        for (i, j), entry in zip(JAC_ENTRIES, jac):
            dense[i, j] = entry
        s = ls.PlantState(b, c, n)
        assert np.array_equal(jacobian_state(s, u, env, p), dense)
        assert dense == pytest.approx(cleared_jacobian_state(s, u, env, p), rel=1e-12, abs=0.0)

    def test_takes_the_flux_core_parameters(self):
        assert inspect.signature(_stage).parameters == inspect.signature(_flux_core).parameters
        assert list(_stage(0.3, 0.02, 0.004, 0.075, 0.8, 530.0, *_param_values(P))[2]) == list(FLUX_PARAMS)

    def test_rates_are_model_rates(self):
        args = (0.3, 0.02, 0.004, 0.075, 0.8, 530.0, *_param_values(P))
        assert _stage(*args)[0] == _rates(*args)

    @pytest.mark.parametrize("state", [(0.005, 0.001, 0.0001), (0.3, 0.02, 0.004), (40.0, 3.0, 0.5)])
    def test_parameter_columns_match_central_differences(self, state):
        u, R, I = 0.075, 0.8, 530.0
        values = list(_param_values(P))
        rates, _, cols = _stage(*state, u, R, I, *values)
        h = 1e-6
        for j, name in enumerate(FLUX_PARAMS):
            up, down = list(values), list(values)
            up[j] *= math.exp(h)
            down[j] *= math.exp(-h)
            fd = (np.array(_rates(*state, u, R, I, *up)) - np.array(_rates(*state, u, R, I, *down))) / (2.0 * h)
            # central-difference error: O(h^2) of the column, and rounding of the rates / h
            tolerance = 1e-7 * np.abs(fd).max() + 1e-9 * np.abs(rates).max()
            assert np.abs(np.array(cols[name]) - fd).max() <= tolerance, name

    def test_numpy_lanes_match_scalars(self):
        states = np.array([[0.005, 0.3, 40.0], [0.001, 0.02, 3.0], [0.0001, 0.004, 0.5]])
        params = _param_values(P)
        rates, jac, cols = _stage(*states, 0.075, 0.8, 530.0, *params)
        for lane in range(3):
            scalar = _stage(*states[:, lane].tolist(), 0.075, 0.8, 530.0, *params)
            assert [float(r[lane]) for r in rates] == list(scalar[0])
            assert [float(e[lane]) for e in jac] == list(scalar[1])
            assert {name: [float(v[lane]) for v in col] for name, col in cols.items()} == {
                name: list(col) for name, col in scalar[2].items()}


class TestTemperatureOptimumScale:
    """`_T_op_scale` is d log(R) / d log(T_op)."""

    @pytest.mark.parametrize("T", [0.5, 10.0, 21.0, 23.0, 35.0, 43.0])
    def test_matches_central_difference_off_the_kink(self, T):
        T_op, h = 22.0, 1e-6
        fd = (math.log(temperature_response(T, T_op * math.exp(h)))
              - math.log(temperature_response(T, T_op * math.exp(-h)))) / (2.0 * h)
        assert fitting._T_op_scale(T, T_op) == pytest.approx(fd, rel=1e-6)

    def test_zero_at_the_kink_and_where_clamped(self):
        assert fitting._T_op_scale(22.0, 22.0) == 0.0
        assert fitting._T_op_scale(50.0, 22.0) == 0.0
        assert fitting._T_op_scale(-1.0, 22.0) == 0.0


class TestChain:
    """The reference replay's map composition, against the recurrence it stands for."""

    @pytest.mark.parametrize("count", [1, 30, 31, 32, 100])
    def test_matches_the_recurrence_step_by_step(self, count):
        maps = np.random.default_rng(count).normal(size=(count, 3, 5)) * 0.5
        states = [np.zeros((3, 2))]
        for m in maps:
            states.append(m[:, :3] @ states[-1] + m[:, 3:])
        at = sorted({0, count // 2, count - 1, count})
        expected = np.array([states[i] for i in at])
        assert sensitivity_reference._chain(maps, at) == pytest.approx(expected, rel=1e-12, abs=1e-14)


class TestSensitivities:
    def test_outputs_are_the_reference_loop_bit_for_bit(self):
        spec = ls.FitSpec(guess=P)
        times = (0.0, 1.5, 7.04, 20.0, 30.0)
        y, dy = fitting._outputs_and_sensitivities(P, spec, times, ls.PARAM_NAMES)
        traj, _, idx = sensitivity_reference.trajectory(P, spec, times)
        assert np.array_equal(y, P.psi * traj.states[idx, 0])
        assert dy.shape == (len(times), len(ls.PARAM_NAMES))
        # the initial state does not depend on the parameters; y = psi * b does
        assert dy[0].tolist() == [y[0] if name == "psi" else 0.0 for name in ls.PARAM_NAMES]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p=parameter_points(),
        free=st.lists(st.sampled_from(ls.PARAM_NAMES), min_size=1, max_size=12, unique=True),
        dt=st.sampled_from([0.02, 0.025, 0.04, 0.05]),
        temperature=st.one_of(st.just("kink"), st.floats(1.0, 40.0)),
        obs=st.lists(st.integers(1, 60), min_size=3, max_size=5, unique=True),
        noise=st.lists(st.one_of(st.floats(0.5, 0.95), st.floats(1.05, 1.5)), min_size=5, max_size=5),
    )
    def test_gradient_matches_central_differences(self, p, free, dt, temperature, obs, noise):
        T = p.T_op if temperature == "kink" else temperature
        spec = ls.FitSpec(guess=p, env=ls.EnvSchedule.constant(T, 530.0), dt=dt)
        times = tuple(k * dt for k in sorted(obs))
        y = fitting._simulated_outputs(p, spec, np.asarray(times))
        assume(np.all(np.isfinite(y)))
        series = ls.BiomassTimeseries(times, tuple(float(v * f) for v, f in zip(y, noise)))
        grad = exact_gradient(p, spec, series, free)
        fd = fd_gradient(p, spec, series, free)
        # the scale is the whole gradient's norm: with T_op alone free at the kink,
        # the exact entry is 0 and the central difference O(h)
        scale = np.linalg.norm(exact_gradient(p, spec, series, ls.PARAM_NAMES))
        # a stage clamp that switches inside the stencil makes the cost a kink there,
        # which no difference quotient resolves: the two step sizes then disagree
        assume(np.linalg.norm(fd - fd_gradient(p, spec, series, free, h=1e-8)) <= 1e-6 * scale)
        assert np.linalg.norm(grad - fd) <= 1e-5 * scale

    def test_temperature_optimum_at_and_off_the_kink(self):
        for T, zero in ((22.0, True), (18.0, False), (26.0, False)):
            spec = ls.FitSpec(guess=P, env=ls.EnvSchedule.constant(T, 530.0))
            series = ls.BiomassTimeseries((1.0, 2.0, 3.0), (0.01, 0.03, 0.09))
            grad = exact_gradient(P, spec, series, ("T_op", "k"))
            assert (grad[0] == 0.0) == zero
            # at the kink the central difference is O(h), not 0
            fd = fd_gradient(P, spec, series, ("T_op",))[0]
            assert abs(grad[0] - fd) <= 1e-5 * np.linalg.norm(grad)

    def test_clamped_store_keeps_the_gradient_exact(self):
        # in the dark the carbon store only drains, at theta_c * k ~ 69/day:
        # a dt of 0.05 overshoots below zero, and the projection clamps it
        spec = ls.FitSpec(guess=P, env=ls.EnvSchedule.constant(22.0, 0.0), dt=0.05)
        times = (0.5, 1.0, 1.5, 2.0)
        traj, _, _ = sensitivity_reference.trajectory(P, spec, times)
        assert (traj.states[:, 1] == 0.0).any()
        y = fitting._simulated_outputs(P, spec, np.asarray(times))
        series = ls.BiomassTimeseries(times, tuple(1.1 * y))
        free = ("k", "k_l", "k_ml", "sigma_c", "theta_c", "j_c")
        grad = exact_gradient(P, spec, series, free)
        assert np.linalg.norm(grad - fd_gradient(P, spec, series, free)) <= 1e-5 * np.linalg.norm(grad)


def assert_matches_the_replay(p, spec, times, free):
    """The compiled pass's `y` equals the numpy replay's bit for bit, and each column of `dy` is within 1e-12
    of that column's largest value (a column of zeros, exactly)."""
    y, dy = fitting._outputs_and_sensitivities(p, spec, times, free)
    y_ref, dy_ref = sensitivity_reference._outputs_and_sensitivities(p, spec, times, free)
    assert np.array_equal(y, y_ref)
    assert np.all(np.abs(dy - dy_ref) <= 1e-12 * np.abs(dy_ref).max(axis=0))


class TestCompiledPass:
    """`rk4_sensitivities` of `_rk4.c` against the numpy replay it replaced, `tests/sensitivity_reference.py`."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        p=parameter_points(),
        free=st.lists(st.sampled_from(ls.PARAM_NAMES), min_size=0, max_size=12, unique=True),
        dt=st.floats(0.02, 0.05),
        # one to three temperatures, switching at grid steps; "kink" is T = T_op, "zero" a T where R is clamped to 0
        temperatures=st.lists(st.one_of(st.just("kink"), st.just("zero"), st.floats(1.0, 40.0)), min_size=1,
                              max_size=3),
        light=st.one_of(st.just(0.0), st.floats(1.0, 1000.0)),
        switches=st.lists(st.integers(1, 1500), min_size=2, max_size=2, unique=True),
        obs=st.lists(st.integers(0, 1500), min_size=3, max_size=6, unique=True),
    )
    def test_matches_the_numpy_replay(self, p, free, dt, temperatures, light, switches, obs):
        values = [{"kink": p.T_op, "zero": 2.5 * p.T_op}.get(T, T) for T in temperatures]
        breakpoints = [0.0, *(k * dt for k in sorted(switches))][: len(values)]
        env = ls.EnvSchedule(ls.PiecewiseConstantSignal(breakpoints, values),
                             ls.PiecewiseConstantSignal.constant(light))
        spec = ls.FitSpec(guess=p, env=env, dt=dt)
        times = tuple(k * dt for k in sorted(obs))
        y, dy = sensitivity_reference._outputs_and_sensitivities(p, spec, times, free)
        assume(np.all(np.isfinite(y)) and np.all(np.isfinite(dy)))
        assert_matches_the_replay(p, spec, times, free)

    def test_matches_the_numpy_replay_where_the_store_is_clamped(self):
        """The dark, dt 0.05 case of `test_clamped_store_keeps_the_gradient_exact`, every parameter free."""
        spec = ls.FitSpec(guess=P, env=ls.EnvSchedule.constant(22.0, 0.0), dt=0.05)
        times = (0.5, 1.0, 1.5, 2.0)
        traj, _, _ = sensitivity_reference.trajectory(P, spec, times)
        assert (traj.states[:, 1] == 0.0).any()
        assert_matches_the_replay(P, spec, times, ls.PARAM_NAMES)

    def test_refuses_observations_out_of_order(self):
        """The pass records each observation as it steps past it."""
        with pytest.raises(ValueError, match="^observation times must be ascending$"):
            fitting._outputs_and_sensitivities(P, ls.FitSpec(guess=P), (5.0, 1.0, 10.0), ("k",))

    def test_refuses_a_repeated_free_parameter(self):
        """The pass holds one sensitivity column per parameter, at most twelve."""
        with pytest.raises(ValueError, match=r"^free parameters must not repeat, got \('k', 'psi', 'k'\)$"):
            fitting._outputs_and_sensitivities(P, ls.FitSpec(guess=P), (1.0, 2.0, 3.0), ("k", "psi", "k"))

    def test_does_not_depend_on_the_blas_kernel(self):
        """Hashes of (y, dy) at the nominal guess and at seeded random points are the same under OpenBLAS's
        default core and under `Prescott`, which has no fused multiply-add."""
        child = (
            "import ctypes, hashlib, pathlib, numpy as np, lettucesim as ls; from lettucesim import fitting\n"
            "libs = sorted((pathlib.Path(np.__file__).parents[1] / 'numpy.libs').glob('libscipy_openblas64_*.so'))\n"
            "corename = getattr(ctypes.CDLL(str(libs[0])), 'scipy_openblas_get_corename64_', None) if libs else None\n"
            "if corename: corename.restype = ctypes.c_char_p\n"
            "print(corename().decode() if corename else 'unknown')\n"
            "P = ls.NOMINAL_PARAMS\n"
            "for p in [P] + [ls.sample_params(P, 0.2, 11, i) for i in range(4)]:\n"
            "    y, dy = fitting._outputs_and_sensitivities(p, ls.FitSpec(guess=P), (1.0, 5.0, 12.0, 20.0, 30.0),"
            " ls.PARAM_NAMES)\n"
            "    print(hashlib.sha256(y.tobytes() + dy.tobytes()).hexdigest())\n"
        )
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(SRC)
        hashes = [
            subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120,
                           env={**env, **core}, check=True).stdout.split()
            for core in ({}, {"OPENBLAS_CORETYPE": "Prescott"})
        ]
        (default, *first), (prescott, *second) = hashes
        assert len(first) == 5
        assert first == second
        # the core did switch (OpenBLAS names Prescott's core "Katmai"), where numpy's OpenBLAS can name it
        assert default == "unknown" or prescott != default


class TestFitObjective:
    def record(self, monkeypatch):
        """Patch `fitting.minimize` to record every point and value the objective returns."""
        seen = []
        real_minimize = fitting.minimize

        def recording(fun, x0, **kwargs):
            def wrapped(x):
                value, gradient = fun(x)
                seen.append((np.array(x), value, kwargs))
                return value, gradient

            return real_minimize(wrapped, x0, **kwargs)

        monkeypatch.setattr(fitting, "minimize", recording)
        return seen

    def test_value_is_cost_at_every_evaluated_point(self, monkeypatch):
        seen = self.record(monkeypatch)
        series = ls.generate_synthetic(1, P, 0.05, seed=3, n_obs=6, t_span=10.0, noise_frac=0.05)[0]
        spec = ls.FitSpec(guess=P, max_iterations=8)
        ls.fit(spec, series)
        free = spec.free_names()
        assert len(seen) > 3
        for x, value, _ in seen:
            p = replace(P, **{name: math.exp(v) for name, v in zip(free, x)})
            assert value == ls.cost(p, spec, series)

    def test_optimizer_gets_the_exact_gradient(self, monkeypatch):
        seen = self.record(monkeypatch)
        series = ls.generate_synthetic(1, P, 0.05, seed=4, n_obs=5, t_span=6.0)[0]
        ls.fit(ls.FitSpec(guess=P, max_iterations=2), series)
        kwargs = seen[0][2]
        assert kwargs["jac"] is True
        assert "finite_diff_rel_step" not in kwargs["options"]
