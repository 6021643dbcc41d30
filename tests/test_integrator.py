"""Fixed-step integration: signals, fidelity oracles, ordering, determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lettucesim as ls
import rk4_reference
from lettucesim.integrator import GRID_TOL, MAX_STEPS, StepGrid
from lettucesim.model import EnvPoint, PlantState, rhs

P = ls.NOMINAL_PARAMS
ENV = ls.EnvSchedule.constant(22.0, ls.DEFAULT_LIGHT)
S0 = ls.DEFAULT_INITIAL_STATE


class TestPiecewiseConstantSignal:
    def test_right_open_intervals(self):
        sig = ls.PiecewiseConstantSignal(breakpoints=(0.0, 2.0, 5.0), values=(1.0, 2.0, 3.0))
        assert sig.value_at(0.0) == 1.0
        assert sig.value_at(1.999) == 1.0
        assert sig.value_at(2.0) == 2.0
        assert sig.value_at(4.999) == 2.0
        assert sig.value_at(5.0) == 3.0
        assert sig.value_at(100.0) == 3.0

    def test_undefined_before_start(self):
        sig = ls.PiecewiseConstantSignal.constant(1.0, t_start=1.0)
        with pytest.raises(ValueError):
            sig.value_at(0.5)

    @pytest.mark.parametrize("bp,vals", [
        ((), ()),
        ((0.0, 0.0), (1.0, 2.0)),
        ((1.0, 0.5), (1.0, 2.0)),
        ((0.0, 1.0), (1.0,)),
        ((0.0, float("nan")), (1.0, 2.0)),
        ((0.0, float("nan"), 3.0), (1.0, 2.0, 3.0)),
        ((0.0, float("inf")), (1.0, 2.0)),
    ])
    def test_invalid_signals(self, bp, vals):
        with pytest.raises(ValueError):
            ls.PiecewiseConstantSignal(breakpoints=bp, values=vals)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="signal values must be finite"):
            ls.PiecewiseConstantSignal(breakpoints=(0.0, 1.0), values=(22.0, bad))
        with pytest.raises(ValueError, match="signal values must be finite"):
            ls.EnvSchedule.constant(bad, 530.0)


class TestIntegrate:
    def test_pure_litter_decay(self):
        env = ls.EnvSchedule.constant(22.0, 0.0)
        traj = ls.integrate(P, PlantState(1.0, 0.0, 0.0),
                            ls.PiecewiseConstantSignal.constant(0.0), env, 0.0, 5.0, 0.01)
        assert np.all(np.diff(traj.states[:, 0]) < 0.0)

    def test_nonnegativity(self):
        traj = ls.integrate(P, S0, ls.PiecewiseConstantSignal.constant(0.075), ENV, 0.0, 50.0, 0.02)
        assert traj.states[:, 0].min() >= ls.B_EPS
        assert traj.states[:, 1:].min() >= 0.0

    def test_step_refinement(self):
        """Halving the shipped step changes the final output below 1e-6 relative."""
        u = ls.PiecewiseConstantSignal.constant(0.075)
        a = ls.integrate(P, S0, u, ENV, 0.0, 50.0, 0.01).final_output()
        b = ls.integrate(P, S0, u, ENV, 0.0, 50.0, 0.005).final_output()
        assert abs(a - b) / b < 1e-6

    def test_fine_euler_oracle(self):
        """RK4 tracks an independently coded explicit-Euler reference."""
        u_val, days, dt_euler = 0.075, 10.0, 0.0005
        rk = ls.integrate(P, S0, ls.PiecewiseConstantSignal.constant(u_val), ENV, 0.0, days, 0.01)
        x = S0.as_array()
        env_pt = EnvPoint(22.0, ls.DEFAULT_LIGHT)
        for _ in range(int(round(days / dt_euler))):
            x = x + dt_euler * rhs(PlantState(*x), u_val, env_pt, P)
            x[0] = max(x[0], ls.B_EPS)
            x[1] = max(x[1], 0.0)
            x[2] = max(x[2], 0.0)
        assert abs(P.psi * x[0] - rk.final_output()) / rk.final_output() < 1e-4

    def test_determinism_bitwise(self):
        u = ls.PiecewiseConstantSignal(breakpoints=(0.0, 3.0), values=(0.05, 0.09))
        a = ls.integrate(P, S0, u, ENV, 0.0, 10.0, 0.01)
        b = ls.integrate(P, S0, u, ENV, 0.0, 10.0, 0.01)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.outputs, b.outputs)
        assert np.array_equal(a.times, b.times)

    def test_breakpoint_snapping_enforced(self):
        u = ls.PiecewiseConstantSignal(breakpoints=(0.0, 1.004), values=(0.05, 0.09))
        with pytest.raises(ValueError, match="grid"):
            ls.integrate(P, S0, u, ENV, 0.0, 10.0, 0.01)

    def test_breakpoint_a_rounding_error_past_the_grid_switches_on_its_step(self):
        late, exact = 0.01 + 5 * 0.01, 6 * 0.01  # 0.060000000000000005 and 0.06
        assert 0.0 < late - exact < GRID_TOL

        def dose(switch):
            return ls.PiecewiseConstantSignal((0.0, switch), (0.075, 0.02))

        (u_steps,) = StepGrid(0.0, 0.1, 0.01).sample(input=dose(late))
        assert u_steps.tolist() == [0.075] * 6 + [0.02] * 4
        a = ls.integrate(P, S0, dose(late), ENV, 0.0, 0.1, 0.01)
        b = ls.integrate(P, S0, dose(exact), ENV, 0.0, 0.1, 0.01)
        assert np.array_equal(a.states, b.states)

    def test_bad_step_config(self):
        u = ls.PiecewiseConstantSignal.constant(0.075)
        with pytest.raises(ValueError):
            ls.integrate(P, S0, u, ENV, 0.0, 10.0, -0.01)
        with pytest.raises(ValueError):
            ls.integrate(P, S0, u, ENV, 5.0, 5.0, 0.01)
        with pytest.raises(ValueError):
            ls.integrate(P, S0, u, ENV, 0.0, 10.003, 0.01)

    @pytest.mark.parametrize("t0, t1, dt, message", [
        (0.0, 1.0, float("nan"), "dt must be positive"),
        (0.0, 1.0, float("inf"), "dt must be positive"),
        (float("nan"), 1.0, 0.01, "must exceed"),
        (float("-inf"), 1.0, 0.01, "must exceed"),
        (0.0, float("nan"), 0.01, "must exceed"),
        (0.0, float("inf"), 0.01, "must exceed"),
    ])
    def test_non_finite_grid_rejected(self, t0, t1, dt, message):
        u = ls.PiecewiseConstantSignal.constant(0.075, t_start=-1.0)
        with pytest.raises(ValueError, match=message):
            StepGrid(t0, t1, dt).sample(input=u)
        with pytest.raises(ValueError, match=message):
            ls.integrate(P, S0, u, ENV, t0, t1, dt)

    @pytest.mark.parametrize("t0, t1, dt", [(0.0, 50.0, 1e-320), (0.0, 1.0, 5e-324), (-1e308, 1e308, 1.0)])
    def test_step_count_overflow_rejected(self, t0, t1, dt):
        u = ls.PiecewiseConstantSignal.constant(0.075, t_start=-1e308)
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="too many steps to count"):
                StepGrid(t0, t1, dt).sample(input=u)
            with pytest.raises(ValueError, match="too many steps to count"):
                StepGrid(np.float64(t0), np.float64(t1), np.float64(dt))

    @pytest.mark.parametrize("t1, dt", [(1.0, 1e-9), (50.0, 1e-9), (MAX_STEPS * 0.01 + 0.01, 0.01)])
    def test_step_count_bound_rejected_before_allocating(self, t1, dt):
        """A grid over MAX_STEPS steps is an error, not a request for gigabytes of steps."""
        u = ls.PiecewiseConstantSignal.constant(0.075)
        with pytest.raises(ValueError, match="too many steps to count"):
            StepGrid(0.0, t1, dt)
        with pytest.raises(ValueError, match="too many steps to count"):
            ls.integrate(P, S0, u, ENV, 0.0, t1, dt)

    def test_negative_input_rejected(self):
        u = ls.PiecewiseConstantSignal.constant(-0.01)
        with pytest.raises(ValueError):
            ls.integrate(P, S0, u, ENV, 0.0, 1.0, 0.01)

    def test_trajectory_samples_every_step(self):
        u = ls.PiecewiseConstantSignal.constant(0.075)
        traj = ls.integrate(P, S0, u, ENV, 0.0, 2.0, 0.05)
        assert len(traj.times) == 41
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(2.0)
        assert np.array_equal(traj.outputs, P.psi * traj.states[:, 0])


class TestAgainstReferenceLoop:
    """`integrate`, one lane of the compiled kernel, against the Python RK4 loop it replaced: the same bits,
    or the same ValueError."""

    @staticmethod
    def both(*args):
        """``integrate(*args)`` and the reference loop's run, or the message each raised."""
        runs = []
        for fn in (ls.integrate, rk4_reference.integrate):
            try:
                traj = fn(*args)
            except ValueError as exc:
                runs.append(str(exc))
            else:
                runs.append([a.tobytes() for a in (traj.times, traj.states, traj.outputs)])
        return runs

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_bits_or_same_error(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = P.as_array() * np.exp(rng.normal(0.0, 0.5, 12))
        values[ls.PARAM_NAMES.index("psi")] = rng.uniform(0.2, 0.95)
        p = ls.PlantParams.from_array(values)
        # a litter or nitrogen-consumption rate this fast overshoots a floor within one stage
        stiff = data.draw(st.sampled_from([{}, dict(k_l=500.0), dict(theta_n=0.05)]), label="stiff")
        p = dataclasses.replace(p, **stiff)
        c0, n0 = rng.uniform(0.0, [0.01, 0.001]) * rng.choice([-0.0, 0.0, 1.0], 2)  # either zero included
        s0 = PlantState(rng.uniform(ls.B_EPS, 0.05), c0, n0)
        dt = data.draw(st.sampled_from([0.01, 0.02, 0.05, 0.1]), label="dt")
        t0 = data.draw(st.sampled_from([0.0, 0.3]), label="t0")
        steps = data.draw(st.integers(1, 60), label="steps")

        def signal(label, levels):
            """A step signal from day 0 with up to 4 switches, one of them perhaps a third of a step off the grid."""
            switches = sorted(data.draw(st.sets(st.integers(1, steps + 3), max_size=4), label=f"{label} switches"))
            off = data.draw(st.sampled_from([0.0, 0.0, dt / 3]), label=f"{label} offset")
            times = [t0 + k * dt for k in switches]
            if times:
                times[-1] += off
            return ls.PiecewiseConstantSignal((0.0, *times), data.draw(
                st.lists(st.sampled_from(levels), min_size=len(times) + 1, max_size=len(times) + 1), label=label))

        # doses repeat and switch between 0.0 and -0.0; T <= 0 and T >= 2 * T_op give a temperature response of 0
        u = signal("dose", [0.0, -0.0, 0.03, 0.075, 0.2, 1.0] + [-0.01] * data.draw(st.booleans(), label="neg"))
        env = ls.EnvSchedule(signal("temperature", [-5.0, 0.0, 12.0, 22.0, 38.0, 100.0]),
                             signal("light", [0.0, 200.0, 530.0, 900.0]))
        integrated, reference = self.both(p, s0, u, env, t0, t0 + steps * dt, dt)
        assert integrated == reference

    @pytest.mark.parametrize("stiff, floor", [(dict(k_l=500.0), 0), (dict(theta_n=0.05), 2)], ids=["b", "n"])
    def test_same_bits_where_a_stage_clamp_fires(self, stiff, floor):
        p, dt = dataclasses.replace(P, **stiff), 0.1
        env = ls.EnvSchedule(ls.PiecewiseConstantSignal.constant(22.0),
                             ls.PiecewiseConstantSignal((0.0, 0.5), (530.0, 0.0)))
        first_stage = S0.as_array() + 0.5 * dt * rhs(S0, 0.0, env.value_at(0.0), p)
        assert first_stage[floor] < (ls.B_EPS, 0.0, 0.0)[floor]
        u = ls.PiecewiseConstantSignal((0.0, 0.7, 1.2), (0.0, 0.075, 0.0))
        integrated, reference = self.both(p, S0, u, env, 0.0, 2.0, dt)
        assert isinstance(integrated, list) and integrated == reference


class TestStepGrid:
    @settings(max_examples=60, deadline=None)
    @given(dt=st.sampled_from([0.01, 0.02, 0.05, 0.25]), steps=st.integers(1, 400),
           t0=st.sampled_from([0.0, 3.0]), data=st.data())
    def test_times_index_and_one_on_grid_test(self, dt, steps, t0, data):
        """`times` is t0 + dt * arange(steps + 1); t1, `index` and breakpoints share one on-grid test."""
        grid = StepGrid(t0, t0 + steps * dt, dt)
        assert grid.steps == steps
        assert np.array_equal(grid.times, t0 + dt * np.arange(steps + 1))
        assert [grid.index(t) for t in grid.times] == list(range(steps + 1))
        k = data.draw(st.integers(1, steps), label="k")
        with pytest.raises(ValueError, match=f"off the dt={dt} step grid"):
            grid.index(grid.times[k - 1] + 0.3 * dt)

        for off, on_grid in ((0.5 * GRID_TOL, True), (3 * GRID_TOL * max(1.0, k * dt), False)):
            t = t0 + k * dt - off
            switch = ls.PiecewiseConstantSignal((t0, t), (1.0, 2.0))
            if on_grid:
                assert StepGrid(t0, t, dt).steps == k
                assert grid.index(t) == k
                (values,) = grid.sample(input=switch)
                assert values.tolist() == [1.0] * k + [2.0] * (steps - k)
            else:
                with pytest.raises(ValueError, match="does not divide"):
                    StepGrid(t0, t, dt)
                with pytest.raises(ValueError, match=f"off the dt={dt} step grid"):
                    grid.index(t)
                with pytest.raises(ValueError, match=f"off the dt={dt} step grid"):
                    grid.sample(input=switch)


class TestOrderPreservation:
    def test_higher_dose_never_lowers_output(self):
        """Cooperativity: pointwise-larger nitrogen input gives pointwise-larger output."""
        rng = np.random.default_rng(42)
        days, dt = 25.0, 0.02
        for draw in range(50):
            p = ls.sample_params(P, 0.05, seed=1000 + draw, plant_index=0)
            # random step doses on the grid, B below A pointwise
            switches = tuple(float(t) for t in sorted(rng.choice(np.arange(1, 25), size=3, replace=False)))
            base = rng.uniform(0.02, 0.1, size=4)
            gaps = rng.uniform(0.0, 0.05, size=4)
            u_hi = ls.PiecewiseConstantSignal((0.0, *switches), tuple(base + gaps))
            u_lo = ls.PiecewiseConstantSignal((0.0, *switches), tuple(base))
            y_hi = ls.integrate(p, S0, u_hi, ENV, 0.0, days, dt).outputs
            y_lo = ls.integrate(p, S0, u_lo, ENV, 0.0, days, dt).outputs
            tol = 1e-9 * max(y_hi.max(), y_lo.max())
            assert np.all(y_hi >= y_lo - tol)
