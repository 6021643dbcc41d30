"""Field assembly: parameter sampling, topology, epoch marching, ledger."""

import csv
import dataclasses
import filecmp

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lettucesim as ls
import rk4_reference
from lettucesim.config import builtin_config_names, load_config
from lettucesim.control import ActuationSchedule, ControlPolicy, SaturationSpec
from lettucesim.field import FieldTrajectory, export_ledger_csv, export_trajectory_csv
from lettucesim.integrator import StepGrid, _lanes, integrate_lanes

P = ls.NOMINAL_PARAMS
SAT = SaturationSpec(0.075, 0.0075)
CONSTANT = ControlPolicy("constant", SAT)
GLOBAL = ControlPolicy("global", SAT, gain=0.05)
LOCAL = ControlPolicy("local", SAT, gain=0.05)
DAILY = ActuationSchedule(1.0)


def small_config(**kw):
    defaults = dict(n_plants=9, grid_rows=3, grid_cols=3, seed=5, season_days=4.0, dt=0.02)
    defaults.update(kw)
    return ls.FieldConfig(**defaults)


class TestSampleParams:
    def test_zero_fraction_is_exact_copy(self):
        assert ls.sample_params(P, 0.0, seed=1, plant_index=3) == P

    def test_deterministic(self):
        a = ls.sample_params(P, 0.05, seed=9, plant_index=4)
        b = ls.sample_params(P, 0.05, seed=9, plant_index=4)
        assert a == b
        assert a != ls.sample_params(P, 0.05, seed=9, plant_index=5)

    def test_draw_means_match_nominal(self):
        """Monte-Carlo oracle: per-parameter sample means within 1% of nominal."""
        draws = np.array([ls.sample_params(P, 0.05, seed=2, plant_index=i).as_array()
                          for i in range(10_000)])
        nominal = P.as_array()
        rel = np.abs(draws.mean(axis=0) - nominal) / nominal
        assert rel.max() < 0.01

    def test_all_draws_valid(self):
        for i in range(200):
            drawn = ls.sample_params(P, 0.4, seed=3, plant_index=i)
            assert min(drawn.as_array()) > 0.0
            assert 0.0 < drawn.psi < 1.0


class TestNeighbors:
    def test_corner(self):
        assert ls.neighbors(0, 10, 10) == [1, 10, 11]

    def test_interior_has_eight(self):
        got = ls.neighbors(55, 10, 10)
        assert len(got) == 8
        assert got == [44, 45, 46, 54, 56, 64, 65, 66]

    def test_edge_has_five(self):
        assert len(ls.neighbors(5, 10, 10)) == 5

    def test_counts_by_position(self):
        counts = [len(ls.neighbors(i, 4, 5)) for i in range(20)]
        assert sorted(set(counts)) == [3, 5, 8]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ls.neighbors(100, 10, 10)


class TestRejectionThreshold:
    def test_linear_interpolation_convention(self):
        assert ls.rejection_threshold(np.arange(1.0, 101.0), 10) == pytest.approx(10.9)

    def test_zero_percentile_is_min(self):
        assert ls.rejection_threshold([3.0, 1.0, 2.0], 0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ls.rejection_threshold([], 10)


class TestSimulateField:
    def test_homogeneous_field_identical_outputs(self):
        cfg = small_config(perturbation_frac=0.0)
        traj = ls.simulate_field(cfg, CONSTANT, DAILY)
        final = traj.final_outputs
        assert np.all(final == final[0])

    def test_ledger_identity_constant_policy(self):
        cfg = small_config(season_days=5.0)
        traj = ls.simulate_field(cfg, CONSTANT, DAILY)
        assert traj.applied_u.shape == (5, 9)
        assert np.all(traj.applied_u == 0.075)
        assert np.array_equal(traj.hold_days, np.ones(5))
        assert traj.total_nitrogen() == pytest.approx(9 * 0.075 * 5, rel=1e-12)

    def test_duration_weighted_ledger_sparse(self):
        cfg = small_config(season_days=5.0)
        traj = ls.simulate_field(cfg, CONSTANT, ActuationSchedule(2.0))
        assert np.array_equal(traj.application_times, [0.0, 2.0, 4.0])
        assert np.array_equal(traj.hold_days, [2.0, 2.0, 1.0])
        assert traj.total_nitrogen() == pytest.approx(9 * 0.075 * 5, rel=1e-12)

    def test_matches_scalar_integrator_bitwise(self):
        """Each plant's row reproduces the reference RK4 loop's run of that plant exactly."""
        cfg = small_config()
        traj = ls.simulate_field(cfg, CONSTANT, DAILY)
        u = ls.PiecewiseConstantSignal.constant(0.075)
        for i in range(cfg.n_plants):
            p = traj.plant_params[i]
            single = rk4_reference.integrate(p, cfg.s0, u, cfg.env, 0.0, cfg.season_days, cfg.dt)
            assert np.array_equal(traj.states[i], single.states)
            assert np.array_equal(traj.outputs[i], single.outputs)

    LANE_PARAMS = np.array([ls.sample_params(P, 0.1, 3, i).as_array() for i in range(5)])
    LANE_S0 = ls.PlantState(b=0.005, c=0.001, n=0.0001)
    # temperature 22 then 15 from step 40; light 530, 200 from step 30, 600 from step 60
    LANE_GRID = StepGrid(0.0, 1.6, 0.02)
    LANE_ENV = ls.EnvSchedule(ls.PiecewiseConstantSignal((0.0, 0.8), (22.0, 15.0)),
                              ls.PiecewiseConstantSignal((0.0, 0.6, 1.2), (530.0, 200.0, 600.0)))

    def test_advance_without_history_keeps_final_state(self):
        """`states=None` skips the per-step writes but leaves the same final b, c, n."""
        u = np.linspace(0.0, 0.15, 5)
        states = np.empty((5, 81, 3))
        finals = []
        for history in (states, None):
            x, advance = _lanes(self.LANE_PARAMS, self.LANE_S0, self.LANE_GRID, self.LANE_ENV, history)
            advance(u, 0, 80)
            finals.append(x.copy())
        assert np.array_equal(finals[0], finals[1])
        assert np.array_equal(states[:, -1], finals[0].T)
        assert np.array_equal(states[:, 0], np.tile([0.005, 0.001, 0.0001], (5, 1)))

    @pytest.mark.parametrize("cuts", [(0, 80), (0, 0, 80), (0, 1, 30, 31, 79, 80), (0, 25, 40, 55, 80, 80)])
    def test_advance_in_chunks_equals_one_call(self, cuts):
        """Epochs advance the season in chunks; any cut gives one call's history and final state."""
        u = np.linspace(0.0, 0.15, 5)
        runs = []
        for bounds in ((0, 80), cuts):
            states = np.empty((5, 81, 3))
            x, advance = _lanes(self.LANE_PARAMS, self.LANE_S0, self.LANE_GRID, self.LANE_ENV, states)
            for start, stop in zip(bounds, bounds[1:]):
                advance(u, start, stop)
            runs.append((x.copy(), states))
        (whole, whole_states), (chunked, chunked_states) = runs
        assert np.array_equal(whole, chunked)
        assert np.array_equal(whole_states, chunked_states)

    def test_integrate_lanes_matches_scalar_final_state(self):
        params = [ls.sample_params(P, 0.1, 6, i) for i in range(4)]
        u = np.array([0.0, 0.03, 0.075, 0.2])
        env = ls.EnvSchedule(ls.PiecewiseConstantSignal((0.0, 1.0), (22.0, 30.0)),
                             ls.PiecewiseConstantSignal((0.0, 0.5), (530.0, 100.0)))
        s0 = ls.PlantState(b=0.004, c=0.002, n=0.0003)
        B, C, N = integrate_lanes(np.array([p.as_array() for p in params]), u, env, s0, 2.0, 0.02)
        for i, p in enumerate(params):
            single = rk4_reference.integrate(p, s0, ls.PiecewiseConstantSignal.constant(float(u[i])), env, 0.0, 2.0, 0.02)
            assert np.array_equal([B[i], C[i], N[i]], single.states[-1])

    def test_controlled_matches_ledger_replay(self):
        """Between applications plants evolve under exactly the recorded doses."""
        cfg = small_config(season_days=4.0)
        traj = ls.simulate_field(cfg, GLOBAL, ActuationSchedule(2.0))
        for i in range(cfg.n_plants):
            sig = ls.PiecewiseConstantSignal(
                breakpoints=tuple(traj.application_times),
                values=tuple(traj.applied_u[:, i]),
            )
            single = rk4_reference.integrate(traj.plant_params[i], cfg.s0, sig, cfg.env, 0.0, 4.0, cfg.dt)
            assert np.array_equal(traj.states[i], single.states)

    def test_determinism(self):
        cfg = small_config()
        a = ls.simulate_field(cfg, LOCAL, ActuationSchedule(2.0))
        b = ls.simulate_field(cfg, LOCAL, ActuationSchedule(2.0))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.applied_u, b.applied_u)

    def test_noisy_determinism(self):
        cfg = small_config()
        noisy = ControlPolicy("local", SAT, gain=0.05, noise_frac=0.1)
        a = ls.simulate_field(cfg, noisy, ActuationSchedule(2.0))
        b = ls.simulate_field(cfg, noisy, ActuationSchedule(2.0))
        assert np.array_equal(a.states, b.states)

    def test_permutation_equivariance(self):
        """Relabeling plants (with relabeled neighborhoods) permutes the results."""
        cfg = ls.FieldConfig(n_plants=4, grid_rows=1, grid_cols=4, seed=8,
                             season_days=3.0, dt=0.02)
        params = tuple(ls.sample_params(P, 0.05, 8, i) for i in range(4))
        fwd = ls.simulate_field(cfg, LOCAL, DAILY, plant_params=params)
        rev = ls.simulate_field(cfg, LOCAL, DAILY, plant_params=params[::-1])
        # reversing a path graph maps the topology onto itself
        assert np.array_equal(rev.outputs, fwd.outputs[::-1])
        assert np.array_equal(rev.applied_u, fwd.applied_u[:, ::-1])

    def test_late_first_application_uses_baseline(self):
        cfg = small_config(season_days=4.0)
        traj = ls.simulate_field(cfg, GLOBAL, ActuationSchedule(1.0, first_application_day=2.0))
        u_before = traj.u_at_times(np.array([0.5]))
        assert np.all(u_before == cfg.u_bar)
        assert np.array_equal(traj.application_times, [2.0, 3.0])

    def test_total_nitrogen_counts_baseline_before_late_first_application(self):
        """Four plants hold u_bar for all four days: two at baseline, two from the ledger."""
        cfg = ls.FieldConfig(n_plants=4, grid_rows=2, grid_cols=2, seed=5, season_days=4.0, dt=0.02)
        traj = ls.simulate_field(cfg, CONSTANT, ActuationSchedule(1.0, first_application_day=2.0))
        assert traj.total_nitrogen() == pytest.approx(4 * 0.075 * 4.0, rel=1e-12)

    def test_policy_baseline_dose_must_be_the_field_one(self):
        """One baseline dose per run: the policy's `u_bar` may not differ from the field's."""
        policy = ControlPolicy("constant", SaturationSpec(0.08, 0.0075))
        with pytest.raises(ls.ConfigError, match=r"policy.saturation.u_bar=0.08 .* field.u_bar=0.075"):
            ls.simulate_field(small_config(), policy, DAILY)

    def test_interval_shorter_than_dt_rejected(self):
        cfg = small_config(dt=0.5)
        with pytest.raises(ls.ConfigError):
            ls.simulate_field(cfg, CONSTANT, ActuationSchedule(0.25))

    def test_tiny_interval_rejected_before_listing_its_times(self):
        """An interval of 1e-12 day would list 4e12 application times (29 TiB) before any grid check."""
        with pytest.raises(ls.ConfigError, match="shorter than dt"):
            ls.simulate_field(small_config(), CONSTANT, ActuationSchedule(1e-12))

    def test_history_bound_rejected_before_allocating(self):
        """dt=5e-6 is within the step bound, but 100 plants' history would take 22.4 GiB."""
        with pytest.raises(ls.ConfigError, match=r"^the state history of 100 plants over 10000000 steps needs 22\.4 GiB"):
            ls.simulate_field(ls.FieldConfig(dt=5e-6), CONSTANT, DAILY)
        assert (5000 + 1) * 1000 * 24 <= ls.field.MAX_HISTORY_BYTES == 2**32  # the 1,000-plant daily field fits

    def test_off_grid_interval_rejected(self):
        cfg = small_config()
        with pytest.raises(ls.ConfigError):
            ls.simulate_field(cfg, CONSTANT, ActuationSchedule(1.0001))

    def test_monotone_field_response(self):
        """Raising the uniform dose raises every plant's final output (>=10 seeds)."""
        for seed in range(10):
            cfg_lo = small_config(seed=seed, season_days=10.0, u_bar=0.06)
            cfg_hi = small_config(seed=seed, season_days=10.0, u_bar=0.09)
            lo = ls.simulate_field(cfg_lo, ControlPolicy("constant", SaturationSpec(0.06, 0.006)), DAILY)
            hi = ls.simulate_field(cfg_hi, ControlPolicy("constant", SaturationSpec(0.09, 0.009)), DAILY)
            assert np.all(hi.final_outputs > lo.final_outputs)


class TestStepGrid:
    """The field runs on the same checked step grid as `integrate` and the reference RK4 loop."""

    @pytest.mark.parametrize("env", [
        ls.EnvSchedule(ls.PiecewiseConstantSignal((0.0, 0.513), (22.0, 18.0)),
                       ls.PiecewiseConstantSignal.constant(530.0)),
        ls.EnvSchedule(ls.PiecewiseConstantSignal.constant(22.0),
                       ls.PiecewiseConstantSignal((0.0, 0.257), (530.0, 0.0))),
    ], ids=["temperature", "light"])
    def test_off_grid_environment_rejected_like_integrate(self, env):
        cfg = ls.FieldConfig(n_plants=4, grid_rows=2, grid_cols=2, season_days=1.0, dt=0.01, env=env)
        u = ls.PiecewiseConstantSignal.constant(cfg.u_bar)
        with pytest.raises(ValueError, match="off the dt=0.01 step grid") as scalar:
            ls.integrate(P, cfg.s0, u, env, 0.0, 1.0, 0.01)
        with pytest.raises(ValueError) as field:
            ls.simulate_field(cfg, CONSTANT, DAILY)
        assert str(field.value) == str(scalar.value)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_integrate_or_raises_its_error(self, data):
        dt = data.draw(st.sampled_from([0.01, 0.02, 0.05]), label="dt")
        steps = data.draw(st.integers(1, 40), label="steps")
        interval = data.draw(st.integers(1, steps), label="interval steps") * dt

        def switch(label):
            on_grid = data.draw(st.integers(1, steps + 5), label=label) * dt
            return on_grid + data.draw(st.sampled_from([0.0, 0.3 * dt]), label=f"{label} offset")

        env = ls.EnvSchedule(
            temperature=ls.PiecewiseConstantSignal((0.0, switch("temperature switch")),
                                                   (22.0, data.draw(st.floats(5.0, 40.0)))),
            light=ls.PiecewiseConstantSignal((0.0, switch("light switch")),
                                             (530.0, data.draw(st.floats(0.0, 800.0)))),
        )
        cfg = ls.FieldConfig(n_plants=4, grid_rows=2, grid_cols=2, seed=data.draw(st.integers(0, 99)),
                             season_days=steps * dt, dt=dt, env=env)
        params = tuple(ls.sample_params(P, 0.05, cfg.seed, i) for i in range(4))
        u = ls.PiecewiseConstantSignal.constant(cfg.u_bar)

        def scalar(p):
            return rk4_reference.integrate(p, cfg.s0, u, env, 0.0, cfg.season_days, dt)

        try:
            scalar(params[0])
        except ValueError as exc:
            with pytest.raises(ValueError) as field_error:
                ls.simulate_field(cfg, CONSTANT, ActuationSchedule(interval), plant_params=params)
            assert str(field_error.value) == str(exc)
            return
        traj = ls.simulate_field(cfg, CONSTANT, ActuationSchedule(interval), plant_params=params)
        for i, p in enumerate(params):
            assert np.array_equal(traj.states[i], scalar(p).states)


class TestLaneKernel:
    """Every field row is the reference RK4 loop's trajectory under that plant's ledger doses."""

    POLICIES = {
        "constant": CONSTANT,
        "global": ControlPolicy("global", SAT, gain=0.5),
        "local": ControlPolicy("local", SAT, gain=0.5),
        "noisy global": ControlPolicy("global", SAT, gain=0.5, noise_frac=0.2),
        "noisy local": ControlPolicy("local", SAT, gain=0.5, noise_frac=0.2),
    }

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rows_equal_integrate_under_the_ledger(self, data):
        policy = self.POLICIES[data.draw(st.sampled_from(sorted(self.POLICIES)), label="policy")]
        # a local policy needs every plant to have a neighbour
        rows = data.draw(st.integers(1, 3), label="rows")
        cols = data.draw(st.integers(2 if policy.variant == "local" else 1, 3), label="cols")
        # dt up to 0.1 is far outside RK4's stable range here, so the projection clamps fire
        dt = data.draw(st.sampled_from([0.01, 0.025, 0.05, 0.1]), label="dt")
        steps = data.draw(st.integers(2, 40), label="steps")
        first = data.draw(st.integers(1, steps - 1), label="first application step")
        interval = data.draw(st.integers(1, steps), label="interval steps")
        # T <= 0 and T >= 2 * T_op (about 44) give a temperature response of exactly 0
        switches = data.draw(st.lists(st.integers(1, steps - 1), max_size=3, unique=True), label="switch steps")
        temperatures = data.draw(st.lists(st.sampled_from([-5.0, 0.0, 12.0, 22.0, 38.0, 50.0, 100.0]),
                                          min_size=len(switches) + 1, max_size=len(switches) + 1),
                                 label="temperatures")
        env = ls.EnvSchedule(
            ls.PiecewiseConstantSignal((0.0, *(k * dt for k in sorted(switches))), temperatures),
            ls.PiecewiseConstantSignal.constant(data.draw(st.sampled_from([0.0, 200.0, 530.0]), label="light")),
        )
        cfg = ls.FieldConfig(n_plants=rows * cols, grid_rows=rows, grid_cols=cols,
                             seed=data.draw(st.integers(0, 99), label="seed"),
                             perturbation_frac=data.draw(st.sampled_from([0.0, 0.05, 0.3]), label="frac"),
                             season_days=steps * dt, dt=dt, env=env)
        traj = ls.simulate_field(cfg, policy, ActuationSchedule(interval * dt, first_application_day=first * dt))

        for i, p in enumerate(traj.plant_params):
            doses = ls.PiecewiseConstantSignal((0.0, *traj.application_times), (cfg.u_bar, *traj.applied_u[:, i]))
            single = rk4_reference.integrate(p, cfg.s0, doses, env, 0.0, cfg.season_days, dt)
            assert np.array_equal(traj.states[i], single.states)
            assert np.array_equal(traj.outputs[i], single.outputs)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_integrate_lanes_equals_integrate(self, data):
        """`integrate_lanes` itself, lane by lane, under temperatures and light that switch back and forth."""
        lanes = data.draw(st.integers(1, 300), label="lanes")
        frac = data.draw(st.floats(0.0, 0.3), label="frac")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = [ls.sample_params(P, frac, int(rng.integers(100)), i) for i in range(lanes)]
        u = rng.uniform(0.0, 0.2, lanes)
        u[rng.random(lanes) < 0.2] = 0.0
        u[0] = 0.0
        # dt up to 0.1 is far outside RK4's stable range, so the projection clamps fire
        dt = data.draw(st.sampled_from([0.01, 0.05, 0.1]), label="dt")
        steps = data.draw(st.integers(6, 40), label="steps")
        switches = sorted(data.draw(st.lists(st.integers(1, steps - 1), min_size=4, max_size=4, unique=True),
                                    label="temperature switch steps"))
        mild = data.draw(st.floats(1.0, 40.0), label="mild T")
        cold = data.draw(st.sampled_from([-5.0, 0.0]), label="cold T")
        # 44 is twice the nominal T_op; 200 is above twice every drawn T_op
        hot = data.draw(st.sampled_from([44.0, 200.0]), label="hot T")
        # mild and cold each come back after another temperature held
        temperature = ls.PiecewiseConstantSignal((0.0, *(s * dt for s in switches)), (mild, cold, mild, hot, cold))
        dark = data.draw(st.integers(1, steps - 2), label="dark step")
        light = ls.PiecewiseConstantSignal((0.0, dark * dt, (dark + 1) * dt),
                                           (data.draw(st.sampled_from([200.0, 530.0])), 0.0, 530.0))
        env = ls.EnvSchedule(temperature, light)
        s0 = ls.FieldConfig().s0

        B, C, N = integrate_lanes(np.array([p.as_array() for p in params]), u, env, s0, steps * dt, dt)
        for i, p in enumerate(params):
            single = rk4_reference.integrate(p, s0, ls.PiecewiseConstantSignal.constant(float(u[i])), env,
                                             0.0, steps * dt, dt)
            assert np.array([B[i], C[i], N[i]]).tobytes() == single.states[-1].tobytes()

    @pytest.mark.parametrize("fast, floor", [(dict(k_l=500.0), 0), (dict(theta_n=0.05), 2)], ids=["b", "n"])
    def test_integrate_lanes_equals_integrate_where_a_stage_clamp_fires(self, fast, floor):
        """A litter or nitrogen-consumption rate so fast that the first stage state overshoots its floor."""
        p, s0, dt = dataclasses.replace(P, **fast), ls.DEFAULT_INITIAL_STATE, 0.1
        env = ls.EnvSchedule(ls.PiecewiseConstantSignal.constant(22.0),
                             ls.PiecewiseConstantSignal((0.0, 0.5), (530.0, 0.0)))
        first_stage = np.array([s0.b, s0.c, s0.n]) + 0.5 * dt * ls.rhs(s0, 0.0, env.value_at(0.0), p)
        assert first_stage[floor] < (ls.B_EPS, 0.0, 0.0)[floor]
        u = np.array([0.0, 0.075])
        B, C, N = integrate_lanes(np.array([p.as_array()] * 2), u, env, s0, 2.0, dt)
        for i in range(2):
            single = rk4_reference.integrate(p, s0, ls.PiecewiseConstantSignal.constant(float(u[i])), env, 0.0, 2.0, dt)
            assert np.array([B[i], C[i], N[i]]).tobytes() == single.states[-1].tobytes()


class TestFieldConfigValidation:
    def test_grid_mismatch(self):
        with pytest.raises(ls.ConfigError):
            ls.FieldConfig(n_plants=10, grid_rows=3, grid_cols=3)

    def test_bad_perturbation(self):
        with pytest.raises(ls.ConfigError):
            ls.FieldConfig(perturbation_frac=0.5)

    def test_bad_seed(self):
        with pytest.raises(ls.ConfigError):
            ls.FieldConfig(seed=-1)

    @pytest.mark.parametrize("key", ["dt", "season_days", "u_bar"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_step_season_or_dose(self, key, bad):
        with pytest.raises(ls.ConfigError, match=rf"^{key} must be \w+ and finite, got {bad}$"):
            ls.FieldConfig(**{key: bad})

    @pytest.mark.parametrize("dt", [1e-320, 5e-324, 1e-9])
    def test_step_count_overflow(self, dt):
        with pytest.raises(ls.ConfigError, match=rf"^dt={dt!r} is too small for season_days=50.0"):
            ls.FieldConfig(dt=dt)

    def test_params_override_length(self):
        cfg = small_config()
        with pytest.raises(ls.ConfigError):
            ls.simulate_field(cfg, CONSTANT, DAILY, plant_params=(P,))


def reference_export_trajectory_csv(traj, path):
    """The trajectory writer before the streaming rewrite (one csv.writer row per cell), kept as the byte oracle."""
    u_all = traj.u_at_times(traj.times)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["plant_id", "t", "b", "c", "n", "y", "u"])
        for i in range(traj.n_plants):
            for j, t in enumerate(traj.times):
                b, c, n = traj.states[i, j]
                writer.writerow(
                    [i, repr(float(t)), repr(float(b)), repr(float(c)), repr(float(n)),
                     repr(float(traj.outputs[i, j])), repr(float(u_all[i, j]))]
                )


def simulate_builtin(name, *overrides):
    cfg = load_config(f"builtin:{name}", list(overrides))
    return ls.simulate_field(cfg.field, cfg.policy, cfg.schedule)


class TestTrajectoryExport:
    """The streaming writer gives the old writer's bytes, in one process or one plant per pool task."""

    def assert_same_bytes(self, traj, tmp_path, workers=1):
        expected, got = tmp_path / "expected.csv", tmp_path / "got.csv"
        reference_export_trajectory_csv(traj, expected)
        export_trajectory_csv(traj, got, workers=workers)
        assert filecmp.cmp(expected, got, shallow=False)

    @pytest.mark.parametrize("name", builtin_config_names())
    def test_every_builtin_short_season(self, name, tmp_path):
        self.assert_same_bytes(simulate_builtin(name, "field.season_days=3.0"), tmp_path)

    def test_full_season_ideal(self, tmp_path):
        """Doses change at every daily epoch across all 5,001 steps."""
        self.assert_same_bytes(simulate_builtin("ideal"), tmp_path)

    def test_late_first_application_writes_baseline_dose(self, tmp_path):
        traj = simulate_builtin("ideal", "field.season_days=5.0", "schedule.first_application_day=2.5")
        assert traj.application_times[0] == 2.5
        self.assert_same_bytes(traj, tmp_path)

    @pytest.mark.parametrize("workers", [2, 3, 50])  # 9 plants, 9 tasks, whatever the pool size
    def test_blocks_in_a_pool_give_the_same_bytes(self, workers, tmp_path, in_process_pool):
        traj = ls.simulate_field(small_config(), LOCAL, ActuationSchedule(1.0, first_application_day=1.5))
        self.assert_same_bytes(traj, tmp_path, workers)

    @pytest.mark.parametrize("u_bar, baseline", [(1e-05, "1e-05"), (np.float64(1e-05), "1e-05"), (2, "2.0")])
    def test_edge_floats(self, tmp_path, in_process_pool, u_bar, baseline):
        edges = [-0.0, 5e-324, 1e-05, 1e16, 2.0, 0.1, 1.0 / 3.0]
        cfg = ls.FieldConfig(n_plants=2, grid_rows=1, grid_cols=2, u_bar=u_bar)
        times = np.array([0.0, 1e-05, 2.0, 1e16])
        states = np.array(edges[:6] * 4).reshape(2, 4, 3)
        states[1] = -states[1]
        traj = FieldTrajectory(
            config=cfg,
            times=times,
            states=states,
            outputs=np.array([[-0.0, 5e-324, 2.0, 1e16], [1e-05, 0.0, -2.0, 1.0 / 3.0]]),
            application_times=np.array([1e-05, 2.0]),
            applied_u=np.array([[-0.0, 5e-324], [1e16, 2.0]]),
            hold_days=np.array([2.0 - 1e-05, 1.0]),
        )
        self.assert_same_bytes(traj, tmp_path)
        self.assert_same_bytes(traj, tmp_path, workers=2)
        text = (tmp_path / "got.csv").read_text()
        assert f"0,0.0,-0.0,5e-324,1e-05,-0.0,{baseline}\n" in text  # baseline u_bar before t=1e-05
        assert "1,1e+16,-1e+16,-2.0,-0.1,0.3333333333333333,2.0\n" in text


class TestLedger:
    def read(self, path):
        return [[float(x) for x in row] for row in list(csv.reader(open(path, newline="")))[1:]]

    def test_late_first_application_sums_to_total_nitrogen(self, tmp_path):
        cfg = small_config(season_days=4.0)
        traj = ls.simulate_field(cfg, GLOBAL, ActuationSchedule(1.0, first_application_day=2.0))
        export_ledger_csv(traj, tmp_path / "ledger.csv")
        rows = self.read(tmp_path / "ledger.csv")
        assert rows[:9] == [[i, 0.0, cfg.u_bar, 2.0] for i in range(9)]
        assert len(rows) == 9 * 3
        assert sum(u * hold for _, _, u, hold in rows) == pytest.approx(traj.total_nitrogen(), rel=1e-12)

    def test_first_application_on_day_zero_has_no_baseline_rows(self, tmp_path):
        cfg = small_config(season_days=4.0)
        traj = ls.simulate_field(cfg, GLOBAL, ActuationSchedule(2.0))
        export_ledger_csv(traj, tmp_path / "ledger.csv")
        rows = self.read(tmp_path / "ledger.csv")
        assert [row[1] for row in rows] == [0.0] * 9 + [2.0] * 9
        assert sum(u * hold for _, _, u, hold in rows) == pytest.approx(traj.total_nitrogen(), rel=1e-12)


class TestNonFiniteState:
    @pytest.mark.parametrize("name", ["k", "sigma_c"])
    def test_overflow_names_plant_and_time(self, name):
        """A parameter near the float limit overflows one plant to NaN within the first epoch."""
        params = [P] * 9
        params[2] = dataclasses.replace(P, **{name: 1e300})
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^plant 2 has a non-finite state at t=1\.0;"):
            ls.simulate_field(small_config(), CONSTANT, DAILY, plant_params=tuple(params))

    def test_overflow_during_baseline_is_caught(self):
        params = [P] * 9
        params[4] = dataclasses.replace(P, k=1e300)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^plant 4 has a non-finite state at t=2\.0;"):
            ls.simulate_field(small_config(), CONSTANT, ActuationSchedule(1.0, first_application_day=2.0),
                              plant_params=tuple(params))


class TestWriteTable:
    def test_cell_formats_and_dialect(self, tmp_path):
        from lettucesim.field import write_table

        path = tmp_path / "table.csv"
        row = [-0.0, 5e-324, 1e16, 0.1, np.float64(1 / 3), np.int64(3), 7, 'a, "b"']
        write_table(path, ["x", "y"], iter([row]))
        assert path.read_bytes() == b'x,y\r\n-0.0,5e-324,1e+16,0.1,0.3333333333333333,3,7,"a, ""b"""\r\n'
