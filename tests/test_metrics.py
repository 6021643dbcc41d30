"""Harvest statistics, comparisons, and the dose-response sweep."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lettucesim as ls
import rk4_reference
from lettucesim.control import ActuationSchedule, ControlPolicy, SaturationSpec

P = ls.NOMINAL_PARAMS
SAT = SaturationSpec(0.075, 0.0075)
CONSTANT = ControlPolicy("constant", SAT)


def run_small(seed=1, frac=0.05, season=5.0, interval=1.0):
    cfg = ls.FieldConfig(n_plants=9, grid_rows=3, grid_cols=3, seed=seed,
                         perturbation_frac=frac, season_days=season, dt=0.02)
    return ls.simulate_field(cfg, CONSTANT, ActuationSchedule(interval))


class TestSummarize:
    def test_homogeneous_field(self):
        traj = run_small(frac=0.0)
        s = ls.summarize(traj, threshold=0.01, name="flat")
        assert s.variance == 0.0
        assert s.fraction_above_threshold == 1.0
        assert s.n_plants == 9

    def test_hand_bookkeeping(self):
        traj = run_small(season=5.0, interval=1.0)
        s = ls.summarize(traj)
        # constant policy: 9 plants x 0.075 g x 5 held days
        assert s.total_nitrogen == pytest.approx(9 * 0.075 * 5, rel=1e-12)
        final = traj.final_outputs
        assert s.mean == pytest.approx(final.mean())
        assert s.variance == pytest.approx(final.var())  # population variance
        assert s.five_number[0] == final.min()
        assert s.five_number[4] == final.max()
        assert sum(s.hist_counts) == 9

    def test_own_percentile_threshold(self):
        traj = run_small()
        s = ls.summarize(traj)
        assert s.threshold == pytest.approx(ls.rejection_threshold(traj.final_outputs, 10))
        assert s.fraction_above_threshold == pytest.approx(0.9, abs=0.12)

    def test_json_round_trip(self):
        s = ls.summarize(run_small(), name="rt")
        back = ls.ScenarioSummary.from_json(s.to_json())
        assert back == s

    def test_overflowing_variance_is_an_error(self):
        """Finite outputs near 1e198 g have an infinite population variance; summarize names it."""
        from dataclasses import replace

        traj = run_small()
        huge = replace(traj, outputs=traj.outputs * 1e200)
        assert np.isfinite(huge.final_outputs).all()
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="statistic variance is not finite"):
            ls.summarize(huge, threshold=1.0)

    def test_non_finite_threshold_is_an_error(self):
        with pytest.raises(ValueError, match="statistic threshold is not finite"):
            ls.summarize(run_small(), threshold=float("nan"))

    def test_json_rejects_non_finite_numbers(self):
        from dataclasses import replace

        s = replace(ls.summarize(run_small()), variance=float("inf"))
        with pytest.raises(ValueError, match="not JSON compliant"):
            s.to_json()

    def test_permutation_invariant_over_plants(self):
        from dataclasses import replace

        traj = run_small()
        perm = np.random.default_rng(0).permutation(traj.n_plants)
        permuted = replace(
            traj,
            states=traj.states[perm],
            outputs=traj.outputs[perm],
            applied_u=traj.applied_u[:, perm],
            plant_params=tuple(traj.plant_params[i] for i in perm),
        )
        a = ls.summarize(traj, threshold=1.0)
        b = ls.summarize(permuted, threshold=1.0)
        assert b.mean == pytest.approx(a.mean, rel=1e-12)
        assert b.variance == pytest.approx(a.variance, rel=1e-12)
        assert b.five_number == pytest.approx(a.five_number)
        assert b.hist_counts == a.hist_counts
        assert b.total_nitrogen == pytest.approx(a.total_nitrogen, rel=1e-12)
        assert sorted(b.final_outputs) == pytest.approx(sorted(a.final_outputs))


class TestCompare:
    def test_self_comparison(self):
        s = ls.summarize(run_small(), name="a")
        rep = ls.compare(s, s)
        assert rep.variance_ratio == pytest.approx(1.0)
        assert rep.fraction_delta == pytest.approx(0.0)
        assert rep.nitrogen_ratio == pytest.approx(1.0)

    def test_fraction_reevaluated_on_base_threshold(self):
        a = ls.summarize(run_small(seed=1), name="a")
        b = ls.summarize(run_small(seed=2), name="b")
        rep = ls.compare(a, b)
        expected = float((np.asarray(b.final_outputs) >= a.threshold).mean())
        assert rep.fraction_delta == pytest.approx(expected - a.fraction_above_threshold)


class TestDoseResponseSweep:
    def test_rows_monotone_and_zero_dose_minimal(self):
        sets = [ls.sample_params(P, 0.05, seed=4, plant_index=i) for i in range(3)]
        grid = np.linspace(0.0, 0.15, 6)
        table = ls.dose_response_sweep(sets, grid, day=10.0, dt=0.02)
        assert table.final_b.shape == (3, 6)
        assert table.monotone_rows().all()
        assert np.all(table.final_b[:, 0] == table.final_b.min(axis=1))

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            ls.dose_response_sweep([P], np.array([0.1, 0.05]))
        with pytest.raises(ValueError):
            ls.dose_response_sweep([P], np.array([]))

    def test_no_parameter_sets_give_an_empty_table(self):
        table = ls.dose_response_sweep([], np.array([0.0, 0.1]), day=1.0)
        assert table.final_b.shape == (0, 2)

    # a small sweep and a large one: 3 and 40 cells
    SIZES = ((1, 3), (4, 10))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_grid_rejected_at_both_sizes(self, bad):
        for n_sets, n_doses in self.SIZES:
            grid = np.linspace(0.0, 0.15, n_doses)
            grid[-1] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy RuntimeWarning ahead of the error
                with pytest.raises(ValueError, match="dose grid must be finite"):
                    ls.dose_response_sweep([P] * n_sets, grid, day=1.0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_reference_integrate_bitwise(self, data):
        """Each cell equals its own run of the reference RK4 loop, from one cell to 36."""
        n_doses = data.draw(st.integers(1, 12), label="doses")
        n_sets = data.draw(st.integers(1, 3), label="sets")
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        dt = data.draw(st.sampled_from([0.01, 0.02, 0.05]), label="dt")
        steps = data.draw(st.integers(1, 30), label="steps")
        day = steps * dt
        env = ls.EnvSchedule.constant(ls.DEFAULT_TEMPERATURE, ls.DEFAULT_LIGHT)
        if data.draw(st.booleans(), label="piecewise env"):
            switch_t = data.draw(st.integers(1, 40), label="temperature switch") * dt
            switch_i = data.draw(st.integers(1, 40), label="light switch") * dt
            env = ls.EnvSchedule(
                temperature=ls.PiecewiseConstantSignal((0.0, switch_t), (22.0, data.draw(st.floats(5.0, 40.0)))),
                light=ls.PiecewiseConstantSignal((0.0, switch_i), (530.0, data.draw(st.floats(0.0, 800.0)))),
            )
        sets = [ls.sample_params(P, 0.1, seed, i) for i in range(n_sets)]
        grid = np.sort(data.draw(st.lists(st.floats(0.0, 0.3), min_size=n_doses, max_size=n_doses,
                                          unique=True)))

        table = ls.dose_response_sweep(sets, grid, day=day, env=env, dt=dt)

        expected = np.array([
            [rk4_reference.integrate(p, ls.DEFAULT_INITIAL_STATE, ls.PiecewiseConstantSignal.constant(float(u)),
                                     env, 0.0, day, dt).states[-1, 0] for u in grid]
            for p in sets
        ])
        assert np.array_equal(table.final_b, expected)

    @pytest.mark.parametrize("kwargs", [
        dict(day=1.005, dt=0.01),
        dict(day=0.0, dt=0.01),
        dict(day=1.0, dt=0.0),
        dict(day=1.0, dt=0.01, env=ls.EnvSchedule(ls.PiecewiseConstantSignal((0.0, 0.513), (22.0, 18.0)),
                                                  ls.PiecewiseConstantSignal.constant(530.0))),
        dict(day=1.0, dt=0.01, env=ls.EnvSchedule(ls.PiecewiseConstantSignal.constant(22.0),
                                                  ls.PiecewiseConstantSignal((0.0, 0.257), (530.0, 0.0)))),
    ], ids=["off-grid day", "zero day", "zero dt", "off-grid temperature", "off-grid light"])
    def test_both_sizes_raise_the_same_error(self, kwargs):
        messages = []
        for n_sets, n_doses in self.SIZES:
            sets = [ls.sample_params(P, 0.05, 1, i) for i in range(n_sets)]
            with pytest.raises(ValueError) as exc:
                ls.dose_response_sweep(sets, np.linspace(0.0, 0.15, n_doses), **kwargs)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_non_finite_cell_named_alike_at_both_sizes(self):
        huge = dataclasses.replace(P, sigma_c=1e300)
        messages = []
        for n_sets, n_doses in ((3, 3), (4, 10)):
            sets = [P, P, huge, P][:n_sets]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy RuntimeWarning at either size
                with pytest.raises(ValueError) as exc:
                    ls.dose_response_sweep(sets, np.linspace(0.0, 0.15, n_doses), day=2.0)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("final biomass of parameter set 2 at dose 0.0 is not finite")
