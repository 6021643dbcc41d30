"""Residuals, cost surfaces, the bounded fit, and synthetic data."""

from dataclasses import replace

import numpy as np
import pytest

import lettucesim as ls
import rk4_reference
from lettucesim.fitting import read_timeseries_csv, write_timeseries_csv

P = ls.NOMINAL_PARAMS


def series_from(params, times=(5.0, 15.0, 30.0, 45.0), dt=0.02, **gen_kw):
    spec = ls.FitSpec(guess=params, dt=dt)
    from lettucesim.fitting import _simulated_outputs

    y = _simulated_outputs(params, spec, np.asarray(times))
    return ls.BiomassTimeseries(times=times, masses=tuple(float(v) for v in y), mass_kind="dry")


class TestToDry:
    def test_fresh_converted(self):
        s = ls.BiomassTimeseries((1.0, 2.0, 3.0), (100.0, 200.0, 300.0), mass_kind="fresh")
        dry = ls.to_dry(s)
        assert dry.masses == (10.0, 20.0, 30.0)
        assert dry.mass_kind == "dry"

    def test_dry_unchanged(self):
        s = ls.BiomassTimeseries((1.0, 2.0, 3.0), (10.0, 20.0, 30.0), mass_kind="dry")
        assert ls.to_dry(s) is s

    def test_idempotent(self):
        s = ls.BiomassTimeseries((1.0, 2.0, 3.0), (100.0, 200.0, 300.0), mass_kind="fresh")
        once = ls.to_dry(s)
        assert ls.to_dry(once) is once


class TestResidualsAndCost:
    def test_self_consistency(self):
        series = series_from(P)
        r = ls.residuals(P, ls.FitSpec(guess=P, dt=0.02), series)
        assert np.max(np.abs(r)) < 1e-9
        assert len(r) == len(series.times)

    def test_shift_property(self):
        series = series_from(P)
        shifted = replace(series, masses=tuple(m + 1.0 for m in series.masses))
        spec = ls.FitSpec(guess=P, dt=0.02)
        assert ls.residuals(P, spec, shifted) == pytest.approx(
            ls.residuals(P, spec, series) - 1.0
        )

    def test_fresh_series_rejected(self):
        fresh = ls.BiomassTimeseries((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), mass_kind="fresh")
        with pytest.raises(ValueError, match="dry"):
            ls.residuals(P, ls.FitSpec(guess=P), fresh)

    def test_cost_hand_arithmetic(self):
        series = series_from(P, times=(5.0, 15.0, 30.0))
        spec = ls.FitSpec(guess=P, dt=0.02)
        off = replace(series, masses=(series.masses[0] + 1.0, series.masses[1] - 2.0, series.masses[2]))
        assert ls.cost(P, spec, off) == pytest.approx((1.0 + 4.0 + 0.0) / 3.0, rel=1e-9)
        assert ls.cost(P, spec, series) < 1e-18

    def test_nrmse(self):
        series = series_from(P, times=(5.0, 15.0, 30.0))
        spec = ls.FitSpec(guess=P, dt=0.02)
        assert ls.nrmse(P, spec, series) == pytest.approx(0.0, abs=1e-9)
        # residuals all equal to the observed range -> NRMSE 1
        rng_width = max(series.masses) - min(series.masses)
        shifted = replace(series, masses=tuple(m + rng_width for m in series.masses))
        assert ls.nrmse(P, spec, shifted) == pytest.approx(1.0, rel=1e-9)

    def test_nrmse_scale_invariance(self):
        """Scaling observations and the output map together leaves NRMSE fixed."""
        series = series_from(P)
        spec = ls.FitSpec(guess=P, dt=0.02)
        off = replace(series, masses=tuple(m * 1.1 for m in series.masses))
        base = ls.nrmse(P, spec, off)
        scaled_series = replace(off, masses=tuple(2.0 * m for m in off.masses))
        # a doubled output map doubles both residuals and the observed range,
        # so compute the scaled NRMSE from scaled residuals directly
        r1 = ls.residuals(P, spec, off)
        r2 = 2.0 * r1
        n1 = np.sqrt(np.mean(r1**2)) / (max(off.masses) - min(off.masses))
        n2 = np.sqrt(np.mean(r2**2)) / (max(scaled_series.masses) - min(scaled_series.masses))
        assert n1 == pytest.approx(base, rel=1e-12)
        assert n2 == pytest.approx(n1, rel=1e-12)

    def test_all_zero_series_rejected(self):
        flat = ls.BiomassTimeseries((1.0, 2.0, 3.0), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            ls.nrmse(P, ls.FitSpec(guess=P, dt=0.02), flat)


class TestFit:
    def test_exact_guess_converges_immediately(self):
        series = series_from(P)
        res = ls.fit(ls.FitSpec(guess=P, fixed=frozenset(set(ls.PARAM_NAMES) - {"k_l", "sigma_c"}), dt=0.02), series)
        assert res.iterations <= 2
        assert res.cost < 1e-12
        assert res.converged

    def test_recovers_perturbed_parameters(self):
        true = ls.sample_params(P, 0.05, seed=21, plant_index=0)
        dataset = ls.generate_synthetic(1, P, 0.05, seed=21, n_obs=12, t_span=50.0, dt=0.02)
        free = ("k_l", "sigma_c", "psi")
        guess = replace(true, **{n: min(1.2 * getattr(true, n), 0.97 if n == "psi" else 1.2 * getattr(true, n))
                                 for n in free})
        spec = ls.FitSpec(guess=guess, fixed=frozenset(set(ls.PARAM_NAMES) - set(free)), dt=0.02)
        res = ls.fit(spec, dataset[0])
        for n in free:
            assert abs(getattr(res.params, n) - getattr(true, n)) / getattr(true, n) < 0.05
        assert res.nrmse < 0.02
        assert res.cost <= ls.cost(guess, spec, dataset[0]) + 1e-15

    @pytest.mark.parametrize("day", [5.01, 5.019, 5.0 + 1e-6])
    def test_observation_off_the_step_grid_is_an_error(self, day):
        """At dt 0.02 day 5.01 would read day 5.00's output and day 5.019 day 5.02's: each is refused instead."""
        series = ls.BiomassTimeseries((1.0, 2.0, day), (0.01, 0.02, 0.05))
        spec = ls.FitSpec(guess=P, dt=0.02)
        for call in (ls.cost, ls.fit):
            with pytest.raises(ValueError, match=rf"^t={day!r} is off the dt=0\.02 step grid from 0\.0 to "):
                call(*((P,) if call is ls.cost else ()), spec, series)

    @pytest.mark.parametrize("near", [5.0 + 1e-12, 5.0 - 1e-12])
    def test_observation_a_rounding_error_off_a_step_is_on_it(self, near):
        assert series_from(P, times=(0.1, 0.2, 3 * 0.1)).masses == series_from(P, times=(0.1, 0.2, 0.3)).masses
        assert series_from(P, times=(1.0, 2.0, near)).masses == series_from(P, times=(1.0, 2.0, 5.0)).masses

    def test_result_within_bounds(self):
        series = series_from(P)
        bounds = ls.fitting.default_bounds(P)
        spec = ls.FitSpec(guess=P, bounds=bounds,
                          fixed=frozenset(set(ls.PARAM_NAMES) - {"k_l", "v"}), dt=0.02)
        res = ls.fit(spec, replace(series, masses=tuple(m * 1.3 for m in series.masses)))
        for name in ("k_l", "v"):
            lo, hi = bounds[name]
            assert lo <= getattr(res.params, name) <= hi

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reported_cost_is_cost_at_returned_params(self, seed):
        """Fits stopped early report the cost of the parameters they return, exactly."""
        dataset = ls.generate_synthetic(2, P, 0.05, seed, n_obs=(5, 8), t_span=8.0,
                                        noise_frac=0.05, spacing="random")
        spec = ls.FitSpec(guess=P, max_iterations=3)
        for series in dataset:
            res = ls.fit(spec, series)
            assert res.cost == ls.cost(res.params, spec, series)

    def test_reported_cost_ignores_stale_optimizer_value(self, monkeypatch):
        """After a failed line search L-BFGS-B returns the restored iterate with the
        objective of its last trial point; the fit must not report that value."""
        real_minimize = ls.fitting.minimize

        def stale_fun(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            res.fun = res.fun * (1.0 - 1e-12)
            return res

        monkeypatch.setattr(ls.fitting, "minimize", stale_fun)
        series = series_from(ls.sample_params(P, 0.05, seed=4, plant_index=0), times=(2.0, 4.0, 6.0, 8.0))
        spec = ls.FitSpec(guess=P, fixed=frozenset(set(ls.PARAM_NAMES) - {"k_l", "sigma_c"}))
        res = ls.fit(spec, series)
        assert res.cost == ls.cost(res.params, spec, series)

    def test_no_free_parameters_rejected(self):
        with pytest.raises(ValueError):
            ls.fit(ls.FitSpec(guess=P, fixed=frozenset(ls.PARAM_NAMES)), series_from(P))

    def test_guess_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            ls.FitSpec(guess=P, bounds={n: (1e3, 1e4) for n in ls.PARAM_NAMES})

    @pytest.mark.parametrize("field, value", [
        ("dt", float("nan")), ("dt", float("inf")), ("dt", 0.0), ("dt", -0.02),
        ("u", float("nan")), ("u", float("inf")), ("u", -0.01), ("max_iterations", 0), ("max_iterations", -3),
    ])
    def test_spec_values_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field}\b.* must be .*, got {value}$"):
            ls.FitSpec(guess=P, **{field: value})


class TestGenerateSynthetic:
    def test_noise_free_on_trajectory(self):
        dataset = ls.generate_synthetic(3, P, 0.05, seed=5, n_obs=6, t_span=30.0, dt=0.02)
        for i, series in enumerate(dataset):
            true = ls.sample_params(P, 0.05, seed=5, plant_index=i)
            r = ls.residuals(true, ls.FitSpec(guess=true, dt=0.02), series)
            assert np.max(np.abs(r)) < 1e-9

    def test_noise_free_masses_are_the_reference_loop_bit_for_bit(self):
        """The generator reads its outputs from the fit's pass; the reference RK4 loop gives the same bits."""
        dataset = ls.generate_synthetic(3, P, 0.05, seed=5, n_obs=6, t_span=30.0, dt=0.02)
        for i, series in enumerate(dataset):
            true = ls.sample_params(P, 0.05, seed=5, plant_index=i)
            traj = rk4_reference.integrate(true, ls.DEFAULT_INITIAL_STATE, ls.PiecewiseConstantSignal.constant(
                ls.DEFAULT_U_BAR), ls.DEFAULT_ENV, 0.0, series.times[-1], 0.02)
            steps = [round(t / 0.02) for t in series.times]
            assert np.array_equal(series.masses, traj.outputs[steps])

    def test_observation_count_range(self):
        dataset = ls.generate_synthetic(30, P, 0.05, seed=6, n_obs=(3, 12), spacing="random", dt=0.05)
        counts = {len(s.times) for s in dataset}
        assert all(3 <= c <= 12 for c in counts)
        assert len(counts) > 1

    def test_deterministic(self):
        a = ls.generate_synthetic(2, P, 0.05, seed=7, n_obs=5, noise_frac=0.1, dt=0.05)
        b = ls.generate_synthetic(2, P, 0.05, seed=7, n_obs=5, noise_frac=0.1, dt=0.05)
        assert a == b

    @pytest.mark.parametrize("kw", [
        {"t_span": 0.0}, {"t_span": -5.0}, {"t_span": float("nan")}, {"t_span": float("inf")},
        {"noise_frac": -0.5}, {"noise_frac": float("nan")}, {"noise_frac": float("inf")},
    ])
    def test_bad_span_or_noise_rejected(self, kw):
        name = next(iter(kw))
        with pytest.raises(ValueError, match=rf"^{name} must be \w+ and finite"):
            ls.generate_synthetic(1, P, 0.0, seed=8, n_obs=4, dt=0.05, **kw)

    @pytest.mark.parametrize("frac", [float("nan"), float("inf"), -0.1, 0.5, 0.6])
    def test_perturbation_frac_outside_the_field_range_rejected(self, frac):
        with pytest.raises(ValueError, match=rf"^perturbation_frac must lie in \[0, 0\.5\), got {frac}$"):
            ls.generate_synthetic(1, P, frac, seed=8, n_obs=4, dt=0.05)

    def test_fresh_kind(self):
        dry = ls.generate_synthetic(1, P, 0.0, seed=8, n_obs=4, dt=0.05)[0]
        fresh = ls.generate_synthetic(1, P, 0.0, seed=8, n_obs=4, dt=0.05, mass_kind="fresh")[0]
        assert ls.to_dry(fresh).masses == pytest.approx(dry.masses)


class TestCsv:
    def test_round_trip(self, tmp_path):
        dataset = ls.generate_synthetic(3, P, 0.05, seed=9, n_obs=(3, 6), noise_frac=0.02, dt=0.05)
        path = tmp_path / "data.csv"
        write_timeseries_csv(path, dataset)
        back = read_timeseries_csv(path)
        assert back == dataset

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("plant_id,day\nx,1\n")
        with pytest.raises(ValueError, match="columns"):
            read_timeseries_csv(path)

    def test_mixed_kind_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "plant_id,day,mass_g,kind\nA,1,1.0,dry\nA,2,2.0,fresh\nA,3,3.0,dry\n"
        )
        with pytest.raises(ValueError, match="mixes"):
            read_timeseries_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("plant_id,day,mass_g,kind\n")
        with pytest.raises(ValueError, match="no observations"):
            read_timeseries_csv(path)


class TestTimeseriesValidation:
    @pytest.mark.parametrize("times,masses,kind", [
        ((1.0, 2.0), (1.0, 2.0), "dry"),            # too short
        ((2.0, 1.0, 3.0), (1.0, 2.0, 3.0), "dry"),  # not ascending
        ((1.0, 2.0, 3.0), (1.0, -2.0, 3.0), "dry"), # negative mass
        ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), "wet"),  # unknown kind
    ])
    def test_invalid(self, times, masses, kind):
        with pytest.raises(ValueError):
            ls.BiomassTimeseries(times, masses, mass_kind=kind)


    @pytest.mark.parametrize("times,masses", [
        ((1.0, float("nan"), 3.0), (1.0, 2.0, 3.0)),
        ((1.0, 2.0, float("inf")), (1.0, 2.0, 3.0)),
        ((1.0, 2.0, 3.0), (1.0, float("nan"), 3.0)),
        ((1.0, 2.0, 3.0), (1.0, 2.0, float("inf"))),
    ])
    def test_non_finite_rejected(self, times, masses):
        with pytest.raises(ValueError, match="must be finite"):
            ls.BiomassTimeseries(times, masses)


class TestWriteFitResults:
    def test_numpy_parameter_and_error_row(self, tmp_path):
        import csv

        from lettucesim.fitting import write_fit_results_csv

        params = replace(P, k=np.float64(1000.0))
        result = ls.FitResult(params=params, cost=0.25, nrmse=0.125, iterations=7, converged=True)
        path = tmp_path / "fit_results.csv"
        write_fit_results_csv(path, [("a", result), ("b", "ValueError: no fit")])
        with open(path, newline="") as fh:
            fitted, failed = csv.DictReader(fh)
        assert fitted["k"] == "1000.0"
        assert [fitted[name] for name in ls.PARAM_NAMES] == [repr(float(getattr(P, n))) for n in ls.PARAM_NAMES]
        assert (fitted["converged"], fitted["cost"], fitted["iterations"], fitted["error"]) == ("1", "0.25", "7", "")
        assert failed["converged"] == "0" and failed["error"] == "ValueError: no fit"
        assert all(failed[name] == "" for name in ("cost", "nrmse", "iterations", *ls.PARAM_NAMES))
