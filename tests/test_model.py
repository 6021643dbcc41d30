"""Flux values, Jacobians, and the cooperativity sign conditions."""

import numpy as np
import pytest

import lettucesim as ls
from lettucesim import model
from lettucesim.model import _flux_core, _param_values

from jacobian_reference import cleared_jacobian_state

P = ls.NOMINAL_PARAMS
ENV = ls.EnvPoint(T=22.0, I=3.0)


def sample_physical_state(rng):
    """States on the physically visited manifold: stores scaled with biomass."""
    b = float(np.exp(rng.uniform(np.log(5e-3), np.log(100.0))))
    c = b * 10 ** rng.uniform(-3.5, 0.0)
    n = b * 10 ** rng.uniform(-3.0, 0.7)
    return ls.PlantState(b, float(c), float(n))


class TestTemperatureResponse:
    def test_peak_at_optimum(self):
        assert ls.temperature_response(22.0, 22.0) == 1.0

    def test_half_response(self):
        assert ls.temperature_response(11.0, 22.0) == pytest.approx(0.5)

    def test_clamped_below_zero(self):
        # raw triangle would give -5/22 here
        assert ls.temperature_response(-5.0, 22.0) == 0.0

    def test_range_symmetry_and_unique_peak(self):
        for T in np.linspace(-30.0, 80.0, 223):
            r = ls.temperature_response(float(T), 22.0)
            assert 0.0 <= r <= 1.0
            assert r == pytest.approx(ls.temperature_response(float(44.0 - T), 22.0), abs=1e-12)
            if T != 22.0:
                assert r < 1.0


class TestFluxes:
    def test_growth_zero_without_carbon(self):
        assert ls.growth_flux(ls.PlantState(1.0, 0.0, 0.1), 22.0, P) == 0.0

    def test_growth_hand_value(self):
        # k * R * (c/b) * (n/b) * b = 1000 * 1 * 0.1 * 0.01 * 1
        s = ls.PlantState(1.0, 0.1, 0.01)
        assert ls.growth_flux(s, 22.0, P) == pytest.approx(1.0, rel=1e-12)

    def test_growth_scales_with_temperature(self):
        s = ls.PlantState(1.0, 0.1, 0.01)
        assert ls.growth_flux(s, 11.0, P) == pytest.approx(0.5, rel=1e-12)

    def test_growth_raises_below_floor(self):
        s = ls.PlantState(1.0, 0.1, 0.01)
        object.__setattr__(s, "b", 1e-9)
        with pytest.raises(ValueError):
            ls.growth_flux(s, 22.0, P)

    def test_litter_zero_at_zero(self):
        assert ls.litter_loss(0.0, P) == 0.0

    def test_litter_half_rate_at_saturation_mass(self):
        assert ls.litter_loss(P.k_ml, P) == pytest.approx(P.k_l * P.k_ml / 2.0, rel=1e-12)

    def test_litter_hand_value(self):
        # independent form: k_l * b^2 / (b + k_ml)
        expected = 0.149 * 50.0**2 / (50.0 + 0.0221)
        assert expected == pytest.approx(7.446708554818769, rel=1e-12)
        assert ls.litter_loss(50.0, P) == pytest.approx(expected, rel=1e-12)

    def test_litter_finite_down_to_the_smallest_subnormal(self):
        for b in np.arange(1, 400) * 5e-324:
            loss = ls.litter_loss(float(b), P)
            assert np.isfinite(loss) and loss >= 0.0

    def test_litter_equals_flux_core_bits(self):
        rng = np.random.default_rng(8)
        for b in [model.B_EPS, *np.exp(rng.uniform(np.log(model.B_EPS), np.log(1e4), 200))]:
            p = ls.sample_params(P, 0.3, int(rng.integers(1000)), 0)
            flux = _flux_core(float(b), 0.0, 0.0, 0.0, 0.0, 0.0, *_param_values(p))[1]
            assert ls.litter_loss(float(b), p) == flux

    def test_litter_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            ls.litter_loss(-1.0, P)

    def test_carbon_consumption(self):
        s = ls.PlantState(1.0, 0.1, 0.01)
        assert ls.carbon_consumption(ls.PlantState(1.0, 0.0, 0.01), 22.0, P) == 0.0
        assert ls.carbon_consumption(s, 22.0, P) == pytest.approx(6.89, rel=1e-12)
        assert ls.carbon_consumption(s, 0.0, P) == 0.0

    def test_nitrogen_consumption(self):
        s = ls.PlantState(1.0, 0.1, 0.01)
        assert ls.nitrogen_consumption(ls.PlantState(1.0, 0.1, 0.0), 22.0, P) == 0.0
        assert ls.nitrogen_consumption(s, 22.0, P) == pytest.approx(5.57e-5, rel=1e-12)
        # R_T vanishes at twice the optimal temperature
        assert ls.nitrogen_consumption(s, 44.0, P) == 0.0

    def test_photosynthesis_dark(self):
        assert ls.photosynthesis(ls.PlantState(1.0, 0.1, 0.01), 0.0, P) == 0.0

    def test_photosynthesis_small_plant_limit(self):
        # both saturation terms approach 1 as b -> floor with empty store
        b = ls.B_EPS
        got = ls.photosynthesis(ls.PlantState(b, 0.0, 0.0), 2.0, P)
        assert got == pytest.approx(P.sigma_c * P.psi * b * 2.0, rel=1e-4)

    def test_photosynthesis_closed_form(self):
        # independent evaluation of the closed form
        b, c, I = 1.0, 0.1, 1.0
        expected = (0.26 * 0.718 * b * I) / ((1 + 0.718 * b / 0.062) * (1 + c / (0.718 * b * 0.144)))
        got = ls.photosynthesis(ls.PlantState(b, c, 0.01), I, P)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0075430667086, rel=1e-9)

    def test_uptake_no_nitrogen(self):
        assert ls.nitrogen_uptake(ls.PlantState(1.0, 0.1, 0.01), 0.0, P) == 0.0

    def test_uptake_closed_form(self):
        b, n, u = 1.0, 0.01, 0.075
        expected = (70.0 * 0.282 * b * u) / ((1 + 0.282 * b / 0.062) * (1 + n / (0.282 * b * 0.115)))
        got = ls.nitrogen_uptake(ls.PlantState(b, 0.1, n), u, P)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_uptake_increasing_in_biomass(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = sample_physical_state(rng)
            u = float(rng.uniform(0.001, 0.3))
            bigger = ls.PlantState(s.b * 1.01, s.c, s.n)
            assert ls.nitrogen_uptake(bigger, u, P) >= ls.nitrogen_uptake(s, u, P)

    def test_all_fluxes_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            s = sample_physical_state(rng)
            u = float(rng.uniform(0.0, 0.5))
            I = float(rng.uniform(0.0, 1000.0))
            T = float(rng.uniform(-10.0, 50.0))
            R = ls.temperature_response(T, P.T_op)
            fluxes = _flux_core(s.b, s.c, s.n, u, R, I, *_param_values(P))
            assert min(fluxes) >= 0.0


class TestMonotoneShapes:
    """Sampled finite-difference monotonicity of the two assimilation fluxes."""

    def test_photosynthesis_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = sample_physical_state(rng)
            I = float(rng.uniform(0.1, 800.0))
            base = ls.photosynthesis(s, I, P)
            assert ls.photosynthesis(ls.PlantState(s.b * 1.01, s.c, s.n), I, P) >= base
            assert ls.photosynthesis(s, I * 1.01, P) > base
            assert ls.photosynthesis(ls.PlantState(s.b, s.c * 1.01 + 1e-9, s.n), I, P) <= base

    def test_uptake_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            s = sample_physical_state(rng)
            u = float(rng.uniform(0.001, 0.3))
            base = ls.nitrogen_uptake(s, u, P)
            assert ls.nitrogen_uptake(s, u * 1.01, P) > base
            assert ls.nitrogen_uptake(ls.PlantState(s.b, s.c, s.n * 1.01 + 1e-9), u, P) <= base


class TestRhs:
    def test_no_inflows_only_decay(self):
        s = ls.PlantState(ls.B_EPS, 0.0, 0.0)
        db, dc, dn = ls.rhs(s, 0.0, ls.EnvPoint(22.0, 0.0), P)
        assert db <= 0.0
        assert dc == 0.0
        assert dn == 0.0

    def test_empty_stores_pure_litter(self):
        s = ls.PlantState(5.0, 0.0, 0.0)
        db = ls.rhs(s, 0.0, ls.EnvPoint(22.0, 0.0), P)[0]
        assert db == pytest.approx(-ls.litter_loss(5.0, P), rel=1e-12)

    def test_rhs_is_flux_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = sample_physical_state(rng)
            u = float(rng.uniform(0.0, 0.3))
            got = ls.rhs(s, u, ENV, P)
            expected = np.array(
                [
                    ls.growth_flux(s, ENV.T, P) - ls.litter_loss(s.b, P),
                    ls.photosynthesis(s, ENV.I, P) - ls.carbon_consumption(s, ENV.T, P),
                    ls.nitrogen_uptake(s, u, P) - ls.nitrogen_consumption(s, ENV.T, P),
                ]
            )
            assert np.array_equal(got, expected)


class TestOutput:
    def test_small_plant(self):
        assert ls.output(ls.PlantState(ls.B_EPS, 0.0, 0.0), P) == pytest.approx(P.psi * ls.B_EPS)

    def test_hand_value(self):
        assert ls.output(ls.PlantState(50.0, 1.0, 1.0), P) == pytest.approx(35.9, rel=1e-12)


def fd_jacobians(s, u, env, p, rel=6e-6):
    """Central finite differences of rhs; the independent oracle."""
    x = s.as_array()
    fd = np.zeros((3, 3))
    for j in range(3):
        h = rel * max(abs(x[j]), 1e-6)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fd[:, j] = (ls.rhs(ls.PlantState(*xp), u, env, p) - ls.rhs(ls.PlantState(*xm), u, env, p)) / (2 * h)
    hu = rel * max(u, 1e-6)
    um = max(u - hu, 0.0)
    fdu = (ls.rhs(s, u + hu, env, p) - ls.rhs(s, um, env, p)) / (u + hu - um)
    return fd, fdu


class TestJacobians:
    def test_input_gradient_is_uptake_over_u(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = sample_physical_state(rng)
            u = float(rng.uniform(1e-3, 0.3))
            Ju = ls.jacobian_input(s, u, ENV, P)
            assert Ju[0] == 0.0 and Ju[1] == 0.0
            assert Ju[2] == pytest.approx(ls.nitrogen_uptake(s, u, P) / u, rel=1e-10)

    def test_offdiagonals_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            s = sample_physical_state(rng)
            u = float(rng.uniform(0.0, 0.5))
            J = ls.jacobian_state(s, u, ENV, P)
            off = [J[0, 1], J[0, 2], J[1, 0], J[1, 2], J[2, 0], J[2, 1]]
            assert min(off) >= 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            s = sample_physical_state(rng)
            u = float(rng.uniform(1e-3, 0.3))
            J = ls.jacobian_state(s, u, ENV, P)
            Ju = ls.jacobian_input(s, u, ENV, P)
            fd, fdu = fd_jacobians(s, u, ENV, P)
            scale = np.maximum(np.maximum(np.abs(J), np.abs(fd)), 1e-12)
            assert np.all(np.abs(J - fd) <= 1e-5 * scale)
            scale_u = np.maximum(np.maximum(np.abs(Ju), np.abs(fdu)), 1e-12)
            assert np.all(np.abs(Ju - fdu) <= 1e-5 * scale_u)


class TestCooperativityCheck:
    def test_nominal_parameters_clean(self):
        report = ls.check_cooperativity(P, ENV, sample_count=1000, seed=0)
        assert report.passed
        assert report.violation_count == 0
        assert report.min_offdiagonal >= 0.0
        assert report.min_input_gradient >= 0.0
        assert report.sample_count == 1000

    def test_corrupted_litter_rate_reported(self):
        # bypass construction invariants to inject a sign error
        bad = ls.PlantParams(**{n: getattr(P, n) for n in ls.PARAM_NAMES})
        object.__setattr__(bad, "k_l", -P.k_l)
        report = ls.check_cooperativity(bad, ENV, sample_count=200, seed=1)
        assert not report.passed
        assert report.violation_count > 0
        assert any(kind.startswith("flux:litter") for kind, *_ in report.violations)

    def test_corrupted_growth_rate_breaks_sign_conditions(self):
        bad = ls.PlantParams(**{n: getattr(P, n) for n in ls.PARAM_NAMES})
        object.__setattr__(bad, "k", -P.k)
        report = ls.check_cooperativity(bad, ENV, sample_count=200, seed=2)
        assert not report.passed
        assert any(kind.startswith("offdiagonal") for kind, *_ in report.violations)
        assert report.min_offdiagonal < 0.0

    def test_corrupted_shoot_fraction_breaks_the_output_map(self):
        # in the dark no flux goes negative, so the output map is the only violation
        bad = corrupted("psi")
        report = ls.check_cooperativity(bad, ls.EnvPoint(T=22.0, I=0.0), sample_count=200, seed=3)
        assert not report.passed
        assert not report.output_map_nonnegative
        assert report.violations == (("output_map", None, None, bad.psi),)
        assert report.violation_count == 1

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            ls.check_cooperativity(P, ENV, sample_count=0)


class TestTypes:
    @pytest.mark.parametrize("field,value", [
        ("k", 0.0), ("k_l", -0.1), ("psi", 1.2), ("psi", 0.0),
        ("T_op", -5.0), ("sigma_n", float("nan")),
    ])
    def test_bad_params_rejected(self, field, value):
        kwargs = {n: getattr(P, n) for n in ls.PARAM_NAMES}
        kwargs[field] = value
        with pytest.raises(ValueError):
            ls.PlantParams(**kwargs)

    def test_param_array_round_trip(self):
        assert ls.PlantParams.from_array(P.as_array()) == P

    def test_bad_state_rejected(self):
        with pytest.raises(ValueError):
            ls.PlantState(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ls.PlantState(1.0, -0.1, 0.0)

    def test_bad_env_rejected(self):
        with pytest.raises(ValueError):
            ls.EnvPoint(22.0, -1.0)


def per_sample_cooperativity(p, env, sample_count, seed):
    """The per-sample reference loop: `cleared_jacobian_state`, the
    cleared-form input slope and `_flux_core` at one state at a time,
    recording violations in the listing order of `check_cooperativity`.

    Returns (violation_count, violations, min_offdiagonal,
    min_input_gradient, min_flux); the margins skip the structural zeros
    J[1,2], J[2,1] and the input Jacobian's two zero entries.
    """
    rng = np.random.default_rng(seed)
    lo = np.log([1e-4, 1e-8, 1e-8, 1e-8])
    hi = np.log([1e3, 1e2, 1e2, 1.0])
    draws = np.exp(rng.uniform(lo, hi, size=(sample_count, 4)))
    R = ls.temperature_response(env.T, p.T_op)
    pv = _param_values(p)
    gamma = 1.0 - p.psi
    violations, count = [], 0
    min_off = min_du = min_flux = np.inf

    def record(kind, state, u, value):
        nonlocal count
        count += 1
        if len(violations) < 100:
            violations.append((kind, state, u, value))

    for b, c, n, u in draws:
        J = cleared_jacobian_state(ls.PlantState(b, c, n), u, env, p)
        for i, j in ((0, 1), (0, 2), (1, 0), (2, 0)):
            min_off = min(min_off, J[i, j])
            if J[i, j] < 0.0:
                record(f"offdiagonal[{i},{j}]", (b, c, n), u, J[i, j])
        root = gamma * b
        du = p.sigma_n * p.v * p.j_n * gamma**2 * b * b / ((p.v + root) * (n + p.j_n * root))
        min_du = min(min_du, du)
        if du < 0.0:
            record("input_gradient", (b, c, n), u, du)
        labels = ("growth", "litter", "consume_c", "consume_n", "assim_c", "assim_n")
        for label, flux in zip(labels, _flux_core(b, c, n, u, R, env.I, *pv)):
            min_flux = min(min_flux, flux)
            if flux < 0.0:
                record(f"flux:{label}", (b, c, n), u, flux)
    return count, violations, min_off, min_du, min_flux


def corrupted(name, factor=-1.0):
    bad = ls.PlantParams(**{n: getattr(P, n) for n in ls.PARAM_NAMES})
    object.__setattr__(bad, name, factor * getattr(P, name))
    return bad


class TestCooperativityAgainstPerSampleLoop:
    @pytest.mark.parametrize("params", [P, corrupted("k"), corrupted("k_l"), corrupted("sigma_c"), corrupted("sigma_n")],
                             ids=["nominal", "-k", "-k_l", "-sigma_c", "-sigma_n"])
    @pytest.mark.parametrize("sample_count, seeds", [(1, (0, 1, 2, 3)), (200, (0, 1, 2)), (3000, (0, 5))])
    @pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
    def test_report_equals_the_loop(self, params, sample_count, seeds, block, monkeypatch):
        if block is not None:  # the listing's cut at 100 then falls inside a later block
            monkeypatch.setattr(model, "_CHECK_BLOCK", block)
        for seed in seeds:
            report = ls.check_cooperativity(params, ENV, sample_count=sample_count, seed=seed)
            count, violations, min_off, min_du, min_flux = per_sample_cooperativity(params, ENV, sample_count, seed)
            assert report.violation_count == count
            assert len(report.violations) == len(violations) == min(count, 100)
            for (kind, state, u, value), (kind0, state0, u0, value0) in zip(report.violations, violations):
                assert (kind, state, u) == (kind0, state0, u0)
                assert value == pytest.approx(value0, rel=1e-12)
            assert report.min_offdiagonal == pytest.approx(min_off, rel=1e-12)
            assert report.min_input_gradient == pytest.approx(min_du, rel=1e-12)
            assert report.min_flux == min_flux

    def test_negative_growth_rate_overflows_the_listing(self):
        report = ls.check_cooperativity(corrupted("k"), ENV, sample_count=3000, seed=0)
        assert report.violation_count > 100 and len(report.violations) == 100

    def test_nominal_margins_are_positive(self):
        for seed in range(3):
            report = ls.check_cooperativity(P, ENV, sample_count=3000, seed=seed)
            assert report.min_offdiagonal > 0.0
            assert report.min_input_gradient > 0.0
            assert report.min_flux > 0.0
