"""Dose policies: saturation, proportional laws, observation noise."""

import numpy as np
import pytest

import lettucesim as ls
from lettucesim.control import ActuationSchedule, ControlPolicy, SaturationSpec

SAT = SaturationSpec(u_bar=0.075, u_range=0.0075)
GLOBAL = ControlPolicy(variant="global", saturation=SAT, gain=0.05)
LOCAL = ControlPolicy(variant="local", saturation=SAT, gain=0.05)


class TestSaturate:
    def test_bounds(self):
        assert SAT.lower == pytest.approx(0.0675)
        assert SAT.upper == pytest.approx(0.0825)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SaturationSpec(u_bar=0.075, u_range=0.08)  # would allow negative doses
        with pytest.raises(ValueError):
            SaturationSpec(u_bar=0.075, u_range=-0.001)


class TestGlobalProportional:
    def test_uniform_field_gets_baseline(self):
        u = ls.global_proportional(np.full(10, 17.3), GLOBAL)
        assert u == pytest.approx(np.full(10, 0.075), abs=1e-15)

    def test_hand_example_saturates(self):
        # mean 20; deviations +-10 scaled by 0.05 -> +-0.5, clamped to +-0.0075
        u = ls.global_proportional(np.array([10.0, 30.0]), GLOBAL)
        assert u == pytest.approx([0.0825, 0.0675])

    def test_mean_centering_identity(self):
        # inside the linear band, corrections sum to zero
        y = np.array([10.0, 10.05, 9.95, 10.02])
        u = ls.global_proportional(y, GLOBAL)
        assert float(np.sum(u - 0.075)) == pytest.approx(0.0, abs=1e-15)

    def test_order_reversal(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(10, 60, size=50)
        u = ls.global_proportional(y, GLOBAL)
        order = np.argsort(y)
        assert np.all(np.diff(u[order]) <= 1e-15)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(10, 60, size=30)
        assert ls.global_proportional(y + 5.0, GLOBAL) == pytest.approx(
            ls.global_proportional(y, GLOBAL), abs=1e-12
        )

    def test_permutation_equivariance(self):
        # equal up to summation-order rounding in the mean
        rng = np.random.default_rng(2)
        y = rng.uniform(10, 60, size=30)
        perm = rng.permutation(30)
        assert ls.global_proportional(y[perm], GLOBAL) == pytest.approx(
            ls.global_proportional(y, GLOBAL)[perm], abs=1e-12
        )

    def test_range_safety(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y = rng.uniform(0, 1000, size=17)
            u = ls.global_proportional(y, GLOBAL)
            assert np.all(u >= SAT.lower) and np.all(u <= SAT.upper)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ls.global_proportional(np.array([]), GLOBAL)


class TestLocalProportional:
    def test_uniform_field_gets_baseline(self):
        topo = ls.grid_topology(2, 3)
        u = ls.local_proportional(np.full(6, 8.0), topo, LOCAL)
        assert np.array_equal(u, np.full(6, 0.075))

    def test_path_graph_hand_example(self):
        # 3-plant path: ends see one neighbor 10 g away -> 0.05*10 saturates;
        # the middle plant's neighbor deviations cancel exactly
        topo = [np.array([1]), np.array([0, 2]), np.array([1])]
        u = ls.local_proportional(np.array([10.0, 20.0, 30.0]), topo, LOCAL)
        assert u == pytest.approx([0.0825, 0.075, 0.0675])

    def test_complete_graph_matches_scaled_global(self):
        # sum over all others = N*(mean - y_i); dividing by N-1 rescales the gain
        rng = np.random.default_rng(4)
        y = rng.uniform(29.9, 30.1, size=8)  # stay inside the linear band
        n = len(y)
        topo = [np.array([j for j in range(n) if j != i]) for i in range(n)]
        u_local = ls.local_proportional(y, topo, LOCAL)
        scaled = ControlPolicy(variant="global", saturation=SAT, gain=LOCAL.gain * n / (n - 1))
        assert u_local == pytest.approx(ls.global_proportional(y, scaled), abs=1e-12)

    @pytest.mark.parametrize("correction, clamped", [(0.0, 0.0), (1.0, 0.0075), (-1.0, -0.0075), (-0.003, -0.003)])
    def test_correction_clamped_to_range(self, correction, clamped):
        # with gain 1, plant 0's correction is its one neighbour's output
        policy = ControlPolicy(variant="local", saturation=SAT, gain=1.0)
        u = ls.local_proportional(np.array([0.0, correction]), [np.array([1]), np.array([0])], policy)
        assert u[0] == SAT.u_bar + clamped
        assert u[1] == SAT.u_bar - clamped

    @pytest.mark.parametrize("shape", ["grid", "random"])
    def test_equals_per_plant_sums(self, shape):
        """Bit for bit the per-plant form: each plant's own gaps summed, scaled, then clamped.

        Grids have 3-, 5- and 8-neighbour rows; the random topologies have
        unsorted neighbour lists of 1 to 30, so numpy's pairwise summation
        path runs too. A dose range as wide as the corrections keeps their
        last bits in the doses.
        """
        rng = np.random.default_rng(6)
        wide = SaturationSpec(u_bar=0.5, u_range=0.5)
        for _ in range(40):
            if shape == "grid":
                rows, cols = rng.integers(1, 30, size=2)
                n = int(rows * cols)
                if n < 2:
                    continue
                topo = ls.grid_topology(int(rows), int(cols))
            else:
                n = int(rng.integers(2, 200))
                topo = [rng.choice(np.delete(np.arange(n), i), size=int(rng.integers(1, min(n, 31))), replace=False)
                        for i in range(n)]
            scale = rng.choice([1e-3, 1.0, 1e3])
            y = rng.uniform(0.0, 1.0, size=n) * scale
            policy = ControlPolicy(variant="local", saturation=wide, gain=float(rng.choice([0.5, 1.0, 2.0]) / scale))
            expected = []
            for i, nbrs in enumerate(topo):
                x = policy.gain * ((y[nbrs] - y[i]).sum() / len(nbrs))
                expected.append(wide.u_bar + (0.5 if x > 0.5 else -0.5 if x < -0.5 else x))
            assert ls.local_proportional(y, topo, policy).tobytes() == np.array(expected).tobytes()

    def test_isolated_plant_rejected(self):
        topo = [np.array([1]), np.array([0]), np.array([], dtype=int)]
        with pytest.raises(ValueError, match="no neighbors"):
            ls.local_proportional(np.array([1.0, 2.0, 3.0]), topo, LOCAL)

    def test_first_isolated_plant_named(self):
        topo = [np.array([2]), np.array([], dtype=int), np.array([0]), np.array([], dtype=int)]
        with pytest.raises(ValueError, match="^plant 1 has no neighbors$"):
            ls.local_proportional(np.array([1.0, 2.0, 3.0, 4.0]), topo, LOCAL)

    def test_range_safety(self):
        rng = np.random.default_rng(5)
        topo = ls.grid_topology(4, 5)
        for _ in range(50):
            y = rng.uniform(0, 500, size=20)
            u = ls.local_proportional(y, topo, LOCAL)
            assert np.all(u >= SAT.lower) and np.all(u <= SAT.upper)


class TestObserve:
    def test_noise_free_identity(self):
        y = np.array([1.0, 2.0, 3.0])
        got = ls.observe(y, 0.0, seed=0, epoch=0)
        assert np.array_equal(got, y)
        assert got is not y

    def test_zero_output_stays_zero(self):
        got = ls.observe(np.array([0.0, 5.0]), 0.1, seed=0, epoch=0)
        assert got[0] == 0.0

    def test_never_negative(self):
        y = np.full(200, 0.05)
        got = ls.observe(y, 3.0, seed=1, epoch=0)
        assert got.min() >= 0.0

    def test_determinism_and_epoch_keying(self):
        y = np.linspace(5, 50, 20)
        a = ls.observe(y, 0.1, seed=7, epoch=3)
        b = ls.observe(y, 0.1, seed=7, epoch=3)
        c = ls.observe(y, 0.1, seed=7, epoch=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_extending_field_preserves_draws(self):
        y = np.linspace(5, 50, 20)
        small = ls.observe(y[:10], 0.1, seed=7, epoch=0)
        big = ls.observe(y, 0.1, seed=7, epoch=0)
        assert np.array_equal(big[:10], small)

    def test_noise_scale_monte_carlo(self):
        """Empirical relative noise std matches noise_frac within 2%."""
        y_val, frac, draws = 40.0, 0.1, 100_000
        # one epoch per draw batch keeps the substream keying honest
        samples = np.concatenate(
            [ls.observe(np.full(1000, y_val), frac, seed=11, epoch=e) for e in range(draws // 1000)]
        )
        rel = samples / y_val - 1.0
        assert np.std(rel) == pytest.approx(frac, rel=0.02)
        assert np.mean(rel) == pytest.approx(0.0, abs=0.002)


class TestActuationSchedule:
    def test_daily_times(self):
        times = ActuationSchedule(1.0, 0.0).times_within(5.0)
        assert np.array_equal(times, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_sparse_times(self):
        times = ActuationSchedule(14.0, 0.0).times_within(50.0)
        assert np.array_equal(times, [0.0, 14.0, 28.0, 42.0])

    def test_exact_multiple_excludes_season_end(self):
        times = ActuationSchedule(25.0, 0.0).times_within(50.0)
        assert np.array_equal(times, [0.0, 25.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            ActuationSchedule(0.0)
        with pytest.raises(ValueError):
            ActuationSchedule(1.0, -1.0)
        with pytest.raises(ValueError):
            ActuationSchedule(1.0, 60.0).times_within(50.0)

    def test_too_many_times_rejected_before_listing_them(self):
        """A 1e-12-day interval would list 4e12 times (29.1 TiB): a ValueError naming the count instead."""
        with pytest.raises(ValueError, match=r"^4e\+12 application times .* too many \(over 10000000\)$"):
            ActuationSchedule(1e-12).times_within(4.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ControlPolicy(variant="pid", saturation=SAT)
        with pytest.raises(ValueError):
            ControlPolicy(variant="global", saturation=SAT, gain=-0.1)
