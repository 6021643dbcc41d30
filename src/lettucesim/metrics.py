"""End-of-season statistics and scenario comparison.

Summaries use population variance (the field is a full census, not a
sample) and duration-weighted nitrogen totals from the application
ledger. Aggregation order is fixed so results are identical across
platforms and worker counts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .field import DEFAULT_ENV, DEFAULT_INITIAL_STATE, FieldConfig, FieldTrajectory, integrate_lanes, rejection_threshold
from .integrator import EnvSchedule, PiecewiseConstantSignal, integrate
from .model import PlantState

# Cells from which the sweep runs as one batched RK4 pass. Measured on a
# 2-vCPU VM: a 50-day batched pass took 0.19-0.21 s at 6 to 16 lanes
# (~40 us per step, nearly all fixed), a 50-day scalar `integrate` call
# 16.3-16.7 ms: the two tie at 12 lanes, and the batched pass wins from 13.
_BATCH_MIN_LANES = 13


@dataclass(frozen=True)
class ScenarioSummary:
    """Harvest statistics for one simulated scenario."""

    name: str
    n_plants: int
    mean: float
    variance: float
    threshold: float
    fraction_above_threshold: float
    total_nitrogen: float
    five_number: tuple  # (min, q1, median, q3, max)
    hist_edges: tuple
    hist_counts: tuple
    final_outputs: tuple  # kept so reports can re-evaluate against other thresholds

    def to_json(self) -> str:
        """Every field by name, in declaration order; tuples become lists.

        A non-finite number raises ValueError: JSON has no literal for it.
        """
        return json.dumps(asdict(self), indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSummary":
        doc = json.loads(text)
        return cls(
            name=doc["name"],
            n_plants=int(doc["n_plants"]),
            mean=float(doc["mean"]),
            variance=float(doc["variance"]),
            threshold=float(doc["threshold"]),
            fraction_above_threshold=float(doc["fraction_above_threshold"]),
            total_nitrogen=float(doc["total_nitrogen"]),
            five_number=tuple(doc["five_number"]),
            hist_edges=tuple(doc["hist_edges"]),
            hist_counts=tuple(doc["hist_counts"]),
            final_outputs=tuple(doc["final_outputs"]),
        )


def summarize(traj: FieldTrajectory, threshold: float = None, name: str = "scenario") -> ScenarioSummary:
    """Reduce a field trajectory to its harvest statistics.

    ``threshold`` defaults to this run's own rejection percentile. The
    histogram has 20 bins over the range of the final outputs; `report`
    re-bins paired scenarios on shared edges from ``final_outputs``.
    A statistic that is not finite (the variance of huge but finite
    outputs can overflow) raises a ValueError that names it, and numpy's
    overflow warning stays off stderr.
    """
    final = traj.final_outputs
    if final.size == 0:
        raise ValueError("trajectory has no plants")
    if threshold is None:
        threshold = rejection_threshold(final, traj.config.rejection_percentile)
    counts, edges = np.histogram(final, bins=20)
    with np.errstate(over="ignore"):  # the check below names the overflowed statistic instead
        variance = float(final.var())
    summary = ScenarioSummary(
        name=name,
        n_plants=int(final.size),
        mean=float(final.mean()),
        variance=variance,
        threshold=float(threshold),
        fraction_above_threshold=float((final >= threshold).mean()),
        total_nitrogen=traj.total_nitrogen(),
        five_number=tuple(float(q) for q in np.percentile(final, [0, 25, 50, 75, 100])),
        hist_edges=tuple(float(e) for e in edges),
        hist_counts=tuple(int(c) for c in counts),
        final_outputs=tuple(float(y) for y in final),
    )
    for key, value in asdict(summary).items():
        if not isinstance(value, str) and not np.isfinite(value).all():
            raise ValueError(f"summary statistic {key} is not finite; check dt and the plant parameters")
    return summary


@dataclass(frozen=True)
class ComparisonReport:
    """Relative statistics of one scenario against a baseline."""

    base_name: str
    other_name: str
    variance_ratio: float
    fraction_delta: float
    nitrogen_ratio: float


def compare(base: ScenarioSummary, other: ScenarioSummary) -> ComparisonReport:
    """Variance, yield-fraction, and nitrogen ratios of `other` against `base`.

    The yield fraction of `other` is re-evaluated against the baseline
    threshold so the delta compares like with like.
    """
    other_fraction = float(
        (np.asarray(other.final_outputs) >= base.threshold).mean()
    )
    return ComparisonReport(
        base_name=base.name,
        other_name=other.name,
        variance_ratio=other.variance / base.variance,
        fraction_delta=other_fraction - base.fraction_above_threshold,
        nitrogen_ratio=other.total_nitrogen / base.total_nitrogen,
    )


@dataclass(frozen=True)
class DoseResponseTable:
    """Final structural biomass on a (parameter set) x (constant dose) grid."""

    u_grid: np.ndarray
    final_b: np.ndarray  # (n_param_sets, n_doses)

    def monotone_rows(self) -> np.ndarray:
        """True per row when final biomass never decreases as the dose grows.

        A step down smaller than 1e-9 of the row's largest |value| counts as rounding.
        """
        scale = np.abs(self.final_b).max(axis=1, keepdims=True)
        return np.all(np.diff(self.final_b, axis=1) >= -1e-9 * scale, axis=1)


def dose_response_sweep(
    param_sets,
    u_grid,
    day: float = FieldConfig.season_days,
    env: EnvSchedule = DEFAULT_ENV,
    s0: PlantState = DEFAULT_INITIAL_STATE,
    dt: float = FieldConfig.dt,
) -> DoseResponseTable:
    """Final biomass at a fixed day under each constant nitrogen level.

    Cooperativity predicts every row is monotone nondecreasing in the
    dose regardless of the parameter perturbations.

    Every (parameter set, dose) cell is an independent integration from
    day 0. From `_BATCH_MIN_LANES` cells up they run as the lanes of one
    batched RK4 pass (`field.integrate_lanes`), which keeps only the
    final states; below that, one scalar `integrate` call per cell is
    faster. Both give bit-identical `final_b` and raise the same
    ValueError for a `day` or an environment breakpoint off the dt grid,
    and one naming the first cell whose final biomass is not finite
    (without numpy warnings).
    """
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.size == 0:
        raise ValueError("dose grid must be nonempty")
    if not np.all(np.isfinite(u_grid)):
        raise ValueError(f"dose grid must be finite, got {u_grid.tolist()}")
    if np.any(np.diff(u_grid) <= 0.0) or np.any(u_grid < 0.0):
        raise ValueError("dose grid must be ascending and nonnegative")

    n_sets = len(param_sets)
    if n_sets * u_grid.size >= _BATCH_MIN_LANES:
        # lane p * len(u_grid) + j is parameter set p under dose u_grid[j]
        lanes = np.repeat(np.array([p.as_array() for p in param_sets]), u_grid.size, axis=0)
        with np.errstate(all="ignore"):  # the check below names the first non-finite cell instead
            b, _, _ = integrate_lanes(lanes, np.tile(u_grid, n_sets), env, s0, day, dt)
        final_b = b.reshape(n_sets, u_grid.size)
    else:
        final_b = np.empty((n_sets, u_grid.size))
        for pi, p in enumerate(param_sets):
            for ui, u in enumerate(u_grid):
                traj = integrate(
                    p, s0, PiecewiseConstantSignal.constant(float(u)), env, 0.0, day, dt
                )
                final_b[pi, ui] = traj.states[-1, 0]
    bad = np.argwhere(~np.isfinite(final_b))
    if bad.size:
        pi, ui = bad[0]
        cell = f"parameter set {pi} at dose {float(u_grid[ui])!r}"
        raise ValueError(f"final biomass of {cell} is not finite; check dt and the plant parameters")
    return DoseResponseTable(u_grid=u_grid, final_b=final_b)

