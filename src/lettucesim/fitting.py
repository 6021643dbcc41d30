"""Parameter estimation from sparse biomass timeseries.

Fitting minimizes the mean squared residual between the simulated shoot
biomass and observed dry masses with a box-constrained quasi-Newton
search (L-BFGS-B, central finite differences). Parameters are optimized
in log space: they are all positive and span several orders of
magnitude, so log coordinates make the box bounds meaningful and the
line search stable.

Fitting all twelve parameters from a handful of points is ill-posed;
the default mask fixes the weakly identified rates and fits the rest,
and callers can fix or free any subset. A synthetic-dataset generator
stands in for field data in recovery tests.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .field import DEFAULT_ENV, DEFAULT_INITIAL_STATE, DEFAULT_U_BAR, sample_params, write_table
from .integrator import EnvSchedule, PiecewiseConstantSignal, integrate
from .model import PARAM_NAMES, PlantParams, PlantState

FRESH_TO_DRY = 0.1

# Weakly identified from sparse shoot-mass data; fixed unless freed.
DEFAULT_FIXED = frozenset({"k", "T_op", "theta_c", "theta_n"})


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on first use.

    Importing scipy.optimize is most of the package's import time, and
    only fitting needs it, so every other command starts without it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class BiomassTimeseries:
    """Observed masses (g) of one plant at ascending times (days)."""

    times: tuple
    masses: tuple
    mass_kind: str = "dry"
    plant_id: str = ""

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        masses = tuple(float(m) for m in self.masses)
        if len(times) != len(masses):
            raise ValueError(f"{len(times)} times but {len(masses)} masses")
        if len(times) < 3:
            raise ValueError(f"need at least 3 observations, got {len(times)}")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("observation times must be strictly ascending")
        if any(t < 0.0 for t in times):
            raise ValueError("observation times must be nonnegative")
        if any(m < 0.0 for m in masses):
            raise ValueError("masses must be nonnegative")
        if self.mass_kind not in ("fresh", "dry"):
            raise ValueError(f"mass_kind must be 'fresh' or 'dry', got {self.mass_kind!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "masses", masses)


def to_dry(series: BiomassTimeseries) -> BiomassTimeseries:
    """Convert fresh masses to dry with the standard 0.1 factor; dry passes through."""
    if series.mass_kind == "dry":
        return series
    return replace(
        series,
        masses=tuple(FRESH_TO_DRY * m for m in series.masses),
        mass_kind="dry",
    )


def default_bounds(guess: PlantParams) -> dict:
    """Factor-10 box around the guess; psi kept strictly inside (0, 1)."""
    bounds = {}
    for name in PARAM_NAMES:
        g = getattr(guess, name)
        lo, hi = g / 10.0, g * 10.0
        if name == "psi":
            lo, hi = max(lo, 1e-3), min(hi, 1.0 - 1e-3)
        bounds[name] = (lo, hi)
    return bounds


@dataclass(frozen=True)
class FitSpec:
    """How to fit: initial guess, box bounds, what to hold fixed, assumptions."""

    guess: PlantParams
    bounds: dict = None
    fixed: frozenset = DEFAULT_FIXED
    env: EnvSchedule = DEFAULT_ENV
    u: float = DEFAULT_U_BAR
    s0: PlantState = DEFAULT_INITIAL_STATE
    dt: float = 0.02
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if self.bounds is None:
            object.__setattr__(self, "bounds", default_bounds(self.guess))
        unknown = set(self.fixed) - set(PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown parameters in fixed mask: {sorted(unknown)}")
        unknown = set(self.bounds) - set(PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown parameters in bounds: {sorted(unknown)}")
        for name in self.free_names():
            if name not in self.bounds:
                raise ValueError(f"free parameter {name} has no bounds")
            lo, hi = self.bounds[name]
            if not (0.0 < lo < hi):
                raise ValueError(f"bounds for {name} must satisfy 0 < lo < hi, got ({lo}, {hi})")
            g = getattr(self.guess, name)
            if not lo <= g <= hi:
                raise ValueError(f"guess for {name} ({g}) is outside its bounds ({lo}, {hi})")
        if self.u < 0.0:
            raise ValueError(f"assumed nitrogen availability must be nonnegative, got {self.u}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def free_names(self) -> tuple:
        return tuple(name for name in PARAM_NAMES if name not in self.fixed)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit; params are the full set with fixed entries untouched."""

    params: PlantParams
    cost: float
    nrmse: float
    iterations: int
    converged: bool


def _simulated_outputs(p: PlantParams, spec: FitSpec, times) -> np.ndarray:
    """Model shoot biomass at each observation time (nearest step-grid sample)."""
    t_end = times[-1]
    steps = max(1, int(math.ceil(t_end / spec.dt - 1e-9)))
    traj = integrate(
        p,
        spec.s0,
        PiecewiseConstantSignal.constant(spec.u),
        spec.env,
        0.0,
        steps * spec.dt,
        spec.dt,
    )
    idx = np.clip(np.rint(np.asarray(times) / spec.dt).astype(int), 0, steps)
    return traj.outputs[idx]


def residuals(p: PlantParams, spec: FitSpec, series: BiomassTimeseries) -> np.ndarray:
    """Model-minus-observation residuals (g) for a dry series."""
    if series.mass_kind != "dry":
        raise ValueError("residuals expect a dry series; call to_dry first")
    sim = _simulated_outputs(p, spec, series.times)
    return sim - np.asarray(series.masses)


def cost(p: PlantParams, spec: FitSpec, series: BiomassTimeseries) -> float:
    """Mean squared residual (g^2)."""
    r = residuals(p, spec, series)
    return float(np.mean(r * r))


def nrmse(p: PlantParams, spec: FitSpec, series: BiomassTimeseries) -> float:
    """Root mean squared residual over the observed range (or max, if constant)."""
    rms = math.sqrt(cost(p, spec, series))
    masses = np.asarray(series.masses)
    scale = float(masses.max() - masses.min())
    if scale == 0.0:
        scale = float(masses.max())
    if scale == 0.0:
        raise ValueError("cannot normalize NRMSE for an all-zero series")
    return rms / scale


def fit(spec: FitSpec, series: BiomassTimeseries) -> FitResult:
    """Minimize the mean squared residual over the free parameters.

    Returns the best iterate even when the optimizer stops without
    converging (flagged accordingly); the result never costs more than
    the initial guess.
    """
    series = to_dry(series)
    free = spec.free_names()
    if not free:
        raise ValueError("no free parameters to fit")

    guess_values = {name: getattr(spec.guess, name) for name in PARAM_NAMES}

    def assemble(x: np.ndarray) -> PlantParams:
        values = dict(guess_values)
        for name, log_val in zip(free, x):
            values[name] = math.exp(log_val)
        return PlantParams(**values)

    def objective(x: np.ndarray) -> float:
        return cost(assemble(x), spec, series)

    x0 = np.log([guess_values[name] for name in free])
    log_bounds = [tuple(np.log(spec.bounds[name])) for name in free]
    initial_cost = objective(x0)
    if not math.isfinite(initial_cost):
        raise ValueError(f"cost at the initial guess is not finite ({initial_cost})")

    res = minimize(
        objective,
        x0,
        method="L-BFGS-B",
        jac="3-point",
        bounds=log_bounds,
        options={
            "maxiter": spec.max_iterations,
            "ftol": 1e-7,
            "finite_diff_rel_step": 1e-6,
        },
    )

    # res.fun need not be the cost at res.x when the optimizer stops early;
    # report the cost of the parameters actually returned.
    final_cost = objective(res.x)
    if math.isfinite(final_cost) and final_cost <= initial_cost:
        best_x, best_cost = res.x, final_cost
    else:
        best_x, best_cost = x0, initial_cost
    params = assemble(best_x)
    return FitResult(
        params=params,
        cost=best_cost,
        nrmse=nrmse(params, spec, series),
        iterations=int(res.nit),
        converged=bool(res.success),
    )


def generate_synthetic(
    n_series: int,
    nominal: PlantParams,
    perturb_frac: float,
    seed: int,
    n_obs=(3, 12),
    t_span: float = 50.0,
    noise_frac: float = 0.0,
    spacing: str = "even",
    env: EnvSchedule = DEFAULT_ENV,
    u: float = DEFAULT_U_BAR,
    s0: PlantState = DEFAULT_INITIAL_STATE,
    dt: float = 0.02,
    mass_kind: str = "dry",
) -> list:
    """Simulate plants and sample sparse observations, optionally noised.

    Each series gets parameters from `sample_params(seed, i)` and its
    observation count/times/noise from a separate (seed, i)-keyed
    substream. Observation times are snapped to the integration grid so
    noise-free observations lie exactly on the trajectory. Multiplicative
    noise: mass = y * (1 + Normal(0, noise_frac)), clamped at zero.
    """
    if n_series < 1:
        raise ValueError("n_series must be positive")
    if spacing not in ("even", "random"):
        raise ValueError(f"spacing must be 'even' or 'random', got {spacing!r}")
    dataset = []
    for i in range(n_series):
        params = sample_params(nominal, perturb_frac, seed, i)
        rng = np.random.default_rng(np.random.SeedSequence([seed, i, 1]))
        if isinstance(n_obs, int):
            count = n_obs
        else:
            lo, hi = n_obs
            count = int(rng.integers(lo, hi + 1))
        if count < 3:
            raise ValueError("observation count must be at least 3")
        if spacing == "even":
            raw = np.linspace(t_span / count, t_span, count)
        else:
            raw = np.sort(rng.uniform(dt, t_span, size=count))
        times = np.unique(np.rint(raw / dt).astype(int)) * dt
        while len(times) < count:  # collapse from snapping; pad on the grid
            extra = times[-1] + dt
            times = np.append(times, extra)
        spec = FitSpec(guess=nominal, env=env, u=u, s0=s0, dt=dt)
        y = _simulated_outputs(params, spec, times)
        if noise_frac > 0.0:
            y = np.maximum(0.0, y * (1.0 + rng.normal(0.0, noise_frac, size=len(times))))
        masses = y if mass_kind == "dry" else y / FRESH_TO_DRY
        dataset.append(
            BiomassTimeseries(
                times=tuple(float(t) for t in times),
                masses=tuple(float(m) for m in masses),
                mass_kind=mass_kind,
                plant_id=f"synthetic-{i:04d}",
            )
        )
    return dataset


def read_timeseries_csv(path) -> list:
    """Load series from a CSV with header plant_id, day, mass_g, kind."""
    groups: dict = {}
    order = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"plant_id", "day", "mass_g", "kind"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"CSV must have columns {sorted(required)}, got {reader.fieldnames}")
        for row in reader:
            pid = row["plant_id"]
            if pid not in groups:
                groups[pid] = []
                order.append(pid)
            groups[pid].append((float(row["day"]), float(row["mass_g"]), row["kind"].strip()))
    if not order:
        raise ValueError("CSV contains no observations")
    dataset = []
    for pid in order:
        rows = sorted(groups[pid])
        kinds = {kind for _, _, kind in rows}
        if len(kinds) != 1:
            raise ValueError(f"plant {pid} mixes mass kinds {sorted(kinds)}")
        dataset.append(
            BiomassTimeseries(
                times=tuple(t for t, _, _ in rows),
                masses=tuple(m for _, m, _ in rows),
                mass_kind=kinds.pop(),
                plant_id=pid,
            )
        )
    return dataset


def write_timeseries_csv(path, dataset) -> None:
    """Write an observations CSV: plant_id, day, mass_g, kind, one row per observation."""
    rows = (
        (series.plant_id, t, m, series.mass_kind)
        for series in dataset
        for t, m in zip(series.times, series.masses)
    )
    write_table(path, ["plant_id", "day", "mass_g", "kind"], rows)


def write_fit_results_csv(path, rows) -> None:
    """Write one row per series: (plant_id, FitResult or error message)."""

    def cells(plant_id, result):
        if isinstance(result, FitResult):
            return (plant_id, int(result.converged), result.cost, result.nrmse, result.iterations,
                    *result.params.as_array(), "")
        return (plant_id, 0, "", "", "", *[""] * len(PARAM_NAMES), result)

    header = ["plant_id", "converged", "cost", "nrmse", "iterations", *PARAM_NAMES, "error"]
    write_table(path, header, (cells(*row) for row in rows))
