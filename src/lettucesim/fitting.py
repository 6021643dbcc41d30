"""Parameter estimation from sparse biomass timeseries.

Fitting minimizes the mean squared residual between the simulated shoot
biomass and observed dry masses with a box-constrained quasi-Newton
search (L-BFGS-B). Parameters are optimized in log space: they are all
positive and span several orders of magnitude, so log coordinates make
the box bounds meaningful and the line search stable.

The gradient is exact, not a finite difference: forward sensitivities
theta * dx/dtheta are carried through the same RK4 map that gives the
cost (`_outputs_and_sensitivities`), so each objective evaluation costs
one integration plus a vectorized tangent pass instead of 1 + 2 x free
integrations.

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

from .field import (
    _FLOORS, DEFAULT_ENV, DEFAULT_INITIAL_STATE, DEFAULT_U_BAR, _check_perturbation_frac, sample_params, write_table,
)
from .integrator import _RK4_STAGES, EnvSchedule, PiecewiseConstantSignal, StepGrid, integrate
from .model import (
    PARAM_NAMES,
    PlantParams,
    PlantState,
    _param_values,
    _stage,
    temperature_response,
)

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
        if not all(map(math.isfinite, times + masses)):
            raise ValueError("observation times and masses must be finite")
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
        if not 0.0 <= self.u < math.inf:
            raise ValueError(f"u, the assumed nitrogen availability, must be nonnegative and finite, got {self.u}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")

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


def _trajectory(p: PlantParams, spec: FitSpec, times) -> tuple:
    """The run to the last observation time, its step grid, and each observation's step (nearest grid point)."""
    grid = StepGrid(0.0, max(1, math.ceil(times[-1] / spec.dt - 1e-9)) * spec.dt, spec.dt)
    traj = integrate(p, spec.s0, PiecewiseConstantSignal.constant(spec.u), spec.env, grid.t0, grid.t1, grid.dt)
    return traj, grid, np.clip(np.rint(np.asarray(times) / spec.dt).astype(int), 0, grid.steps)


def _simulated_outputs(p: PlantParams, spec: FitSpec, times) -> np.ndarray:
    """Model shoot biomass at each observation time (nearest step-grid sample)."""
    traj, _, idx = _trajectory(p, spec, times)
    return traj.outputs[idx]


def _T_op_scale(T: float, T_op: float) -> float:
    """T_op * dR/dT_op / R, the factor that turns `_stage`'s k column into the T_op column.

    Both act through R alone, and k * d/dk = R * d/dR. dR/dT_op is
    -T/T_op**2 below the kink and T/T_op**2 above. It is 0 where R is
    clamped to 0, and 0 at T = T_op, the mean of the one-sided slopes
    (what a central difference gives).
    """
    R = temperature_response(T, T_op)
    if R == 0.0 or T == T_op:
        return 0.0
    return (T if T > T_op else -T) / (T_op * R)


# Steps composed at once by `_chain`; larger blocks add doubling rounds,
# smaller ones add loop iterations.
_BLOCK = 32


def _chain(maps: np.ndarray, at) -> np.ndarray:
    """s_i at the step indices `at`, where s_0 = 0 and s_{i+1} = A_i s_i + B_i.

    ``maps[i]`` is the affine map [A_i | B_i] (3 x (3 + m)); returns
    (len(at), 3, m). A numpy call per step would cost more than the
    step, so the steps go in blocks: doubling rounds compose every
    prefix of every block at once, and a loop chains the block ends.
    A leading zero map stands for s_0, so each prefix's B part is an s_i.
    """
    count, _, width = maps.shape
    blocks = -(-(count + 1) // _BLOCK)
    padding = np.broadcast_to(np.eye(3, width), (blocks * _BLOCK - count - 1, 3, width))
    H = np.concatenate([np.zeros((1, 3, width)), maps, padding]).reshape(blocks, _BLOCK, 3, width)
    shift = 1
    while shift < _BLOCK:
        composed = H[:, shift:, :, :3] @ H[:, :-shift]
        composed[..., 3:] += H[:, shift:, :, 3:]
        H[:, shift:] = composed
        shift *= 2
    starts = np.zeros((blocks, 3, width - 3))
    for j in range(1, blocks):
        end = H[j - 1, -1]
        starts[j] = end[:, :3] @ starts[j - 1] + end[:, 3:]
    block, offset = np.divmod(np.asarray(at), _BLOCK)
    prefix = H[block, offset]
    return prefix[..., :3] @ starts[block] + prefix[..., 3:]


def _outputs_and_sensitivities(p: PlantParams, spec: FitSpec, times, free) -> tuple:
    """Shoot biomass at each observation time and its derivatives in log(theta) of the `free` parameters.

    Returns ``(y, dy)``, dy of shape (observations, free). `y` is
    `_simulated_outputs` bit for bit: the states come from `integrate`.
    The sensitivities s = theta * dx/dtheta are the exact tangent of its
    RK4 map. Each step's four stages are replayed, for all steps at
    once, from `integrate`'s states with its stage table, arithmetic and
    projection (the field's kernel does the same), and `_stage` gives the
    state Jacobian and the parameter columns at each stage's own state.
    A stage or step whose projection clamps a component zeroes that
    component's sensitivity. Each step's tangent is an affine map of s,
    which `_chain` composes up to the observation steps.
    """
    traj, grid, idx = _trajectory(p, spec, times)
    steps = int(idx.max())  # the steps after the last observation change nothing
    temperature = spec.env.temperature
    R_signal, scale_signal = (
        PiecewiseConstantSignal(temperature.breakpoints, tuple(fn(T, p.T_op) for T in temperature.values))
        for fn in (temperature_response, _T_op_scale)
    )
    R, T_op_scale, I = (v[:steps] for v in grid.sample(temperature=R_signal, T_op=scale_signal, light=spec.env.light))
    params = _param_values(p)
    scaled = [i for i, name in enumerate(free) if name == "T_op"]
    # An affine map of (s, 1) is [A | B], one (3, 3 + free, steps) array
    # holding a map per step; the step's start state is [I | 0].
    start = np.eye(3, 3 + len(free))[:, :, None]

    def stage(state, into):
        """Rates at `state`, whose map is `into`, and the map of those rates."""
        rates, (bb, bc, bn, cb, cc, nb, nn), cols = _stage(*state, spec.u, R, I, *params)
        b, c, n = into
        tangent = np.array([bb * b + bc * c + bn * n, cb * b + cc * c, nb * b + nn * n])
        direct = np.array([cols["k" if name == "T_op" else name] for name in free])
        direct[scaled] *= T_op_scale
        tangent[:, 3:] += direct.swapaxes(0, 1)
        return np.array(rates), tangent

    def project(pre, into):
        """`integrate`'s clamp of a stage state, and its map with the clamped rows zeroed."""
        return np.maximum(pre, _FLOORS), (pre >= _FLOORS)[:, None, :] * into

    x = traj.states[:steps].T
    k, K = total, TOTAL = stage(x, start)
    for h, w in _RK4_STAGES:
        k, K = stage(*project(x + h * grid.dt * k, start + h * grid.dt * K))
        total, TOTAL = total + w * k, TOTAL + w * K
    sixth = grid.dt / 6.0
    _, step_map = project(x + sixth * total, start + sixth * TOTAL)
    S = _chain(np.moveaxis(step_map, 2, 0), idx)

    y = traj.outputs[idx]
    dy = p.psi * S[:, 0, :]
    dy[:, [i for i, name in enumerate(free) if name == "psi"]] += y[:, None]  # y = psi * b
    return y, dy


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

    masses = np.asarray(series.masses)

    def objective(x: np.ndarray) -> tuple:
        """The cost at exp(x), the same number `cost` returns, and its gradient in x."""
        y, dy = _outputs_and_sensitivities(assemble(x), spec, series.times, free)
        r = y - masses
        return float(np.mean(r * r)), (2.0 / len(r)) * (r @ dy)

    x0 = np.log([guess_values[name] for name in free])
    log_bounds = [tuple(np.log(spec.bounds[name])) for name in free]
    initial_cost = cost(assemble(x0), spec, series)
    if not math.isfinite(initial_cost):
        raise ValueError(f"cost at the initial guess is not finite ({initial_cost})")

    res = minimize(
        objective,
        x0,
        method="L-BFGS-B",
        jac=True,
        bounds=log_bounds,
        options={"maxiter": spec.max_iterations, "ftol": 1e-7},
    )

    # res.fun need not be the cost at res.x when the optimizer stops early;
    # report the cost of the parameters actually returned.
    final_cost = cost(assemble(res.x), spec, series)
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
    dt: float = FitSpec.dt,
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
    _check_perturbation_frac(perturb_frac)
    if not 0.0 < t_span < math.inf:
        raise ValueError(f"t_span must be positive and finite, got {t_span!r}")
    if not 0.0 <= noise_frac < math.inf:
        raise ValueError(f"noise_frac must be nonnegative and finite, got {noise_frac!r}")
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
