"""Heterogeneous field simulation: N plants on a grid under a dose policy.

Each plant gets its own parameter set, drawn from per-plant RNG
substreams around the nominal values, and is integrated independently
between application epochs. At every epoch the policy observes the
current shoot outputs (optionally noised) and resets each plant's
piecewise-constant nitrogen dose.

Integration is vectorized across plants. Its RK4 kernel, built once per
run by `_lanes`, evaluates each stage as about sixteen numpy calls on
same-shape row blocks of one preallocated workspace: the terms of
`model._flux_core` and the differences of `model._rates`, each op with
their operand order, and `integrate`'s projection as elementwise maxima.
So a field run reproduces the per-plant `integrate` results bit for bit
and is independent of any worker-thread count. That also rests on one
step grid: the field takes its times, each step's temperature and light
and each application's step from one `integrator.StepGrid`, as
`integrate` does; an environment breakpoint off that grid raises the
same ValueError, an application time off it a ConfigError. `integrate`
and the fit's tangent replay loop over `integrator._RK4_STAGES`; the
lane kernel keeps its fused stage sequence, because a loop there adds
Python work on every batched step.

The same batched RK4 kernel serves any set of independent lanes:
`integrate_lanes` runs lanes that each hold their own parameters and a
constant dose, and keeps only their final states (the dose-response
sweep uses it from `metrics._BATCH_MIN_LANES` lanes up).

Every CSV artifact of the package goes through `write_table`, which
holds the one format: csv's default dialect, each float as its `repr`.
The one exception is `export_trajectory_csv`, the hot path, which builds
the same bytes by hand and formats each value with `repr` once: each
time once, each dose once per (epoch, plant), and b, c, n and y once per
step. Each plant is one formatting task, run in turn or in a pool of
worker processes; the bytes do not depend on the worker count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dataclass_field
from functools import partial

import numpy as np

from .control import ActuationSchedule, ControlPolicy, apply_policy, observe
from .integrator import GRID_TOL, MAX_STEPS, EnvSchedule, StepGrid
from .model import B_EPS, NOMINAL_PARAMS, PARAM_NAMES, PlantParams, PlantState

# Light level calibrated so the nominal uncontrolled field reaches a
# mean dry shoot biomass around 40 g by day 50 (builtin:uncontrolled).
DEFAULT_LIGHT = 530.0
DEFAULT_TEMPERATURE = 22.0
DEFAULT_U_BAR = 0.075
DEFAULT_U_RANGE = 0.0075
DEFAULT_VARIANT = "constant"
DEFAULT_INITIAL_STATE = PlantState(b=0.005, c=0.001, n=0.0001)
DEFAULT_ENV = EnvSchedule.constant(DEFAULT_TEMPERATURE, DEFAULT_LIGHT)


class ConfigError(ValueError):
    """Invalid configuration (bad file, bad value, inconsistent sections)."""


@dataclass(frozen=True)
class FieldConfig:
    """Everything needed to reproduce one field scenario."""

    n_plants: int = 100
    grid_rows: int = 10
    grid_cols: int = 10
    nominal_params: PlantParams = NOMINAL_PARAMS
    perturbation_frac: float = 0.05
    seed: int = 0
    s0: PlantState = DEFAULT_INITIAL_STATE
    env: EnvSchedule = DEFAULT_ENV
    season_days: float = 50.0
    dt: float = 0.01
    u_bar: float = DEFAULT_U_BAR
    rejection_percentile: float = 10.0

    def __post_init__(self) -> None:
        if self.n_plants < 1:
            raise ConfigError(f"n_plants must be positive, got {self.n_plants}")
        if self.grid_rows * self.grid_cols != self.n_plants:
            raise ConfigError(
                f"grid {self.grid_rows}x{self.grid_cols} does not hold {self.n_plants} plants"
            )
        _check_perturbation_frac(self.perturbation_frac)
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.season_days < math.inf:
            raise ConfigError(f"season_days must be positive and finite, got {self.season_days}")
        if not 0.0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not self.season_days / self.dt <= MAX_STEPS:
            raise ConfigError(f"dt={self.dt} is too small for season_days={self.season_days}: over {MAX_STEPS} steps")
        if not 0.0 <= self.u_bar < math.inf:
            raise ConfigError(f"u_bar must be nonnegative and finite, got {self.u_bar}")
        if not 0.0 <= self.rejection_percentile <= 100.0:
            raise ConfigError(f"rejection_percentile must lie in [0, 100], got {self.rejection_percentile}")


def _check_perturbation_frac(frac) -> None:
    """Raise a ConfigError unless `frac` lies in [0, 0.5), the range of a field's perturbation_frac (no NaN)."""
    if not 0.0 <= frac < 0.5:
        raise ConfigError(f"perturbation_frac must lie in [0, 0.5), got {frac}")


def sample_params(nominal: PlantParams, frac: float, seed: int, plant_index: int) -> PlantParams:
    """Draw one plant's parameters around the nominal values.

    Each parameter is Normal(nominal, (frac * nominal)^2) from a
    substream keyed by (seed, plant_index), so adding plants never
    reshuffles earlier draws. Draws violating the parameter invariants
    (positivity, psi in (0, 1)) are redrawn rather than clamped, to
    avoid piling probability on the bounds.
    """
    if frac < 0.0:
        raise ConfigError(f"perturbation fraction must be nonnegative, got {frac}")
    if frac == 0.0:
        return nominal
    rng = np.random.default_rng(np.random.SeedSequence([seed, plant_index]))
    values = {}
    for name in PARAM_NAMES:
        mean = getattr(nominal, name)
        for attempt in range(100):
            draw = float(rng.normal(mean, frac * mean))
            if draw > 0.0 and (name != "psi" or draw < 1.0):
                values[name] = draw
                break
        else:
            raise ConfigError(f"could not draw a valid value for {name} after 100 attempts")
    return PlantParams(**values)


def neighbors(plant_index: int, grid_rows: int, grid_cols: int) -> list:
    """Moore neighborhood (adjacent + diagonal, no wraparound) as sorted indices."""
    n = grid_rows * grid_cols
    if not 0 <= plant_index < n:
        raise IndexError(f"plant index {plant_index} out of range for {grid_rows}x{grid_cols} grid")
    row, col = divmod(plant_index, grid_cols)
    out = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            r, c = row + dr, col + dc
            if 0 <= r < grid_rows and 0 <= c < grid_cols:
                out.append(r * grid_cols + c)
    return sorted(out)


def grid_topology(grid_rows: int, grid_cols: int) -> tuple:
    """Neighbor index arrays for every plant on the grid."""
    return tuple(
        np.array(neighbors(i, grid_rows, grid_cols), dtype=int)
        for i in range(grid_rows * grid_cols)
    )


def rejection_threshold(final_outputs, percentile: float) -> float:
    """Linear-interpolation percentile of the final shoot-output vector."""
    y = np.asarray(final_outputs, dtype=float)
    if y.size == 0:
        raise ValueError("final outputs must be nonempty")
    return float(np.percentile(y, percentile, method="linear"))


@dataclass(frozen=True)
class FieldTrajectory:
    """Per-plant state histories plus the applied-nitrogen ledger.

    ``applied_u[e, i]`` is the dose set for plant i at application epoch
    e; ``hold_days[e]`` is how long that dose was held (until the next
    epoch or season end), which duration-weights nitrogen totals.
    """

    config: FieldConfig
    times: np.ndarray
    states: np.ndarray  # (n_plants, n_times, 3)
    outputs: np.ndarray  # (n_plants, n_times)
    application_times: np.ndarray
    applied_u: np.ndarray  # (n_epochs, n_plants)
    hold_days: np.ndarray
    plant_params: tuple = dataclass_field(repr=False, default=())

    @property
    def n_plants(self) -> int:
        return self.outputs.shape[0]

    @property
    def final_outputs(self) -> np.ndarray:
        return self.outputs[:, -1].copy()

    def total_nitrogen(self) -> float:
        """Total grams of nitrogen availability, duration-weighted in days.

        The ledger's doses plus the baseline dose `u_bar` that every plant
        holds before a first application after day 0.
        """
        applied = float((self.applied_u.sum(axis=1) * self.hold_days).sum())
        return applied + self.n_plants * self.config.u_bar * float(self.application_times[0])

    def u_at_times(self, times: np.ndarray) -> np.ndarray:
        """Applied dose per plant at each query time, shape (n_plants, len(times))."""
        idx = _epoch_index(self.application_times, times)
        u = np.empty((self.n_plants, len(times)))
        for j, e in enumerate(idx):
            u[:, j] = self.config.u_bar if e < 0 else self.applied_u[e]
        return u


def _epoch_index(application_times, times) -> np.ndarray:
    """Epoch whose dose holds at each time; -1 before the first application (the baseline `u_bar`)."""
    return np.searchsorted(application_times, times, side="right") - 1


def simulate_field(
    cfg: FieldConfig,
    policy: ControlPolicy,
    schedule: ActuationSchedule,
    plant_params: tuple = None,
) -> FieldTrajectory:
    """Simulate every plant through the season under the given policy.

    Time marches in application epochs. At each application time the
    policy observes the current outputs (noised when the policy says so)
    and fixes each plant's dose until the next application; between
    applications the plants evolve independently on a shared RK4 step
    grid. The result is deterministic for a given config, policy, and
    schedule.

    ``plant_params`` overrides the seeded per-plant parameter draws,
    e.g. to replay a recorded field or relabel plants.
    """
    if policy.saturation.u_bar != cfg.u_bar:
        raise ConfigError(f"policy.saturation.u_bar={policy.saturation.u_bar!r} differs from field.u_bar="
                          f"{cfg.u_bar!r}; a field run holds one baseline dose")
    grid = StepGrid(0.0, cfg.season_days, cfg.dt)
    if schedule.interval_days < cfg.dt - GRID_TOL:  # before `times_within` lists a tiny interval's times
        raise ConfigError(f"application interval {schedule.interval_days} is shorter than dt={cfg.dt}")
    app_times = schedule.times_within(cfg.season_days)
    try:
        app_steps = [grid.index(t) for t in app_times]
    except ValueError as exc:
        raise ConfigError(f"application time {exc}; choose an interval that is a multiple of dt") from None
    n = cfg.n_plants
    if plant_params is None:
        params = tuple(
            sample_params(cfg.nominal_params, cfg.perturbation_frac, cfg.seed, i) for i in range(n)
        )
    else:
        params = tuple(plant_params)
        if len(params) != n:
            raise ConfigError(f"plant_params has {len(params)} entries for {n} plants")
    psi = np.array([p.psi for p in params])

    states = np.empty((n, grid.steps + 1, 3))
    x, advance = _lanes(np.array([p.as_array() for p in params]), cfg.s0, grid, cfg.env, states)

    # epoch -1 holds the baseline dose `u_bar` until the first application
    # (for no steps when that is at day zero), epoch e the policy's e-th dose
    bounds = [0, *app_steps, grid.steps]
    hold_days = np.diff([*app_times, cfg.season_days])
    applied_u = np.empty((len(app_times), n))
    topology = grid_topology(cfg.grid_rows, cfg.grid_cols) if policy.variant == "local" else None

    u = cfg.u_bar
    for epoch, (start, stop) in enumerate(zip(bounds, bounds[1:]), -1):
        if epoch >= 0:
            seen = observe(psi * x[0], policy.noise_frac, cfg.seed, epoch)
            u = applied_u[epoch] = apply_policy(policy, seen, topology)
        advance(u, start, stop)
        _check_finite(x, grid.times[stop])

    outputs = psi[:, None] * states[:, :, 0]
    return FieldTrajectory(
        config=cfg,
        times=grid.times,
        states=states,
        outputs=outputs,
        application_times=np.asarray(app_times, dtype=float),
        applied_u=applied_u,
        hold_days=hold_days,
        plant_params=params,
    )


def _check_finite(x, t) -> None:
    """Raise on the first plant whose column of the state rows `x` is not finite at time `t`.

    A NaN passes both the `B_EPS` floor and the projection's maxima, so
    without this check it would reach the outputs silently.
    """
    finite = np.isfinite(x).all(axis=0)
    if not finite.all():
        raise ValueError(
            f"plant {int(np.argmin(finite))} has a non-finite state at t={float(t)!r}; "
            "check dt and the plant parameters"
        )


def integrate_lanes(pmat, u, env: EnvSchedule, s0: PlantState, t1: float, dt: float) -> tuple:
    """Final (B, C, N) of independent lanes integrated from day 0 to `t1`.

    Lane i has the parameters ``pmat[i]`` (a `PlantParams.as_array()`
    row) and holds the constant dose ``u[i]``. Each lane's final state
    equals ``integrate(...).states[-1]`` for that lane bit for bit, and
    a bad `dt`, a `t1` off the step grid or an environment breakpoint
    off it raises the same ValueError. No per-step history is kept.
    """
    grid = StepGrid(0.0, t1, dt)
    x, advance = _lanes(pmat, s0, grid, env)
    advance(u, 0, grid.steps)
    return tuple(x.copy())  # a copy, so the caller does not keep the workspace alive


# Floors of (b, c, n), one row each: the projection `integrate` applies.
_FLOORS = np.array([[B_EPS], [0.0], [0.0]])


def _lanes(pmat, s0: PlantState, grid: StepGrid, env: EnvSchedule, states=None) -> tuple:
    """The lane RK4 kernel of one run on the step grid `grid`: ``(x, advance)``.

    Lane i has the parameters ``pmat[i]`` (a `PlantParams.as_array()`
    row) and starts at `s0`; each step's temperature and light are
    `env`'s, sampled on `grid` (an off-grid breakpoint raises its
    ValueError). The lane constants, the temperature terms and one
    workspace are built here, once. `x` is the live (3, lanes) view
    of b, c and n; ``advance(u, start, stop)`` RK4-steps every lane in
    place from step `start` to `stop` under the dose `u`, writing step
    i's state to ``states[:, i]`` (`s0` to ``states[:, 0]``) unless
    `states` is None. Each op below keeps the operand order of the
    `_flux_core` term its comment names, the RK4 sums are `integrate`'s
    and its `if` clamps are elementwise maxima, so each lane matches
    `integrate` bit for bit, however the run is cut into `advance` calls.
    """
    # the columns of `PlantParams.as_array()` rows, in `PARAM_NAMES` order
    k, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n, psi, T_op, theta_c, theta_n = np.asarray(pmat, dtype=float).T
    lanes = len(k)
    dt = grid.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    mul, div, add, sub, maximum = np.multiply, np.divide, np.add, np.subtract, np.maximum

    # lane constants as row blocks, so most ops below are same-shape
    psi5 = np.array([psi, 1.0 - psi, psi, 1.0 - psi, k_l])
    js = np.array([j_c, j_n, sigma_c, sigma_n])
    vv = np.array([v, v])
    floors = np.repeat(_FLOORS, lanes, axis=1)
    theta_k = np.array([theta_c * k, theta_n * k])
    temperatures, lights = (values.tolist() for values in grid.sample(temperature=env.temperature, light=env.light))
    terms = {}
    for T in set(temperatures):
        R = np.maximum(0.0, (T_op - np.abs(T_op - T)) / T_op)  # `temperature_response` per lane
        terms[T] = (k * R, theta_k * R)  # k * R, and theta_c * k * R, theta_n * k * R

    # one workspace: the step and stage states [b, c, n, k_ml], the four
    # stages' rates, and the flux blocks named in `rates`; `lu` is [I, u]
    rows = (4, 4, 3, 3, 3, 3, 5, 4, 5, 3, 3, 2)
    x, y, k1, k2, k3, k4, m, h, z, a, lo, lu = np.split(np.empty((sum(rows), lanes)), np.cumsum(rows)[:-1])
    x[:3] = [[max(s0.b, B_EPS)], [s0.c], [s0.n]]
    x[3] = y[3] = k_ml
    x3, y3 = x[:3], y[:3]
    # b, b as 3 and 5 rows (views bound once: an op on them costs about
    # half a broadcast of the row), [c, n, k_ml] and [c, n] of the step
    # and the stage state
    x_rows, y_rows = (
        (s[0], np.broadcast_to(s[0], (3, lanes)), np.broadcast_to(s[0], (5, lanes)), s[1:], s[1:3]) for s in (x, y)
    )
    z_sat, z_cn, z_q, z_cb, z_nb, z_lit = z[:2], z[2:4], z[2:], z[2], z[3], z[4]
    m_sr, m_4, m_lit, h_j, h_sig = m[:2], m[:4], m[4], h[:2], h[2:]
    growth, assim = a[0], a[1:]
    litter, consume = lo[0], lo[1:]
    history = None if states is None else states.transpose(1, 2, 0)
    if history is not None:
        history[0] = x3

    def rates(kR, thkR, b, b3, b5, cnk, cn, out):
        """`model._rates` of a stage state, given as its rows, under the temperature terms, into out."""
        div(cnk, b3, out=z_q)  # c / b, n / b, k_ml / b
        mul(psi5, b5, out=m)  # shoot, root (and again), k_l * b
        mul(kR, z_cb, out=growth)  # growth = k * R * (c / b)
        mul(growth, z_nb, out=growth)  #   * (n / b)
        mul(growth, b, out=growth)  #   * b
        mul(js, m_4, out=h)  # shoot * j_c, root * j_n, sigma_c * shoot, sigma_n * root
        div(m_sr, vv, out=z_sat)  # shoot / v, root / v
        div(cn, h_j, out=z_cn)  # c / (shoot * j_c), n / (root * j_n)
        add(z, 1.0, out=z)  # 1.0 + each of the five saturation terms
        mul(z_sat, z_cn, out=z_sat)  # (1.0 + shoot / v) * (1.0 + c / (shoot * j_c)), and for n
        mul(h_sig, lu, out=assim)  # sigma_c * shoot * I, sigma_n * root * u
        div(assim, z_sat, out=assim)  # assim_c, assim_n
        div(m_lit, z_lit, out=litter)  # litter = k_l * b / (1.0 + k_ml / b)
        mul(thkR, cn, out=consume)  # consume_c = theta_c * k * R * c, consume_n
        sub(a, lo, out=out)  # growth - litter, assim_c - consume_c, assim_n - consume_n

    def project(step, k_prev):
        """The stage state: x + step * k_prev, projected onto the floors."""
        mul(k_prev, step, out=y3)
        add(x3, y3, out=y3)
        maximum(y3, floors, out=y3)

    def advance(u, start, stop):
        """RK4-step every lane in place from step `start` to `stop` under the dose `u`."""
        lu[1] = u
        I_last = None
        for i, T, I in zip(range(start + 1, stop + 1), temperatures[start:stop], lights[start:stop]):
            kR, thkR = terms[T]
            if I != I_last:
                lu[0] = I
                I_last = I
            rates(kR, thkR, *x_rows, k1)
            project(half, k1)
            rates(kR, thkR, *y_rows, k2)
            project(half, k2)
            rates(kR, thkR, *y_rows, k3)
            project(dt, k3)
            rates(kR, thkR, *y_rows, k4)
            # x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            mul(k2, 2.0, out=k2)
            add(k1, k2, out=k1)
            mul(k3, 2.0, out=k3)
            add(k1, k3, out=k1)
            add(k1, k4, out=k1)
            mul(k1, sixth, out=k1)
            add(x3, k1, out=x3)
            maximum(x3, floors, out=x3)
            if history is not None:
                history[i] = x3

    return x3, advance


_TRAJECTORY_HEADER = b"plant_id,t,b,c,n,y,u\r\n"


def _plant_rows(t_text, epochs, baseline, plant, state, y, doses) -> bytes:
    """One plant's trajectory.csv rows, as bytes.

    `state` (times x 3), `y` and `doses` (one per epoch) are the plant's
    slices of the trajectory. `t_text` holds each time's repr and
    `epochs` each step's epoch, -1 meaning the `baseline` dose text.
    Rows are what `write_table` writes for these cells: csv's default
    dialect ends rows with "\\r\\n", and no repr'd float needs quoting.
    """
    # epoch -1 (before a late first application) takes the baseline at the end
    doses = [*map(repr, doses.tolist()), baseline]
    b, c, n = state.T.tolist()
    return "".join(
        f"{plant},{t},{b_t!r},{c_t!r},{n_t!r},{y_t!r},{doses[e]}\r\n"
        for t, b_t, c_t, n_t, y_t, e in zip(t_text, b, c, n, y.tolist(), epochs)
    ).encode()


def export_trajectory_csv(traj: FieldTrajectory, path, workers: int = 1) -> None:
    """Write the long-format trajectory table: plant_id, t, b, c, n, y, u.

    The bytes are those `write_table` would write for the same rows,
    built by hand because this table holds ~2 M values per builtin.
    Each plant's rows are one task of `_plant_rows`, sent only that
    plant's slices plus the shared time, epoch and baseline text. One
    process runs the tasks in turn; with `workers` > 1 a process pool
    runs them, and the parent writes each plant's rows in plant order as
    they arrive. The bytes never depend on `workers`.
    """
    rows = partial(
        _plant_rows,
        [repr(t) for t in traj.times.tolist()],
        _epoch_index(traj.application_times, traj.times).tolist(),
        repr(float(traj.config.u_bar)),
    )
    plants = (range(traj.n_plants), traj.states, traj.outputs, traj.applied_u.T)
    with open(path, "wb") as fh:
        fh.write(_TRAJECTORY_HEADER)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # here, so one process never imports it

            with ProcessPoolExecutor(max_workers=workers) as pool:
                fh.writelines(pool.map(rows, *plants))
        else:
            fh.writelines(map(rows, *plants))


def write_table(path, header, rows) -> None:
    """Write one CSV artifact: the `header` row, then every row of `rows`.

    The package's one artifact format: csv's default dialect (rows end
    with "\\r\\n", a cell is quoted only when it must be), a float cell,
    Python or numpy, as ``repr(float(x))`` so it reads back exactly, and
    any other cell as ``str(x)``. `rows` may be any iterable; it is
    streamed, not collected.
    """

    def cells(row):
        return [repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in row]

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cells(header))
        writer.writerows(map(cells, rows))


def export_ledger_csv(traj: FieldTrajectory, path) -> None:
    """Write the applied-nitrogen ledger: plant_id, t, u, hold_days.

    One block of rows per epoch, one row per plant. When the first
    application comes after day 0, a first block holds each plant's
    baseline dose `u_bar` from t=0.0 until that application, so the
    ledger's ``u * hold_days`` sums to `total_nitrogen()`.
    """
    epochs = list(zip(traj.application_times, traj.applied_u, traj.hold_days))
    first = traj.application_times[0]
    if first > 0.0:
        epochs.insert(0, (0.0, np.full(traj.n_plants, traj.config.u_bar), first))
    rows = ((i, t, u, hold) for t, doses, hold in epochs for i, u in enumerate(doses))
    write_table(path, ["plant_id", "t", "u", "hold_days"], rows)


def export_params_csv(traj: FieldTrajectory, path) -> None:
    """Write the realized per-plant parameter draws."""
    rows = ((i, *p.as_array()) for i, p in enumerate(traj.plant_params))
    write_table(path, ["plant_id", *PARAM_NAMES], rows)
