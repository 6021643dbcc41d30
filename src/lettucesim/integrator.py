"""Deterministic fixed-step integration of plants under piecewise-constant inputs.

Classical fourth-order Runge-Kutta with a fixed step keeps runs
bit-reproducible across platforms; the dynamics are smooth and
non-stiff at nominal parameter values, so no adaptive stepping is
needed. Every breakpoint of the dose, temperature and light must land
on the step grid so control switching times are exact. `StepGrid` is
the one place that maps times to steps: `integrate`, `integrate_lanes`,
the fit's sensitivity pass and `field.simulate_field` each build one, so
an off-grid input raises the same ValueError on each path.

Every plant is stepped by one compiled RK4 kernel, `_rk4.c`, set up once
per run by `_lanes`: one C loop over steps and, inside each step, over
lanes, each lane one plant with its own parameters and dose. Its one
RK4 step body, `step`, writes the terms of `model._flux_core` with their
operand order, the stage table `_RK4_STAGES` and the RK4 sum left to
right, and its projection as `if` clamps, and it is built with
-ffp-contract=off and no fast-math flag, so no multiply-add is fused.
So a lane's bits do not depend on the other lanes, on the lane count or
on how a run is cut into `advance` calls: `integrate` is a one-lane run
with a history, `integrate_lanes` a run of independent lanes that keeps
only their final states (the dose-response sweep), and
`field.simulate_field` a run of the whole field, epoch by epoch. The
tests hold the kernel to a Python RK4 loop, `tests/rk4_reference.py`,
bit for bit. The fit's outputs and gradient come from the same
library's second entry point, `rk4_sensitivities`, which runs the same
`step` on `_lane_tables` with sensitivities beside the state. The
kernel is compiled on a process's first run and cached (`_rk4.load`),
never at import.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .model import B_EPS, EnvPoint, PlantParams, PlantState

# Maximum misalignment (days, relative beyond a day) tolerated when snapping times to the step grid.
GRID_TOL = 1e-9

# Most steps a grid may hold, so a tiny dt is an error, not a request to numpy for gigabytes.
MAX_STEPS = 10**7

# RK4's stages after k1 (classical tableau): (fraction of dt, weight in k1 + 2 k2 + 2 k3 + k4).
_RK4_STAGES = ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0))


@dataclass(frozen=True)
class PiecewiseConstantSignal:
    """Right-continuous step signal: values[i] holds on [breakpoints[i], breakpoints[i+1]).

    The last value extends to +infinity. Evaluation before the first
    breakpoint is an error. Breakpoints and values must be finite: a NaN
    temperature would otherwise pass `temperature_response`'s clamp as 0.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self) -> None:
        bp = tuple(float(t) for t in self.breakpoints)
        vals = tuple(float(x) for x in self.values)
        if len(bp) == 0:
            raise ValueError("signal needs at least one breakpoint")
        if len(vals) != len(bp):
            raise ValueError(f"expected one value per interval ({len(bp)}), got {len(vals)}")
        if not all(map(math.isfinite, bp)) or any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError(f"breakpoints must be finite and strictly ascending, got {bp}")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"signal values must be finite, got {vals}")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float, t_start: float = 0.0) -> "PiecewiseConstantSignal":
        return cls(breakpoints=(t_start,), values=(value,))

    def value_at(self, t: float) -> float:
        idx = bisect_right(self.breakpoints, t) - 1
        if idx < 0:
            raise ValueError(f"signal is undefined before t={self.breakpoints[0]} (asked for {t})")
        return self.values[idx]


@dataclass(frozen=True)
class EnvSchedule:
    """Temperature and light as piecewise-constant signals."""

    temperature: PiecewiseConstantSignal
    light: PiecewiseConstantSignal

    @classmethod
    def constant(cls, T: float, I: float) -> "EnvSchedule":
        if I < 0.0:
            raise ValueError(f"light intensity must be nonnegative, got {I!r}")
        return cls(
            temperature=PiecewiseConstantSignal.constant(T),
            light=PiecewiseConstantSignal.constant(I),
        )

    def value_at(self, t: float) -> EnvPoint:
        return EnvPoint(T=self.temperature.value_at(t), I=self.light.value_at(t))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times (days), states (n_times, 3), shoot outputs (g)."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray

    def final_output(self) -> float:
        return float(self.outputs[-1])


@dataclass(frozen=True)
class StepGrid:
    """The RK4 step grid from t0 to t1: `steps` steps of `dt`, with boundary `times`.

    Every integration path builds one, so all of them accept and reject
    the same inputs: finite t0 < t1, a positive dt that divides the span,
    and at most `MAX_STEPS` steps, counted before anything is allocated.
    """

    t0: float
    t1: float
    dt: float
    steps: int = field(init=False)
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not -math.inf < self.t0 < self.t1 < math.inf:
            raise ValueError(f"t1={self.t1} must exceed t0={self.t0}, and both must be finite")
        span = float(self.t1) - float(self.t0)  # Python floats: an overflow below reads inf, with no numpy warning
        if not span / float(self.dt) <= MAX_STEPS:
            raise ValueError(
                f"the interval of {span} days at dt={self.dt!r} has too many steps to count (over {MAX_STEPS})")
        steps, _, on_grid = self._nearest(self.t1)
        if steps < 1 or not on_grid:
            raise ValueError(f"step dt={self.dt} does not divide the interval of {span} days")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "times", self.t0 + self.dt * np.arange(steps + 1))

    def _nearest(self, t) -> tuple:
        """The boundary k nearest the time t, t's distance from it, and the one on-grid test."""
        s = t - self.t0
        k = int(round(s / self.dt))
        off = abs(k * self.dt - s)
        return k, off, off <= GRID_TOL * max(1.0, abs(s))

    def index(self, t: float) -> int:
        """The step boundary at the time t, which must be one of the grid's `times` (a ValueError otherwise).

        t matches a boundary within the on-grid test's tolerance, so a time
        a rounding error past t1 (3 * 0.1 > 0.3) is the last boundary.
        """
        k, _, on_grid = self._nearest(t) if math.isfinite(t) else (0, math.inf, False)
        if not (on_grid and 0 <= k <= self.steps):
            raise ValueError(f"t={t} is off the dt={self.dt} step grid from {self.t0} to {self.t1}")
        return k

    def sample(self, **signals: PiecewiseConstantSignal) -> list:
        """Each signal's value on every step [t_i, t_{i+1}): one array per signal, in keyword order.

        Every breakpoint inside (t0, t1) must lie on the grid, and each
        signal must be defined at t0; errors name the signal by its keyword.
        A breakpoint's value holds from the grid step nearest to it: one a
        rounding error past a step start (0.01 + 5 * 0.01 > 6 * 0.01)
        switches on that step, not one step late.
        """
        step_index = np.arange(self.steps)
        values = []
        for name, signal in signals.items():
            for bp in [bp for bp in signal.breakpoints if self.t0 < bp < self.t1]:
                _, off, on_grid = self._nearest(bp)
                if not on_grid:
                    raise ValueError(f"{name} breakpoint at t={bp} is off the dt={self.dt} step grid by {off:.3g} days")
            if signal.breakpoints[0] > self.t0:
                raise ValueError(f"{name} signal is undefined before t={signal.breakpoints[0]}")
            first_steps = np.rint((np.asarray(signal.breakpoints) - self.t0) / self.dt)
            values.append(np.asarray(signal.values, dtype=float)[np.searchsorted(first_steps, step_index, "right") - 1])
        return values


def integrate(
    p: PlantParams,
    s0: PlantState,
    u_signal: PiecewiseConstantSignal,
    env: EnvSchedule,
    t0: float,
    t1: float,
    dt: float,
) -> Trajectory:
    """Integrate one plant from t0 to t1 with fixed RK4 steps of size dt.

    After every step (and before every stage evaluation) the state is
    projected onto b >= B_EPS, c >= 0, n >= 0; excursions are O(dt^5) so
    projection is benign and keeps the order-preservation property.
    Returns the trajectory sampled at every step boundary. Deterministic:
    identical inputs give bit-identical outputs.

    The plant is one lane of `_lanes`, advanced once per run of steps
    that hold the same dose. A state that is not finite at the end of a
    run raises `_check_finite`'s ValueError, as in `field.simulate_field`.
    """
    grid = StepGrid(t0, t1, dt)
    (u_steps,) = grid.sample(input=u_signal)
    states = np.empty((1, grid.steps + 1, 3))
    # `_lanes` samples the temperature, then the light: grid errors keep the order input, temperature, light
    x, advance = _lanes(p.as_array()[None], s0, grid, env, states)
    if np.any(u_steps < 0.0):
        raise ValueError("nitrogen input signal must be nonnegative")
    bits = u_steps.view(np.int64)  # a run ends where the dose's bits change, so 0.0 and -0.0 stay apart
    cuts = [0, *(np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist(), grid.steps]
    for start, stop in zip(cuts, cuts[1:]):
        advance(u_steps[start], start, stop)
        _check_finite(x, grid.times[stop])
    return Trajectory(times=grid.times, states=states[0], outputs=p.psi * states[0, :, 0])


def integrate_lanes(pmat, u, env: EnvSchedule, s0: PlantState, t1: float, dt: float) -> tuple:
    """Final (B, C, N) of independent lanes integrated from day 0 to `t1`.

    Lane i has the parameters ``pmat[i]`` (a `PlantParams.as_array()`
    row) and holds the constant dose ``u[i]``. Each lane's final state
    equals ``integrate(...).states[-1]`` for that lane bit for bit, and
    a bad `dt`, a `t1` off the step grid or an environment breakpoint
    off it raises the same ValueError. No per-step history is kept, and
    no state is checked for being finite: the caller names the lane.
    """
    grid = StepGrid(0.0, t1, dt)
    x, advance = _lanes(pmat, s0, grid, env)
    advance(u, 0, grid.steps)
    return tuple(x)


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


def _lanes(pmat, s0: PlantState, grid: StepGrid, env: EnvSchedule, states=None) -> tuple:
    """The lane RK4 kernel of one run on the step grid `grid`: ``(x, advance)``.

    Lane i has the parameters ``pmat[i]`` (a `PlantParams.as_array()`
    row) and starts at `s0`; each step's temperature and light are
    `env`'s, sampled on `grid` (an off-grid breakpoint raises its
    ValueError). The lane constants and the per-temperature terms are
    built once, by `_lane_tables`. `x` is the (3, lanes) array of b, c
    and n; ``advance(u, start, stop)`` RK4-steps every lane in place from step
    `start` to `stop` under the dose `u` (one per lane, or one for all),
    writing step i's state to ``states[:, i]`` (`s0` to ``states[:, 0]``)
    unless `states` is None.

    ``advance`` is one call of the compiled C loop of `_rk4.c` (built and
    cached by `_rk4.load`), over steps and, inside each step, over lanes.
    It writes each `_flux_core` term with its operands in their order,
    the `_RK4_STAGES` loop and the RK4 sum, and each clamp as an ``if``
    (NaN and -0.0 pass it unchanged). The flags are fixed, -O3 -fPIC
    -shared -ffp-contract=off: -O3 with `restrict` pointers vectorizes
    the lane loop, and with contraction off no multiply-add is fused,
    which would change last bits (as -ffast-math, -Ofast or -march=native
    could). So a lane's bits do not depend on the other lanes or on how
    the run is cut into `advance` calls.
    """
    from ._rk4 import load  # here, so importing the package never builds or loads the kernel

    kernel = load().rk4_lanes
    consts, _, terms, temp_index, lights = _lane_tables(pmat, grid, env)
    lanes = consts.shape[1]
    x = np.empty((3, lanes))
    x[:] = [[max(s0.b, B_EPS)], [s0.c], [s0.n]]
    dose = np.empty(lanes)
    if states is not None:
        if states.shape != (lanes, grid.steps + 1, 3) or states.dtype != float or not states.flags.c_contiguous:
            raise ValueError(f"states must be a C-contiguous float64 array of shape {(lanes, grid.steps + 1, 3)}")
        states[:, 0] = x.T
    # the kernel's array arguments, each an array's `ctypes` view, which keeps that array alive
    arrays = [a if a is None else a.ctypes for a in (consts, terms, temp_index, lights, dose, x, states)]

    def advance(u, start, stop):
        """RK4-step every lane in place from step `start` to `stop` under the dose `u`."""
        if not 0 <= start <= stop <= grid.steps:
            raise ValueError(f"steps {start} to {stop} are not within the grid's {grid.steps}")
        dose[:] = u
        kernel(lanes, start, stop, grid.dt, B_EPS, *arrays, 3 * (grid.steps + 1))

    return x, advance


def _lane_tables(pmat, grid: StepGrid, env: EnvSchedule) -> tuple:
    """The kernel's tables of the lanes ``pmat`` on `grid`: ``(consts, temperatures, terms, temp_index, lights)``.

    `consts` has the rows psi, 1 - psi, k_l, k_ml, sigma_c, sigma_n, v,
    j_c, j_n, one column per lane. `temperatures` holds the distinct
    temperatures of the run, and ``terms[i]`` the rows k * R,
    theta_c * k * R and theta_n * k * R at ``temperatures[i]``. Each
    step's temperature is ``temperatures[temp_index[step]]`` and its light
    ``lights[step]``; an off-grid breakpoint raises `StepGrid.sample`'s
    ValueError.
    """
    # the columns of `PlantParams.as_array()` rows, in `PARAM_NAMES` order
    k, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n, psi, T_op, theta_c, theta_n = np.asarray(pmat, dtype=float).T
    consts = np.array([psi, 1.0 - psi, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n])
    theta_k = np.array([theta_c * k, theta_n * k])
    temperatures, lights = grid.sample(temperature=env.temperature, light=env.light)
    distinct, temp_index = np.unique(temperatures, return_inverse=True)
    terms = np.empty((len(distinct), 3, len(k)))
    for row, T in zip(terms, distinct.tolist()):
        R = np.maximum(0.0, (T_op - np.abs(T_op - T)) / T_op)  # `temperature_response` per lane
        row[0] = k * R
        row[1:] = theta_k * R
    return consts, distinct, terms, temp_index.astype(np.int64), lights
