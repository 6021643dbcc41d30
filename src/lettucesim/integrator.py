"""Deterministic fixed-step integration of one plant under piecewise-constant inputs.

Classical fourth-order Runge-Kutta with a fixed step keeps runs
bit-reproducible across platforms; the dynamics are smooth and
non-stiff at nominal parameter values, so no adaptive stepping is
needed. Every breakpoint of the dose, temperature and light must land
on the step grid so control switching times are exact. `StepGrid` is
the one place that maps times to steps: `integrate`, the fit's tangent
replay, `field.integrate_lanes` and `field.simulate_field` each build
one, so an off-grid input raises the same ValueError on each path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .model import B_EPS, EnvPoint, PlantParams, PlantState, _flux_core, _param_values, temperature_response

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
        """The step boundary at the time t, which must lie in [t0, t1] and on the grid (a ValueError otherwise)."""
        k, _, on_grid = self._nearest(t) if self.t0 <= t <= self.t1 else (0, math.inf, False)
        if not on_grid:
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
    """
    # temperature is piecewise constant, so its response is too: one per interval
    R_signal = PiecewiseConstantSignal(
        env.temperature.breakpoints, tuple(temperature_response(T, p.T_op) for T in env.temperature.values)
    )
    grid = StepGrid(t0, t1, dt)
    u_steps, R_steps, I_steps = grid.sample(input=u_signal, temperature=R_signal, light=env.light)
    if np.any(u_steps < 0.0):
        raise ValueError("nitrogen input signal must be nonnegative")

    k, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n, psi, theta_c, theta_n = _param_values(p)
    stages = [(h * dt, w) for h, w in _RK4_STAGES]
    sixth = dt / 6.0
    b_eps = B_EPS  # a local name is faster to read in the loop than a global

    b, c, n = max(s0.b, b_eps), s0.c, s0.n
    history = [b, c, n]  # flat: b, c, n of each step boundary in turn

    # Plain python floats in the inner loop: numpy scalars carry real
    # per-operation overhead at this call density. With the flat history,
    # the stage loop costs 0.96-1.00x four written-out stages with a row
    # write per step (BENCH_19.json); a function call per step cost
    # 1.7-2.1x. The lane kernel of `field._lanes` writes the same fluxes as
    # row-block ops, and the lane tests hold it to this loop's bits.
    for u, R, I in zip(u_steps.tolist(), R_steps.tolist(), I_steps.tolist()):
        g, l, cc, cn, ac, an = _flux_core(
            b, c, n, u, R, I, k, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n, psi, theta_c, theta_n
        )
        kb = sb = g - l
        kc = sc = ac - cc
        kn = sn = an - cn
        for h, w in stages:
            bs = b + h * kb
            cs = c + h * kc
            ns = n + h * kn
            if bs < b_eps:
                bs = b_eps
            if cs < 0.0:
                cs = 0.0
            if ns < 0.0:
                ns = 0.0
            g, l, cc, cn, ac, an = _flux_core(
                bs, cs, ns, u, R, I, k, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n, psi, theta_c, theta_n
            )
            kb = g - l
            kc = ac - cc
            kn = an - cn
            sb = sb + w * kb  # k1 + 2 k2 + 2 k3 + k4, left to right
            sc = sc + w * kc
            sn = sn + w * kn

        b = b + sixth * sb
        c = c + sixth * sc
        n = n + sixth * sn
        if b < b_eps:
            b = b_eps
        if c < 0.0:
            c = 0.0
        if n < 0.0:
            n = 0.0
        history += (b, c, n)

    states = np.array(history).reshape(-1, 3)
    outputs = psi * states[:, 0]
    return Trajectory(times=grid.times, states=states, outputs=outputs)
