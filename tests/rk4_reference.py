"""The RK4 loop that `integrate` ran in Python before it became a one-lane run of the compiled kernel.

Kept verbatim as the reference the bit-identity tests compare against,
so they hold the C kernel of `_rk4.c` to an independent Python loop with
the same fluxes (`model._flux_core`), stage table, RK4 sum and
projection.
"""

import numpy as np

from lettucesim.integrator import (
    _RK4_STAGES, EnvSchedule, PiecewiseConstantSignal, StepGrid, Trajectory,
)
from lettucesim.model import B_EPS, PlantParams, PlantState, _flux_core, _param_values, temperature_response


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
    # 1.7-2.1x. The compiled lane kernel of `integrator._lanes` writes the same
    # fluxes and stages in C, and the lane tests hold it to this loop's bits.
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
