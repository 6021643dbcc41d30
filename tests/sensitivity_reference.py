"""The numpy tangent replay that gave the fit's gradient before the compiled forward-sensitivity pass.

Kept as the reference the sensitivity tests compare against:
`_outputs_and_sensitivities` replays each step's four RK4 stages for all
steps at once with `model._stage`, from the states of the reference RK4
loop `rk4_reference.integrate`, and `_chain` composes the per-step
affine maps with numpy's `@`. The compiled pass (`_rk4.c`,
`rk4_sensitivities`) carries the sensitivities step by step instead, so
the two agree to rounding, not bit for bit.
"""

import numpy as np

import rk4_reference
from lettucesim.fitting import FitSpec, _observation_steps, _T_op_scale
from lettucesim.integrator import _RK4_STAGES, PiecewiseConstantSignal
from lettucesim.model import B_EPS, PlantParams, _param_values, _stage, temperature_response

# Floors of (b, c, n), one row each: the projection `integrate` applies.
_FLOORS = np.array([[B_EPS], [0.0], [0.0]])


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


def trajectory(p: PlantParams, spec: FitSpec, times) -> tuple:
    """The reference loop's run to the last observation time, the fit's step grid and each observation's step.

    The grid is `fitting._observation_steps`'s, and the run is
    `rk4_reference.integrate`'s, which returns a non-finite state instead
    of raising on it.
    """
    grid, idx = _observation_steps(spec, times)
    traj = rk4_reference.integrate(p, spec.s0, PiecewiseConstantSignal.constant(spec.u), spec.env, grid.t0, grid.t1,
                                   grid.dt)
    return traj, grid, idx


def _outputs_and_sensitivities(p: PlantParams, spec: FitSpec, times, free) -> tuple:
    """Shoot biomass at each observation time and its derivatives in log(theta) of the `free` parameters.

    Returns ``(y, dy)``, dy of shape (observations, free). The states
    come from the reference RK4 loop (`trajectory`), so `y` is
    `integrate`'s outputs bit for bit.
    The sensitivities s = theta * dx/dtheta are the exact tangent of its
    RK4 map. Each step's four stages are replayed, for all steps at
    once, from those states with `integrate`'s stage table, arithmetic and
    projection (the field's kernel does the same), and `_stage` gives the
    state Jacobian and the parameter columns at each stage's own state.
    A stage or step whose projection clamps a component zeroes that
    component's sensitivity. Each step's tangent is an affine map of s,
    which `_chain` composes up to the observation steps.
    """
    traj, grid, idx = trajectory(p, spec, times)
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
        direct = np.array([cols["k" if name == "T_op" else name] for name in free]).reshape(len(free), 3, steps)
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
