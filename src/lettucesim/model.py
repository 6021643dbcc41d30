"""Single-plant lettuce growth model.

The plant is reduced to three compartments, all in grams of dry mass:
structural biomass ``b``, a carbon store ``c``, and a nitrogen store
``n``. Soil nitrogen availability ``u`` is the controllable input,
temperature ``T`` and light ``I`` are environmental disturbances, and
the marketable output is the shoot portion ``psi * b``. All rates are
per day.

The right-hand side is assembled from six flux terms: structural
growth, litter loss, carbon and nitrogen consumption by growth,
photosynthesis, and root nitrogen uptake. On the positive orthant the
system is cooperative: every off-diagonal entry of the state Jacobian
and every entry of the input Jacobian is nonnegative, so raising the
nitrogen input can never lower the output. ``check_cooperativity``
verifies this numerically on sampled states.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, fields

import numpy as np

# Numerical floor for structural biomass; several fluxes divide by b.
B_EPS = 1e-6


@dataclass(frozen=True)
class PlantParams:
    """Growth parameters for one plant.

    Attributes:
        k: structural growth rate (1/day).
        k_l: litter loss rate (1/day).
        k_ml: litter saturation mass (g).
        sigma_c: carbon assimilation rate per light unit per day.
        sigma_n: nitrogen assimilation rate (1/(g day)).
        v: self-shading saturation mass (g).
        j_c: carbon product-inhibition constant (dimensionless).
        j_n: nitrogen product-inhibition constant (dimensionless).
        psi: shoot fraction of structural biomass, in (0, 1).
        T_op: optimal temperature (deg C).
        theta_c: carbon contribution rate (dimensionless).
        theta_n: nitrogen contribution rate (dimensionless).

    All fields must be strictly positive; invalid values raise
    ``ValueError`` on construction.
    """

    k: float
    k_l: float
    k_ml: float
    sigma_c: float
    sigma_n: float
    v: float
    j_c: float
    j_n: float
    psi: float
    T_op: float
    theta_c: float
    theta_n: float

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"parameter {name} must be a finite number, got {value!r}")
            if value <= 0.0:
                raise ValueError(f"parameter {name} must be strictly positive, got {value!r}")
        if not 0.0 < self.psi < 1.0:
            raise ValueError(f"psi must lie strictly inside (0, 1), got {self.psi!r}")

    def as_array(self) -> np.ndarray:
        """Parameter values as a 12-vector in canonical field order."""
        return np.array([getattr(self, name) for name in PARAM_NAMES], dtype=float)

    @classmethod
    def from_array(cls, values) -> "PlantParams":
        vals = [float(x) for x in values]
        if len(vals) != len(PARAM_NAMES):
            raise ValueError(f"expected {len(PARAM_NAMES)} parameter values, got {len(vals)}")
        return cls(**dict(zip(PARAM_NAMES, vals)))


# The canonical parameter order (arrays, CSV columns, sampling), read from
# PlantParams' fields so it is written once.
PARAM_NAMES = tuple(f.name for f in fields(PlantParams))


# Nominal iceberg-lettuce parameter set used by the shipped scenarios.
NOMINAL_PARAMS = PlantParams(
    k=1000.0,
    k_l=0.149,
    k_ml=0.0221,
    sigma_c=0.260,
    sigma_n=70.0,
    v=0.0620,
    j_c=0.144,
    j_n=0.115,
    psi=0.718,
    T_op=22.0,
    theta_c=6.89e-2,
    theta_n=5.57e-6,
)


@dataclass(frozen=True)
class PlantState:
    """Compartment state (b, c, n) in grams of dry mass."""

    b: float
    c: float
    n: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.b) or self.b < B_EPS:
            raise ValueError(f"b must be >= {B_EPS}, got {self.b!r}")
        if not math.isfinite(self.c) or self.c < 0.0:
            raise ValueError(f"c must be nonnegative, got {self.c!r}")
        if not math.isfinite(self.n) or self.n < 0.0:
            raise ValueError(f"n must be nonnegative, got {self.n!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.b, self.c, self.n], dtype=float)


@dataclass(frozen=True)
class EnvPoint:
    """Environmental disturbances: temperature (deg C) and light intensity."""

    T: float
    I: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.T):
            raise ValueError(f"T must be finite, got {self.T!r}")
        if not math.isfinite(self.I) or self.I < 0.0:
            raise ValueError(f"I must be nonnegative, got {self.I!r}")


def temperature_response(T: float, T_op: float) -> float:
    """Unit triangle response centered on T_op, clamped to [0, 1].

    The raw triangle goes negative outside (0, 2*T_op); clamping at zero
    keeps growth from reversing at extreme temperatures.
    """
    return max(0.0, (T_op - abs(T_op - T)) / T_op)


def _flux_core(b, c, n, u, R, I, k, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n, psi, theta_c, theta_n):
    """All six fluxes at once from raw values.

    Pure arithmetic with no branching so the same code serves python
    floats (scalar integration) and numpy arrays (whole-field
    integration) with bit-identical results. ``R`` is the precomputed
    temperature response; callers must guarantee b >= B_EPS.

    Returns (growth, litter, consume_c, consume_n, assim_c, assim_n).
    """
    shoot = psi * b
    root = (1.0 - psi) * b
    growth = k * R * (c / b) * (n / b) * b
    litter = k_l * b / (1.0 + k_ml / b)
    consume_c = theta_c * k * R * c
    consume_n = theta_n * k * R * n
    assim_c = sigma_c * shoot * I / ((1.0 + shoot / v) * (1.0 + c / (shoot * j_c)))
    assim_n = sigma_n * root * u / ((1.0 + root / v) * (1.0 + n / (root * j_n)))
    return growth, litter, consume_c, consume_n, assim_c, assim_n


# The parameters of `_flux_core` after (b, c, n, u, R, I), in its order.
# Its signature is the one place that order is written; `_param_values`,
# `integrate` and the field's lane columns all read it from here.
FLUX_PARAMS = tuple(inspect.signature(_flux_core).parameters)[6:]


def _rates(b, c, n, u, R, I, *params):
    """Time derivative (db, dc, dn) from `_flux_core`'s six fluxes.

    Branch-free like `_flux_core`, so it serves python floats and numpy
    lanes alike; `params` is the `FLUX_PARAMS` tail. `rhs` and the tests
    call it; `integrate` writes its three differences after each
    `_flux_core` call, a call per stage cheaper than this one, and
    the lane kernel built by `field._lanes` writes them as row-block ops
    with the same bits.
    """
    growth, litter, consume_c, consume_n, assim_c, assim_n = _flux_core(b, c, n, u, R, I, *params)
    return growth - litter, assim_c - consume_c, assim_n - consume_n


def _stage(b, c, n, u, R, I, k, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n, psi, theta_c, theta_n):
    """Rates, state Jacobian and log-parameter derivatives at one state.

    Branch-free like `_flux_core`, whose fluxes it reuses, so it serves
    python floats and numpy arrays alike. Returns ``(rates, jac, cols)``:
    `rates` is (db, dc, dn); `jac` holds the seven nonzero entries of the
    state Jacobian, (bb, bc, bn, cb, cc, nb, nn) with row = rate and
    column = state; `cols` maps each `FLUX_PARAMS` name to its (db, dc,
    dn) column of theta * d(rate)/d(theta). The temperature optimum acts
    through R alone, and R * d/dR equals the `k` column, so `fitting`
    scales that column for ``T_op``. The signature is `_flux_core`'s.

    This is the model's one derivative source: `jacobian_state`,
    `check_cooperativity` and the fitter's tangent replay all read it.
    """
    growth, litter, consume_c, consume_n, assim_c, assim_n = _flux_core(
        b, c, n, u, R, I, k, k_l, k_ml, sigma_c, sigma_n, v, j_c, j_n, psi, theta_c, theta_n
    )
    kR = k * R
    shoot = psi * b
    root = (1.0 - psi) * b
    inh_c = c + j_c * shoot
    inh_n = n + j_n * root
    # shoot * d(log assim_c)/d(shoot), and the same for uptake and the root
    e_c = v / (v + shoot) + c / inh_c
    e_n = v / (v + root) + n / inh_n
    zero = 0.0 * b  # a zero of the argument's kind, so numpy callers get full columns
    rates = (growth - litter, assim_c - consume_c, assim_n - consume_n)
    jac = (
        -kR * c * n / (b * b) - k_l * b * (b + 2.0 * k_ml) / (b + k_ml) ** 2,
        kR * n / b,
        kR * c / b,
        assim_c * e_c / b,
        -assim_c / inh_c - theta_c * kR,
        assim_n * e_n / b,
        -assim_n / inh_n - theta_n * kR,
    )
    cols = {
        "k": (growth, -consume_c, -consume_n),
        "k_l": (-litter, zero, zero),
        "k_ml": (litter * k_ml / (b + k_ml), zero, zero),
        "sigma_c": (zero, assim_c, zero),
        "sigma_n": (zero, zero, assim_n),
        "v": (zero, assim_c * shoot / (v + shoot), assim_n * root / (v + root)),
        "j_c": (zero, assim_c * c / inh_c, zero),
        "j_n": (zero, zero, assim_n * n / inh_n),
        "psi": (zero, assim_c * e_c, -psi / (1.0 - psi) * assim_n * e_n),
        "theta_c": (zero, -consume_c, zero),
        "theta_n": (zero, zero, -consume_n),
    }
    return rates, jac, cols


def _param_values(p: PlantParams) -> tuple:
    """Positional parameter tuple matching the _flux_core signature tail."""
    return tuple(getattr(p, name) for name in FLUX_PARAMS)


def _require_b(b: float) -> None:
    if b < B_EPS:
        raise ValueError(f"b={b!r} is below the numerical floor {B_EPS}")


def growth_flux(s: PlantState, T: float, p: PlantParams) -> float:
    """Structural growth rate (g/day), proportional to both store concentrations."""
    _require_b(s.b)
    R = temperature_response(T, p.T_op)
    return _flux_core(s.b, s.c, s.n, 0.0, R, 0.0, *_param_values(p))[0]


def litter_loss(b: float, p: PlantParams) -> float:
    """Biomass loss rate (g/day); linear for large b, vanishing as b -> 0."""
    if b < 0.0:
        raise ValueError(f"b must be nonnegative, got {b!r}")
    if b == 0.0:
        return 0.0
    # `_flux_core`'s litter term, written out: going through `_flux_core`
    # would also evaluate the assimilation terms, which divide 0 by an
    # underflowed 0 for subnormal b. A test pins it to `_flux_core`'s bits.
    return p.k_l * b / (1.0 + p.k_ml / b)


def carbon_consumption(s: PlantState, T: float, p: PlantParams) -> float:
    """Carbon drawn from the store by structural growth (g/day)."""
    _require_b(s.b)
    R = temperature_response(T, p.T_op)
    return _flux_core(s.b, s.c, s.n, 0.0, R, 0.0, *_param_values(p))[2]


def nitrogen_consumption(s: PlantState, T: float, p: PlantParams) -> float:
    """Nitrogen drawn from the store by structural growth (g/day)."""
    _require_b(s.b)
    R = temperature_response(T, p.T_op)
    return _flux_core(s.b, s.c, s.n, 0.0, R, 0.0, *_param_values(p))[3]


def photosynthesis(s: PlantState, I: float, p: PlantParams) -> float:
    """Carbon inflow (g/day): proportional to light and shoot mass, with
    self-shading and store-inhibition saturation."""
    _require_b(s.b)
    if I < 0.0:
        raise ValueError(f"light intensity must be nonnegative, got {I!r}")
    return _flux_core(s.b, s.c, s.n, 0.0, 1.0, I, *_param_values(p))[4]


def nitrogen_uptake(s: PlantState, u: float, p: PlantParams) -> float:
    """Nitrogen inflow (g/day): proportional to soil availability and root
    mass, with the same two saturation mechanisms as photosynthesis."""
    _require_b(s.b)
    if u < 0.0:
        raise ValueError(f"nitrogen availability must be nonnegative, got {u!r}")
    return _flux_core(s.b, s.c, s.n, u, 1.0, 0.0, *_param_values(p))[5]


def rhs(s: PlantState, u: float, env: EnvPoint, p: PlantParams) -> np.ndarray:
    """Time derivative (db, dc, dn) in g/day."""
    _require_b(s.b)
    if u < 0.0:
        raise ValueError(f"nitrogen availability must be nonnegative, got {u!r}")
    R = temperature_response(env.T, p.T_op)
    return np.array(_rates(s.b, s.c, s.n, u, R, env.I, *_param_values(p)))


def output(s: PlantState, p: PlantParams) -> float:
    """Shoot dry biomass y = psi * b (g), the marketable output."""
    return p.psi * s.b


def jacobian_state(s: PlantState, u: float, env: EnvPoint, p: PlantParams) -> np.ndarray:
    """Analytic 3x3 Jacobian of rhs with respect to (b, c, n).

    The seven entries are `_stage`'s; carbon and nitrogen do not act on
    each other, so [1, 2] and [2, 1] are exact zeros.
    """
    _require_b(s.b)
    R = temperature_response(env.T, p.T_op)
    _, (bb, bc, bn, cb, cc, nb, nn), _ = _stage(s.b, s.c, s.n, u, R, env.I, *_param_values(p))
    return np.array([[bb, bc, bn], [cb, cc, 0.0], [nb, 0.0, nn]])


def jacobian_input(s: PlantState, u: float, env: EnvPoint, p: PlantParams) -> np.ndarray:
    """Analytic gradient of rhs with respect to the nitrogen input u.

    Uptake is linear in u, so the only nonzero entry is the uptake at u = 1.
    """
    _require_b(s.b)
    R = temperature_response(env.T, p.T_op)
    return np.array([0.0, 0.0, _flux_core(s.b, s.c, s.n, 1.0, R, env.I, *_param_values(p))[5]])


@dataclass(frozen=True)
class CooperativityReport:
    """Result of a sampled monotonicity check.

    ``violations`` holds up to 100 offending samples as
    (kind, state, u, value) tuples; ``violation_count`` is the full
    count. The minima are margins for the sign conditions, taken over
    the structurally nonzero entries only: the off-diagonal state
    Jacobian's bc, bn, cb and nb, and the input Jacobian's uptake slope.
    """

    sample_count: int
    seed: int
    violation_count: int
    violations: tuple
    min_offdiagonal: float
    min_input_gradient: float
    min_flux: float
    output_map_nonnegative: bool

    @property
    def passed(self) -> bool:
        return self.violation_count == 0 and self.output_map_nonnegative


# The checked quantities, one column each, in listing order: `_stage`'s
# off-diagonal Jacobian entries, the input slope, the six fluxes.
_CHECK_KINDS = (
    *(f"offdiagonal[{ij}]" for ij in ("0,1", "0,2", "1,0", "2,0")),
    "input_gradient",
    *(f"flux:{f}" for f in ("growth", "litter", "consume_c", "consume_n", "assim_c", "assim_n")),
)

# Samples per vectorized pass: a bounded working set for any sample count.
_CHECK_BLOCK = 1024


def check_cooperativity(p: PlantParams, env: EnvPoint, sample_count: int = 1000, seed: int = 0) -> CooperativityReport:
    """Sample states log-uniformly and test the monotonicity sign conditions.

    Checks, at every sample: (i) off-diagonal state-Jacobian entries are
    nonnegative, (ii) the input Jacobian is elementwise nonnegative,
    (iii) the output map is nonnegative, and (iv) all six fluxes are
    nonnegative. Violations are reported, never raised, so the check can
    be pointed at deliberately corrupted parameter sets; they are listed
    by sample, then in `_CHECK_KINDS` order. Blocks of samples run as
    numpy lanes of `_stage` and `_flux_core`.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    rng = np.random.default_rng(seed)
    # log-uniform box of b, c, n (g) and u; b stays above B_EPS
    lo = np.log([1e-4, 1e-8, 1e-8, 1e-8])
    hi = np.log([1e3, 1e2, 1e2, 1.0])
    draws = np.exp(rng.uniform(lo, hi, size=(sample_count, 4)))

    R = temperature_response(env.T, p.T_op)
    pv = _param_values(p)
    violations, violation_count = [], 0
    lows = np.full(len(_CHECK_KINDS), np.inf)
    for start in range(0, sample_count, _CHECK_BLOCK):
        block = draws[start : start + _CHECK_BLOCK]
        b, c, n, u = block.T
        _, (_, bc, bn, cb, _, nb, _), _ = _stage(b, c, n, u, R, env.I, *pv)
        slope = _flux_core(b, c, n, 1.0, R, env.I, *pv)[5]
        checks = np.column_stack((bc, bn, cb, nb, slope, *_flux_core(b, c, n, u, R, env.I, *pv)))
        lows = np.minimum(lows, checks.min(axis=0))
        negative = np.argwhere(checks < 0.0)
        violation_count += len(negative)
        violations += [
            (_CHECK_KINDS[j], tuple(block[i, :3]), block[i, 3], checks[i, j])
            for i, j in negative[: 100 - len(violations)]
        ]

    # the output map y = psi * b is nonnegative exactly when psi is
    output_ok = p.psi >= 0.0
    if not output_ok:
        violation_count += 1
        if len(violations) < 100:
            violations.append(("output_map", None, None, float(p.psi)))

    return CooperativityReport(
        sample_count=sample_count,
        seed=seed,
        violation_count=violation_count,
        violations=tuple(violations),
        min_offdiagonal=float(lows[:4].min()),
        min_input_gradient=float(lows[4]),
        min_flux=float(lows[5:].min()),
        output_map_nonnegative=output_ok,
    )
