"""Per-plant nitrogen application policies.

Three variants: a constant uniform dose, proportional feedback on the
deviation from the field-average shoot biomass, and a distributed
variant that replaces the field average with the mean over a plant's
grid neighborhood. Corrections are passed through a symmetric
saturation so every emitted dose stays inside
[u_bar - u_range, u_bar + u_range].

Policies are pure functions of the observation vector; observation
noise is generated here from per-(seed, epoch, plant) substreams so
runs are reproducible and applied nitrogen is never noised, only the
controller's view of the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_VARIANTS = ("constant", "global", "local")


@dataclass(frozen=True)
class SaturationSpec:
    """Symmetric correction limits around the baseline dose u_bar (g)."""

    u_bar: float
    u_range: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.u_bar) or self.u_bar < 0.0:
            raise ValueError(f"u_bar must be nonnegative, got {self.u_bar!r}")
        if not 0.0 <= self.u_range <= self.u_bar:
            raise ValueError(
                f"u_range must lie in [0, u_bar={self.u_bar}] so doses stay nonnegative, got {self.u_range!r}"
            )

    @property
    def lower(self) -> float:
        return self.u_bar - self.u_range

    @property
    def upper(self) -> float:
        return self.u_bar + self.u_range


@dataclass(frozen=True)
class ControlPolicy:
    """A dose policy: variant, proportional gain, saturation, observation noise."""

    variant: str
    saturation: SaturationSpec
    gain: float = 0.05
    noise_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if not math.isfinite(self.gain) or self.gain < 0.0:
            raise ValueError(f"gain must be nonnegative, got {self.gain!r}")
        if not math.isfinite(self.noise_frac) or self.noise_frac < 0.0:
            raise ValueError(f"noise_frac must be nonnegative, got {self.noise_frac!r}")


@dataclass(frozen=True)
class ActuationSchedule:
    """When the controller observes the field and resets doses (days)."""

    interval_days: float = 1.0
    first_application_day: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.interval_days) or self.interval_days <= 0.0:
            raise ValueError(f"interval_days must be positive, got {self.interval_days!r}")
        if not math.isfinite(self.first_application_day) or self.first_application_day < 0.0:
            raise ValueError(
                f"first_application_day must be nonnegative, got {self.first_application_day!r}"
            )

    def times_within(self, season_days: float) -> np.ndarray:
        """Application times in [first_application_day, season_days)."""
        if self.first_application_day >= season_days:
            raise ValueError("first application falls at or after the season end")
        count = int(math.ceil((season_days - self.first_application_day) / self.interval_days - 1e-12))
        return self.first_application_day + self.interval_days * np.arange(count)


def global_proportional(outputs: np.ndarray, policy: ControlPolicy) -> np.ndarray:
    """Dose per plant from the deviation to the field average output.

    u_i = u_bar + sat(gain * (mean(y) - y_i)); the mean includes plant i.
    """
    y = np.asarray(outputs, dtype=float)
    if y.size == 0:
        raise ValueError("outputs must be nonempty")
    spec = policy.saturation
    correction = np.clip(policy.gain * (y.mean() - y), -spec.u_range, spec.u_range)
    return spec.u_bar + correction


def local_proportional(outputs: np.ndarray, topology, policy: ControlPolicy) -> np.ndarray:
    """Dose per plant from the mean deviation to its grid neighbors.

    u_i = u_bar + sat((gain / |N_i|) * sum_{j in N_i} (y_j - y_i)).
    ``topology`` is a sequence of neighbor index arrays, one per plant.
    Plants with the same neighbor count d are one (plants, d) block, so
    each plant's sum is numpy's sum over its own d gaps in topology
    order, the same bits as summing that plant's gaps alone.
    """
    y = np.asarray(outputs, dtype=float)
    if y.size == 0:
        raise ValueError("outputs must be nonempty")
    if len(topology) != y.size:
        raise ValueError(f"topology has {len(topology)} entries for {y.size} plants")
    counts = np.array([len(nbrs) for nbrs in topology])
    if not counts.all():
        raise ValueError(f"plant {int(np.argmin(counts))} has no neighbors")
    flat = np.concatenate(topology)
    starts = np.cumsum(counts) - counts
    mean_gap = np.empty_like(y)
    for d in np.unique(counts):
        plants = np.flatnonzero(counts == d)
        block = flat[starts[plants, None] + np.arange(d)]
        mean_gap[plants] = (y[block] - y[plants, None]).sum(axis=1) / d
    spec = policy.saturation
    return spec.u_bar + np.clip(policy.gain * mean_gap, -spec.u_range, spec.u_range)


def apply_policy(policy: ControlPolicy, observations: np.ndarray, topology=None) -> np.ndarray:
    """Evaluate a policy on (possibly noisy) observations, one dose per plant."""
    y = np.asarray(observations, dtype=float)
    if policy.variant == "constant":
        return np.full(y.shape, policy.saturation.u_bar)
    if policy.variant == "global":
        return global_proportional(y, policy)
    if topology is None:
        raise ValueError("local policy needs a neighbor topology")
    return local_proportional(y, topology, policy)


def observe(outputs: np.ndarray, noise_frac: float, seed: int, epoch: int) -> np.ndarray:
    """Noisy controller view of the outputs, clamped at zero.

    Each plant's error is Gaussian with standard deviation
    noise_frac * y_i, drawn from its own substream keyed by
    (seed, epoch, plant index) so results do not depend on plant count
    or evaluation order. noise_frac = 0 returns an exact copy.
    """
    y = np.asarray(outputs, dtype=float)
    if noise_frac < 0.0:
        raise ValueError(f"noise_frac must be nonnegative, got {noise_frac!r}")
    if noise_frac == 0.0:
        return y.copy()
    noisy = np.empty_like(y)
    for i in range(y.size):
        rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, i]))
        noisy[i] = max(0.0, y[i] + rng.normal(0.0, noise_frac * y[i]))
    return noisy
