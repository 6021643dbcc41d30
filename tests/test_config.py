"""Scenario config defaults, builtins, and serialize/parse round-trips."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import lettucesim as ls
from lettucesim.config import _SCHEMA, builtin_config_names, load_config, parse_config, serialize_config
from lettucesim.integrator import PiecewiseConstantSignal

# sha256 prefixes of each builtin's serialized text, as written when every
# builtin was its own .cfg file; the override table must reproduce them.
BUILTIN_DIGESTS = {
    "uncontrolled": "b0d9d86e7ca42580",
    "ideal": "3d19a94884f185a5",
    "ideal_reduced": "a0cc30b5919e5fd3",
    "sparse": "a93d6a18d22d13a7",
    "sparse_local": "d6ddc6d89acac246",
    "sparse_local_noisy": "7d6122cbe32c31ef",
    "sparse_local_noisy_reduced": "0d4717c00a093210",
}


class TestDefaults:
    def test_empty_config_is_the_dataclass_defaults(self):
        cfg = parse_config("")
        assert cfg.field == ls.FieldConfig()
        assert cfg.field.dt == 0.01
        assert cfg.schedule == ls.ActuationSchedule()
        assert cfg.policy == ls.ControlPolicy("constant", ls.SaturationSpec(0.075, 0.0075))
        assert (cfg.out_dir, cfg.threshold_g) == (".", None)

    def test_omitted_keys_keep_their_defaults(self):
        cfg = parse_config("[field]\nn_plants = 4\ngrid_rows = 2\ngrid_cols = 2\nb0 = 0.01\n")
        assert cfg.field == ls.FieldConfig(
            n_plants=4, grid_rows=2, grid_cols=2, s0=ls.PlantState(0.01, 0.001, 0.0001)
        )


class TestBuiltins:
    def test_names(self):
        assert builtin_config_names() == sorted(BUILTIN_DIGESTS)

    @pytest.mark.parametrize("name", sorted(BUILTIN_DIGESTS))
    def test_serialized_text_unchanged(self, name):
        cfg = load_config(f"builtin:{name}")
        assert cfg.name == name and cfg.out_dir == f"runs/{name}"
        digest = hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
        assert digest == BUILTIN_DIGESTS[name]

    def test_user_overrides_apply_on_top(self):
        cfg = load_config("builtin:sparse_local", ["schedule.interval_days=7.0", "scenario.name=x"])
        assert cfg.schedule.interval_days == 7.0
        assert cfg.policy.variant == "local"
        assert cfg.name == "x"


class TestSerialize:
    @pytest.mark.parametrize("label", ["temperature", "light"])
    def test_piecewise_environment_rejected(self, label):
        signals = {
            "temperature": PiecewiseConstantSignal.constant(22.0),
            "light": PiecewiseConstantSignal.constant(530.0),
        }
        signals[label] = PiecewiseConstantSignal((0.0, 10.0), (20.0, 25.0))
        cfg = load_config("builtin:uncontrolled")
        field = ls.FieldConfig(env=ls.EnvSchedule(**signals))
        with pytest.raises(ls.ConfigError, match=label):
            serialize_config(ls.ScenarioConfig(cfg.name, field, cfg.policy, cfg.schedule))

    def test_saturation_u_bar_apart_from_field_rejected(self):
        cfg = load_config("builtin:ideal")
        policy = dataclasses.replace(cfg.policy, saturation=ls.SaturationSpec(0.1, 0.01))
        with pytest.raises(ls.ConfigError, match=r"u_bar=0\.1\b.*u_bar=0\.075"):
            serialize_config(dataclasses.replace(cfg, policy=policy))


def _settable_paths(obj, prefix=""):
    """Dotted paths of every attribute a config can set, down to the env signals."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, PiecewiseConstantSignal):
            yield from _settable_paths(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_schema_sets_every_attribute_once():
    paths = [path for keys in _SCHEMA.values() for _, path in keys.values()]
    assert len(paths) == len(set(paths))
    # policy.saturation.u_bar is not a key of its own: it is always field.u_bar
    assert sorted(paths) == sorted(set(_settable_paths(parse_config(""))) - {"policy.saturation.u_bar"})


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def overridden_builtins(draw):
    """A builtin name plus a random valid subset of `section.key=value` overrides."""
    name = draw(st.sampled_from(sorted(BUILTIN_DIGESTS)))
    u_bar = draw(_floats(0.0, 1.0))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    candidates = {
        "scenario.seed": str(draw(st.integers(0, 2**31))),
        "scenario.name": draw(st.from_regex(r"[a-z][a-z0-9_]{0,12}", fullmatch=True)),
        "params.k_l": repr(draw(_floats(1e-6, 10.0))),
        "params.sigma_n": repr(draw(_floats(1e-3, 1e3))),
        "params.psi": repr(draw(_floats(0.01, 0.99))),
        "params.T_op": repr(draw(_floats(1.0, 40.0))),
        "field.perturbation_frac": repr(draw(_floats(0.0, 0.49))),
        "field.season_days": repr(draw(_floats(0.1, 100.0))),
        "field.dt": repr(draw(_floats(1e-4, 0.1))),
        "field.b0": repr(draw(_floats(1e-3, 1.0))),
        "field.c0": repr(draw(_floats(0.0, 1.0))),
        "field.n0": repr(draw(_floats(0.0, 1.0))),
        "field.rejection_percentile": repr(draw(_floats(0.0, 100.0))),
        "field.threshold_g": repr(draw(_floats(0.0, 100.0))),
        "env.T": repr(draw(_floats(0.0, 40.0))),
        "env.I": repr(draw(_floats(0.0, 1000.0))),
        "control.variant": draw(st.sampled_from(["constant", "global", "local"])),
        "control.gain": repr(draw(_floats(0.0, 1.0))),
        "control.noise_frac": repr(draw(_floats(0.0, 1.0))),
        "schedule.interval_days": repr(draw(_floats(0.01, 30.0))),
        "schedule.first_application_day": repr(draw(_floats(0.0, 30.0))),
        "output.out_dir": draw(st.from_regex(r"[a-z0-9_/]{1,12}", fullmatch=True)),
    }
    chosen = draw(st.lists(st.sampled_from(sorted(candidates)), unique=True))
    overrides = [f"{key}={candidates[key]}" for key in chosen]
    if draw(st.booleans()):
        overrides += [f"field.n_plants={rows * cols}", f"field.grid_rows={rows}", f"field.grid_cols={cols}"]
    if draw(st.booleans()):
        # u_range may not exceed u_bar, so the two are drawn together
        u_range = draw(_floats(0.0, u_bar))
        overrides += [f"field.u_bar={u_bar!r}", f"control.u_range={u_range!r}"]
    return name, overrides


@settings(max_examples=60, deadline=None)
@given(overridden_builtins())
def test_round_trip_property(case):
    name, overrides = case
    cfg = load_config(f"builtin:{name}", overrides)
    assert parse_config(serialize_config(cfg)) == cfg
