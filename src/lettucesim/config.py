"""Scenario configuration files.

One flat INI-style file fully determines a scenario: plant parameters,
field layout and season, environment constants, control policy, and the
actuation schedule. Unknown sections or keys are errors so typos fail
loudly, and serialize/parse round-trips to an equal configuration.
"""

from __future__ import annotations

import configparser
import io
from collections import defaultdict
from dataclasses import dataclass, replace
from operator import attrgetter

from .control import ActuationSchedule, ControlPolicy, SaturationSpec
from .field import (
    ConfigError,
    DEFAULT_INITIAL_STATE,
    DEFAULT_LIGHT,
    DEFAULT_TEMPERATURE,
    DEFAULT_U_RANGE,
    DEFAULT_VARIANT,
    FieldConfig,
)
from .integrator import EnvSchedule, PiecewiseConstantSignal
from .model import NOMINAL_PARAMS, PARAM_NAMES

BUILTIN_PREFIX = "builtin:"
_DEFAULT_NAME = "scenario"

# Each builtin scenario is the library defaults (an empty config) plus these
# overrides; load_config adds the scenario name and a runs/<name> output
# directory from the key.
_BUILTINS = {
    # Uniform-rate baseline: every plant gets the same dose every day.
    "uncontrolled": (),
    # Daily proportional feedback on the deviation from the field mean.
    "ideal": ("control.variant=global",),
    # Daily proportional feedback with the baseline dose cut to 0.073 g.
    "ideal_reduced": ("control.variant=global", "field.u_bar=0.073"),
    # Proportional feedback with observation/actuation only every 14 days.
    "sparse": ("control.variant=global", "schedule.interval_days=14.0"),
    # 14-day feedback using each plant's grid neighborhood instead of the field mean.
    "sparse_local": ("control.variant=local", "schedule.interval_days=14.0"),
    # 14-day neighborhood feedback with 10% multiplicative observation noise.
    "sparse_local_noisy": (
        "control.variant=local", "schedule.interval_days=14.0", "control.noise_frac=0.1",
    ),
    # Noisy sparse neighborhood feedback at the reduced 0.073 g baseline dose.
    "sparse_local_noisy_reduced": (
        "control.variant=local", "schedule.interval_days=14.0", "control.noise_frac=0.1",
        "field.u_bar=0.073",
    ),
}

# Every section and key a config may hold: the type its value parses to and
# the ScenarioConfig attribute it sets. parse_config and serialize_config
# both read this table; policy.saturation.u_bar is always field.u_bar.
_SCHEMA = {
    "scenario": {"name": (str, "name"), "seed": (int, "field.seed")},
    "params": {name: (float, f"field.nominal_params.{name}") for name in PARAM_NAMES},
    "field": {
        "n_plants": (int, "field.n_plants"),
        "grid_rows": (int, "field.grid_rows"),
        "grid_cols": (int, "field.grid_cols"),
        "perturbation_frac": (float, "field.perturbation_frac"),
        "season_days": (float, "field.season_days"),
        "dt": (float, "field.dt"),
        "b0": (float, "field.s0.b"),
        "c0": (float, "field.s0.c"),
        "n0": (float, "field.s0.n"),
        "u_bar": (float, "field.u_bar"),
        "rejection_percentile": (float, "field.rejection_percentile"),
        "threshold_g": (float, "threshold_g"),
    },
    "env": {"T": (float, "field.env.temperature"), "I": (float, "field.env.light")},
    "control": {
        "variant": (str, "policy.variant"),
        "gain": (float, "policy.gain"),
        "u_range": (float, "policy.saturation.u_range"),
        "noise_frac": (float, "policy.noise_frac"),
    },
    "schedule": {
        "interval_days": (float, "schedule.interval_days"),
        "first_application_day": (float, "schedule.first_application_day"),
    },
    "output": {"out_dir": (str, "out_dir")},
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario: field setup plus policy, schedule, and output hints."""

    name: str
    field: FieldConfig
    policy: ControlPolicy
    schedule: ActuationSchedule
    out_dir: str = "."
    threshold_g: float = None


def _parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case (T_op, I)
    return parser


def _read(text: str) -> configparser.ConfigParser:
    parser = _parser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return parser


def parse_config(text: str) -> ScenarioConfig:
    """Parse scenario text, validating every section and key.

    Only the keys present in the text are passed on; every omitted value
    comes from the dataclass defaults, NOMINAL_PARAMS,
    DEFAULT_INITIAL_STATE and the field module's DEFAULT_* constants.
    """
    parser = _read(text)
    attrs = defaultdict(dict)  # dotted path of a dataclass -> {attribute: parsed value}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            kind, path = _SCHEMA[section][key]
            owner, _, attr = path.rpartition(".")
            try:
                attrs[owner][attr] = kind(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc

    top, env, control = attrs[""], attrs["field.env"], attrs["policy"]
    try:
        field = FieldConfig(
            nominal_params=replace(NOMINAL_PARAMS, **attrs["field.nominal_params"]),
            s0=replace(DEFAULT_INITIAL_STATE, **attrs["field.s0"]),
            env=EnvSchedule.constant(env.get("temperature", DEFAULT_TEMPERATURE), env.get("light", DEFAULT_LIGHT)),
            **attrs["field"],
        )
        policy = ControlPolicy(
            variant=control.pop("variant", DEFAULT_VARIANT),
            saturation=SaturationSpec(
                u_bar=field.u_bar, u_range=attrs["policy.saturation"].get("u_range", DEFAULT_U_RANGE)
            ),
            **control,
        )
        schedule = ActuationSchedule(**attrs["schedule"])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return ScenarioConfig(
        name=top.pop("name", _DEFAULT_NAME), field=field, policy=policy, schedule=schedule, **top
    )


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config back to text; parsing the result gives an equal config."""
    if cfg.policy.saturation.u_bar != cfg.field.u_bar:
        raise ConfigError(
            f"cannot serialize policy.saturation.u_bar={cfg.policy.saturation.u_bar!r}: a config holds "
            f"one baseline dose, field.u_bar={cfg.field.u_bar!r}"
        )
    parser = _parser()
    for section, keys in _SCHEMA.items():
        parser[section] = {}
        for key, (kind, path) in keys.items():
            value = attrgetter(path)(cfg)
            if isinstance(value, PiecewiseConstantSignal):
                if value != PiecewiseConstantSignal.constant(value.values[0]):
                    raise ConfigError(
                        f"cannot serialize the {path.rpartition('.')[2]} signal: a config holds one "
                        f"constant from day 0, got breakpoints {value.breakpoints}"
                    )
                value = value.values[0]
            if value is not None:  # threshold_g
                parser[section][key] = repr(float(value)) if kind is float else str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def apply_overrides(text: str, overrides) -> str:
    """Apply `section.key=value` overrides to raw config text."""
    parser = _read(text)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override key must be section.key, got {target!r}")
        section, key = target.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override target {target!r}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def load_config(path: str, overrides=()) -> ScenarioConfig:
    """Load a config from a file path or a builtin (``builtin:ideal``)."""
    if str(path).startswith(BUILTIN_PREFIX):
        name = str(path)[len(BUILTIN_PREFIX):]
        if name not in _BUILTINS:
            raise ConfigError(f"no builtin config named {name!r}")
        text = apply_overrides("", [*_BUILTINS[name], f"scenario.name={name}", f"output.out_dir=runs/{name}"])
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if overrides:
        text = apply_overrides(text, overrides)
    return parse_config(text)


def builtin_config_names() -> list:
    return sorted(_BUILTINS)


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(cfg, field=replace(cfg.field, seed=seed))
