"""Scenario configuration files.

One flat INI-style file fully determines a scenario: plant parameters,
field layout and season, environment constants, control policy, and the
actuation schedule. Unknown sections or keys are errors so typos fail
loudly, and serialize/parse round-trips to an equal configuration.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace
from importlib import resources

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
_BASE_CONFIG = "configs/uncontrolled.cfg"
_DEFAULT_NAME = "scenario"

# Each builtin scenario is the base file plus these overrides; load_config
# adds the scenario name and a runs/<name> output directory from the key.
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

# Every section and key a config may hold, with the type its value parses to.
_SCHEMA = {
    "scenario": {"name": str, "seed": int},
    "params": dict.fromkeys(PARAM_NAMES, float),
    "field": {
        "n_plants": int,
        "grid_rows": int,
        "grid_cols": int,
        "perturbation_frac": float,
        "season_days": float,
        "dt": float,
        "b0": float,
        "c0": float,
        "n0": float,
        "u_bar": float,
        "rejection_percentile": float,
        "threshold_g": float,
    },
    "env": {"T": float, "I": float},
    "control": {"variant": str, "gain": float, "u_range": float, "noise_frac": float},
    "schedule": {"interval_days": float, "first_application_day": float},
    "output": {"out_dir": str},
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
    values = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc

    scenario, field, env, control = (values[s] for s in ("scenario", "field", "env", "control"))
    extras = dict(values["output"])
    if "threshold_g" in field:
        extras["threshold_g"] = field.pop("threshold_g")
    state = {key[0]: field.pop(key) for key in ("b0", "c0", "n0") if key in field}  # PlantState b, c, n
    if "seed" in scenario:
        field["seed"] = scenario["seed"]
    try:
        field_cfg = FieldConfig(
            nominal_params=replace(NOMINAL_PARAMS, **values["params"]),
            s0=replace(DEFAULT_INITIAL_STATE, **state),
            env=EnvSchedule.constant(env.get("T", DEFAULT_TEMPERATURE), env.get("I", DEFAULT_LIGHT)),
            **field,
        )
        policy = ControlPolicy(
            variant=control.pop("variant", DEFAULT_VARIANT),
            saturation=SaturationSpec(
                u_bar=field_cfg.u_bar, u_range=control.pop("u_range", DEFAULT_U_RANGE)
            ),
            **control,
        )
        schedule = ActuationSchedule(**values["schedule"])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return ScenarioConfig(
        name=scenario.get("name", _DEFAULT_NAME),
        field=field_cfg,
        policy=policy,
        schedule=schedule,
        **extras,
    )


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config back to text; parsing the result gives an equal config."""
    parser = _parser()
    parser["scenario"] = {"name": cfg.name, "seed": str(cfg.field.seed)}
    parser["params"] = {
        name: repr(float(getattr(cfg.field.nominal_params, name))) for name in PARAM_NAMES
    }
    field_section = {
        "n_plants": str(cfg.field.n_plants),
        "grid_rows": str(cfg.field.grid_rows),
        "grid_cols": str(cfg.field.grid_cols),
        "perturbation_frac": repr(cfg.field.perturbation_frac),
        "season_days": repr(cfg.field.season_days),
        "dt": repr(cfg.field.dt),
        "b0": repr(cfg.field.s0.b),
        "c0": repr(cfg.field.s0.c),
        "n0": repr(cfg.field.s0.n),
        "u_bar": repr(cfg.field.u_bar),
        "rejection_percentile": repr(cfg.field.rejection_percentile),
    }
    if cfg.threshold_g is not None:
        field_section["threshold_g"] = repr(cfg.threshold_g)
    parser["field"] = field_section
    env = {}
    for key, label in (("T", "temperature"), ("I", "light")):
        signal = getattr(cfg.field.env, label)
        if signal != PiecewiseConstantSignal.constant(signal.values[0]):
            raise ConfigError(
                f"cannot serialize the {label} signal: a config holds one constant from day 0, "
                f"got breakpoints {signal.breakpoints}"
            )
        env[key] = repr(signal.values[0])
    parser["env"] = env
    parser["control"] = {
        "variant": cfg.policy.variant,
        "gain": repr(cfg.policy.gain),
        "u_range": repr(cfg.policy.saturation.u_range),
        "noise_frac": repr(cfg.policy.noise_frac),
    }
    parser["schedule"] = {
        "interval_days": repr(cfg.schedule.interval_days),
        "first_application_day": repr(cfg.schedule.first_application_day),
    }
    parser["output"] = {"out_dir": cfg.out_dir}
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
        text = apply_overrides(
            resources.files("lettucesim").joinpath(_BASE_CONFIG).read_text(),
            [*_BUILTINS[name], f"scenario.name={name}", f"output.out_dir=runs/{name}"],
        )
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
