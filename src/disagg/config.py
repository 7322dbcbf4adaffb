"""Experiment configuration: a versioned JSON schema with fail-fast
validation (unknown keys are errors) so every run is reproducible from
the config file alone: the seed and the profile are set there and
nowhere else.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .architectures import BATCH_SIZES, KINDS, UPDATE_BUDGETS, DEFAULT_LEARNING_RATE
from .errors import ConfigError, DataError
from .sliding import DisaggConfig
from .timeseries import DEFAULT_MAX_FORWARD_FILL, DEFAULT_SAMPLE_PERIOD, ActivationParams
from .util import is_number

CONFIG_VERSION = 1

# Full-scale defaults per appliance, each overridable in the config:
# (extraction arguments, window width, baseline state count).
# - Extraction arguments: max power (W), on-power threshold (W), min on
#   duration (s), min off duration (s).
# - Kettle/fridge/dish-washer widths are fixed by the training recipe;
#   washing machine and microwave are sized to hold their minimum on
#   durations with margin.
# - State counts: the two-state vs multi-state appliance split for the
#   baselines.
APPLIANCE_DEFAULTS = {
    "kettle": (ActivationParams(3100, 2000, 12, 0), 128, 2),
    "fridge": (ActivationParams(300, 50, 60, 12), 512, 2),
    "washing machine": (ActivationParams(2500, 20, 1800, 160), 1024, 3),
    "microwave": (ActivationParams(3000, 200, 12, 30), 288, 2),
    "dish washer": (ActivationParams(2500, 10, 1800, 1800), 1536, 3),
}

DEFAULT_STD_SAMPLE_COUNT = 1000

# Desk profile divisors (applied to update budgets and window widths).
DESK_BUDGET_DIVISOR = 100
DESK_WINDOW_DIVISOR = 4
DESK_MIN_WINDOW = 16


@dataclass(frozen=True)
class ApplianceConfig:
    """One appliance's settings; `window_width` has the profile applied."""

    name: str
    activation_params: ActivationParams
    window_width: int
    train_houses: tuple[int, ...]
    test_houses: tuple[int, ...]
    state_count: int


@dataclass(frozen=True)
class ArchRunConfig:
    """One architecture's recipe; `update_budget` has the profile applied."""

    update_budget: int
    batch_size: int
    learning_rate: float


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    profile: str
    data_dir: Path
    out_dir: Path
    sample_period: int
    max_forward_fill: float
    std_sample_count: int
    appliances: dict[str, ApplianceConfig]
    architectures: dict[str, ArchRunConfig]
    disagg: DisaggConfig
    raw: dict = field(default_factory=dict, compare=False, repr=False)

    def appliance(self, name: str) -> ApplianceConfig:
        if name not in self.appliances:
            raise ConfigError(f"appliance {name!r} not in config "
                              f"(have {sorted(self.appliances)})")
        return self.appliances[name]


def _take(mapping: dict, context: str, known: dict):
    """Pop known keys with defaults; reject anything unexpected."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(mapping) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")
    return {k: mapping.get(k, default) for k, default in known.items()}


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{path}: cannot read config: {exc.strerror}") from None
    except ValueError as exc:  # also a file that is not UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(raw, base_dir=path.parent)


def parse_config(raw: dict, base_dir=Path(".")) -> ExperimentConfig:
    top = _take(raw, "config", {
        "version": None, "seed": None, "profile": "paper", "paths": {},
        "sample_period": DEFAULT_SAMPLE_PERIOD, "max_forward_fill": DEFAULT_MAX_FORWARD_FILL,
        "std_sample_count": DEFAULT_STD_SAMPLE_COUNT,
        "appliances": None, "architectures": {}, "disagg": {},
    })
    if top["version"] != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}, got {top['version']}")
    if top["seed"] is None:
        raise ConfigError("config must set a seed (reproducibility is mandatory)")
    seed = _checked("seed", top["seed"], int)
    profile = top["profile"]
    if profile not in ("paper", "desk"):
        raise ConfigError(f"profile must be 'paper' or 'desk', got {profile!r}")

    paths = _take(top["paths"], "paths", {"data_dir": None, "out_dir": None})
    if not all(paths[key] and isinstance(paths[key], str) for key in paths):
        raise ConfigError("paths.data_dir and paths.out_dir are required, as strings")
    data_dir = (base_dir / paths["data_dir"]).resolve()
    out_dir = (base_dir / paths["out_dir"]).resolve()
    if not data_dir.exists():
        raise ConfigError(f"data_dir {data_dir} does not exist")

    if not top["appliances"] or not isinstance(top["appliances"], list):
        raise ConfigError("config must list at least one appliance")
    appliances = {}
    for entry in top["appliances"]:
        app = _parse_appliance(entry, profile)
        if app.name in appliances:
            raise ConfigError(f"appliance {app.name!r} listed twice")
        appliances[app.name] = app

    arch_raw = _take(top["architectures"], "architectures",
                     {kind: {} for kind in KINDS})
    architectures = {}
    for kind in KINDS:
        context = f"architectures.{kind}"
        entry = _take(arch_raw[kind] or {}, context, {
            "update_budget": UPDATE_BUDGETS[kind],
            "batch_size": BATCH_SIZES[kind],
            "learning_rate": DEFAULT_LEARNING_RATE,
        })
        budget = _checked(f"{context}.update_budget", entry["update_budget"], int)
        if profile == "desk":
            budget = max(1, math.ceil(budget / DESK_BUDGET_DIVISOR))
        architectures[kind] = ArchRunConfig(
            update_budget=budget,
            batch_size=_checked(f"{context}.batch_size", entry["batch_size"], int, minimum=2),
            learning_rate=_checked(f"{context}.learning_rate", entry["learning_rate"], float))

    disagg = DisaggConfig(**_take(top["disagg"], "disagg", asdict(DisaggConfig())))
    for app in appliances.values():
        if disagg.stride > app.window_width:
            raise ConfigError(f"disagg.stride {disagg.stride} exceeds appliance "
                              f"{app.name!r}'s window width {app.window_width}")

    return ExperimentConfig(
        seed=seed, profile=profile, data_dir=data_dir, out_dir=out_dir,
        sample_period=_checked("sample_period", top["sample_period"], int, minimum=1),
        max_forward_fill=float(_checked("max_forward_fill", top["max_forward_fill"], float)),
        std_sample_count=_checked("std_sample_count", top["std_sample_count"], int,
                                  minimum=1),
        appliances=appliances, architectures=architectures, disagg=disagg,
        raw=raw,
    )


def _parse_appliance(entry: dict, profile: str) -> ApplianceConfig:
    if not isinstance(entry, dict):
        raise ConfigError(f"appliance entry must be a JSON object, got {entry!r}")
    fields = _take(entry, f"appliance {entry.get('name', '?')!r}", {
        "name": None, "max_power": None, "on_power_threshold": None,
        "min_on_duration": None, "min_off_duration": None,
        "window_width": None, "train_houses": None, "test_houses": None,
        "state_count": None,
    })
    name = fields["name"]
    if not name or not isinstance(name, str):
        raise ConfigError("appliance entry missing 'name'")
    defaults, default_width, default_states = APPLIANCE_DEFAULTS.get(name, (None, None, 2))

    def pick(key, table_default, kind, minimum=0):
        value = fields[key] if fields[key] is not None else table_default
        if value is None:
            raise ConfigError(f"appliance {name!r}: {key} required (no default known)")
        return _checked(f"appliance {name!r}: {key}", value, kind, minimum)

    try:
        params = ActivationParams(**{
            key: float(pick(key, getattr(defaults, key, None), float))
            for key in ("max_power", "on_power_threshold", "min_on_duration",
                        "min_off_duration")})
    except DataError as exc:  # an on-power threshold above the maximum power
        raise ConfigError(f"appliance {name!r}: {exc}") from None
    window_width = pick("window_width", default_width, int, minimum=1)
    if profile == "desk":
        window_width = max(DESK_MIN_WINDOW, window_width // DESK_WINDOW_DIVISOR)
    state_count = pick("state_count", default_states, int, minimum=2)
    train_houses = _checked(f"appliance {name!r}: train_houses",
                            fields["train_houses"] or [], tuple)
    test_houses = _checked(f"appliance {name!r}: test_houses",
                           fields["test_houses"] or [], tuple)
    if not train_houses:
        raise ConfigError(f"appliance {name!r}: train_houses required")
    overlap = set(train_houses) & set(test_houses)
    if overlap:
        raise ConfigError(
            f"appliance {name!r}: houses {sorted(overlap)} assigned to both train and test")
    return ApplianceConfig(name=name, activation_params=params, window_width=window_width,
                           train_houses=train_houses, test_houses=test_houses,
                           state_count=state_count)


def _checked(key: str, value, kind, minimum=0):
    """`value` if it is a JSON integer (kind int), a finite JSON number
    (kind float) or a list of distinct house numbers (kind tuple, returned
    as a tuple), none below `minimum`; otherwise a ConfigError naming `key`."""
    if kind is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list of house numbers, got {value!r}")
        houses = tuple(_checked(key, house, int) for house in value)
        if len(set(houses)) < len(houses):
            raise ConfigError(f"{key} must list each house once, got {value!r}")
        return houses
    if not is_number(value, kind is int) or value < minimum:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun} >= {minimum}, got {value!r}")
    return value
