"""Desk-scale synthetic world generation.

Full-scale training needs weeks of sub-metered recordings; the desk
profile substitutes a small simulated household with a two-state
"kettle-like" target appliance and a couple of distractors.  The same
generator feeds the acceptance experiment and the CLI smoke tests, and
can write a house's channels out as CSVs in the layout the CLI ingests
(``<data_dir>/house_<n>/<channel>.csv``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .timeseries import DEFAULT_SAMPLE_PERIOD, Activation, PowerSeries, write_rows
from .util import channel_slug

START_TIME = 0.0      # seconds; every simulated series starts here
VAMPIRE_WATTS = 35.0  # always-on load in every aggregate
NOISE_STD = 4.0       # watts; scale of the aggregate's non-negative noise floor


@dataclass(frozen=True)
class SynthAppliance:
    """Shape of one simulated appliance's activations."""

    name: str
    power: float          # plateau level, watts
    power_jitter: float   # per-activation level wobble, watts
    min_samples: int
    max_samples: int
    mean_gap: int         # mean samples between activations in long series


# The acceptance world: a 2000 W kettle-like target that runs 3-5
# samples, plus two distractors at clearly different levels/durations.
DESK_APPLIANCES = (
    SynthAppliance("kettle", power=2000.0, power_jitter=60.0,
                   min_samples=3, max_samples=5, mean_gap=60),
    SynthAppliance("microwave", power=800.0, power_jitter=60.0,
                   min_samples=8, max_samples=16, mean_gap=90),
    SynthAppliance("fridge", power=350.0, power_jitter=20.0,
                   min_samples=10, max_samples=22, mean_gap=70),
)


def make_activation(spec: SynthAppliance, rng, house: int | None = None,
                    source_offset: int = 0) -> Activation:
    length = int(rng.integers(spec.min_samples, spec.max_samples + 1))
    level = spec.power + rng.uniform(-spec.power_jitter, spec.power_jitter)
    values = level + rng.normal(scale=0.01 * spec.power, size=length)
    return Activation(source_offset=source_offset, values=np.maximum(values, 0.0),
                      house=house)


def make_library(appliances, train_houses, test_houses, per_house: int,
                 rng) -> dict[str, tuple[Activation, ...]]:
    """Freshly drawn train-house activations: {appliance: tuple}, houses in order."""
    library = {}
    for spec in appliances:
        library[spec.name] = tuple(make_activation(spec, rng, house=house)
                                   for house in train_houses for _ in range(per_house))
        # Test-house activations never train, but they are still drawn and
        # dropped, so the next appliance's draws from `rng` (and with them
        # the acceptance experiment's training data) stay the same.
        for _ in range(per_house * len(test_houses)):
            make_activation(spec, rng)
    return library


def make_household(appliances, length: int, rng):
    """Simulate one household: per-appliance channels plus their aggregate.

    Each appliance runs on its own renewal process (uniform gaps around
    its mean).  The aggregate is the channel sum plus an always-on
    vampire load and a small non-negative noise floor.

    Returns (aggregate PowerSeries, {name: channel PowerSeries}).
    """
    channels = {}
    for spec in appliances:
        channel = np.zeros(length)
        cursor = int(rng.integers(0, spec.mean_gap))
        while cursor < length:
            act = make_activation(spec, rng)
            end = min(length, cursor + len(act))
            channel[cursor:end] = act.values[: end - cursor]
            gap = int(rng.uniform(0.5, 1.5) * spec.mean_gap)
            cursor = end + max(1, gap)
        channels[spec.name] = PowerSeries(START_TIME, DEFAULT_SAMPLE_PERIOD, channel)

    total = sum(c.values for c in channels.values())
    total = total + VAMPIRE_WATTS + np.abs(rng.normal(scale=NOISE_STD, size=length))
    aggregate = PowerSeries(START_TIME, DEFAULT_SAMPLE_PERIOD, total)
    return aggregate, channels


def write_world(data_dir, houses, length: int, seed: int, appliances=DESK_APPLIANCES):
    """Write per-house channel CSVs for the CLI: aggregate + one per appliance."""
    data_dir = Path(data_dir)
    for house in houses:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(house,)))
        aggregate, channels = make_household(appliances, length, rng)
        house_dir = data_dir / f"house_{house}"
        house_dir.mkdir(parents=True, exist_ok=True)
        for name, series in {"aggregate": aggregate, **channels}.items():
            write_rows(house_dir / f"{channel_slug(name)}.csv", ("timestamp", "watts"), series)
