"""The benchmark's two workloads: their houses, config and command list.

Each workload is a pure function of its seed.  The houses are written
with `synthworld.write_world`; the config is plain JSON in the layout
`disagg.config` reads.  Commands are listed in pipeline order; each one
is one operation of the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

TARGET = "kettle"
TEST_HOUSE = 2
# Seed of the program's own random streams (weight init, batch draws).  The
# benchmark seed varies the houses; training randomness stays fixed so the
# batch mix behind each loss-log check is the same in every run.
TRAIN_SEED = 0
WIDTH = 128

# Command groups, in the order the end-to-end metrics report them.
GROUPS = ("extract", "train", "disaggregate", "baselines", "evaluate")
END_TO_END = ("setup_s", *(f"{g}_s" for g in GROUPS), "pipeline_s",
              *(f"{g}_peak_rss_mb" for g in GROUPS))


@dataclass(frozen=True)
class Op:
    """One CLI command of a round: its group, argv tail and what it makes."""

    group: str
    argv: tuple[str, ...]
    kind: str | None = None      # network kind (train / disaggregate --kind)
    algo: str | None = None      # estimate name written (disaggregate)
    repeat: int = 0              # which pass of a repeated group

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def tag(self) -> str:
        """Span tag: the command plus the kind or baseline it ran."""
        suffix = self.kind or self.algo
        return f"{self.command}:{suffix}" if suffix else self.command


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    appliances: tuple           # synthworld.SynthAppliance shapes, config order
    house_lengths: dict         # house -> samples; TEST_HOUSE is the test house
    appliance_config: tuple     # config "appliances" entries, same order
    architectures: dict         # config "architectures"
    stride: int
    std_sample_count: int
    kinds: tuple[str, ...]      # networks trained and disaggregated, in order
    repeats: int = 1            # passes of the extract, baselines and evaluate
                                # groups per round (they are short)

    def config(self) -> dict:
        return {
            "version": 1,
            "seed": TRAIN_SEED,
            "profile": "paper",
            "paths": {"data_dir": "data", "out_dir": "out"},
            "sample_period": 6,
            "std_sample_count": self.std_sample_count,
            "appliances": [dict(entry, train_houses=self.train_houses(),
                                test_houses=[TEST_HOUSE])
                           for entry in self.appliance_config],
            "architectures": self.architectures,
            "disagg": {"stride": self.stride, "probability_threshold": 0.5},
        }

    def ops(self) -> list[Op]:
        app = ("--appliance", TARGET)
        passes = range(self.repeats)
        ops = [Op("extract", ("extract",), repeat=r) for r in passes]
        ops += [Op("train", ("train", *app, "--kind", k), kind=k) for k in self.kinds]
        ops += [Op("disaggregate", ("disaggregate", *app, "--kind", k), kind=k, algo=k)
                for k in self.kinds]
        ops += [Op("baselines", ("disaggregate", *app, "--baseline", b), algo=b, repeat=r)
                for r in passes for b in ("co", "fhmm")]
        ops += [op for r in passes for op in (Op("evaluate", ("evaluate", *app), repeat=r),
                                              Op("evaluate", ("report",), repeat=r))]
        return ops

    def train_houses(self) -> list[int]:
        return sorted(h for h in self.house_lengths if h != TEST_HOUSE)

    def algorithms(self) -> list[str]:
        return sorted(self.kinds + ("co", "fhmm"))


def _appliance(name, max_power, on, min_on, min_off, states):
    return {"name": name, "max_power": max_power, "on_power_threshold": on,
            "min_on_duration": min_on, "min_off_duration": min_off,
            "window_width": WIDTH, "state_count": states}


# Extraction settings for the three desk appliances (kettle, microwave,
# fridge of `synthworld.DESK_APPLIANCES`), in that order.
_DESK_CONFIG = (
    _appliance("kettle", 2400, 1000, 12, 0, 2),
    _appliance("microwave", 1500, 400, 12, 0, 2),
    _appliance("fridge", 500, 150, 30, 12, 2),
)


def _workloads():
    # disagg is imported on use: it loads NumPy.
    from disagg.synthworld import DESK_APPLIANCES, SynthAppliance

    # Two long-running three-state loads: the FHMM then decodes
    # 2*2*2*3*3 = 72 joint states.
    extra = (
        SynthAppliance("heater", power=1200.0, power_jitter=150.0,
                       min_samples=20, max_samples=60, mean_gap=400),
        SynthAppliance("pump", power=150.0, power_jitter=30.0,
                       min_samples=30, max_samples=80, mean_gap=250),
    )
    extra_config = (
        _appliance("heater", 2000, 600, 60, 12, 3),
        _appliance("pump", 400, 60, 60, 30, 3),
    )
    long_house = Workload(
        name="long-house",
        why="long houses and a 72-state FHMM: ingest, batch production, sliding "
            "and baselines do the work, network compute stays small",
        appliances=DESK_APPLIANCES + extra,
        house_lengths={1: 100_000, TEST_HOUSE: 100_000},
        appliance_config=_DESK_CONFIG + extra_config,
        architectures={"dae": {"update_budget": 30, "batch_size": 64,
                               "learning_rate": 0.01}},
        stride=16,
        std_sample_count=400,
        kinds=("dae",),
    )
    paper_nets = Workload(
        name="paper-nets",
        why="all three nets at paper width and batch size on short houses: "
            "forward/backward, optimizer, checkpoints and inference do the work",
        appliances=DESK_APPLIANCES,
        # Five short train houses: ingest work without slowing the real-window
        # draws, which scan one house each.
        house_lengths={1: 8_000, TEST_HOUSE: 16_000, 3: 8_000, 4: 8_000, 5: 8_000,
                       6: 8_000},
        appliance_config=_DESK_CONFIG,
        architectures={
            "rectangles": {"update_budget": 6, "batch_size": 64, "learning_rate": 0.001},
            "lstm": {"update_budget": 8, "batch_size": 16, "learning_rate": 0.01},
            "dae": {"update_budget": 60, "batch_size": 64, "learning_rate": 0.01},
        },
        stride=96,
        std_sample_count=200,
        kinds=("rectangles", "lstm", "dae"),
        repeats=2,
    )
    return {w.name: w for w in (long_house, paper_nets)}


def get(name: str) -> Workload:
    workloads = _workloads()
    if name not in workloads:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(workloads)}")
    return workloads[name]


def write_inputs(workload: Workload, directory, seed: int):
    """Write the workload's houses and config under `directory`."""
    from disagg.synthworld import write_world

    directory = Path(directory)
    for house, length in workload.house_lengths.items():
        write_world(directory / "data", houses=(house,), length=length, seed=seed,
                    appliances=workload.appliances)
    (directory / "config.json").write_text(json.dumps(workload.config(), indent=1))
