"""Desk-scale end-to-end experiment shared by the acceptance suite.

Builds a synthetic world around a two-state 2000 W kettle-like target
with two distractor appliances, trains a network on the 50:50
real/synthetic stream, disaggregates a held-out synthetic household,
and scores the estimate.
"""

from dataclasses import dataclass

import numpy as np

from disagg import architectures, datagen, metrics, sliding
from disagg.nn import NesterovSGD
from disagg.synthworld import DESK_APPLIANCES, make_household, make_library
from disagg.timeseries import ActivationParams, extract_activations
from disagg.util import rng_for

TARGET = "kettle"
MAX_POWER = 2400.0
ON_THRESHOLD = 1000.0
EXTRACT_PARAMS = ActivationParams(max_power=MAX_POWER, on_power_threshold=ON_THRESHOLD,
                                  min_on_duration=12, min_off_duration=0)
TRAIN_HOUSES = (1, 2)
TEST_HOUSE = 9


@dataclass
class DeskRun:
    f1: float
    proportion: float
    report: metrics.MetricsReport
    updates: int
    final_loss: float


def train_houses(seed, length=4000):
    """(aggregate, kettle activations) of each synthetic train household."""
    houses = []
    for house in TRAIN_HOUSES:
        aggregate, channels = make_household(DESK_APPLIANCES, length,
                                             rng_for(seed, "train-house", house))
        houses.append((aggregate, extract_activations(channels[TARGET], EXTRACT_PARAMS)))
    return houses


def held_out_household(seed, length=3000):
    return make_household(DESK_APPLIANCES, length, rng_for(seed, "test-house", TEST_HOUSE))


def run_desk_experiment(kind, width=32, updates=2000, batch_size=64,
                        learning_rate=0.01, stride=4, seed=33,
                        eval_length=3000) -> DeskRun:
    library = make_library(DESK_APPLIANCES, TRAIN_HOUSES, (TEST_HOUSE,), per_house=80,
                           rng=rng_for(seed, "library"))
    real, synth, spec = datagen.training_sources(train_houses(seed), library, TARGET, width,
                                                 MAX_POWER, 200, rng_for(seed, "std"))
    network = architectures.build_network(kind, width, rng_for(seed, "init", kind))
    stream = datagen.batch_stream(real, synth, spec, network.output_kind, batch_size,
                                  rng_for(seed, "batches"))
    optimizer = NesterovSGD(network.parameters(), learning_rate)
    result = architectures.train(network, stream, optimizer, updates)

    aggregate, channels = held_out_household(seed, eval_length)
    estimate = sliding.disaggregate(network, aggregate, spec,
                                    sliding.DisaggConfig(stride=stride), ON_THRESHOLD)
    report = metrics.metrics_report(estimate.series.values, channels[TARGET].values,
                                    aggregate.values, ON_THRESHOLD)
    return DeskRun(f1=report.f1, proportion=report.proportion_energy_correct,
                   report=report, updates=updates,
                   final_loss=result.smoothed[-1] if result.smoothed else float("nan"))
