"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps program
functions by the name their callers look them up by, and some of its
counters read what those functions return.  A rename in the program, or
a trimmed return value, must fail here, not only in a traced run."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from disagg import architectures, sliding
from disagg.datagen import Batch, WindowSpec
from disagg.nn import NesterovSGD
from disagg.timeseries import PowerSeries

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def counters(spans):
    """Every counter of the traced table, by metric name."""
    table, _ = spans._patches()
    return {name: count for *_, named, _ in table for name, count in named.items()}


def test_every_traced_function_is_an_attribute_of_its_owner(spans):
    table, datagen = spans._patches()
    # Tracer.install looks each one up as owner.__dict__[attr].
    missing = [(owner.__name__, attr) for owner, attr, *_ in table
               if attr not in owner.__dict__]
    assert not missing
    assert "prefetch" in datagen.__dict__


def test_train_updates_counter_reads_a_real_result(counters, rng):
    net = architectures.build_dae(16, rng, conv_filters=2, code_units=4)
    batch = Batch(inputs=rng.normal(size=(4, 16)), targets=rng.uniform(size=(4, 10)))
    args = (net, itertools.repeat(batch), NesterovSGD(net.parameters(), 0.01), 2)
    assert counters["architectures.train.updates"](args, architectures.train(*args)) == 2


def test_slide_windows_counter_reads_a_real_result(counters, rng, monkeypatch):
    # `disaggregate` calls `slide` once per block; the counter summed over
    # those calls is the number of windows of the whole series.
    width, total, stride = 16, 600, 4
    net = architectures.build_dae(width, rng, conv_filters=2, code_units=4)
    counted = []
    slide = sliding.slide

    def traced(*args):
        result = slide(*args)
        counted.append(counters["sliding.slide.windows"](args, result))
        return result

    monkeypatch.setattr(sliding, "slide", traced)
    sliding.disaggregate(net, PowerSeries(0, 6, rng.uniform(0, 100, size=total)),
                         WindowSpec(width, 2400.0, 100.0),
                         sliding.DisaggConfig(stride=stride), 1000.0)
    assert len(counted) > 1
    assert sum(counted) == (total + width) // stride + 1  # origins -width, ..., total


def test_build_network_params_counter_reads_a_real_result(counters):
    args = ("dae", 16, np.random.default_rng(0))
    net = architectures.build_network(*args)
    params = sum(value.size for value in net.parameters().values())
    assert counters["architectures.build_network.params"](args, net) == params
