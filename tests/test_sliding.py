import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from disagg import architectures, blas, sliding
from disagg.datagen import RectangleTriple, WindowSpec
from disagg.errors import ConfigError
from disagg.nn import layers
from disagg.sliding import (SLIDE_BATCH, DisaggConfig, MeanSums, RectangleSums, WindowOutputs,
                            combine_mean, combine_rectangles, disaggregate)
from disagg.timeseries import PowerSeries


class OracleNetwork:
    """Duck-typed 'network' that emits the true scaled target for each
    window slide() will request, in slide order."""

    output_kind = "sequence"
    output_offset = 0
    runs_own_lanes = True

    def __init__(self, target_values, width, stride, max_power):
        padded = np.concatenate([np.zeros(width), target_values, np.zeros(width)])
        starts = np.arange(0, len(padded) - width + 1, stride)
        self.queue = [padded[s : s + width] / max_power for s in starts]
        self.cursor = 0

    def forward(self, x):
        batch = np.stack(self.queue[self.cursor : self.cursor + len(x)])
        self.cursor += len(x)
        return batch


class ConstantNetwork:
    output_kind = "sequence"
    output_offset = 0
    runs_own_lanes = True

    def __init__(self, value, width, max_power):
        self.value = value / max_power
        self.width = width

    def forward(self, x):
        return np.full((len(x), self.width), self.value)


class LaneConstantNetwork(ConstantNetwork):
    """A ConstantNetwork that states it runs no lanes of its own, so its
    blocks may run in pairs where the lane gate opens."""

    runs_own_lanes = False

    def parameter_count(self):
        return 1


def spec_for(width, max_power=2048.0):
    return WindowSpec(width, max_power, input_std=100.0)


def slid_origins(monkeypatch):
    """The origins of each block `disaggregate` slides from now on, one
    array per block in the order the blocks reach the running sums,
    whichever lane slid them."""
    blocks = []
    for name in ("combine_mean", "combine_rectangles"):
        def recording(window_outputs, sums, combine=getattr(sliding, name)):
            blocks.append(window_outputs.origins)
            combine(window_outputs, sums)

        monkeypatch.setattr(sliding, name, recording)
    return blocks


def worker_slides(monkeypatch):
    """The `sliding.slide` calls run from now on on the lane worker, one
    entry each: the block-pair jobs."""
    calls = []
    slide = sliding.slide

    def recording(*args):
        if threading.current_thread().name.startswith("disagg-lane"):
            calls.append(args[3])
        return slide(*args)

    monkeypatch.setattr(sliding, "slide", recording)
    return calls


class TestSlide:
    def test_zero_aggregate_windows_are_zero_after_centring(self):
        width = 16
        aggregate = PowerSeries(0, 6, np.zeros(64))
        seen = []

        class Probe:
            output_kind = "sequence"
            output_offset = 0
            runs_own_lanes = True

            def forward(self, x):
                seen.append(x.copy())
                return np.zeros((len(x), width))

        disaggregate(Probe(), aggregate, spec_for(width), DisaggConfig(stride=4), 100.0)
        assert seen and all(np.all(chunk == 0) for chunk in seen)

    def test_window_positions_tile_with_full_stride(self, monkeypatch):
        width, total = 16, 64
        aggregate = PowerSeries(0, 6, np.zeros(total))
        net = ConstantNetwork(0.0, width, 2048.0)
        blocks = slid_origins(monkeypatch)
        disaggregate(net, aggregate, spec_for(width), DisaggConfig(stride=width), 100.0)
        origins = np.concatenate(blocks)
        assert origins[0] == -width
        assert np.all(np.diff(origins) == width)
        covered = np.zeros(total)
        for origin in origins:
            lo, hi = max(0, origin), min(total, origin + width)
            covered[lo:hi] += 1
        np.testing.assert_array_equal(covered, np.ones(total))

    def test_interior_coverage_with_stride_16(self, monkeypatch):
        width, stride, total = 128, 16, 512
        aggregate = PowerSeries(0, 6, np.zeros(total))
        net = ConstantNetwork(1.0, width, 2048.0)
        blocks = slid_origins(monkeypatch)
        disaggregate(net, aggregate, spec_for(width), DisaggConfig(stride=stride), 100.0)
        counts = np.zeros(total)
        for origin in np.concatenate(blocks):
            lo, hi = max(0, int(origin)), min(total, int(origin) + width)
            counts[lo:hi] += 1
        np.testing.assert_array_equal(counts, np.full(total, width // stride))

    def test_blocks_of_slide_batch_windows_in_order(self, monkeypatch):
        self._blocks_in_order(monkeypatch, ConstantNetwork)

    def test_blocks_in_order_with_the_lanes_on(self, monkeypatch, lanes_on):
        blocks = self._blocks_in_order(monkeypatch, LaneConstantNetwork)
        assert len(lanes_on) == len(blocks) // 2 > 0

    def _blocks_in_order(self, monkeypatch, network):
        width, stride, total = 8, 2, 500
        aggregate = PowerSeries(0, 6, np.zeros(total))
        blocks = slid_origins(monkeypatch)
        disaggregate(network(1.0, width, 2048.0), aggregate, spec_for(width),
                     DisaggConfig(stride=stride), 100.0)
        assert [len(b) for b in blocks[:-1]] == [SLIDE_BATCH] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= SLIDE_BATCH
        np.testing.assert_array_equal(np.concatenate(blocks),
                                      np.arange(-width, total + 1, stride))
        return blocks

    def test_standardization_matches_training(self):
        width = 8
        values = np.arange(1, 33, dtype=float)
        aggregate = PowerSeries(0, 6, values)
        spec = spec_for(width)
        captured = []

        class Probe:
            output_kind = "sequence"
            output_offset = 0
            runs_own_lanes = True

            def forward(self, x):
                captured.append(x.copy())
                return np.zeros((len(x), width))

        disaggregate(Probe(), aggregate, spec, DisaggConfig(stride=width), 100.0)
        window = np.concatenate(captured)[1]  # first non-padding window
        raw = values[0:width]
        np.testing.assert_allclose(window, (raw - raw.mean()) / spec.input_std)

    def test_stride_out_of_range(self):
        aggregate = PowerSeries(0, 6, np.zeros(32))
        net = ConstantNetwork(0.0, 16, 2048.0)
        with pytest.raises(ConfigError, match="stride"):
            disaggregate(net, aggregate, spec_for(16), DisaggConfig(stride=17), 100.0)
        with pytest.raises(ConfigError, match="stride"):
            disaggregate(net, aggregate, spec_for(16), DisaggConfig(stride=0), 100.0)


class TestDisaggConfig:
    def test_defaults(self):
        assert DisaggConfig() == DisaggConfig(stride=16, probability_threshold=0.5)

    @pytest.mark.parametrize("stride", [0, -4, 16.0, "16", True, None])
    def test_rejects_stride_not_a_positive_integer(self, stride):
        with pytest.raises(ConfigError, match="stride"):
            DisaggConfig(stride=stride)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan"), "0.5", None])
    def test_rejects_probability_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(ConfigError, match="probability_threshold"):
            DisaggConfig(probability_threshold=threshold)


class TestCombineMean:
    def test_identity_with_oracle_and_full_stride(self, rng):
        width, max_power = 16, 2048.0
        truth = rng.uniform(0, 2000, size=56)
        aggregate = PowerSeries(0, 6, truth)
        net = OracleNetwork(truth, width, width, max_power)
        estimate = disaggregate(net, aggregate, spec_for(width, max_power),
                                DisaggConfig(stride=width), 100.0)
        np.testing.assert_array_equal(estimate.series.values, truth)

    def test_constant_outputs_any_stride(self):
        width, total = 128, 512
        aggregate = PowerSeries(0, 6, np.zeros(total))
        net = ConstantNetwork(777.0, width, 2048.0)
        estimate = disaggregate(net, aggregate, spec_for(width), DisaggConfig(stride=16),
                                100.0)
        np.testing.assert_allclose(estimate.series.values, np.full(total, 777.0),
                                   atol=1e-9)

    def test_two_windows_average(self):
        estimate = mean_estimate([0, 0], [[100.0], [200.0]], total=1)
        np.testing.assert_array_equal(estimate, [150.0])

    def test_single_window_passthrough(self):
        np.testing.assert_array_equal(mean_estimate([0], [[5.0, 7.0]], total=2), [5.0, 7.0])

    def test_negative_means_clipped_to_zero(self):
        np.testing.assert_array_equal(mean_estimate([0], [[-5.0, 7.0]], total=2), [0.0, 7.0])

    def test_output_offset_places_halo(self):
        # dAE-style: 3-sample halo at each edge contributes nothing.
        estimate = mean_estimate([0], [[9.0, 9.0]], total=8, offset=3)
        np.testing.assert_array_equal(estimate, [0, 0, 0, 9.0, 9.0, 0, 0, 0])


class TestDecodeRectangle:
    def test_worked_example(self):
        decoded = WindowSpec(100, 3100.0, 1.0).decode_rectangle(RectangleTriple(0.1, 0.9, 0.5), 0)
        assert decoded == (10, 90, 1550.0)

    def test_zero_triple_is_no_rectangle(self):
        assert WindowSpec(100, 3100.0, 1.0).decode_rectangle(RectangleTriple(0, 0, 0), 0) is None

    def test_degenerate_span_discarded(self):
        spec = WindowSpec(100, 3100.0, 1.0)
        assert spec.decode_rectangle(RectangleTriple(0.5, 0.5, 0.9), 0) is None

    def test_origin_shift(self):
        decoded = WindowSpec(16, 2000.0, 1.0).decode_rectangle(RectangleTriple(0.25, 0.5, 1.0), 40)
        assert decoded == (44, 48, 2000.0)


def rect_outputs(triples, origins):
    return WindowOutputs(origins=np.asarray(origins),
                         outputs=np.array(triples, dtype=float))


def rectangle_estimate(blocks, width, total, config, power_threshold, max_power=2400.0):
    """(values, probability) of combine_rectangles over `blocks` (one
    WindowOutputs or a list of them), fed in order."""
    sums = RectangleSums(total, WindowSpec(width, max_power, 1.0), power_threshold,
                         config.probability_threshold)
    for block in [blocks] if isinstance(blocks, WindowOutputs) else blocks:
        combine_rectangles(block, sums)
    return sums.estimate()


class TestCombineRectangles:
    def test_unanimous_rectangles_probability_one(self):
        width, total = 32, 32
        triple = RectangleTriple(0.25, 0.5, 2000.0 / 2400.0)
        outputs = rect_outputs([triple] * 6, [0] * 6)
        values, probability = rectangle_estimate(
            outputs, width, total, DisaggConfig(probability_threshold=0.5), 500.0)
        np.testing.assert_allclose(probability[8:16], np.ones(8))
        np.testing.assert_allclose(values[8:16], np.full(8, 2000.0))
        np.testing.assert_array_equal(values[:8], np.zeros(8))

    def test_no_rectangles_zero_estimate(self):
        outputs = rect_outputs([RectangleTriple(0, 0, 0)] * 4, [0] * 4)
        values, probability = rectangle_estimate(
            outputs, 32, 32, DisaggConfig(probability_threshold=0.5), 500.0)
        np.testing.assert_array_equal(values, np.zeros(32))
        np.testing.assert_array_equal(probability, np.zeros(32))

    def test_half_of_eight_windows_at_threshold(self):
        width, total = 32, 32
        triple = RectangleTriple(0.25, 0.5, 2000.0 / 2400.0)
        zeros = RectangleTriple(0, 0, 0)
        outputs = rect_outputs([triple] * 4 + [zeros] * 4, [0] * 8)
        values, probability = rectangle_estimate(
            outputs, width, total, DisaggConfig(probability_threshold=0.5), 500.0)
        np.testing.assert_allclose(probability[8:16], np.full(8, 0.5))
        np.testing.assert_allclose(values[8:16], np.full(8, 2000.0))

    def test_below_power_threshold_not_a_rectangle(self):
        width, total = 32, 32
        faint = RectangleTriple(0.25, 0.5, 100.0 / 2400.0)  # 100 W < 500 W
        outputs = rect_outputs([faint] * 4, [0] * 4)
        values, probability = rectangle_estimate(
            outputs, width, total, DisaggConfig(probability_threshold=0.0), 500.0)
        np.testing.assert_array_equal(probability, np.zeros(total))

    def test_probability_in_unit_interval_and_power_nonnegative(self, rng):
        width, total = 16, 64
        triples = []
        origins = []
        for _ in range(40):
            start = rng.uniform(0, 0.9)
            triples.append(RectangleTriple(start, min(1.0, start + rng.uniform(0, 0.5)),
                                           rng.uniform(0, 1)))
            origins.append(int(rng.integers(-width, total)))
        outputs = rect_outputs(triples, origins)
        values, probability = rectangle_estimate(
            outputs, width, total, DisaggConfig(probability_threshold=0.4), 200.0)
        assert np.all(probability >= 0) and np.all(probability <= 1)
        assert np.all(values >= 0)

    def test_rectangle_past_its_window_clipped_to_that_window(self):
        # Each triple decodes to [origin - 8, origin + 24): wider than its window on both sides.
        width, total = 16, 48
        wide = RectangleTriple(-0.5, 1.5, 2000.0 / 2400.0)
        outputs = rect_outputs([wide, wide], [0, 16])
        values, probability = rectangle_estimate(
            outputs, width, total, DisaggConfig(probability_threshold=0.5), 500.0)
        np.testing.assert_array_equal(probability, np.r_[np.ones(32), np.zeros(16)])
        np.testing.assert_allclose(values, np.r_[np.full(32, 2000.0), np.zeros(16)])


class TestDeterminism:
    def test_bitwise_identical_runs(self, rng):
        width = 16
        truth = rng.uniform(0, 2000, size=64)
        aggregate = PowerSeries(0, 6, truth)
        results = []
        for _ in range(2):
            net = OracleNetwork(truth, width, 4, 2048.0)
            estimate = disaggregate(net, aggregate, spec_for(width),
                                    DisaggConfig(stride=4), 100.0)
            results.append(estimate.series.values.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_empty_aggregate_empty_estimate(self):
        width = 16
        aggregate = PowerSeries(0, 6, np.empty(0))
        net = ConstantNetwork(100.0, width, 2048.0)
        estimate = disaggregate(net, aggregate, spec_for(width), DisaggConfig(stride=4),
                                100.0)
        assert len(estimate.series) == 0


# Property tests against plain per-timestep loops over the windows.  The
# references add each window's contribution in window order, as the
# combiners do, so the results must be bitwise equal however the windows
# are split into blocks.

@st.composite
def window_geometry(draw, min_width=1):
    """(width, total, origins): the strided origins `disaggregate` slides
    through the padding, or arbitrary origins, some wholly outside the
    series."""
    width = draw(st.integers(min_width, 24))
    total = draw(st.integers(0, 80))
    if draw(st.booleans()):
        stride = draw(st.integers(1, width))
        origins = np.arange(0, total + width + 1, stride) - width
    else:
        origins = np.array(draw(st.lists(st.integers(-2 * width, total + width),
                                         max_size=30)), dtype=np.int64)
    return width, total, origins


def in_blocks(data, origins, outputs):
    """The windows as consecutive non-empty WindowOutputs blocks, split at
    points drawn from `data`."""
    cuts = data.draw(st.sets(st.integers(1, max(1, len(origins) - 1)), max_size=5))
    bounds = [0, *sorted(c for c in cuts if c < len(origins)), len(origins)]
    return [WindowOutputs(origins=origins[lo:hi], outputs=outputs[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])]


def mean_estimate(origins, outputs, total, offset=0):
    """combine_mean's estimate over the windows, fed as one block."""
    sums = MeanSums(total, offset)
    combine_mean(WindowOutputs(origins=np.asarray(origins),
                               outputs=np.asarray(outputs, dtype=np.float64)), sums)
    values, probability = sums.estimate()
    assert probability is None
    return values


def reference_combine_mean(origins, outputs, total_length, output_offset):
    out_len = outputs.shape[1] if outputs.size else 0
    estimate = np.zeros(total_length)
    for t in range(total_length):
        total, count = 0.0, 0
        for origin, row in zip(origins, outputs):
            k = t - (int(origin) + output_offset)
            if 0 <= k < out_len:
                total += row[k]
                count += 1
        estimate[t] = max(total / count, 0.0) if count else 0.0
    return estimate


@settings(max_examples=200, deadline=None)
@given(window_geometry(), st.data())
def test_combine_mean_matches_per_window_loop(geometry, data):
    width, total, origins = geometry
    offset = data.draw(st.integers(0, (width - 1) // 2))
    values = data.draw(st.lists(st.floats(-500, 3000), min_size=len(origins) * (width - 2 * offset),
                                max_size=len(origins) * (width - 2 * offset)))
    outputs = np.reshape(values, (len(origins), width - 2 * offset))
    sums = MeanSums(total, offset)
    for block in in_blocks(data, origins, outputs):
        combine_mean(block, sums)
    estimate, probability = sums.estimate()
    np.testing.assert_array_equal(estimate,
                                  reference_combine_mean(origins, outputs, total, offset))
    assert probability is None


def reference_combine_rectangles(origins, outputs, width, total_length, max_power,
                                 config: DisaggConfig, power_threshold: float):
    probability = np.zeros(total_length)
    estimate = np.zeros(total_length)
    for t in range(total_length):
        windows = rects = 0
        watts = 0.0
        for origin, (start, end, height) in zip(origins, outputs):
            origin = int(origin)
            if not origin <= t < origin + width:
                continue
            windows += 1
            if height * max_power <= power_threshold or end <= start:
                continue
            # The decoded span may pass its window's edges; only the window votes.
            lo = origin + int(np.floor(start * width + 0.5))
            hi = origin + int(np.floor(end * width + 0.5))
            if lo <= t < hi:
                rects += 1
                watts += height * max_power
        probability[t] = rects / windows if windows else 0.0
        mean_power = watts / rects if rects else 0.0
        if probability[t] >= config.probability_threshold and \
                mean_power >= power_threshold:
            estimate[t] = mean_power
    return probability, estimate


@settings(max_examples=200, deadline=None)
@given(window_geometry(min_width=2), st.data())
def test_combine_rectangles_matches_per_window_loop(geometry, data):
    width, total, origins = geometry
    triples = data.draw(st.lists(
        st.tuples(st.floats(-1.0, 1.5), st.floats(-0.5, 2.0), st.floats(0.0, 1.0)),
        min_size=len(origins), max_size=len(origins)))
    power_threshold = data.draw(st.floats(0.0, 2400.0))
    config = DisaggConfig(probability_threshold=data.draw(st.floats(0.0, 1.0)))
    outputs = np.array(triples, dtype=np.float64).reshape(-1, 3)
    values, probability = rectangle_estimate(in_blocks(data, origins, outputs), width, total,
                                             config, power_threshold)
    ref_probability, ref_values = reference_combine_rectangles(
        origins, outputs, width, total, 2400.0, config, power_threshold)
    np.testing.assert_array_equal(probability, ref_probability)
    np.testing.assert_array_equal(values, ref_values)


def whole_series_outputs(network, aggregate, spec, stride):
    """(origins, outputs) of every window at once: the whole window stack
    standardized, then run SLIDE_BATCH windows per network call."""
    width = spec.window_width
    padded = np.concatenate([np.zeros(width), aggregate.values, np.zeros(width)])
    starts = np.arange(0, len(padded) - width + 1, stride)
    windows = spec.standardize(np.stack([padded[s : s + width] for s in starts]))
    outputs = np.concatenate([network.forward(windows[lo : lo + SLIDE_BATCH])
                              for lo in range(0, len(windows), SLIDE_BATCH)])
    if network.output_kind == "sequence":
        outputs = outputs * spec.max_power
    return starts - width, outputs


@pytest.mark.parametrize("kind", ["dae", "rectangles"])
def test_streamed_estimate_matches_whole_series_reference(kind):
    # Several blocks of windows from a real (small) network: the streamed
    # estimate has the bits of the whole stack run at once, combined by
    # the per-timestep reference loops.
    rng = np.random.default_rng(5)
    width, stride, total, threshold = 16, 3, 700, 300.0
    if kind == "dae":
        network = architectures.build_dae(width, rng, conv_filters=2, code_units=4)
    else:
        network = architectures.build_rectangles(width, rng, conv_filters=2,
                                                 dense_units=(6, 4))
    aggregate = PowerSeries(60, 6, rng.uniform(0, 3000, size=total))
    spec = spec_for(width, max_power=2400.0)
    config = DisaggConfig(stride=stride, probability_threshold=0.3)
    estimate = disaggregate(network, aggregate, spec, config, threshold)

    origins, outputs = whole_series_outputs(network, aggregate, spec, stride)
    assert len(origins) > 3 * SLIDE_BATCH
    if kind == "dae":
        reference = reference_combine_mean(origins, outputs, total, network.output_offset)
        assert estimate.probability is None
    else:
        probability, reference = reference_combine_rectangles(
            origins, outputs, width, total, spec.max_power, config, threshold)
        np.testing.assert_array_equal(estimate.probability, probability)
    np.testing.assert_array_equal(estimate.series.values, reference)
    assert (estimate.series.start_time, estimate.series.sample_period) == (60, 6)


def test_disaggregate_memory_is_bounded_by_a_block_not_the_windows():
    # 200k samples at width 512, stride 16: about 12.5k windows, 51 MB as
    # one stack.  Streaming holds the running sums and one block.
    width, stride, total = 512, 16, 200_000
    aggregate = PowerSeries(0, 6, np.ones(total))
    stack_bytes = 8 * width * ((total + width) // stride + 1)
    peak = traced_peak(lambda: disaggregate(
        ConstantNetwork(100.0, width, 2048.0), aggregate, spec_for(width),
        DisaggConfig(stride=stride), 100.0))
    assert stack_bytes > 50e6
    assert peak < stack_bytes / 4


def test_disaggregate_memory_is_bounded_with_the_lanes_on(lanes_on):
    # The same run with two blocks in the lanes at once: they fit inside
    # the same quarter of the window stack.
    width, stride, total = 512, 16, 200_000
    aggregate = PowerSeries(0, 6, np.ones(total))
    stack_bytes = 8 * width * ((total + width) // stride + 1)
    peak = traced_peak(lambda: disaggregate(
        LaneConstantNetwork(100.0, width, 2048.0), aggregate, spec_for(width),
        DisaggConfig(stride=stride), 100.0))
    blocks = -(-((total + width) // stride + 1) // SLIDE_BATCH)
    assert len(lanes_on) == blocks // 2
    assert peak < stack_bytes / 4


def small_net(kind, width=16):
    """A float32 `kind` network of the CLI's stack at `width`."""
    return architectures.build_network(kind, width, np.random.default_rng(7))


def lanes_estimate(network, width, windows, stride=3):
    """(estimate values, probability) of `disaggregate` over an aggregate
    that gives exactly `windows` windows at `stride`."""
    total = (windows - 1) * stride - width
    aggregate = PowerSeries(0, 6, np.random.default_rng(9).uniform(0, 3000, size=total))
    estimate = disaggregate(network, aggregate, spec_for(width, max_power=2400.0),
                            DisaggConfig(stride=stride, probability_threshold=0.3), 300.0)
    assert len(estimate.series) == total
    return estimate.series.values, estimate.probability


@pytest.mark.parametrize("kind", ["dae", "rectangles"])
@pytest.mark.parametrize("windows, blocks", [(40, 1), (128, 2), (150, 3), (256, 4)],
                         ids=["1-partial", "2", "3-partial", "4"])
def test_block_pairs_in_the_lanes_bitwise(monkeypatch, lane_jobs, kind, windows, blocks):
    width = 16
    network = small_net(kind, width)
    assert network.dtype == np.float32 and not network.runs_own_lanes
    monkeypatch.setattr(blas, "threads", lambda: 2)
    off_values, off_probability = lanes_estimate(network, width, windows)
    assert not lane_jobs
    monkeypatch.setattr(blas, "threads", lambda: 1)
    monkeypatch.setattr(layers, "LANE_MIN_WORK", 0)
    slid = worker_slides(monkeypatch)
    on_values, on_probability = lanes_estimate(network, width, windows)
    assert -(-windows // SLIDE_BATCH) == blocks
    assert len(slid) == len(lane_jobs) == blocks // 2
    np.testing.assert_array_equal(on_values, off_values)
    if kind == "dae":
        assert on_probability is None and off_probability is None
    else:
        np.testing.assert_array_equal(on_probability, off_probability)


class TestBlockPairGate:
    """Block pairs go to the lane worker only where the one lane gate
    opens and the network runs no lanes of its own."""

    def test_paper_width_net_meets_the_gate(self, monkeypatch, lane_jobs):
        monkeypatch.setattr(blas, "threads", lambda: 1)
        slid = worker_slides(monkeypatch)
        network = small_net("dae", 128)
        assert SLIDE_BATCH * network.parameter_count() >= layers.LANE_MIN_WORK
        lanes_estimate(network, 128, 256, stride=16)
        assert len(slid) == 2

    @pytest.mark.parametrize("threads", [2, None], ids=["two-blas-threads", "unknown"])
    def test_no_pair_jobs_without_one_blas_thread(self, monkeypatch, lane_jobs, threads):
        monkeypatch.setattr(blas, "threads", lambda: threads)
        monkeypatch.setattr(layers, "LANE_MIN_WORK", 0)
        slid = worker_slides(monkeypatch)
        lanes_estimate(small_net("rectangles"), 16, 256)
        assert not slid and not lane_jobs

    def test_no_pair_jobs_for_a_net_with_lanes_of_its_own(self, monkeypatch, lanes_on):
        slid = worker_slides(monkeypatch)
        network = architectures.build_lstm(16, np.random.default_rng(3), conv_filters=4,
                                           lstm_units=(6, 8), dense_units=5)
        assert network.runs_own_lanes
        lanes_estimate(network, 16, 256)
        assert not slid
        assert lanes_on  # the Bidirectional layers' own reverse halves

    def test_no_pair_jobs_below_the_work_gate(self, monkeypatch, lane_jobs):
        monkeypatch.setattr(blas, "threads", lambda: 1)
        slid = worker_slides(monkeypatch)
        network = small_net("dae")
        assert SLIDE_BATCH * network.parameter_count() < layers.LANE_MIN_WORK
        lanes_estimate(network, 16, 256)
        assert not slid and not lane_jobs


def test_lstm_block_memory_at_paper_width():
    # One block of SLIDE_BATCH windows through the float32 LSTM net at
    # width 128.  Each direction of bilstm2 holds a 64 × 128 × 1024 input
    # projection while both run at once: 92 MiB in float32.
    network = architectures.build_network("lstm", 128, np.random.default_rng(0))
    windows = np.random.default_rng(1).normal(size=(SLIDE_BATCH, 128))
    peak = traced_peak(lambda: network.forward(windows))
    assert peak < 100 * (1 << 20)
