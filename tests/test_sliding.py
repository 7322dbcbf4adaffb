import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disagg.datagen import RectangleTriple, WindowSpec
from disagg.errors import ConfigError
from disagg.sliding import (DisaggConfig, WindowOutputs, combine_mean,
                            combine_rectangles, decode_rectangle, disaggregate, slide)
from disagg.timeseries import PowerSeries


class OracleNetwork:
    """Duck-typed 'network' that emits the true scaled target for each
    window slide() will request, in slide order."""

    output_kind = "sequence"
    output_offset = 0

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

    def __init__(self, value, width, max_power):
        self.value = value / max_power
        self.width = width

    def forward(self, x):
        return np.full((len(x), self.width), self.value)


def spec_for(width, max_power=2048.0):
    return WindowSpec("kettle", width, max_power, input_std=100.0)


class TestSlide:
    def test_zero_aggregate_windows_are_zero_after_centring(self):
        width = 16
        aggregate = PowerSeries(0, 6, np.zeros(64))
        seen = []

        class Probe:
            output_kind = "sequence"
            output_offset = 0

            def forward(self, x):
                seen.append(x.copy())
                return np.zeros((len(x), width))

        slide(Probe(), aggregate, spec_for(width), DisaggConfig(stride=4))
        assert all(np.all(chunk == 0) for chunk in seen)

    def test_window_positions_tile_with_full_stride(self):
        width, total = 16, 64
        aggregate = PowerSeries(0, 6, np.zeros(total))
        net = ConstantNetwork(0.0, width, 2048.0)
        outputs = slide(net, aggregate, spec_for(width), DisaggConfig(stride=width))
        assert outputs.origins[0] == -width
        assert np.all(np.diff(outputs.origins) == width)
        covered = np.zeros(total)
        for origin in outputs.origins:
            lo, hi = max(0, origin), min(total, origin + width)
            covered[lo:hi] += 1
        np.testing.assert_array_equal(covered, np.ones(total))

    def test_interior_coverage_with_stride_16(self):
        width, stride, total = 128, 16, 512
        aggregate = PowerSeries(0, 6, np.zeros(total))
        net = ConstantNetwork(1.0, width, 2048.0)
        outputs = slide(net, aggregate, spec_for(width), DisaggConfig(stride=stride))
        counts = np.zeros(total)
        for origin in outputs.origins:
            lo, hi = max(0, int(origin)), min(total, int(origin) + width)
            counts[lo:hi] += 1
        np.testing.assert_array_equal(counts, np.full(total, width // stride))

    def test_standardization_matches_training(self):
        width = 8
        values = np.arange(1, 33, dtype=float)
        aggregate = PowerSeries(0, 6, values)
        spec = spec_for(width)
        captured = []

        class Probe:
            output_kind = "sequence"
            output_offset = 0

            def forward(self, x):
                captured.append(x.copy())
                return np.zeros((len(x), width))

        slide(Probe(), aggregate, spec, DisaggConfig(stride=width))
        window = np.concatenate(captured)[1]  # first non-padding window
        raw = values[0:width]
        np.testing.assert_allclose(window, (raw - raw.mean()) / spec.input_std)

    def test_stride_out_of_range(self):
        aggregate = PowerSeries(0, 6, np.zeros(32))
        net = ConstantNetwork(0.0, 16, 2048.0)
        with pytest.raises(ConfigError, match="stride"):
            slide(net, aggregate, spec_for(16), DisaggConfig(stride=17))
        with pytest.raises(ConfigError, match="stride"):
            slide(net, aggregate, spec_for(16), DisaggConfig(stride=0))


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
        outputs = WindowOutputs(kind="sequence", origins=np.array([0, 0]),
                                outputs=np.array([[100.0], [200.0]]), window_width=1,
                                output_offset=0, total_length=1, max_power=1.0)
        estimate = combine_mean(outputs)
        np.testing.assert_array_equal(estimate.series.values, [150.0])

    def test_single_window_passthrough(self):
        outputs = WindowOutputs(kind="sequence", origins=np.array([0]),
                                outputs=np.array([[5.0, 7.0]]), window_width=2,
                                output_offset=0, total_length=2, max_power=1.0)
        np.testing.assert_array_equal(combine_mean(outputs).series.values, [5.0, 7.0])

    def test_negative_means_clipped_to_zero(self):
        outputs = WindowOutputs(kind="sequence", origins=np.array([0]),
                                outputs=np.array([[-5.0, 7.0]]), window_width=2,
                                output_offset=0, total_length=2, max_power=1.0)
        np.testing.assert_array_equal(combine_mean(outputs).series.values, [0.0, 7.0])

    def test_output_offset_places_halo(self):
        # dAE-style: 3-sample halo at each edge contributes nothing.
        outputs = WindowOutputs(kind="sequence", origins=np.array([0]),
                                outputs=np.array([[9.0, 9.0]]), window_width=8,
                                output_offset=3, total_length=8, max_power=1.0)
        estimate = combine_mean(outputs).series.values
        np.testing.assert_array_equal(estimate, [0, 0, 0, 9.0, 9.0, 0, 0, 0])


class TestDecodeRectangle:
    def test_worked_example(self):
        decoded = decode_rectangle(RectangleTriple(0.1, 0.9, 0.5), 0, 100, 3100.0)
        assert decoded == (10, 90, 1550.0)

    def test_zero_triple_is_no_rectangle(self):
        assert decode_rectangle(RectangleTriple(0, 0, 0), 0, 100, 3100.0) is None

    def test_degenerate_span_discarded(self):
        assert decode_rectangle(RectangleTriple(0.5, 0.5, 0.9), 0, 100, 3100.0) is None

    def test_origin_shift(self):
        decoded = decode_rectangle(RectangleTriple(0.25, 0.5, 1.0), 40, 16, 2000.0)
        assert decoded == (44, 48, 2000.0)


def rect_outputs(triples, origins, width, total, max_power=2400.0):
    return WindowOutputs(kind="triple", origins=np.asarray(origins),
                         outputs=np.array([t.as_array() for t in triples]),
                         window_width=width, output_offset=0, total_length=total,
                         max_power=max_power)


class TestCombineRectangles:
    def test_unanimous_rectangles_probability_one(self):
        width, total = 32, 32
        triple = RectangleTriple(0.25, 0.5, 2000.0 / 2400.0)
        outputs = rect_outputs([triple] * 6, [0] * 6, width, total)
        estimate = combine_rectangles(outputs, DisaggConfig(probability_threshold=0.5), 500.0)
        np.testing.assert_allclose(estimate.probability[8:16], np.ones(8))
        np.testing.assert_allclose(estimate.series.values[8:16], np.full(8, 2000.0))
        np.testing.assert_array_equal(estimate.series.values[:8], np.zeros(8))

    def test_no_rectangles_zero_estimate(self):
        outputs = rect_outputs([RectangleTriple(0, 0, 0)] * 4, [0] * 4, 32, 32)
        estimate = combine_rectangles(outputs, DisaggConfig(probability_threshold=0.5), 500.0)
        np.testing.assert_array_equal(estimate.series.values, np.zeros(32))
        np.testing.assert_array_equal(estimate.probability, np.zeros(32))

    def test_half_of_eight_windows_at_threshold(self):
        width, total = 32, 32
        triple = RectangleTriple(0.25, 0.5, 2000.0 / 2400.0)
        zeros = RectangleTriple(0, 0, 0)
        outputs = rect_outputs([triple] * 4 + [zeros] * 4, [0] * 8, width, total)
        estimate = combine_rectangles(outputs, DisaggConfig(probability_threshold=0.5), 500.0)
        np.testing.assert_allclose(estimate.probability[8:16], np.full(8, 0.5))
        np.testing.assert_allclose(estimate.series.values[8:16], np.full(8, 2000.0))

    def test_below_power_threshold_not_a_rectangle(self):
        width, total = 32, 32
        faint = RectangleTriple(0.25, 0.5, 100.0 / 2400.0)  # 100 W < 500 W
        outputs = rect_outputs([faint] * 4, [0] * 4, width, total)
        estimate = combine_rectangles(outputs, DisaggConfig(probability_threshold=0.0), 500.0)
        np.testing.assert_array_equal(estimate.probability, np.zeros(total))

    def test_probability_in_unit_interval_and_power_nonnegative(self, rng):
        width, total = 16, 64
        triples = []
        origins = []
        for _ in range(40):
            start = rng.uniform(0, 0.9)
            triples.append(RectangleTriple(start, min(1.0, start + rng.uniform(0, 0.5)),
                                           rng.uniform(0, 1)))
            origins.append(int(rng.integers(-width, total)))
        outputs = rect_outputs(triples, origins, width, total)
        estimate = combine_rectangles(outputs, DisaggConfig(probability_threshold=0.4), 200.0)
        assert np.all(estimate.probability >= 0) and np.all(estimate.probability <= 1)
        assert np.all(estimate.series.values >= 0)

    def test_rectangle_past_its_window_clipped_to_that_window(self):
        # Each triple decodes to [origin - 8, origin + 24): wider than its window on both sides.
        width, total = 16, 48
        wide = RectangleTriple(-0.5, 1.5, 2000.0 / 2400.0)
        outputs = rect_outputs([wide, wide], [0, 16], width, total)
        estimate = combine_rectangles(outputs, DisaggConfig(probability_threshold=0.5), 500.0)
        np.testing.assert_array_equal(estimate.probability, np.r_[np.ones(32), np.zeros(16)])
        np.testing.assert_allclose(estimate.series.values,
                                   np.r_[np.full(32, 2000.0), np.zeros(16)])


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
# combiners do, so the results must be bitwise equal.

@st.composite
def window_geometry(draw, min_width=1):
    """(width, total, origins): slide()'s strided origins through the
    padding, or arbitrary origins, some wholly outside the series."""
    width = draw(st.integers(min_width, 24))
    total = draw(st.integers(0, 80))
    if draw(st.booleans()):
        stride = draw(st.integers(1, width))
        origins = np.arange(0, total + width + 1, stride) - width
    else:
        origins = np.array(draw(st.lists(st.integers(-2 * width, total + width),
                                         max_size=30)), dtype=np.int64)
    return width, total, origins


def reference_combine_mean(outputs: WindowOutputs):
    out_len = outputs.outputs.shape[1] if outputs.outputs.size else 0
    estimate = np.zeros(outputs.total_length)
    for t in range(outputs.total_length):
        total, count = 0.0, 0
        for origin, row in zip(outputs.origins, outputs.outputs):
            k = t - (int(origin) + outputs.output_offset)
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
    outputs = WindowOutputs(kind="sequence", origins=origins,
                            outputs=np.reshape(values, (len(origins), width - 2 * offset)),
                            window_width=width, output_offset=offset, total_length=total,
                            max_power=2400.0)
    estimate = combine_mean(outputs)
    np.testing.assert_array_equal(estimate.series.values, reference_combine_mean(outputs))
    assert estimate.probability is None


def reference_combine_rectangles(outputs: WindowOutputs, config: DisaggConfig,
                                 power_threshold: float):
    width, max_power = outputs.window_width, outputs.max_power
    probability = np.zeros(outputs.total_length)
    estimate = np.zeros(outputs.total_length)
    for t in range(outputs.total_length):
        windows = rects = 0
        watts = 0.0
        for origin, (start, end, height) in zip(outputs.origins, outputs.outputs):
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
    outputs = WindowOutputs(kind="triple", origins=origins,
                            outputs=np.array(triples, dtype=np.float64).reshape(-1, 3),
                            window_width=width, output_offset=0, total_length=total,
                            max_power=2400.0)
    estimate = combine_rectangles(outputs, config, power_threshold)
    probability, values = reference_combine_rectangles(outputs, config, power_threshold)
    np.testing.assert_array_equal(estimate.probability, probability)
    np.testing.assert_array_equal(estimate.series.values, values)
