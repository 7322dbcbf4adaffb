import numpy as np
import pytest

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

        slide(Probe(), aggregate, spec_for(width), DisaggConfig(4, 100.0))
        assert all(np.all(chunk == 0) for chunk in seen)

    def test_window_positions_tile_with_full_stride(self):
        width, total = 16, 64
        aggregate = PowerSeries(0, 6, np.zeros(total))
        net = ConstantNetwork(0.0, width, 2048.0)
        outputs = slide(net, aggregate, spec_for(width), DisaggConfig(width, 100.0))
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
        outputs = slide(net, aggregate, spec_for(width), DisaggConfig(stride, 100.0))
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

        slide(Probe(), aggregate, spec, DisaggConfig(width, 100.0))
        window = np.concatenate(captured)[1]  # first non-padding window
        raw = values[0:width]
        np.testing.assert_allclose(window, (raw - raw.mean()) / spec.input_std)

    def test_stride_out_of_range(self):
        aggregate = PowerSeries(0, 6, np.zeros(32))
        net = ConstantNetwork(0.0, 16, 2048.0)
        with pytest.raises(ConfigError, match="stride"):
            slide(net, aggregate, spec_for(16), DisaggConfig(17, 100.0))
        with pytest.raises(ConfigError, match="stride"):
            slide(net, aggregate, spec_for(16), DisaggConfig(0, 100.0))


class TestCombineMean:
    def test_identity_with_oracle_and_full_stride(self, rng):
        width, max_power = 16, 2048.0
        truth = rng.uniform(0, 2000, size=56)
        aggregate = PowerSeries(0, 6, truth)
        net = OracleNetwork(truth, width, width, max_power)
        estimate = disaggregate(net, aggregate, spec_for(width, max_power),
                                DisaggConfig(width, 100.0))
        np.testing.assert_array_equal(estimate.series.values, truth)

    def test_constant_outputs_any_stride(self):
        width, total = 128, 512
        aggregate = PowerSeries(0, 6, np.zeros(total))
        net = ConstantNetwork(777.0, width, 2048.0)
        estimate = disaggregate(net, aggregate, spec_for(width), DisaggConfig(16, 100.0))
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
        estimate = combine_rectangles(outputs, DisaggConfig(1, 500.0, 0.5))
        np.testing.assert_allclose(estimate.probability[8:16], np.ones(8))
        np.testing.assert_allclose(estimate.series.values[8:16], np.full(8, 2000.0))
        np.testing.assert_array_equal(estimate.series.values[:8], np.zeros(8))

    def test_no_rectangles_zero_estimate(self):
        outputs = rect_outputs([RectangleTriple(0, 0, 0)] * 4, [0] * 4, 32, 32)
        estimate = combine_rectangles(outputs, DisaggConfig(1, 500.0, 0.5))
        np.testing.assert_array_equal(estimate.series.values, np.zeros(32))
        np.testing.assert_array_equal(estimate.probability, np.zeros(32))

    def test_half_of_eight_windows_at_threshold(self):
        width, total = 32, 32
        triple = RectangleTriple(0.25, 0.5, 2000.0 / 2400.0)
        zeros = RectangleTriple(0, 0, 0)
        outputs = rect_outputs([triple] * 4 + [zeros] * 4, [0] * 8, width, total)
        estimate = combine_rectangles(outputs, DisaggConfig(1, 500.0, 0.5))
        np.testing.assert_allclose(estimate.probability[8:16], np.full(8, 0.5))
        np.testing.assert_allclose(estimate.series.values[8:16], np.full(8, 2000.0))

    def test_below_power_threshold_not_a_rectangle(self):
        width, total = 32, 32
        faint = RectangleTriple(0.25, 0.5, 100.0 / 2400.0)  # 100 W < 500 W
        outputs = rect_outputs([faint] * 4, [0] * 4, width, total)
        estimate = combine_rectangles(outputs, DisaggConfig(1, 500.0, 0.0))
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
        estimate = combine_rectangles(outputs, DisaggConfig(1, 200.0, 0.4))
        assert np.all(estimate.probability >= 0) and np.all(estimate.probability <= 1)
        assert np.all(estimate.series.values >= 0)

    def test_rectangle_past_its_window_clipped_to_that_window(self):
        # Each triple decodes to [origin - 8, origin + 24): wider than its window on both sides.
        width, total = 16, 48
        wide = RectangleTriple(-0.5, 1.5, 2000.0 / 2400.0)
        outputs = rect_outputs([wide, wide], [0, 16], width, total)
        estimate = combine_rectangles(outputs, DisaggConfig(1, 500.0, 0.5))
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
                                    DisaggConfig(4, 100.0))
            results.append(estimate.series.values.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_empty_aggregate_empty_estimate(self):
        width = 16
        aggregate = PowerSeries(0, 6, np.empty(0))
        net = ConstantNetwork(100.0, width, 2048.0)
        estimate = disaggregate(net, aggregate, spec_for(width), DisaggConfig(4, 100.0))
        assert len(estimate.series) == 0
