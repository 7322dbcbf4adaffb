"""Disaggregation of arbitrarily long aggregates by sliding a trained
network along the series and combining the overlapping outputs.

The aggregate is zero-padded by one full window at each end (so the
first window the network sees is all zeros and every real sample
receives the full complement of strided windows), each window is
standardized exactly as during training, and outputs are combined
either by per-timestep averaging (sequence outputs) or by overlaying
predicted rectangles and thresholding the resulting probability
(rectangle outputs).  The windows run through the network one block of
SLIDE_BATCH at a time and each block's outputs go straight into running
per-timestep sums, so memory does not grow with the number of windows.

Where the gate `nn.layers.in_lanes` opens (one BLAS thread, a block's
windows times the network's parameters reaching LANE_MIN_WORK), two
consecutive blocks run through the network at once, one in each lane,
unless the network runs lanes of its own (`runs_own_lanes`).  Each block
is the same `slide` call either way and the blocks are combined in
window order, so the estimates keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import WindowSpec
from .errors import ConfigError
from .nn.layers import in_lanes
from .timeseries import PowerSeries
from .util import is_number

SLIDE_BATCH = 64  # windows per network call


@dataclass(frozen=True)
class DisaggConfig:
    """Sliding and thresholding knobs for one disaggregation run.

    The power threshold is the target appliance's on-power threshold, so
    it is passed with the appliance, not kept here.
    """

    stride: int = 16
    probability_threshold: float = 0.5

    def __post_init__(self):
        if not is_number(self.stride, integer=True) or self.stride < 1:
            raise ConfigError(f"stride must be an integer >= 1, got {self.stride!r}")
        threshold = self.probability_threshold
        if not is_number(threshold) or not 0.0 <= threshold <= 1.0:
            raise ConfigError(f"probability_threshold must lie in [0, 1], got {threshold!r}")


@dataclass(frozen=True)
class EstimateSeries:
    """Estimated appliance power on the aggregate's grid, with optional
    per-sample confidence from the rectangles path."""

    series: PowerSeries
    probability: np.ndarray | None = None


@dataclass(frozen=True)
class WindowOutputs:
    """The network outputs of one block of windows, with their positions.

    `origins` hold each window's start in real aggregate coordinates
    (negative for windows that begin in the left padding).  Sequence
    outputs are in watts; triple outputs stay fractional until decoded.
    """

    origins: np.ndarray
    outputs: np.ndarray


def slide(network, aggregate: PowerSeries, spec: WindowSpec,
          origins: np.ndarray) -> WindowOutputs:
    """Run the network on the windows of the aggregate that start at
    `origins` (ascending; zero outside the series).

    Windows are standardized with the training-time dataset std;
    sequence outputs are scaled back to watts.
    """
    width = spec.window_width
    lo, hi = int(origins[0]), int(origins[-1]) + width
    segment = np.zeros(hi - lo)
    first, last = max(lo, 0), min(hi, len(aggregate))
    if last > first:
        segment[first - lo : last - lo] = aggregate.values[first:last]
    windows = np.lib.stride_tricks.sliding_window_view(segment, width)[origins - lo]
    outputs = network.forward(spec.standardize(windows))
    if network.output_kind == "sequence":
        outputs = spec.to_watts(outputs)
    return WindowOutputs(origins=origins, outputs=outputs)


class MeanSums:
    """Running per-timestep sums of sequence outputs and of the windows
    whose output covers each timestep."""

    def __init__(self, total_length: int, output_offset: int):
        self.output_offset = output_offset
        self.sums = np.zeros(total_length)
        self.counts = np.zeros(total_length)

    def estimate(self):
        """(mean output per timestep with negatives clipped, None)."""
        total = len(self.sums)
        mean = np.divide(self.sums, self.counts, out=np.zeros(total), where=self.counts > 0)
        return np.maximum(mean, 0.0), None


def combine_mean(window_outputs: WindowOutputs, sums: MeanSums) -> None:
    """Add one block's outputs to the running sums, window by window, so
    every timestep receives its additions in window order."""
    total = len(sums.sums)
    out_len = window_outputs.outputs.shape[1] if window_outputs.outputs.size else 0
    for origin, row in zip(window_outputs.origins, window_outputs.outputs):
        start = int(origin) + sums.output_offset
        lo = max(0, start)
        hi = min(total, start + out_len)
        if hi <= lo:
            continue
        sums.sums[lo:hi] += row[lo - start : hi - start]
        sums.counts[lo:hi] += 1


class RectangleSums:
    """Running per-timestep counts of covering windows and of their
    rectangles, and the sum of those rectangles' heights in watts.

    A triple counts as a rectangle when its height clears the
    appliance's `power_threshold`; a timestep is declared on where the
    fraction of its windows with a rectangle there clears
    `probability_threshold` and their mean height `power_threshold`.
    """

    def __init__(self, total_length: int, spec: WindowSpec, power_threshold: float,
                 probability_threshold: float):
        self.spec = spec
        self.power_threshold = power_threshold
        self.probability_threshold = probability_threshold
        self.window_count = np.zeros(total_length)
        self.rect_count = np.zeros(total_length)
        self.height_sum = np.zeros(total_length)

    def estimate(self):
        """(power per timestep, probability per timestep): probability =
        covering rectangles / covering windows, power = their mean height
        where the appliance is declared on, else zero."""
        total = len(self.window_count)
        probability = np.divide(self.rect_count, self.window_count, out=np.zeros(total),
                                where=self.window_count > 0)
        mean_power = np.divide(self.height_sum, self.rect_count, out=np.zeros(total),
                               where=self.rect_count > 0)
        on = (probability >= self.probability_threshold) & \
             (mean_power >= self.power_threshold)
        return np.where(on, mean_power, 0.0), probability


def combine_rectangles(window_outputs: WindowOutputs, sums: RectangleSums) -> None:
    """Overlay one block's predicted rectangles on the running sums,
    window by window, so every timestep receives its additions in window
    order."""
    total = len(sums.window_count)
    width = sums.spec.window_width
    for origin, row in zip(window_outputs.origins, window_outputs.outputs):
        origin = int(origin)
        lo, hi = max(0, origin), min(total, origin + width)
        if hi > lo:
            sums.window_count[lo:hi] += 1
        start, end, height = row
        # A triple only counts as a rectangle above the power threshold.
        if not (sums.spec.to_watts(height) > sums.power_threshold and end > start):
            continue
        decoded = sums.spec.decode_rectangle(row, origin)
        if decoded is None:
            continue
        r_lo, r_hi, watts = decoded
        # A triple may decode past its own window (start < 0 or end > 1); the
        # window only votes on the samples it covers, so probability <= 1.
        r_lo, r_hi = max(lo, r_lo), min(hi, r_hi)
        if r_hi > r_lo:
            sums.rect_count[r_lo:r_hi] += 1
            sums.height_sum[r_lo:r_hi] += watts


def disaggregate(network, aggregate: PowerSeries, spec: WindowSpec,
                 config: DisaggConfig, power_threshold: float) -> EstimateSeries:
    """Slide the network over the zero-padded aggregate, SLIDE_BATCH
    windows at a time, and combine outputs by kind; `power_threshold` is
    the appliance's on-power threshold in watts.

    Each block goes straight into the running sums, so memory holds the
    sums (a few arrays of the series' length) and one block of windows,
    or two where a pair of blocks runs in the lanes.
    """
    width = spec.window_width
    if config.stride > width:
        raise ConfigError(f"stride {config.stride} exceeds the window width {width}")
    total = len(aggregate)
    origins = np.arange(-width, total + 1, config.stride)
    if network.output_kind == "triple":
        sums = RectangleSums(total, spec, power_threshold, config.probability_threshold)
        combine = combine_rectangles
    else:
        sums = MeanSums(total, network.output_offset)
        combine = combine_mean
    step = SLIDE_BATCH if network.runs_own_lanes else 2 * SLIDE_BATCH
    for lo in range(0, len(origins), step):
        first = origins[lo : lo + SLIDE_BATCH]
        second = origins[lo + SLIDE_BATCH : lo + step]
        if len(second):
            blocks = in_lanes(len(first) * network.parameter_count(),
                              lambda: slide(network, aggregate, spec, first),
                              lambda: slide(network, aggregate, spec, second))
        else:
            blocks = (slide(network, aggregate, spec, first),)
        for block in blocks:
            combine(block, sums)
    values, probability = sums.estimate()
    return EstimateSeries(series=PowerSeries(start_time=aggregate.start_time,
                                             sample_period=aggregate.sample_period,
                                             values=values),
                          probability=probability)
