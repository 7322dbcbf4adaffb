"""Disaggregation of arbitrarily long aggregates by sliding a trained
network along the series and combining the overlapping outputs.

The aggregate is zero-padded by one full window at each end (so the
first window the network sees is all zeros and every real sample
receives the full complement of strided windows), each window is
standardized exactly as during training, and outputs are combined
either by per-timestep averaging (sequence outputs) or by overlaying
predicted rectangles and thresholding the resulting probability
(rectangle outputs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import RectangleTriple, WindowSpec, standardize_input
from .errors import ConfigError, DataError
from .timeseries import PowerSeries


@dataclass(frozen=True)
class DisaggConfig:
    """Sliding and thresholding knobs for one disaggregation run."""

    stride: int
    power_threshold: float
    probability_threshold: float = 0.5

    def validate(self, window_width: int):
        if not 1 <= self.stride <= window_width:
            raise ConfigError(
                f"stride {self.stride} out of range [1, {window_width}]")
        if not 0.0 <= self.probability_threshold <= 1.0:
            raise ConfigError("probability_threshold must lie in [0, 1]")


@dataclass(frozen=True)
class EstimateSeries:
    """Estimated appliance power on the aggregate's grid, with optional
    per-sample confidence from the rectangles path."""

    series: PowerSeries
    probability: np.ndarray | None = None


@dataclass(frozen=True)
class WindowOutputs:
    """Raw per-window network outputs with absolute sample positions.

    `origins` hold each window's start in real aggregate coordinates
    (negative for windows that begin in the left padding).  Sequence
    outputs are in watts; triple outputs stay fractional until decoded.
    """

    kind: str
    origins: np.ndarray
    outputs: np.ndarray
    window_width: int
    output_offset: int
    total_length: int
    max_power: float
    start_time: float = 0.0
    sample_period: int = 6


def slide(network, aggregate: PowerSeries, spec: WindowSpec, config: DisaggConfig,
          batch_size: int = 64) -> WindowOutputs:
    """Run the network over zero-padded, strided windows of the aggregate.

    Windows are standardized with the training-time dataset std;
    sequence outputs are scaled back to watts.
    """
    if spec.input_std is None:
        raise DataError("WindowSpec.input_std is unset; load it from the manifest")
    width = spec.window_width
    config.validate(width)

    padded = np.concatenate([np.zeros(width), aggregate.values, np.zeros(width)])
    starts = np.arange(0, len(padded) - width + 1, config.stride)
    windows = np.stack([padded[s : s + width] for s in starts]) if len(starts) else \
        np.empty((0, width))
    windows = (windows - windows.mean(axis=1, keepdims=True)) / spec.input_std

    chunks = []
    for lo in range(0, len(windows), batch_size):
        chunks.append(network.forward(windows[lo : lo + batch_size]))
    outputs = np.concatenate(chunks) if chunks else np.empty((0, 0))

    kind = getattr(network, "output_kind", "sequence")
    offset = getattr(network, "output_offset", 0)
    if kind == "sequence":
        outputs = outputs * spec.max_power
    return WindowOutputs(kind=kind, origins=starts - width, outputs=outputs,
                         window_width=width, output_offset=offset,
                         total_length=len(aggregate), max_power=spec.max_power,
                         start_time=aggregate.start_time,
                         sample_period=aggregate.sample_period)


def combine_mean(window_outputs: WindowOutputs) -> EstimateSeries:
    """Average all window outputs covering each timestep; clip negatives."""
    total = window_outputs.total_length
    sums = np.zeros(total)
    counts = np.zeros(total)
    out_len = window_outputs.outputs.shape[1] if window_outputs.outputs.size else 0
    for origin, row in zip(window_outputs.origins, window_outputs.outputs):
        start = int(origin) + window_outputs.output_offset
        lo = max(0, start)
        hi = min(total, start + out_len)
        if hi <= lo:
            continue
        sums[lo:hi] += row[lo - start : hi - start]
        counts[lo:hi] += 1
    estimate = np.divide(sums, counts, out=np.zeros(total), where=counts > 0)
    return EstimateSeries(series=_as_series(window_outputs, np.maximum(estimate, 0.0)))


def decode_rectangle(triple: RectangleTriple, window_origin: int, window_width: int,
                     max_power: float):
    """Map a fractional triple to absolute samples: (start, end, watts).

    Returns None when the rounded span is empty (a degenerate triple
    counts as no prediction).
    """
    start = window_origin + int(np.floor(triple.start * window_width + 0.5))
    end = window_origin + int(np.floor(triple.end * window_width + 0.5))
    if end <= start:
        return None
    return start, end, triple.height * max_power


def combine_rectangles(window_outputs: WindowOutputs, config: DisaggConfig) -> EstimateSeries:
    """Overlay predicted rectangles and threshold the normalised overlap.

    Per timestep: probability = covering rectangles / covering windows;
    power = mean rectangle height in watts; the appliance is declared on
    where probability and power both clear their thresholds.
    """
    total = window_outputs.total_length
    width = window_outputs.window_width
    window_count = np.zeros(total)
    rect_count = np.zeros(total)
    height_sum = np.zeros(total)

    for origin, row in zip(window_outputs.origins, window_outputs.outputs):
        origin = int(origin)
        lo, hi = max(0, origin), min(total, origin + width)
        if hi > lo:
            window_count[lo:hi] += 1
        triple = RectangleTriple(*row)
        # A triple only counts as a rectangle above the power threshold.
        if not (triple.height * window_outputs.max_power > config.power_threshold
                and triple.end > triple.start):
            continue
        decoded = decode_rectangle(triple, origin, width, window_outputs.max_power)
        if decoded is None:
            continue
        r_lo, r_hi, watts = decoded
        # A triple may decode past its own window (start < 0 or end > 1); the
        # window only votes on the samples it covers, so probability <= 1.
        r_lo, r_hi = max(lo, r_lo), min(hi, r_hi)
        if r_hi > r_lo:
            rect_count[r_lo:r_hi] += 1
            height_sum[r_lo:r_hi] += watts

    probability = np.divide(rect_count, window_count, out=np.zeros(total),
                            where=window_count > 0)
    mean_power = np.divide(height_sum, rect_count, out=np.zeros(total),
                           where=rect_count > 0)
    on = (probability >= config.probability_threshold) & \
         (mean_power >= config.power_threshold)
    estimate = np.where(on, mean_power, 0.0)
    return EstimateSeries(series=_as_series(window_outputs, estimate),
                          probability=probability)


def disaggregate(network, aggregate: PowerSeries, spec: WindowSpec,
                 config: DisaggConfig, batch_size: int = 64) -> EstimateSeries:
    """Slide the network over the aggregate and combine outputs by kind."""
    outputs = slide(network, aggregate, spec, config, batch_size=batch_size)
    if outputs.kind == "triple":
        return combine_rectangles(outputs, config)
    return combine_mean(outputs)


def _as_series(window_outputs: WindowOutputs, values: np.ndarray) -> PowerSeries:
    return PowerSeries(start_time=window_outputs.start_time,
                       sample_period=window_outputs.sample_period,
                       values=values)
