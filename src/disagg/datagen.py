"""Training batch generation.

Two kinds of raw (input, target) draws, in watts, are produced: windows
cut from real aggregate data, and synthetic aggregates built by summing
randomly placed appliance activations.  Training draws from both in a
50:50 ratio.  `stack_pairs` stacks a batch of draws and scales the
stacks: each input row is mean-centred on its own mean and divided by
one dataset-level standard deviation estimate (never each window's own
std, which would destroy the power scale); targets are divided by the
appliance's maximum power so they live in [0, 1].  Both rules, and their
inverse for inference, are methods of `WindowSpec`.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .timeseries import Activation, PowerSeries
from .util import is_number

PREFETCH_DEPTH = 2  # batches a producer thread may prepare ahead of training


@dataclass(frozen=True)
class WindowSpec:
    """Window geometry and the scaling between watts and network units for one appliance."""

    window_width: int
    max_power: float
    input_std: float

    def __post_init__(self):
        # Inference reads these from a checkpoint's manifest.
        for name in ("window_width", "max_power", "input_std"):
            value, integer = getattr(self, name), name == "window_width"
            if not (is_number(value, integer) and value > 0):
                raise DataError(f"{name} must be positive and "
                                f"{'an integer' if integer else 'finite'}, got {value!r}")

    def standardize(self, windows) -> np.ndarray:
        """Centre each window (the last axis) on its own mean, divide by the input std."""
        windows = np.asarray(windows, dtype=np.float64)
        return (windows - windows.mean(axis=-1, keepdims=True)) / self.input_std

    def scale_target(self, watts) -> np.ndarray:
        """Map watts into [0, 1] by the appliance's maximum power, clipping above."""
        return np.clip(np.asarray(watts, dtype=np.float64) / self.max_power, 0.0, 1.0)

    def to_watts(self, scaled):
        """Scaled network outputs back in watts."""
        return scaled * self.max_power

    def decode_rectangle(self, triple: RectangleTriple, window_origin: int):
        """The fractional triple of the window starting at `window_origin` as
        absolute samples and watts, (start, end, watts); None when the rounded
        span is empty (a degenerate triple counts as no prediction)."""
        start, end, height = triple
        start = window_origin + int(np.floor(start * self.window_width + 0.5))
        end = window_origin + int(np.floor(end * self.window_width + 0.5))
        if end <= start:
            return None
        return start, end, self.to_watts(height)


class RectangleTriple(NamedTuple):
    """(start, end, mean height) of the first activation in a window.

    All three are fractions in [0, 1]: start/end as proportions of the
    window, height as a proportion of the appliance's maximum power.
    All zeros encodes "no activation present".
    """

    start: float
    end: float
    height: float


@dataclass(frozen=True)
class Placement:
    """Where one activation landed in a generated window (test metadata)."""

    appliance: str
    house: int | None
    offset: int  # window-relative; may be negative for partial overlap
    values: np.ndarray
    is_target: bool

    def contribution(self, window_width: int) -> np.ndarray:
        """The watts this placement added to the window input."""
        out = np.zeros(window_width)
        lo = max(0, self.offset)
        hi = min(window_width, self.offset + len(self.values))
        if hi > lo:
            out[lo:hi] = self.values[lo - self.offset : hi - self.offset]
        return out


def estimate_input_std(draw, sample_count: int, rng) -> float:
    """Population std of the pooled samples of `sample_count` windows
    drawn by `draw(rng)`.

    The estimate must be recorded in the checkpoint's manifest so that
    inference standardizes exactly as training did.
    """
    pooled = [np.asarray(draw(rng), dtype=np.float64) for _ in range(sample_count)]
    std = float(np.concatenate(pooled).std())
    if std == 0.0:
        raise DataError("zero variance in sampled training windows")
    return std


def encode_rectangle(target) -> RectangleTriple:
    """Encode the first activation in a scaled target vector as a triple.

    start = first-sample index / width, end = (last-sample index + 1) /
    width, height = mean power over [start, end).  Anything after the
    first contiguous nonzero run is ignored; an all-zero target encodes
    as (0, 0, 0).
    """
    target = np.asarray(target, dtype=np.float64)
    width = len(target)
    nonzero = np.flatnonzero(target > 0)
    if nonzero.size == 0:
        return RectangleTriple(0.0, 0.0, 0.0)
    start_idx = int(nonzero[0])
    # End of the first contiguous run, not of all activity in the window.
    breaks = np.flatnonzero(np.diff(nonzero) > 1)
    end_idx = int(nonzero[breaks[0]] + 1) if breaks.size else int(nonzero[-1] + 1)
    height = float(target[start_idx:end_idx].mean())
    return RectangleTriple(start_idx / width, end_idx / width, height)


class WindowIndex:
    """Where windows of one width may start in one house, built once.

    Clear starts, whose window holds no sample of any target activation,
    are the complement in [0, N-W] of the union of [o-W+1, o+len-1] over
    the activations.  They are kept as sorted disjoint intervals with
    their cumulative lengths, so the k-th clear start costs one
    searchsorted.  Activations are also kept sorted by offset (stably, so
    equal offsets keep their list order) for the first-complete lookup.
    Memory is O(activations), not O(samples).
    """

    def __init__(self, total: int, width: int, activations):
        if total < width:
            raise DataError(f"aggregate ({total} samples) shorter than window ({width})")
        self.total = total
        self.width = width
        self.activations = tuple(activations)

        self._by_offset = sorted(self.activations, key=lambda a: a.source_offset)
        self._offsets = [a.source_offset for a in self._by_offset]
        self._ends = [a.source_offset + len(a) for a in self._by_offset]

        starts = total - width + 1
        offsets = np.array(self._offsets, dtype=np.int64)
        ends = np.array(self._ends, dtype=np.int64)
        lo = np.maximum(offsets - width + 1, 0)
        hi = np.minimum(ends, starts)
        keep = (hi > lo) & (ends > offsets)
        lo, hi = lo[keep], hi[keep]  # offsets were sorted, so lo is too
        # Gap i runs from the furthest blocked start before blocked interval i to its lo.
        gap_lo = np.maximum.accumulate(np.concatenate(([0], hi)))
        gap_hi = np.concatenate((lo, [starts]))
        keep = gap_hi > gap_lo
        lengths = gap_hi[keep] - gap_lo[keep]
        self._clear_ends = np.cumsum(lengths)
        self._clear_base = gap_lo[keep] - (self._clear_ends - lengths)
        self.clear_count = int(self._clear_ends[-1]) if lengths.size else 0

    def draw_clear_start(self, rng) -> int:
        """A uniform window start whose window holds no target activation."""
        if self.clear_count == 0:
            # Every window overlaps some activation; fall back to any window.
            return int(rng.integers(0, self.total - self.width + 1))
        k = int(rng.integers(0, self.clear_count))
        i = int(np.searchsorted(self._clear_ends, k, side="right"))
        return int(self._clear_base[i]) + k

    def first_complete(self, start: int):
        """The activation with the lowest offset wholly inside [start, start+W).

        Ties go to the earliest in the original list.  For activations
        that do not overlap, as extraction yields, the scan stops after at
        most two candidates.
        """
        limit = start + self.width
        for j in range(bisect.bisect_left(self._offsets, start), len(self._offsets)):
            if self._offsets[j] > limit:
                break
            if self._ends[j] <= limit:
                return self._by_offset[j]
        return None


@dataclass
class RealWindowSource:
    """Infinite sampler of windows cut out of one house's real aggregate.

    Each draw is `(input, target, placements)` in watts.  With
    probability 1/2 the window is positioned so that a randomly chosen
    target activation is completely contained (the activation's
    in-window offset is drawn uniformly over the feasible range);
    otherwise a window containing no target activation at all is drawn.
    The target sequence copies only the first complete target activation
    in the window; any other target-appliance activity stays in the
    input but not in the target.  Activations longer than the window are
    truncated and placed at offset zero.
    """

    aggregate: PowerSeries
    target_activations: list[Activation]
    appliance_id: str
    window_width: int
    index: WindowIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = WindowIndex(len(self.aggregate), self.window_width,
                                 self.target_activations)

    def sample(self, rng):
        width = self.window_width
        total = len(self.aggregate)
        target_activations = self.index.activations

        include = rng.random() < 0.5 and len(target_activations) > 0
        if not include:
            start = self.index.draw_clear_start(rng)
            raw_input = self.aggregate.values[start : start + width]
            return raw_input, np.zeros(width), ()

        chosen = target_activations[int(rng.integers(0, len(target_activations)))]
        a0, alen = chosen.source_offset, len(chosen)
        if alen <= width:
            # Draw the activation's offset inside the window, uniform over
            # placements that keep it complete and the window in range.
            lo = max(0, a0 + width - total)
            hi = min(width - alen, a0)
            offset = int(rng.integers(lo, hi + 1))
            start = a0 - offset
        else:
            start = min(a0, total - width)
        raw_input = self.aggregate.values[start : start + width]

        placed = self.index.first_complete(start)
        if placed is None:  # only when the chosen activation overflows the window
            placed = chosen
        placement = Placement(self.appliance_id, placed.house, placed.source_offset - start,
                              placed.values, is_target=True)
        return raw_input, placement.contribution(width), (placement,)


@dataclass
class SyntheticSource:
    """Infinite sampler of synthetic aggregates built by summing placed activations.

    Each draw is `(input, target, placements)` in watts.  The target
    class appears with probability 1/2 and, when it does, is completely
    contained in the window (truncated at offset zero only if longer
    than the window).  Every other class in the library acts as a
    distractor appearing independently with probability 1/4, placed
    anywhere, partial overlap allowed.  The input is the elementwise sum
    of all contributions; the target holds the target-class contribution
    only.  `library` maps every appliance class to its train-house
    activations, so no test-house activation can enter a window.
    """

    library: dict[str, tuple[Activation, ...]]
    target_class: str
    window_width: int

    def sample(self, rng):
        width = self.window_width
        raw_input = np.zeros(width)
        raw_target = np.zeros(width)
        placements: list[Placement] = []

        if rng.random() < 0.5:
            pool = self.library[self.target_class]
            if pool:
                act = pool[int(rng.integers(0, len(pool)))]
                offset = 0 if len(act) >= width else int(rng.integers(0, width - len(act) + 1))
                contrib = Placement(self.target_class, act.house, offset, act.values,
                                    is_target=True)
                added = contrib.contribution(width)
                raw_input += added
                raw_target += added
                placements.append(contrib)

        for cls in sorted(self.library):
            if cls == self.target_class:
                continue
            if rng.random() >= 0.25:
                continue
            pool = self.library[cls]
            if not pool:
                continue  # empty class: skip, draw order stays fixed
            act = pool[int(rng.integers(0, len(pool)))]
            offset = int(rng.integers(-(len(act) - 1), width))
            contrib = Placement(cls, act.house, offset, act.values, is_target=False)
            raw_input += contrib.contribution(width)
            placements.append(contrib)

        return raw_input, raw_target, tuple(placements)


@dataclass
class MultiSource:
    """Uniform mixture over samplers, one per training house."""

    sources: list

    def sample(self, rng):
        return self.sources[int(rng.integers(0, len(self.sources)))].sample(rng)


def training_sources(houses, library: dict, appliance_id: str,
                     window_width: int, max_power: float, std_sample_count: int,
                     std_rng):
    """The samplers of the 50:50 real/synthetic training mixture, and its WindowSpec.

    `houses` are the train houses as (aggregate, target activations on
    the aggregate's grid) pairs, and `library` maps every appliance class
    to its train-house activations.  The input std is estimated over raw
    inputs drawn from the same mixture (a coin, then a house, then a
    window), and the returned spec carries it, so `batch_stream` and
    inference scale inputs identically.  With no houses, both halves of
    the mixture come from the simulator.  Returns (real, synth, spec).
    """
    synth = SyntheticSource(library, appliance_id, window_width)
    real_sources = [RealWindowSource(aggregate, acts, appliance_id, window_width)
                    for aggregate, acts in houses]
    real = MultiSource(real_sources) if real_sources else synth

    def draw_input(rng):
        return (real if rng.random() < 0.5 else synth).sample(rng)[0]

    input_std = estimate_input_std(draw_input, std_sample_count, std_rng)
    return real, synth, WindowSpec(window_width, max_power, input_std)


@dataclass(frozen=True)
class Batch:
    """One immutable training batch; targets stacked per output kind."""

    inputs: np.ndarray
    targets: np.ndarray


def stack_pairs(raws, spec: WindowSpec, output_kind: str) -> Batch:
    """The batch of raw draws `(input, target, placements)`, in watts,
    scaled by `spec` for a network whose output is `output_kind`.

    This is where every training input is standardized and every target
    scaled (and, for "triple", each target row encoded as a
    RectangleTriple).  The draws are stacked first and each stack is
    scaled in one call, which gives every row the bits it has when
    scaled alone.
    """
    inputs, targets, _ = zip(*raws)
    targets = spec.scale_target(np.stack(targets))
    if output_kind == "triple":
        targets = np.array([encode_rectangle(row) for row in targets])
    elif output_kind != "sequence":
        raise DataError(f"unknown output kind {output_kind!r}")
    return Batch(inputs=spec.standardize(np.stack(inputs)), targets=targets)


def batch_stream(source_real, source_synth, spec: WindowSpec, output_kind: str,
                 batch_size: int, rng):
    """Yield batches drawn half from real and half from synthetic windows.

    Both sources resample with replacement, so the stream never runs
    dry.  Each batch's draws are scaled by `spec` in `stack_pairs`.  All
    randomness flows through `rng`, making the stream fully determined
    by its seed; run it on a producer thread if batch preparation should
    overlap training.
    """
    if batch_size % 2 != 0:
        raise DataError("batch_size must be even for a 50:50 real/synthetic split")
    half = batch_size // 2
    while True:
        raws = [source_real.sample(rng) for _ in range(half)]
        raws += [source_synth.sample(rng) for _ in range(half)]
        yield stack_pairs(raws, spec, output_kind)


def prefetch(iterator):
    """Run an iterator on a producer thread, at most PREFETCH_DEPTH items
    ahead of the consumer.

    Batches are immutable once emitted and the producer owns the
    iterator's random state, so training can overlap with preparing the
    next batch without changing the stream's contents or order.  An
    exception raised by the iterator is re-raised in the consumer.
    Closing the generator cancels the items not yet started and joins
    the producer thread.
    """
    from concurrent.futures import ThreadPoolExecutor

    done = object()
    pool = ThreadPoolExecutor(1, thread_name_prefix="prefetch")
    try:
        ahead = deque(pool.submit(next, iterator, done) for _ in range(PREFETCH_DEPTH))
        while (item := ahead.popleft().result()) is not done:
            ahead.append(pool.submit(next, iterator, done))
            yield item
    finally:
        pool.shutdown(cancel_futures=True)
