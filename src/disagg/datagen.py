"""Training pair generation.

Two kinds of (input, target) pairs are produced: windows cut from real
aggregate data, and synthetic aggregates built by summing randomly
placed appliance activations.  Training draws from both in a 50:50
ratio.  Inputs are independently mean-centred and divided by one
dataset-level standard deviation estimate (never each window's own
std, which would destroy the power scale); targets are divided by the
appliance's maximum power so they live in [0, 1].
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .timeseries import Activation, ActivationLibrary, PowerSeries


@dataclass(frozen=True)
class WindowSpec:
    """Window geometry and scaling constants for one target appliance."""

    appliance_id: str
    window_width: int
    max_power: float
    input_std: float | None = None

    def __post_init__(self):
        if self.window_width <= 0:
            raise DataError("window_width must be positive")
        if self.max_power <= 0:
            raise DataError("max_power must be positive")
        if self.input_std is not None and self.input_std <= 0:
            raise DataError("input_std must be positive")

    def with_input_std(self, input_std: float) -> "WindowSpec":
        return replace(self, input_std=input_std)


@dataclass(frozen=True)
class RectangleTriple:
    """(start, end, mean height) of the first activation in a window.

    All three are fractions in [0, 1]: start/end as proportions of the
    window, height as a proportion of the appliance's maximum power.
    All zeros encodes "no activation present".
    """

    start: float
    end: float
    height: float

    def as_array(self) -> np.ndarray:
        return np.array([self.start, self.end, self.height])


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


@dataclass(frozen=True)
class TrainingPair:
    """Standardized input window plus its target.

    `target` is either a power vector in [0, 1] with the window's length
    or a RectangleTriple, depending on the consuming architecture.
    """

    input: np.ndarray
    target: np.ndarray | RectangleTriple
    placements: tuple[Placement, ...] = ()


def standardize_input(window, input_std: float) -> np.ndarray:
    """Centre the window on its own mean, divide by the dataset std."""
    if input_std <= 0:
        raise DataError("input_std must be positive")
    window = np.asarray(window, dtype=np.float64)
    return (window - window.mean()) / input_std


def scale_target(window, max_power: float) -> np.ndarray:
    """Map watts into [0, 1] by the appliance's maximum power, clipping above."""
    if max_power <= 0:
        raise DataError("max_power must be positive")
    return np.clip(np.asarray(window, dtype=np.float64) / max_power, 0.0, 1.0)


def estimate_input_std(training_windows, sample_count: int, rng) -> float:
    """Population std of the pooled samples of randomly drawn training windows.

    `training_windows` is either a sequence of window vectors (drawn with
    replacement) or a callable `rng -> window` producing fresh windows.
    The estimate must be recorded in the experiment manifest so that
    inference standardizes exactly as training did.
    """
    pooled = []
    for _ in range(sample_count):
        if callable(training_windows):
            w = training_windows(rng)
        else:
            if len(training_windows) == 0:
                raise DataError("no training windows available")
            w = training_windows[int(rng.integers(0, len(training_windows)))]
        pooled.append(np.asarray(w, dtype=np.float64))
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


def _finish_pair(raw_input, raw_target, spec: WindowSpec, target_kind: str,
                 placements) -> TrainingPair:
    if spec.input_std is None:
        raise DataError("WindowSpec.input_std is unset; estimate it first")
    scaled = scale_target(raw_target, spec.max_power)
    if target_kind == "rectangle":
        target = encode_rectangle(scaled)
    elif target_kind == "sequence":
        target = scaled
    else:
        raise DataError(f"unknown target kind {target_kind!r}")
    return TrainingPair(input=standardize_input(raw_input, spec.input_std),
                        target=target, placements=tuple(placements))


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


def select_real_window_raw(aggregate: PowerSeries, target_activations, spec: WindowSpec,
                           rng, include_prob: float = 0.5):
    """Window selection before standardization: (input W, target W, placements)."""
    index = WindowIndex(len(aggregate), spec.window_width, target_activations)
    return _cut_real_window(aggregate, index, spec, rng, include_prob)


def _cut_real_window(aggregate: PowerSeries, index: WindowIndex, spec: WindowSpec,
                     rng, include_prob: float = 0.5):
    width = spec.window_width
    total = len(aggregate)
    if (index.total, index.width) != (total, width):
        raise DataError(f"window index built for {index.total} samples and width "
                        f"{index.width}, not {total} and {width}")
    target_activations = index.activations

    include = rng.random() < include_prob and len(target_activations) > 0
    if not include:
        start = index.draw_clear_start(rng)
        raw_input = aggregate.values[start : start + width]
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
    raw_input = aggregate.values[start : start + width]

    raw_target = np.zeros(width)
    first = index.first_complete(start)
    if first is not None:
        raw_target[first.source_offset - start : first.source_offset - start + len(first)] = first.values
        placed = first
    else:
        # Only reachable when the chosen activation overflows the window.
        span = min(width, a0 + alen - start) - max(0, a0 - start)
        rel = max(0, a0 - start)
        src = max(0, start - a0)
        raw_target[rel : rel + span] = chosen.values[src : src + span]
        placed = chosen
    placement = Placement(spec.appliance_id, placed.house, placed.source_offset - start,
                          placed.values, is_target=True)
    return raw_input, raw_target, (placement,)


def select_real_window(aggregate: PowerSeries, target_activations, spec: WindowSpec,
                       rng, target_kind: str = "sequence",
                       include_prob: float = 0.5) -> TrainingPair:
    """Cut one training window out of a real aggregate series.

    With probability `include_prob` the window is positioned so that a
    randomly chosen target activation is completely contained (the
    activation's in-window offset is drawn uniformly over the feasible
    range); otherwise a window containing no target activation at all is
    drawn.  The target sequence copies only the first complete target
    activation in the window; any other target-appliance activity stays
    in the input but not in the target.  Activations longer than the
    window are truncated and placed at offset zero.
    """
    raw_input, raw_target, placements = select_real_window_raw(
        aggregate, target_activations, spec, rng, include_prob)
    return _finish_pair(raw_input, raw_target, spec, target_kind, placements)


def synthesize_aggregate_raw(library: ActivationLibrary, target_class: str, spec: WindowSpec,
                             rng, target_prob: float = 0.5, distractor_prob: float = 0.25):
    """Synthesis before standardization: (input W, target W, placements)."""
    width = spec.window_width
    raw_input = np.zeros(width)
    raw_target = np.zeros(width)
    placements: list[Placement] = []

    if rng.random() < target_prob:
        pool = library.train_activations(target_class)
        if pool:
            act = pool[int(rng.integers(0, len(pool)))]
            offset = 0 if len(act) >= width else int(rng.integers(0, width - len(act) + 1))
            contrib = Placement(target_class, act.house, offset, act.values, is_target=True)
            added = contrib.contribution(width)
            raw_input += added
            raw_target += added
            placements.append(contrib)

    for cls in library.classes():
        if cls == target_class:
            continue
        if rng.random() >= distractor_prob:
            continue
        pool = library.train_activations(cls)
        if not pool:
            continue  # empty class: skip, draw order stays fixed
        act = pool[int(rng.integers(0, len(pool)))]
        offset = int(rng.integers(-(len(act) - 1), width))
        contrib = Placement(cls, act.house, offset, act.values, is_target=False)
        raw_input += contrib.contribution(width)
        placements.append(contrib)

    return raw_input, raw_target, tuple(placements)


def synthesize_aggregate(library: ActivationLibrary, target_class: str, spec: WindowSpec,
                         rng, target_kind: str = "sequence",
                         target_prob: float = 0.5,
                         distractor_prob: float = 0.25) -> TrainingPair:
    """Build a synthetic aggregate window by summing placed activations.

    The target class appears with probability `target_prob` and, when it
    does, is completely contained in the window (truncated at offset
    zero only if longer than the window).  Every other class in the
    library acts as a distractor appearing independently with
    probability `distractor_prob`, placed anywhere, partial overlap
    allowed.  The input is the elementwise sum of all contributions; the
    target holds the target-class contribution only.
    """
    raw_input, raw_target, placements = synthesize_aggregate_raw(
        library, target_class, spec, rng, target_prob, distractor_prob)
    return _finish_pair(raw_input, raw_target, spec, target_kind, placements)


@dataclass
class RealWindowSource:
    """Infinite sampler of real-aggregate training pairs."""

    aggregate: PowerSeries
    target_activations: list[Activation]
    spec: WindowSpec
    target_kind: str = "sequence"
    index: WindowIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = WindowIndex(len(self.aggregate), self.spec.window_width,
                                 self.target_activations)

    def sample(self, rng) -> TrainingPair:
        raw_input, raw_target, placements = _cut_real_window(
            self.aggregate, self.index, self.spec, rng)
        return _finish_pair(raw_input, raw_target, self.spec, self.target_kind, placements)

    def sample_raw_input(self, rng) -> np.ndarray:
        """Unstandardized input window, for dataset std estimation."""
        raw_input, _, _ = _cut_real_window(self.aggregate, self.index, self.spec, rng)
        return raw_input


@dataclass
class SyntheticSource:
    """Infinite sampler of synthesised-aggregate training pairs."""

    library: ActivationLibrary
    target_class: str
    spec: WindowSpec
    target_kind: str = "sequence"

    def sample(self, rng) -> TrainingPair:
        return synthesize_aggregate(self.library, self.target_class, self.spec,
                                    rng, self.target_kind)

    def sample_raw_input(self, rng) -> np.ndarray:
        raw_input, _, _ = synthesize_aggregate_raw(self.library, self.target_class,
                                                   self.spec, rng)
        return raw_input


@dataclass
class MultiSource:
    """Uniform mixture over several samplers (one per training house)."""

    sources: list

    def sample(self, rng) -> TrainingPair:
        return self.sources[int(rng.integers(0, len(self.sources)))].sample(rng)

    def sample_raw_input(self, rng) -> np.ndarray:
        return self.sources[int(rng.integers(0, len(self.sources)))].sample_raw_input(rng)


@dataclass(frozen=True)
class Batch:
    """One immutable training batch; targets stacked per target kind."""

    inputs: np.ndarray
    targets: np.ndarray
    pairs: tuple[TrainingPair, ...]


def stack_pairs(pairs) -> Batch:
    inputs = np.stack([p.input for p in pairs])
    first = pairs[0].target
    if isinstance(first, RectangleTriple):
        targets = np.stack([p.target.as_array() for p in pairs])
    else:
        targets = np.stack([p.target for p in pairs])
    return Batch(inputs=inputs, targets=targets, pairs=tuple(pairs))


def batch_stream(source_real, source_synth, batch_size: int, rng):
    """Yield batches drawn half from real and half from synthetic pairs.

    Both sources resample with replacement, so the stream never runs
    dry.  All randomness flows through `rng`, making the stream fully
    determined by its seed; run it on a producer thread if batch
    preparation should overlap training.
    """
    if batch_size % 2 != 0:
        raise DataError("batch_size must be even for a 50:50 real/synthetic split")
    half = batch_size // 2
    while True:
        pairs = [source_real.sample(rng) for _ in range(half)]
        pairs += [source_synth.sample(rng) for _ in range(half)]
        yield stack_pairs(pairs)


def prefetch(iterator, depth: int = 2):
    """Run an iterator on a producer thread, buffering `depth` items.

    Batches are immutable once emitted and the producer owns the
    iterator's random state, so training can overlap with preparing the
    next batch without changing the stream's contents or order.  An
    exception raised by the iterator is re-raised in the consumer.
    Closing the generator stops the producer and joins its thread.
    """
    import queue
    import threading

    q: "queue.Queue" = queue.Queue(maxsize=depth)
    stop = threading.Event()
    done = object()

    class Failure:
        def __init__(self, exc):
            self.exc = exc

    def producer():
        # After `stop` is set and the queue drained, at most one more put
        # happens before the producer returns, so no put blocks forever.
        try:
            for item in iterator:
                q.put(item)
                if stop.is_set():
                    return
            q.put(done)
        except BaseException as exc:  # re-raised by the consumer
            q.put(Failure(exc))

    thread = threading.Thread(target=producer, name="prefetch", daemon=True)
    thread.start()
    try:
        while True:
            item = q.get()
            if item is done:
                return
            if isinstance(item, Failure):
                raise item.exc
            yield item
    finally:
        stop.set()
        while True:
            try:
                q.get_nowait()
            except queue.Empty:
                break
        thread.join()
