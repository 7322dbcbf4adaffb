import threading

import numpy as np
import pytest

from disagg.datagen import (Batch, MultiSource, Placement, RealWindowSource,
                            RectangleTriple, SyntheticSource, TrainingPair, WindowIndex,
                            WindowSpec, batch_stream, encode_rectangle,
                            estimate_input_std, prefetch, scale_target, select_real_window,
                            select_real_window_raw, standardize_input,
                            synthesize_aggregate)
from disagg.errors import DataError
from disagg.timeseries import Activation, ActivationLibrary, PowerSeries


class ScriptedRng:
    """Replays fixed draws so tests can force specific branches."""

    def __init__(self, randoms=(), integers=()):
        self.randoms = list(randoms)
        self.ints = list(integers)

    def random(self):
        return self.randoms.pop(0)

    def integers(self, low, high):
        value = self.ints.pop(0)
        assert low <= value < high, f"scripted draw {value} outside [{low}, {high})"
        return value


def make_spec(width=128, max_power=2400.0, input_std=500.0):
    return WindowSpec("kettle", width, max_power, input_std)


class TestStandardize:
    def test_constant_window_centres_to_zero(self):
        np.testing.assert_array_equal(standardize_input([500.0, 500, 500], 123.0), [0, 0, 0])

    def test_two_point_window(self):
        np.testing.assert_allclose(standardize_input([0.0, 100.0], 50.0), [-1.0, 1.0])

    def test_mean_is_zero(self, rng):
        for _ in range(50):
            window = rng.uniform(0, 3000, size=int(rng.integers(2, 400)))
            assert abs(standardize_input(window, 200.0).mean()) < 1e-9

    def test_rejects_nonpositive_std(self):
        with pytest.raises(DataError):
            standardize_input([1.0, 2.0], 0.0)


class TestScaleTarget:
    def test_kettle_scaling(self):
        np.testing.assert_allclose(scale_target([0.0, 3100.0], 3100.0), [0.0, 1.0])

    def test_zeros(self):
        np.testing.assert_array_equal(scale_target(np.zeros(4), 3100.0), np.zeros(4))

    def test_clip_above_max(self):
        np.testing.assert_array_equal(scale_target([4000.0], 3100.0), [1.0])


class TestEstimateInputStd:
    def test_two_level_windows(self, rng):
        windows = [np.array([0.0, 2.0] * 8)] * 5
        assert estimate_input_std(windows, 100, rng) == pytest.approx(1.0)

    def test_zero_variance_rejected(self, rng):
        with pytest.raises(DataError, match="zero variance"):
            estimate_input_std([np.array([5.0, 5.0, 5.0])], 10, rng)

    def test_deterministic_under_seed(self):
        windows = [np.arange(10, dtype=float), np.ones(10) * 7]
        a = estimate_input_std(windows, 20, np.random.default_rng(3))
        b = estimate_input_std(windows, 20, np.random.default_rng(3))
        assert a == b

    def test_callable_source(self, rng):
        estimate = estimate_input_std(lambda r: r.uniform(0, 10, size=16), 50, rng)
        assert estimate > 0


class TestEncodeRectangle:
    def test_worked_example(self):
        target = np.zeros(100)
        target[10:90] = 0.5
        triple = encode_rectangle(target)
        assert triple == RectangleTriple(0.1, 0.9, 0.5)

    def test_all_zero_target(self):
        assert encode_rectangle(np.zeros(64)) == RectangleTriple(0.0, 0.0, 0.0)

    def test_full_window(self):
        triple = encode_rectangle(np.full(50, 0.3))
        assert (triple.start, triple.end) == (0.0, 1.0)
        assert triple.height == pytest.approx(0.3)

    def test_only_first_activation_encoded(self):
        target = np.zeros(100)
        target[10:20] = 0.5
        target[60:80] = 0.9
        triple = encode_rectangle(target)
        assert (triple.start, triple.end) == (0.1, 0.2)
        assert triple.height == pytest.approx(0.5)

    def test_round_trip_on_index_lattice(self, rng):
        width = 128
        for _ in range(100):
            start = int(rng.integers(0, width - 1))
            end = int(rng.integers(start + 1, width + 1))
            target = np.zeros(width)
            target[start:end] = 0.7
            triple = encode_rectangle(target)
            assert int(np.floor(triple.start * width + 0.5)) == start
            assert int(np.floor(triple.end * width + 0.5)) == end


def make_world(width=128, total=400, act_positions=((100, 40),), power=2000.0):
    aggregate_values = np.full(total, 300.0)
    acts = []
    for a0, alen in act_positions:
        aggregate_values[a0 : a0 + alen] += power
        acts.append(Activation(a0, np.full(alen, power), house=1))
    return PowerSeries(0, 6, aggregate_values), acts


class TestSelectRealWindow:
    def test_exclude_branch_gives_zero_target(self):
        aggregate, acts = make_world()
        rng = ScriptedRng(randoms=[0.9], integers=[0])  # exclude; clear-window index
        pair = select_real_window(aggregate, acts, make_spec(), rng)
        np.testing.assert_array_equal(pair.target, np.zeros(128))

    def test_exclude_branch_window_avoids_activations(self, rng):
        aggregate, acts = make_world()
        spec = make_spec()
        for _ in range(50):
            pair = select_real_window(aggregate, acts, spec, rng, include_prob=0.0)
            assert pair.target.max() == 0.0
            # input had the vampire load removed by centring; no kettle bump
            assert pair.input.max() * spec.input_std < 1000

    def test_include_branch_placement(self):
        aggregate, acts = make_world(act_positions=((100, 40),))
        rng = ScriptedRng(randoms=[0.0], integers=[0, 10])  # include; act 0; offset 10
        pair = select_real_window(aggregate, acts, make_spec(), rng)
        expected = np.zeros(128)
        expected[10:50] = 2000.0 / 2400.0
        np.testing.assert_allclose(pair.target, expected)
        assert pair.placements[0].offset == 10

    def test_oversized_activation_truncated_at_offset_zero(self):
        aggregate, acts = make_world(total=600, act_positions=((100, 200),))
        rng = ScriptedRng(randoms=[0.0], integers=[0])
        pair = select_real_window(aggregate, acts, make_spec(width=128), rng)
        np.testing.assert_allclose(pair.target, np.full(128, 2000.0 / 2400.0))

    def test_first_complete_activation_wins(self):
        # Window will contain both activations; the earlier one is the target.
        aggregate, acts = make_world(total=400, act_positions=((110, 10), (130, 10)))
        rng = ScriptedRng(randoms=[0.0], integers=[1, 90])  # choose 2nd act, offset 90
        pair = select_real_window(aggregate, acts, make_spec(), rng)
        # window start = 130 - 90 = 40; first complete activation starts at 110
        scaled = 2000.0 / 2400.0
        np.testing.assert_allclose(pair.target[70:80], np.full(10, scaled))
        np.testing.assert_array_equal(pair.target[90:100], np.zeros(10))

    def test_fallback_when_no_activations(self):
        aggregate, _ = make_world(act_positions=())
        rng = ScriptedRng(randoms=[0.0], integers=[5])
        pair = select_real_window(aggregate, [], make_spec(), rng)
        np.testing.assert_array_equal(pair.target, np.zeros(128))

    def test_aggregate_shorter_than_window_rejected(self):
        aggregate, acts = make_world(total=100)
        with pytest.raises(DataError, match="shorter than window"):
            select_real_window(aggregate, acts, make_spec(width=128), ScriptedRng([0.9]))

    def test_input_uses_real_aggregate(self):
        aggregate, acts = make_world()
        spec = make_spec()
        rng = ScriptedRng(randoms=[0.0], integers=[0, 0])
        pair = select_real_window(aggregate, acts, spec, rng)
        window = aggregate.values[100 : 100 + 128]
        np.testing.assert_allclose(pair.input, (window - window.mean()) / spec.input_std)


def make_library(classes=("kettle", "microwave", "fridge"), lengths=(4, 8, 16),
                 powers=(2000.0, 1200.0, 350.0), per_class=3):
    library = ActivationLibrary()
    for name, length, power in zip(classes, lengths, powers):
        library.assign_houses(name, train=[1], test=[5])
        acts = [Activation(0, np.full(length, power), house=1) for _ in range(per_class)]
        library.add(name, 1, acts)
        library.add(name, 5, [Activation(0, np.full(length, power), house=5)])
    return library


class TestSynthesizeAggregate:
    def test_all_draws_false(self):
        library = make_library()
        rng = ScriptedRng(randoms=[0.9, 0.9, 0.9])  # target, fridge, microwave
        pair = synthesize_aggregate(library, "kettle", make_spec(), rng)
        np.testing.assert_array_equal(pair.input, np.zeros(128))
        np.testing.assert_array_equal(pair.target, np.zeros(128))

    def test_only_target_drawn(self):
        library = make_library()
        rng = ScriptedRng(randoms=[0.0, 0.9, 0.9], integers=[0, 17])
        spec = make_spec()
        pair = synthesize_aggregate(library, "kettle", spec, rng)
        raw_target = pair.target * spec.max_power
        expected = np.zeros(128)
        expected[17:21] = 2000.0
        np.testing.assert_allclose(raw_target, expected)
        # single-source sum: input is the standardized target
        np.testing.assert_allclose(pair.input,
                                   (expected - expected.mean()) / spec.input_std)

    def test_target_excludes_distractor(self):
        library = make_library()
        # target drawn at offset 10; fridge drawn overlapping at offset 12
        rng = ScriptedRng(randoms=[0.0, 0.0, 0.9], integers=[0, 10, 0, 12])
        spec = make_spec()
        pair = synthesize_aggregate(library, "kettle", spec, rng)
        raw_target = pair.target * spec.max_power
        assert raw_target[10:14].max() == pytest.approx(2000.0)
        assert raw_target[20:].max() == 0.0

    def test_input_is_sum_of_contributions(self, rng):
        library = make_library()
        spec = make_spec()
        for _ in range(100):
            pair = synthesize_aggregate(library, "kettle", spec, rng)
            total = np.zeros(spec.window_width)
            for placement in pair.placements:
                total += placement.contribution(spec.window_width)
            np.testing.assert_allclose(
                pair.input, (total - total.mean()) / spec.input_std, atol=1e-12)

    def test_target_fully_contained(self, rng):
        library = make_library()
        spec = make_spec()
        for _ in range(200):
            pair = synthesize_aggregate(library, "kettle", spec, rng)
            targets = [p for p in pair.placements if p.is_target]
            for p in targets:
                assert p.offset >= 0
                assert p.offset + len(p.values) <= spec.window_width

    def test_distractors_may_overlap_edges(self, rng):
        library = make_library(lengths=(4, 100, 120))
        spec = make_spec()
        seen_partial = False
        for _ in range(300):
            pair = synthesize_aggregate(library, "kettle", spec, rng)
            for p in pair.placements:
                if not p.is_target and (p.offset < 0 or
                                        p.offset + len(p.values) > spec.window_width):
                    seen_partial = True
        assert seen_partial

    def test_empty_class_skipped(self):
        library = make_library()
        library._train["microwave"] = []
        rng = ScriptedRng(randoms=[0.9, 0.9, 0.0])  # only microwave drawn, but empty
        pair = synthesize_aggregate(library, "kettle", make_spec(), rng)
        np.testing.assert_array_equal(pair.input, np.zeros(128))

    def test_no_test_house_activation_in_training_pairs(self, rng):
        library = make_library()
        spec = make_spec()
        for _ in range(200):
            pair = synthesize_aggregate(library, "kettle", spec, rng)
            for p in pair.placements:
                assert p.house == 1


class TestBatchStream:
    def _sources(self, target_kind="sequence"):
        library = make_library()
        aggregate, acts = make_world()
        spec = make_spec()
        real = RealWindowSource(aggregate, acts, spec, target_kind)
        synth = SyntheticSource(library, "kettle", spec, target_kind)
        return real, synth

    def test_even_split(self):
        real, synth = self._sources()
        batch = next(batch_stream(real, synth, 64, np.random.default_rng(0)))
        assert isinstance(batch, Batch)
        assert batch.inputs.shape == (64, 128)
        assert batch.targets.shape == (64, 128)

    def test_batch_16(self):
        real, synth = self._sources()
        batch = next(batch_stream(real, synth, 16, np.random.default_rng(0)))
        assert batch.inputs.shape == (16, 128)

    def test_rectangle_targets_stack(self):
        real, synth = self._sources("rectangle")
        batch = next(batch_stream(real, synth, 8, np.random.default_rng(0)))
        assert batch.targets.shape == (8, 3)

    def test_determinism(self):
        for _ in range(2):
            batches = []
            for run in range(2):
                real, synth = self._sources()
                stream = batch_stream(real, synth, 8, np.random.default_rng(42))
                batches.append([next(stream) for _ in range(3)])
            for a, b in zip(*batches):
                np.testing.assert_array_equal(a.inputs, b.inputs)
                np.testing.assert_array_equal(a.targets, b.targets)

    def test_odd_batch_rejected(self):
        real, synth = self._sources()
        with pytest.raises(DataError, match="even"):
            next(batch_stream(real, synth, 7, np.random.default_rng(0)))

    def test_prefetch_preserves_stream(self):
        real, synth = self._sources()
        plain = batch_stream(real, synth, 8, np.random.default_rng(5))
        direct = [next(plain) for _ in range(4)]
        real2, synth2 = self._sources()
        threaded = prefetch(batch_stream(real2, synth2, 8, np.random.default_rng(5)))
        buffered = [next(threaded) for _ in range(4)]
        for a, b in zip(direct, buffered):
            np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_prefetch_reraises_producer_error(self):
        def failing():
            yield 1
            raise DataError("bad batch")

        batches = prefetch(failing())
        assert next(batches) == 1
        with pytest.raises(DataError, match="bad batch"):
            next(batches)

    def test_prefetch_close_stops_producer(self):
        producers = []

        def endless():
            producers.append(threading.current_thread())
            count = 0
            while True:
                count += 1
                yield count

        batches = prefetch(endless(), depth=2)
        assert [next(batches) for _ in range(3)] == [1, 2, 3]
        closer = threading.Thread(target=batches.close)  # bounds a hang in close
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert producers and not producers[0].is_alive()

    def test_multi_source_mixes_houses(self, rng):
        spec = make_spec()
        agg1, acts1 = make_world()
        agg2, acts2 = make_world(power=1500.0)
        multi = MultiSource([RealWindowSource(agg1, acts1, spec),
                             RealWindowSource(agg2, acts2, spec)])
        pair = multi.sample(rng)
        assert isinstance(pair, TrainingPair)


# Reference implementations: the per-draw coverage mask, convolution and
# linear scan that `WindowIndex` replaces.  The index must reproduce them
# draw for draw.

def reference_clear_starts(total, width, activations):
    covered = np.zeros(total, dtype=bool)
    for a in activations:
        covered[a.source_offset : a.source_offset + len(a)] = True
    window_hits = np.convolve(covered, np.ones(width, dtype=np.int64), mode="valid")
    return np.flatnonzero(window_hits == 0)


def reference_first_complete(activations, start, width):
    best = None
    for a in activations:
        if a.source_offset >= start and a.source_offset + len(a) <= start + width:
            if best is None or a.source_offset < best.source_offset:
                best = a
    return best


def reference_real_window_raw(aggregate, activations, spec, rng, include_prob=0.5):
    width, total = spec.window_width, len(aggregate)
    if not (rng.random() < include_prob and len(activations) > 0):
        clear = reference_clear_starts(total, width, activations)
        if clear.size == 0:
            start = int(rng.integers(0, total - width + 1))
        else:
            start = int(clear[rng.integers(0, clear.size)])
        return aggregate.values[start : start + width], np.zeros(width), ()
    chosen = activations[int(rng.integers(0, len(activations)))]
    a0, alen = chosen.source_offset, len(chosen)
    if alen <= width:
        offset = int(rng.integers(max(0, a0 + width - total), min(width - alen, a0) + 1))
        start = a0 - offset
    else:
        start = min(a0, total - width)
    raw_target = np.zeros(width)
    placed = reference_first_complete(activations, start, width)
    if placed is not None:
        raw_target[placed.source_offset - start : placed.source_offset - start + len(placed)] = \
            placed.values
    else:
        span = min(width, a0 + alen - start) - max(0, a0 - start)
        rel, src = max(0, a0 - start), max(0, start - a0)
        raw_target[rel : rel + span] = chosen.values[src : src + span]
        placed = chosen
    placement = Placement(spec.appliance_id, placed.house, placed.source_offset - start,
                          placed.values, is_target=True)
    return aggregate.values[start : start + width], raw_target, (placement,)


def random_world(rng):
    """A short house with possibly overlapping, tied and edge-touching activations."""
    width = int(rng.integers(1, 40))
    total = width + int(rng.integers(0, 300))
    acts = []
    for _ in range(int(rng.integers(0, 9))):
        if acts and rng.random() < 0.2:
            a0 = acts[int(rng.integers(0, len(acts)))].source_offset  # tie
        else:
            a0 = int(rng.choice([0, total - 1, int(rng.integers(0, total))]))
        alen = int(rng.integers(1, min(total - a0, 2 * width + 5) + 1))
        acts.append(Activation(a0, rng.uniform(100, 2000, size=alen), house=len(acts)))
    aggregate = PowerSeries(0, 6, rng.uniform(0, 300, size=total))
    return aggregate, acts, make_spec(width=width)


def assert_index_matches_reference(aggregate, acts, width):
    total = len(aggregate)
    index = WindowIndex(total, width, acts)
    clear = reference_clear_starts(total, width, acts)
    assert index.clear_count == clear.size
    drawn = [index.draw_clear_start(ScriptedRng(integers=[k])) for k in range(clear.size)]
    assert drawn == clear.tolist()
    for start in range(total - width + 1):
        assert index.first_complete(start) is reference_first_complete(acts, start, width)


def assert_same_draws(new, ref):
    for got, want in zip(new[:2], ref[:2]):
        np.testing.assert_array_equal(got, want)
    assert len(new[2]) == len(ref[2])
    for got, want in zip(new[2], ref[2]):
        assert (got.appliance, got.house, got.offset, got.is_target) == \
            (want.appliance, want.house, want.offset, want.is_target)
        assert got.values is want.values


class TestWindowIndexOracle:
    def test_random_worlds_match_reference(self):
        for seed in range(300):
            aggregate, acts, spec = random_world(np.random.default_rng(seed))
            assert_index_matches_reference(aggregate, acts, spec.window_width)
            new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                assert_same_draws(select_real_window_raw(aggregate, acts, spec, new_rng),
                                  reference_real_window_raw(aggregate, acts, spec, ref_rng))

    @pytest.mark.parametrize("target_kind", ["sequence", "rectangle"])
    def test_source_stream_matches_reference(self, target_kind):
        for seed in range(40):
            aggregate, acts, spec = random_world(np.random.default_rng(seed))
            source = RealWindowSource(aggregate, acts, spec, target_kind)
            new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                pair = source.sample(new_rng)
                raw_input, raw_target, placements = reference_real_window_raw(
                    aggregate, acts, spec, ref_rng)
                np.testing.assert_array_equal(
                    pair.input, standardize_input(raw_input, spec.input_std))
                target = scale_target(raw_target, spec.max_power)
                if target_kind == "rectangle":
                    assert pair.target == encode_rectangle(target)
                else:
                    np.testing.assert_array_equal(pair.target, target)
                assert [p.offset for p in pair.placements] == [p.offset for p in placements]
            assert new_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("total, positions", [
        (400, ()),                                   # no activations
        (200, ((100, 10),)),                         # no clear window: fallback
        (400, ((0, 5), (395, 5))),                   # touching index 0 and N-1
        (600, ((100, 200), (350, 20))),              # longer than the window
        (128, ((30, 10),)),                          # len(aggregate) == width
        (128, ()),
        (400, ((50, 10), (50, 30), (55, 5))),        # tied and overlapping
        (400, ((60, 0), (200, 10))),                 # an empty activation blocks nothing
    ])
    def test_edge_cases_match_reference(self, total, positions):
        aggregate, acts = make_world(total=total, act_positions=positions)
        spec = make_spec(width=128)
        assert_index_matches_reference(aggregate, acts, 128)
        for seed in range(30):
            new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(10):
                assert_same_draws(select_real_window_raw(aggregate, acts, spec, new_rng),
                                  reference_real_window_raw(aggregate, acts, spec, ref_rng))

    def test_fallback_draws_any_window(self):
        aggregate, acts = make_world(total=200, act_positions=((100, 10),))
        index = WindowIndex(200, 128, acts)
        assert index.clear_count == 0
        assert index.draw_clear_start(ScriptedRng(integers=[72])) == 72

    def test_source_rejects_spec_of_another_width(self):
        aggregate, acts = make_world()
        source = RealWindowSource(aggregate, acts, make_spec(width=128))
        source.spec = make_spec(width=64)
        with pytest.raises(DataError, match="window index"):
            source.sample(np.random.default_rng(0))
