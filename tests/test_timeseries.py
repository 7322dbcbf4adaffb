import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from disagg import timeseries
from disagg.errors import DataError
from disagg.synthworld import DESK_APPLIANCES, make_household, write_world
from disagg.timeseries import (CSV_WRITE_CHUNK, FILL_BLOCK, ActivationParams, PowerSeries,
                               extract_activations, fill_gaps, load_csv, read_rows,
                               write_rows)
from disagg.util import channel_slug

KETTLE = ActivationParams(max_power=3100, on_power_threshold=2000,
                          min_on_duration=12, min_off_duration=0)


def write_csv(tmp_path, rows, header="timestamp,watts"):
    path = tmp_path / "channel.csv"
    lines = [header] if header else []
    lines += [f"{t},{w}" for t, w in rows]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


class TestLoadCsv:
    def test_direct_mapping(self, tmp_path):
        series = load_csv(write_csv(tmp_path, [(0, 100), (6, 100)]), sample_period=6)
        assert series.start_time == 0
        assert series.sample_period == 6
        np.testing.assert_array_equal(series.values, [100, 100])

    def test_empty_file(self, tmp_path):
        series = load_csv(write_csv(tmp_path, []), sample_period=6)
        assert len(series) == 0
        assert series.sample_period == 6

    def test_negative_power_names_line(self, tmp_path):
        path = write_csv(tmp_path, [(0, 50), (6, -1)])
        with pytest.raises(DataError, match="negative power at line 3"):
            load_csv(path)

    def test_negative_power_line_number_without_header(self, tmp_path):
        path = write_csv(tmp_path, [(0, 50), (6, -1)], header=None)
        with pytest.raises(DataError, match="negative power at line 2"):
            load_csv(path)

    def test_non_increasing_timestamps(self, tmp_path):
        path = write_csv(tmp_path, [(0, 50), (12, 60), (6, 70)])
        with pytest.raises(DataError, match="non-increasing timestamp"):
            load_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,watts\n0,100\nsix,100\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_off_grid_timestamps_snap(self, tmp_path):
        # 0, 7, 12 on a 6 s grid -> slots 0, 1, 2
        series = load_csv(write_csv(tmp_path, [(0, 10), (7, 20), (12, 30)]), 6)
        np.testing.assert_array_equal(series.values, [10, 20, 30])

    def test_grid_collision_keeps_last(self, tmp_path):
        # 5 and 7 both snap to slot 1
        series = load_csv(write_csv(tmp_path, [(0, 10), (5, 20), (7, 30)]), 6)
        np.testing.assert_array_equal(series.values, [10, 30])

    def test_gaps_filled_at_ingestion(self, tmp_path):
        series = load_csv(write_csv(tmp_path, [(0, 10), (18, 10)]), 6)
        np.testing.assert_array_equal(series.values, [10, 10, 10, 10])


class TestFillGaps:
    def test_short_gap_forward_filled(self):
        series = fill_gaps([0, 18], [10, 10], sample_period=6)
        np.testing.assert_array_equal(series.values, [10, 10, 10, 10])

    def test_long_gap_zero_filled(self):
        series = fill_gaps([0, 240], [10, 10], sample_period=6)
        assert len(series) == 41
        np.testing.assert_array_equal(series.values[1:40], np.zeros(39))
        assert series.values[0] == 10 and series.values[40] == 10

    def test_gap_free_unchanged(self):
        series = fill_gaps([0, 6, 12], [1, 2, 3], sample_period=6)
        np.testing.assert_array_equal(series.values, [1, 2, 3])

    def test_boundary_179s_filled_181s_zeroed(self):
        # 1 s grid: 179 missing seconds forward-fill, 181 read as off.
        filled = fill_gaps([0, 180], [7, 7], sample_period=1)
        np.testing.assert_array_equal(filled.values, np.full(181, 7))
        zeroed = fill_gaps([0, 182], [7, 7], sample_period=1)
        np.testing.assert_array_equal(zeroed.values[1:182], np.zeros(181))

    def test_exactly_180s_filled(self):
        series = fill_gaps([0, 181], [7, 7], sample_period=1)
        np.testing.assert_array_equal(series.values, np.full(182, 7))

    def test_output_covers_whole_span(self, rng):
        slots = np.sort(rng.choice(200, size=20, replace=False))
        values = rng.uniform(0, 100, size=20)
        series = fill_gaps(slots * 6, values, sample_period=6)
        assert len(series) == slots[-1] - slots[0] + 1

    def test_two_pairs_in_one_slot_keep_the_last(self):
        # 5 and 7 both snap to slot 1; 13 snaps to slot 2.
        series = fill_gaps([0, 5, 7, 13], [10, 20, 30, 40], sample_period=6)
        assert series.start_time == 0
        np.testing.assert_array_equal(series.values, [10, 30, 40])

    @pytest.mark.parametrize("timestamps", [[0, 6, 6], [0, 12, 6], [0, 6, float("nan")]])
    def test_non_increasing_timestamps_rejected(self, timestamps):
        with pytest.raises(DataError, match="strictly increasing"):
            fill_gaps(timestamps, [1, 2, 3], sample_period=6)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DataError, match="equal length"):
            fill_gaps([0, 6], [1], sample_period=6)

    @pytest.mark.parametrize("last", [1e300, 6.0 * 2**60], ids=["far", "at-the-limit"])
    def test_span_beyond_an_index_rejected_before_any_cast(self, last):
        # A cast warning would fail this test: RuntimeWarnings are errors here.
        with pytest.raises(DataError, match=re.escape(f"timestamps 0.0 to {last} need a grid")
                           + r" of .* slots of 6 s, more than an index holds"):
            fill_gaps([0, last], [1, 2], sample_period=6)


def reference_load_csv(path, sample_period=6, max_forward_fill=180.0):
    """The original per-row reader: csv.reader, one float() per field, a
    dict for grid collisions.  Kept as the oracle for `load_csv`."""
    timestamps, values = [], []
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row or (lineno == 1 and row[0].strip().lower() == "timestamp"):
                continue
            if len(row) != 2:
                raise DataError(f"{path}: expected 2 columns at line {lineno}, got {len(row)}")
            try:
                t = float(row[0])
                w = float(row[1])
            except ValueError as exc:
                raise DataError(f"{path}: malformed row at line {lineno}: {exc}") from None
            if not np.isfinite(w) or not np.isfinite(t):
                raise DataError(f"{path}: non-finite value at line {lineno}")
            if w < 0:
                raise DataError(f"{path}: negative power at line {lineno}")
            if timestamps and t <= timestamps[-1]:
                raise DataError(f"{path}: non-increasing timestamp at line {lineno} "
                                f"({t} follows {timestamps[-1]})")
            timestamps.append(t)
            values.append(w)
    return reference_snap_and_fill(timestamps, values, sample_period, max_forward_fill)


def reference_snap_and_fill(timestamps, values, sample_period, max_forward_fill=180.0):
    """A dict for grid collisions, then the gap loop: the oracle for
    `fill_gaps` of rows whose timestamps may share a slot."""
    if not len(timestamps):
        return PowerSeries(start_time=0.0, sample_period=sample_period, values=np.empty(0))
    start = timestamps[0]
    slots = np.rint((np.asarray(timestamps) - start) / sample_period).astype(np.int64)
    snapped = {}
    for slot, w in zip(slots, values):
        snapped[int(slot)] = w
    grid_slots = np.array(sorted(snapped), dtype=np.int64)
    grid_values = np.array([snapped[int(s)] for s in grid_slots])
    return reference_fill_gaps(start + grid_slots * float(sample_period), grid_values,
                               sample_period, max_forward_fill)


def reference_fill_gaps(timestamps, values, sample_period, max_forward_fill=180.0):
    """The original gap loop, kept as the oracle for `fill_gaps`."""
    timestamps = np.asarray(timestamps, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if timestamps.size == 0:
        return PowerSeries(start_time=0.0, sample_period=sample_period, values=np.empty(0))
    start = timestamps[0]
    slots = np.rint((timestamps - start) / sample_period).astype(np.int64)
    out = np.zeros(int(slots[-1]) + 1)
    out[slots] = values
    for i in range(len(slots) - 1):
        lo, hi = int(slots[i]), int(slots[i + 1])
        n_missing = hi - lo - 1
        if n_missing and n_missing * sample_period <= max_forward_fill:
            out[lo + 1 : hi] = values[i]
    return PowerSeries(start_time=float(start), sample_period=sample_period, values=out)


def assert_same_series(got, want):
    assert type(got.start_time) is type(want.start_time)
    assert got.start_time == want.start_time
    assert got.sample_period == want.sample_period
    assert got.values.dtype == want.values.dtype
    assert got.values.tobytes() == want.values.tobytes()


def outcome(reader, path, *args):
    try:
        return reader(path, *args)
    except DataError as exc:
        return str(exc)


def random_csv(rng, path, fault_rate=0.0):
    """A meter CSV with off-grid and colliding timestamps, gaps just under,
    at and over 180 s on a 6 s grid, an optional header, blank lines, CRLF
    or LF endings and quoted fields; with `fault_rate`, some rows are bad."""
    t = float(rng.choice([0.0, 1.4e9, rng.uniform(0, 1e6)]))
    lines = ["timestamp,watts"] if rng.random() < 0.5 else []
    for _ in range(int(rng.integers(0, 60))):
        t += float(rng.choice([1, 2, 3, 4, 5, 6, 6, 6, 7, 11, 174, 180, 186, 192, 181.5, 600]))
        w = float(rng.choice([0.0, 1.5, rng.uniform(0, 3000), rng.integers(0, 3000)]))
        fields = [repr(t), repr(w)]
        if rng.random() < 0.1:
            fields = [f'"{f}"' for f in fields]
        if rng.random() < fault_rate:
            faults = [[fields[0]], fields + ["1"], [fields[0], "oops"], [fields[0], "nan"],
                      [fields[0], "-inf"], [fields[0], "-2.5"], ["0", fields[1]],
                      [repr(t - 6), fields[1]], ["", ""]]
            fields = faults[rng.integers(len(faults))]
        lines.append(",".join(fields))
        if rng.random() < 0.1:
            lines.append("")
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    with open(path, "w", newline="") as f:
        f.write(newline.join(lines) + (newline if lines and rng.random() < 0.8 else ""))
    return path


class TestLoadCsvOracle:
    # Each case gets its own file: overwriting one file 400 times costs
    # tens of milliseconds per write on some file systems.
    def test_matches_row_scanner_bitwise(self, rng, tmp_path):
        for i in range(400):
            path = random_csv(rng, tmp_path / f"channel{i}.csv")
            for period, fill in ((6, 180.0), (1, 4.0), (10, 0.0)):
                assert_same_series(load_csv(path, period, fill),
                                   reference_load_csv(path, period, fill))

    def test_rejections_match_row_scanner(self, rng, tmp_path):
        rejected = 0
        for i in range(400):
            path = random_csv(rng, tmp_path / f"channel{i}.csv", fault_rate=0.05)
            got, want = outcome(load_csv, path), outcome(reference_load_csv, path)
            if isinstance(want, str):
                rejected += 1
                assert got == want
            else:
                assert_same_series(got, want)
        assert rejected > 50

    @pytest.mark.parametrize("text", [
        "", "timestamp,watts\n", "timestamp,watts\n\n\n", "\n", "TimeStamp , watts\n0,1\n",
        "timestamp\n0,1\n", '"0","5"\r\n"6","7"\r\n', "0,1\r\n\r\n12,2", "0, 1 \n 6 ,2\n",
        "0,1e3\n6,.5\n12,5.\n18,+5\n",
        # A quoted field over two lines is one row; the header is skipped
        # before a file without its last newline; CRLF with blank lines.
        'timestamp,watts\n0,"1\n"\n6,2\n', "timestamp,watts\n0,1\n6,2",
        "timestamp,watts\r\n\r\n0,1\r\n\r\n\r\n6,2\r\n\r\n",
    ])
    def test_edge_files(self, tmp_path, text):
        path = tmp_path / "channel.csv"
        path.write_bytes(text.encode())
        assert_same_series(load_csv(path), reference_load_csv(path))


class TestLoadCsvOracleInSmallBlocks(TestLoadCsvOracle):
    """The oracle cases again with blocks of 1, 2 and 3 rows, which put
    block edges between rows that share a slot and inside gaps: at the
    real block size these cases never cross an edge."""

    @pytest.fixture(autouse=True, params=[1, 2, 3], ids=lambda block: f"block{block}")
    def small_block(self, request, monkeypatch):
        monkeypatch.setattr(timeseries, "FILL_BLOCK", request.param)


class TestLoadCsvRejections:
    """Each kind of bad row is named by its line, blank lines counted."""

    @pytest.mark.parametrize("bad_row, message", [
        ("12,5,1", "expected 2 columns at line 5, got 3"),
        ("12", "expected 2 columns at line 5, got 1"),
        ("12,five", "malformed row at line 5: could not convert string to float: 'five'"),
        (",", "malformed row at line 5: could not convert string to float: ''"),
        ("12,nan", "non-finite value at line 5"),
        ("inf,5", "non-finite value at line 5"),
        ("12,-0.5", "negative power at line 5"),
        ("6,5", "non-increasing timestamp at line 5 (6.0 follows 6.0)"),
        ("3,5", "non-increasing timestamp at line 5 (3.0 follows 6.0)"),
    ])
    def test_exact_message(self, tmp_path, bad_row, message):
        path = tmp_path / "channel.csv"
        path.write_text(f"timestamp,watts\n0,1\n\n6,2\n{bad_row}\n18,3\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("rows, message", [
        ("0,1\n6,-1\n12,x\n", "negative power at line 4"),
        ("0,1\n6,x\n12,-1\n", "malformed row at line 4: could not convert string to float: 'x'"),
        ("0,1\n6,2,3\n0,1\n", "expected 2 columns at line 4, got 3"),
        ("0,1\n0,1\n6,nan\n", "non-increasing timestamp at line 4 (0.0 follows 0.0)"),
        ("0,inf\n6\n", "non-finite value at line 3"),
    ])
    def test_earlier_of_two_faults_named(self, tmp_path, rows, message):
        path = tmp_path / "channel.csv"
        path.write_text(f"timestamp,watts\n\n{rows}")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_byte_order_mark_before_the_header_is_a_bad_row(self, tmp_path):
        path = tmp_path / "channel.csv"
        path.write_text("\ufefftimestamp,watts\n0,1\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == (f"{path}: malformed row at line 1: could not convert "
                                  "string to float: '\\ufefftimestamp'")

    def test_header_after_blank_line_is_a_bad_row(self, tmp_path):
        path = tmp_path / "channel.csv"
        path.write_text("\ntimestamp,watts\n0,1\n")
        with pytest.raises(DataError, match="malformed row at line 2"):
            load_csv(path)

    def test_input_the_row_grammar_cannot_name_still_rejected(self, tmp_path):
        path = tmp_path / "channel.csv"
        path.write_text("0,1_000\n")
        with pytest.raises(DataError, match="unreadable CSV"):
            load_csv(path)


def test_load_csv_peak_memory_per_row(tmp_path):
    # The parsed rows (16 B) and the grid (8 B), with one block of the
    # fill: at 20M rows every byte per row is 20 MB.
    rows = 200_000
    path = tmp_path / "channel.csv"
    watts = np.random.default_rng(0).uniform(0, 3000, rows)
    with open(path, "w") as f:
        f.write("timestamp,watts\n")
        f.writelines(f"{1_400_000_000 + 6 * i},{w:.3f}\n" for i, w in enumerate(watts))
    tracemalloc.start()
    try:
        series = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == rows
    assert peak / rows <= 32, f"load_csv peaked at {peak / rows:.1f} B per row"


class TestReadRows:
    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "estimate.csv"
        path.write_text("timestamp,estimated_watts,probability\n0,1.5,0.25\n6,2,x\n")
        np.testing.assert_array_equal(read_rows(path, extra_columns=True), [[0, 1.5], [6, 2]])

    def test_extra_columns_still_need_two(self, tmp_path):
        path = tmp_path / "estimate.csv"
        path.write_text("timestamp,estimated_watts,probability\n0,1.5,0.25\n6\n")
        with pytest.raises(DataError, match="expected 2 columns at line 3, got 1"):
            read_rows(path, extra_columns=True)


def reference_write_rows(path, header, series, *extra_columns):
    """The one-`csv.writer`-call-per-row writer, kept as the oracle.

    Timestamps are integers when the series starts on a whole second and
    every one lies within int64; otherwise `csv.writer` writes each float
    as its repr."""
    timestamps = series.timestamps().tolist()
    if float(series.start_time).is_integer() and all(abs(t) < 2**63 for t in timestamps):
        timestamps = [int(t) for t in timestamps]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for t, *values in zip(timestamps, series.values.tolist(),
                              *(column.tolist() for column in extra_columns)):
            writer.writerow([t, *(format(v, ".6f") for v in values)])


def assert_rows_match_oracle(tmp_path, series, *extra_columns):
    header = ("timestamp", "watts", *(f"extra{i}" for i in range(len(extra_columns))))
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    write_rows(ours, header, series, *extra_columns)
    reference_write_rows(reference, header, series, *extra_columns)
    assert ours.read_bytes() == reference.read_bytes()


def near_half(k: int, ulps: int) -> float:
    """A value `ulps` ulps from (k + 0.5) / 10**6, whose sixth decimal
    `rint(x * 1e6)` and `format(x, ".6f")` can round apart."""
    x = (k + 0.5) / 1e6
    return float(x + ulps * np.spacing(x))


# Values a PowerSeries holds: zeros (-0.0 included), binary halves
# (0.0078125 = 2**-7), decimal near-halves, the 4.5e9 edge of the array
# path and beyond it.
SERIES_VALUES = st.one_of(
    st.floats(0, 5000), st.floats(0, 1e12),
    st.sampled_from([0.0, -0.0, 0.0078125, 2.5e-7, 5e-7, 1.5e-6, 4.5e9,
                     np.nextafter(4.5e9, 0), 1e300, 5e-324]),
    st.builds(near_half, st.integers(0, 10**10), st.integers(-3, 3)))
# Extra columns hold anything: negative, NaN, infinite, huge.
EXTRA_VALUES = st.one_of(SERIES_VALUES, st.floats())


@st.composite
def csv_tables(draw):
    length = draw(st.sampled_from([0, 1, 5, CSV_WRITE_CHUNK - 1, CSV_WRITE_CHUNK,
                                   CSV_WRITE_CHUNK + 1, 2 * CSV_WRITE_CHUNK + 3]))
    start = draw(st.sampled_from([0, 1_300_000_000, -600, 0.5, 1.4e9 + 0.1, 2.0**31 + 5.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [np.where(rng.random(length) < 0.5, 0.0, rng.uniform(0, 3000, length))
               for _ in range(1 + draw(st.integers(0, 2)))]
    for column, values in zip(columns, [SERIES_VALUES] + [EXTRA_VALUES] * (len(columns) - 1)):
        positions = st.integers(0, max(length - 1, 0))
        for i, value in draw(st.lists(st.tuples(positions, values), max_size=6 if length else 0)):
            column[i] = value
    return PowerSeries(start, 6, columns[0]), columns[1:]


@settings(max_examples=150, deadline=None)
@given(csv_tables())
def test_write_rows_matches_csv_writer(tmp_path_factory, table):
    series, extra_columns = table
    assert_rows_match_oracle(tmp_path_factory.mktemp("rows"), series, *extra_columns)


# One case for each way a value leaves the array path: the whole chunk
# is formatted by str.format, or a near-half value by format().
FALLBACK_CASES = {
    "fractional start": (0.5, [1.0, 2.0], []),
    "negative timestamps": (-12, [1.0, 2.0, 3.0], []),
    "beyond int64": (1e19, [1.0, 2.0, 3.0], []),
    "negative zero": (0, [0.0, -0.0, 1.5], []),
    "negative extra": (0, [1.0, 2.0], [0.5, -0.25]),
    "nan and infinity": (0, [1.0, 2.0, 3.0], [np.nan, np.inf, -np.inf]),
    "too large": (0, [4.5e9, 1e300], []),
    "near halves": (0, [999999.9999995, 2697.8671375, 1.2345675, 0.0078125], []),
}


@pytest.mark.parametrize("case", FALLBACK_CASES.values(), ids=FALLBACK_CASES.keys())
@pytest.mark.parametrize("chunk", [0, 1], ids=["first-chunk", "second-chunk"])
def test_write_rows_fallbacks_match_csv_writer(tmp_path, case, chunk):
    start, values, extra = case
    # In the second chunk, the first stays on the array path.
    pad = chunk * CSV_WRITE_CHUNK
    values = np.concatenate([np.full(pad, 7.25), values])
    extra = [np.concatenate([np.full(pad, 0.5), extra])] if extra else []
    assert_rows_match_oracle(tmp_path, PowerSeries(start, 6, values), *extra)


def test_write_rows_peak_memory_per_chunk(tmp_path):
    # No array as long as the series may be held: at 20M rows each byte
    # per row is 20 MB.
    rows = 25 * CSV_WRITE_CHUNK + 7
    rng = np.random.default_rng(0)
    series = PowerSeries(1_300_000_000, 6, rng.uniform(0, 3000, rows))
    probability = rng.uniform(0, 1, rows)
    peak = traced_peak(lambda: write_rows(tmp_path / "estimate.csv",
                                          ("timestamp", "estimated_watts", "probability"),
                                          series, probability))
    assert peak / CSV_WRITE_CHUNK <= 320, \
        f"write_rows peaked at {peak / CSV_WRITE_CHUNK:.0f} B per chunk row"


class TestWriteRows:
    def test_world_house_bytes_match_csv_writer_loop(self, tmp_path):
        length, seed, house = CSV_WRITE_CHUNK + 904, 5, 3
        write_world(tmp_path / "ours", houses=(house,), length=length, seed=seed)
        # write_world's stream for the house, so the same household comes back.
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(house,)))
        aggregate, channels = make_household(DESK_APPLIANCES, length, rng)
        for name, series in {"aggregate": aggregate, **channels}.items():
            name = f"{channel_slug(name)}.csv"
            reference_write_rows(tmp_path / name, ("timestamp", "watts"), series)
            ours = tmp_path / "ours" / f"house_{house}" / name
            assert ours.read_bytes() == (tmp_path / name).read_bytes(), name

    @pytest.mark.parametrize("start_time", [0.5, 1.4e9 + 0.1, 12345.678])
    def test_fractional_timestamps_read_back_exactly(self, tmp_path, start_time):
        series = PowerSeries(start_time, 6, np.arange(5.0))
        path = tmp_path / "channel.csv"
        write_rows(path, ("timestamp", "watts"), series)
        assert read_rows(path)[:, 0].tolist() == series.timestamps().tolist()

    # Whole seconds beyond int64 (the last series ends at 2**63 exactly),
    # and the largest that lie within it.
    @pytest.mark.parametrize("start_time, period", [
        (1e19, 4096), (-1e19, 4096), (2.0**63 - 2048, 1024), (2.0**63 - 4096, 1024)],
        ids=["1e19", "-1e19", "ends-at-2**63", "ends-below-2**63"])
    def test_timestamps_beyond_int64_read_back_exactly(self, tmp_path, start_time, period):
        series = PowerSeries(start_time, period, np.arange(3.0))
        path = tmp_path / "channel.csv"
        write_rows(path, ("timestamp", "watts"), series)
        assert read_rows(path)[:, 0].tolist() == series.timestamps().tolist()

    def test_read_rows_reads_back_six_decimals(self, tmp_path):
        series = PowerSeries(1.4e9, 6, np.array([0.0, 1.23456789, 2500.5]))
        path = tmp_path / "channel.csv"
        write_rows(path, ("timestamp", "watts"), series)
        np.testing.assert_array_equal(
            read_rows(path), [[1.4e9, 0.0], [1.4e9 + 6, 1.234568], [1.4e9 + 12, 2500.5]])


@st.composite
def gappy_series(draw):
    period = draw(st.sampled_from([1, 6, 10]))
    slots = sorted(draw(st.sets(st.integers(0, 400), min_size=1, max_size=40)))
    start = draw(st.sampled_from([0.0, 1.4e9, 12345.678]))
    values = draw(st.lists(st.floats(0, 5000, allow_subnormal=False),
                           min_size=len(slots), max_size=len(slots)))
    fill = draw(st.one_of(st.sampled_from([0.0, 180.0, float(period)]),
                          st.floats(0, 2000), st.integers(0, 400).map(lambda k: k * period)))
    timestamps = start + (np.asarray(slots) - slots[0]) * float(period)
    return timestamps, np.asarray(values, dtype=np.float64), period, fill


@settings(max_examples=300, deadline=None)
@given(gappy_series())
def test_fill_gaps_matches_gap_loop(case):
    timestamps, values, period, fill = case
    assert_same_series(fill_gaps(timestamps, values, period, fill),
                       reference_fill_gaps(timestamps, values, period, fill))


@pytest.mark.parametrize("block", [1, 2, 3])
@settings(max_examples=300, deadline=None)
@given(case=gappy_series())
def test_fill_gaps_in_small_blocks_matches_gap_loop(block, case):
    timestamps, values, period, fill = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timeseries, "FILL_BLOCK", block)
        got = fill_gaps(timestamps, values, period, fill)
    assert_same_series(got, reference_fill_gaps(timestamps, values, period, fill))


@pytest.mark.parametrize("rows", [FILL_BLOCK - 1, FILL_BLOCK, FILL_BLOCK + 1, 2 * FILL_BLOCK + 3],
                         ids=["B-1", "B", "B+1", "2B+3"])
@pytest.mark.parametrize("step", [2, 186, 192, 600],
                         ids=["shared-slot", "filled-gap", "zeroed-gap", "long-gap"])
@pytest.mark.parametrize("start", [0.0, 1.4e9])
def test_fill_gaps_across_block_edges(rows, step, start):
    # On a 6 s grid a step of 2 s lands on the slot before or the slot of
    # the next row, 186 s leaves a gap of 180 s (filled) and 192 s one of
    # 186 s (zeroed).  Such steps go to the rows on each side of every
    # block edge and to the last rows.
    steps = np.full(rows, 6.0)
    steps[0] = 0.0
    for edge in [*range(FILL_BLOCK, rows, FILL_BLOCK), rows]:
        steps[edge - 2 : edge + 2] = step
    timestamps = start + np.cumsum(steps)
    values = np.random.default_rng(rows + step).uniform(0, 3000, rows)
    assert_same_series(fill_gaps(timestamps, values, 6),
                       reference_snap_and_fill(timestamps.tolist(), values.tolist(), 6))


class TestExtractActivations:
    def test_all_below_threshold(self):
        series = PowerSeries(0, 6, np.full(10, 100.0))
        assert extract_activations(series, KETTLE) == []

    def test_kettle_pulse(self):
        series = PowerSeries(0, 6, np.array([0.0, 2500, 2500, 2500, 0]))
        acts = extract_activations(series, KETTLE)
        assert len(acts) == 1
        assert acts[0].source_offset == 1
        np.testing.assert_array_equal(acts[0].values, [2500, 2500, 2500])

    def test_short_pulse_rejected(self):
        # one 6 s sample < 12 s minimum on duration
        series = PowerSeries(0, 6, np.array([0.0, 2500, 0]))
        assert extract_activations(series, KETTLE) == []

    def test_threshold_is_strict(self):
        series = PowerSeries(0, 6, np.full(5, 2000.0))
        assert extract_activations(series, KETTLE) == []

    def test_washer_style_dip_merges(self):
        params = ActivationParams(max_power=2500, on_power_threshold=20,
                                  min_on_duration=60, min_off_duration=160)
        # 200 s on, 60 s below threshold, 200 s on (6 s period)
        values = np.concatenate([np.full(34, 100.0), np.full(10, 5.0), np.full(34, 100.0)])
        series = PowerSeries(0, 6, values)
        acts = extract_activations(series, params)
        assert len(acts) == 1
        assert len(acts[0]) == 78  # dip samples included in the merged cycle

    def test_gap_of_min_off_duration_does_not_merge(self):
        params = ActivationParams(max_power=2500, on_power_threshold=20,
                                  min_on_duration=0, min_off_duration=60)
        values = np.concatenate([np.full(5, 100.0), np.full(10, 0.0), np.full(5, 100.0)])
        acts = extract_activations(PowerSeries(0, 6, values), params)
        assert len(acts) == 2  # 60 s gap is not strictly shorter than 60 s

    def test_clipping_to_max_power(self):
        series = PowerSeries(0, 6, np.array([0.0, 4000, 4000, 4000, 0]))
        acts = extract_activations(series, KETTLE)
        assert acts[0].values.max() == KETTLE.max_power

    def test_chronological_order(self):
        values = np.concatenate([[0], np.full(3, 2500.0), [0, 0], np.full(4, 2500.0), [0]])
        acts = extract_activations(PowerSeries(0, 6, values), KETTLE)
        offsets = [a.source_offset for a in acts]
        assert offsets == sorted(offsets) and len(acts) == 2

    def _oracle(self, values, period, params):
        """Brute force: enumerate all (start, end) sample spans and keep the
        valid maximal merged activations."""
        above = [v > params.on_power_threshold for v in values]
        runs = []
        i = 0
        while i < len(values):
            if above[i]:
                j = i
                while j + 1 < len(values) and above[j + 1]:
                    j += 1
                runs.append([i, j + 1])
                i = j + 1
            else:
                i += 1
        merged = []
        for run in runs:
            if merged and (run[0] - merged[-1][1]) * period < params.min_off_duration:
                merged[-1][1] = run[1]
            else:
                merged.append(run)
        return [(s, e) for s, e in merged if (e - s) * period >= params.min_on_duration]

    def test_invariants_against_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 200))
            values = rng.choice([0.0, 5.0, 30.0, 100.0, 2500.0], size=n)
            params = ActivationParams(
                max_power=3000,
                on_power_threshold=float(rng.choice([10, 50, 500])),
                min_on_duration=float(rng.choice([0, 12, 30])),
                min_off_duration=float(rng.choice([0, 12, 60])))
            series = PowerSeries(0, 6, values)
            acts = extract_activations(series, params)
            expected = self._oracle(values, 6, params)
            got = [(a.source_offset, a.source_offset + len(a)) for a in acts]
            assert got == expected
            for start, end in got:
                assert (end - start) * 6 >= params.min_on_duration
                # every interior sub-threshold stretch is < min_off_duration
                inside = values[start:end] > params.on_power_threshold
                stretch = 0
                for on in inside:
                    if not on:
                        stretch += 1
                    else:
                        if stretch:
                            assert stretch * 6 < params.min_off_duration
                        stretch = 0


def reference_activations(values, period, params):
    """(offset, clipped values) of each activation, by one pass over the
    samples: an above-threshold sample extends the current cycle when it
    follows it directly or after a below-threshold stretch shorter than
    the minimum off duration, and starts a new cycle otherwise."""
    cycles = []
    start = end = None  # current cycle, [start, end)
    for i, value in enumerate(values):
        if value <= params.on_power_threshold:
            continue
        if start is not None and (i == end or (i - end) * period < params.min_off_duration):
            end = i + 1
        else:
            if start is not None:
                cycles.append((start, end))
            start, end = i, i + 1
    if start is not None:
        cycles.append((start, end))
    return [(s, [min(v, params.max_power) for v in values[s:e]]) for s, e in cycles
            if (e - s) * period >= params.min_on_duration]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, 5.0, 99.0, 100.0, 100.5, 900.0, 2000.0, 2600.0]),
                       max_size=80),
       period=st.sampled_from([1, 6, 8]),
       threshold=st.sampled_from([0.0, 99.0, 100.0, 1000.0]),
       max_power=st.sampled_from([1000.0, 2500.0, 3000.0]),
       min_on=st.sampled_from([0.0, 6.0, 12.0, 30.0]),
       min_off=st.sampled_from([0.0, 6.0, 7.0, 24.0, 60.0]))
def test_extract_activations_matches_per_sample_loop(values, period, threshold, max_power,
                                                     min_on, min_off):
    params = ActivationParams(max_power=max_power, on_power_threshold=threshold,
                              min_on_duration=min_on, min_off_duration=min_off)
    acts = extract_activations(PowerSeries(0, period, np.array(values)), params)
    got = [(a.source_offset, a.values.tolist()) for a in acts]
    assert got == reference_activations(values, period, params)
