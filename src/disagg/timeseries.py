"""Power time-series ingestion and CSV writing, gap filling, and
appliance activation extraction.

A power series is a uniformly sampled sequence of non-negative watt
readings anchored at an absolute start time.  Raw meter CSVs may have
missing grid slots; ingestion snaps timestamps to the grid and fills
gaps (short gaps carry the last reading forward, long gaps are treated
as the meter being off and read zero), so every `PowerSeries` in the
rest of the pipeline is gap-free.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_SAMPLE_PERIOD = 6
DEFAULT_MAX_FORWARD_FILL = 180.0
CSV_WRITE_CHUNK = 4096  # rows formatted per write
FILL_BLOCK = 4096  # rows snapped and filled at a time
# Slots beyond which a grid is refused unallocated: the byte offsets of
# its arrays of 8-byte elements would not fit an index (intp).
MAX_SLOTS = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class PowerSeries:
    """Uniformly sampled power demand in watts.

    Sample i sits at ``start_time + i * sample_period`` seconds.
    """

    start_time: float
    sample_period: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if self.sample_period <= 0:
            raise DataError(f"sample_period must be positive, got {self.sample_period}")
        if values.ndim != 1:
            raise DataError("power series values must be one-dimensional")
        if values.size and (not np.all(np.isfinite(values)) or np.any(values < 0)):
            raise DataError("power series values must be finite and non-negative")

    def __len__(self) -> int:
        return len(self.values)

    def timestamps(self) -> np.ndarray:
        return self.start_time + np.arange(len(self.values)) * float(self.sample_period)


@dataclass(frozen=True)
class ActivationParams:
    """Extraction thresholds for one appliance class."""

    max_power: float
    on_power_threshold: float
    min_on_duration: float
    min_off_duration: float

    def __post_init__(self):
        fields = (self.max_power, self.on_power_threshold, self.min_on_duration, self.min_off_duration)
        if any(v < 0 for v in fields):
            raise DataError("activation params must be non-negative")
        if self.on_power_threshold > self.max_power:
            raise DataError("on_power_threshold cannot exceed max_power")


@dataclass(frozen=True)
class Activation:
    """One complete appliance cycle cut out of a source series.

    `source_offset` is the sample index of the first value in the series
    the activation was extracted from; `house` tags provenance so the
    train/test partition can be enforced downstream.
    """

    source_offset: int
    values: np.ndarray
    house: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.values)


def load_csv(path, sample_period: int = DEFAULT_SAMPLE_PERIOD,
             max_forward_fill: float = DEFAULT_MAX_FORWARD_FILL) -> PowerSeries:
    """Read a `timestamp,watts` CSV into a gap-free PowerSeries.

    The rows of `read_rows` go through `fill_gaps`, which snaps them to
    the sample grid and fills the missing slots.  An empty file yields an
    empty series with the declared period.  A grid too large to allocate
    or to index (a stray far timestamp) is a DataError naming the file.
    """
    rows = read_rows(path)
    try:
        return fill_gaps(rows[:, 0], rows[:, 1], sample_period, max_forward_fill)
    except DataError as exc:  # the grid's span: read_rows checked the rest
        raise DataError(f"{path}: {exc}") from None
    except MemoryError:
        first, last = float(rows[0, 0]), float(rows[-1, 0])
        slots = round((last - first) / sample_period) + 1
        raise DataError(f"{path}: timestamps {first} to {last} need a grid of {slots} "
                        f"slots of {sample_period} s, which cannot be allocated") from None


def read_rows(path, extra_columns: bool = False) -> np.ndarray:
    """The (n, 2) float array of (timestamp, watts) rows of a meter CSV.

    The file holds an optional header line whose first field is
    `timestamp`, then rows of two numbers separated by a comma; blank
    lines are skipped and fields may be double-quoted.  With
    `extra_columns`, columns after the second are allowed and ignored.
    Values must be finite, watts non-negative and timestamps strictly
    increasing.  Any other input raises DataError, which names the first
    bad line whenever a row fails those checks.

    After the header is sniffed, `np.loadtxt` is handed the path, not an
    open file: given a path, NumPy's C reader parses the text in chunks
    instead of taking it one Python line string at a time.
    """
    try:  # a ValueError here includes bytes that are not UTF-8
        with open(path) as f:
            header = _is_header(next(csv.reader([f.readline()]), []))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", comments=None, quotechar='"', ndmin=2,
                              usecols=(0, 1) if extra_columns else None,
                              skiprows=int(header))
    except ValueError as exc:
        raise DataError(_first_bad_line(path, extra_columns)
                        or f"{path}: unreadable CSV ({exc})") from None
    if not rows.size:
        return np.empty((0, 2))
    if (rows.shape[1] == 2 and np.isfinite(rows).all() and (rows[:, 1] >= 0).all()
            and (np.diff(rows[:, 0]) > 0).all()):
        return rows
    raise DataError(_first_bad_line(path, extra_columns) or f"{path}: unreadable CSV")


def _is_header(row: list[str]) -> bool:
    return bool(row) and row[0].strip().lower() == "timestamp"


def _first_bad_line(path, extra_columns: bool) -> str | None:
    """The message naming the first line `read_rows` rejects, or None.

    Only diagnoses a file `read_rows` already refused: each row is
    checked in turn, the earliest fault winning.
    """
    previous = None
    with open(path, newline="") as f:
        try:
            for lineno, row in enumerate(csv.reader(f), start=1):
                if not row or (lineno == 1 and _is_header(row)):
                    continue
                if len(row) < 2 or (len(row) > 2 and not extra_columns):
                    return f"{path}: expected 2 columns at line {lineno}, got {len(row)}"
                try:
                    t = float(row[0])
                    w = float(row[1])
                except ValueError as exc:
                    return f"{path}: malformed row at line {lineno}: {exc}"
                if not np.isfinite(w) or not np.isfinite(t):
                    return f"{path}: non-finite value at line {lineno}"
                if w < 0:
                    return f"{path}: negative power at line {lineno}"
                if previous is not None and t <= previous:
                    return (f"{path}: non-increasing timestamp at line {lineno} "
                            f"({t} follows {previous})")
                previous = t
        except (csv.Error, UnicodeDecodeError):
            return None
    return None


def write_rows(path, header: tuple[str, ...], series: PowerSeries, *extra_columns):
    """Write a CSV that `read_rows` reads back: the `header` line, then one
    CRLF row per sample of the timestamp, the watts and each extra column,
    all but the timestamp to six decimals.  Timestamps are written as
    integers when the series starts on a whole second (the period is a
    whole number of seconds, so then every timestamp is one) and every
    timestamp lies within int64, else as the shortest text that reads
    back as the same float.

    Rows are formatted CSV_WRITE_CHUNK at a time, which bounds the memory
    held at once; the bytes are those of one `csv.writer` row per sample.
    A chunk is built as an array of digits (`_chunk_bytes`) unless one of
    its values is written some other way, in which case each of its rows
    is formatted with `str.format`.
    """
    last = series.start_time + max(len(series) - 1, 0) * float(series.sample_period)
    whole_seconds = (float(series.start_time).is_integer()
                     and max(abs(series.start_time), abs(last)) < 2.0**63)
    row = "{}" + ",{:.6f}" * (1 + len(extra_columns)) + "\r\n"
    with open(path, "wb") as f:
        f.write((",".join(header) + "\r\n").encode())
        for lo in range(0, len(series), CSV_WRITE_CHUNK):
            hi = min(lo + CSV_WRITE_CHUNK, len(series))
            # series.timestamps()[lo:hi], element for element.
            timestamps = series.start_time + np.arange(lo, hi) * float(series.sample_period)
            if whole_seconds:
                timestamps = timestamps.astype(np.int64)
            chunk = [timestamps, *(column[lo:hi] for column in (series.values, *extra_columns))]
            text = _chunk_bytes(chunk)
            if text is None:
                text = "".join(map(row.format, *(c.tolist() for c in chunk))).encode()
            f.write(text)


def _chunk_bytes(columns) -> bytes | None:
    """The CSV rows of one chunk, timestamps first, as `write_rows` writes
    them, or None when a value needs `str.format`.

    Integer timestamps that are not negative are written as their digits.
    Each other column is written as round(x * 10**6) units, split into a
    whole part and a six-digit fraction; `_micro_units` returns None for a
    value it cannot prove exact.  The rows are laid out in a byte block
    with every whole part as wide as the chunk's widest, and the leading
    zeros are dropped when the block is flattened.
    """
    timestamps = columns[0]
    if timestamps.dtype != np.int64 or timestamps.min() < 0:
        return None
    fields = [(timestamps, [])]  # (whole part, triples of the fraction)
    for column in columns[1:]:
        units = _micro_units(column)
        if units is None:
            return None
        whole = units // 10**6
        fields.append((whole, _triples(units - whole * 10**6, 2)))

    digit_counts = [len(str(int(whole.max()))) for whole, _ in fields]
    widths = [3 * -(-count // 3) for count in digit_counts]
    row_width = sum(widths) + 7 * (len(fields) - 1) + len(fields) + 1
    chars = np.empty((len(timestamps), row_width), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    at = 0
    for (whole, fraction), count, width in zip(fields, digit_counts, widths):
        if at:
            chars[:, at] = ord(",")
            at += 1
        _put_triples(chars, at, _triples(whole, width // 3))
        at += width
        # The digit for 10**k is kept where the value reaches 10**k; each
        # value reaches 10**k for every k below the minimum's digit count.
        keep[:, at - width : at - count] = False
        for k in range(len(str(int(whole.min()))), count):
            keep[:, at - 1 - k] = whole >= 10**k
        if fraction:
            chars[:, at] = ord(".")
            _put_triples(chars, at + 1, fraction)
            at += 7
    chars[:, at:] = (ord("\r"), ord("\n"))
    return chars[keep].tobytes()


def _triples(values: np.ndarray, count: int) -> list[np.ndarray]:
    """The last `count` base-1000 digits of non-negative int64 `values`,
    most significant first."""
    triples = []
    for _ in range(count):
        high = values // 1000
        triples.append(values - high * 1000)
        values = high
    return triples[::-1]


# The ASCII digits of 0..999, zero-padded to three and each followed by
# a NUL byte, as four-byte words.
_DIGIT_WORDS = np.frombuffer(b"".join(b"%03d\0" % i for i in range(1000)), dtype="<u4")


def _put_triples(chars: np.ndarray, at: int, triples: list[np.ndarray]):
    """Write the digits of `triples` into each row of the uint8 block
    `chars` from column `at`.  Each triple is stored as a four-byte word,
    so the column after the last digit is clobbered: it must be written
    afterwards."""
    for i, triple in enumerate(triples):
        chars[:, at + 3 * i : at + 3 * i + 4].view("<u4")[:, 0] = _DIGIT_WORDS[triple]


def _micro_units(column) -> np.ndarray | None:
    """round(x * 10**6) of each value as `format(x, ".6f")` rounds it, as
    int64, or None when the column holds a value that is negative (-0.0
    included), not finite, or too large for these units to be exact.

    `{:.6f}` rounds the exact binary value half to even.  `rint` of the
    float product can round the other way only when the product lies
    within half an ulp of a half-integer; the values within 8 ulps of one
    are rounded by `format` itself.
    """
    x = np.asarray(column, dtype=np.float64)
    if np.signbit(x).any() or not (x < 4.5e9).all():  # then x * 10**6 < 2**52
        return None
    scaled = x * 1e6
    rounded = np.rint(scaled)
    # scaled - rounded is exact, and scaled * 2**-49 is at least 8 ulps of scaled.
    near_half = np.flatnonzero(np.abs(np.abs(scaled - rounded) - 0.5) <= scaled * 2.0**-49)
    units = rounded.astype(np.int64)
    units[near_half] = [int(format(v, ".6f").replace(".", "")) for v in x[near_half].tolist()]
    return units


def fill_gaps(timestamps, values, sample_period: int,
              max_forward_fill: float = DEFAULT_MAX_FORWARD_FILL) -> PowerSeries:
    """Snap (timestamp, value) pairs to the sample grid and fill its gaps.

    Timestamps must be strictly increasing.  Each goes to the nearest
    slot of the grid anchored at the first timestamp (a tie to the even
    slot); when several land on one slot the last is kept.  A gap is the
    stretch of missing slots between two consecutive samples.  Gaps of at
    most `max_forward_fill` seconds repeat the last seen value; longer
    gaps are read as the meter being off and filled with zeros.  The
    result covers every slot from the first to the last timestamp; a span
    of more than MAX_SLOTS slots is a DataError.

    The grid is filled FILL_BLOCK rows at a time, so apart from the inputs
    and the result only one block's arrays are held.
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if timestamps.size != values.size:
        raise DataError("timestamps and values must have equal length")
    if timestamps.size == 0:
        return PowerSeries(start_time=0.0, sample_period=sample_period, values=np.empty(0))
    if not (timestamps[1:] > timestamps[:-1]).all():
        raise DataError("timestamps must be strictly increasing")

    start = timestamps[0]
    span = np.rint((timestamps[-1] - start) / sample_period)
    if not span < MAX_SLOTS:
        raise DataError(f"timestamps {start} to {timestamps[-1]} need a grid of {span + 1:.4g} "
                        f"slots of {sample_period} s, more than an index holds")
    out = np.empty(int(span) + 1)
    for lo in range(0, timestamps.size, FILL_BLOCK):
        hi = min(lo + FILL_BLOCK, timestamps.size)
        # The slots of the block's rows and of the row after it; the last
        # row's run is its own slot.
        slots = np.rint((timestamps[lo : hi + 1] - start) / sample_period).astype(np.int64)
        if hi == timestamps.size:
            slots = np.append(slots, slots[-1] + 1)
        # A row's run is its own slot and the missing slots after it; a row
        # whose successor lands on its slot has none, so the last pair to
        # land on a slot is kept.
        counts = np.diff(slots)
        # A run of more than max_forward_fill seconds of missing slots
        # reads zero (meter assumed off), but the row's own slot keeps it.
        filled = np.where((counts - 1) * sample_period <= max_forward_fill, values[lo:hi], 0.0)
        out[slots[0] : slots[-1]] = np.repeat(filled, counts)
        owned = counts > 0
        out[slots[:-1][owned]] = values[lo:hi][owned]
    return PowerSeries(start_time=float(start), sample_period=sample_period, values=out)


def extract_activations(series: PowerSeries, params: ActivationParams) -> list[Activation]:
    """Cut complete appliance cycles out of a gap-free appliance series.

    Finds maximal runs of samples strictly above the on-power threshold,
    merges runs separated by sub-threshold stretches shorter than the
    minimum off duration (complex appliances dip below threshold mid
    cycle), drops merged runs shorter than the minimum on duration, and
    clips values to the appliance's maximum power.
    """
    values = series.values
    period = series.sample_period
    # Maximal runs of samples above the threshold, as [start, end).
    above = np.concatenate(([False], values > params.on_power_threshold, [False]))
    edges = np.diff(above.astype(np.int8))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    if not starts.size:
        return []
    # A run opens a new activation when the off-stretch before it lasts
    # at least the minimum off duration, and closes one when the
    # off-stretch after it does.
    apart = (starts[1:] - ends[:-1]) * period >= params.min_off_duration
    starts, ends = starts[np.append(True, apart)], ends[np.append(apart, True)]
    long_enough = (ends - starts) * period >= params.min_on_duration
    return [Activation(source_offset=start, values=np.minimum(values[start:end], params.max_power))
            for start, end in zip(starts[long_enough].tolist(), ends[long_enough].tolist())]
