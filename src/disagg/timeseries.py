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

    Timestamps must be strictly increasing.  They are snapped to the
    sample grid anchored at the first timestamp (collisions keep the
    last value), then missing slots are filled with `fill_gaps`.  An
    empty file yields an empty series with the declared period.
    """
    rows = read_rows(path)
    if not len(rows):
        return PowerSeries(start_time=0.0, sample_period=sample_period, values=np.empty(0))
    timestamps, values = rows[:, 0], rows[:, 1]

    # Snap to the grid anchored at the first timestamp.  Slots never
    # decrease, so keeping the last row of each run of equal slots keeps
    # the last value when two rows land on the same slot.
    start = timestamps[0]
    slots = np.rint((timestamps - start) / sample_period).astype(np.int64)
    keep = np.append(slots[:-1] != slots[1:], True)
    return fill_gaps(start + slots[keep] * float(sample_period), values[keep],
                     sample_period, max_forward_fill)


def read_rows(path, extra_columns: bool = False) -> np.ndarray:
    """The (n, 2) float array of (timestamp, watts) rows of a meter CSV.

    The file holds an optional header line whose first field is
    `timestamp`, then rows of two numbers separated by a comma; blank
    lines are skipped and fields may be double-quoted.  With
    `extra_columns`, columns after the second are allowed and ignored.
    Values must be finite, watts non-negative and timestamps strictly
    increasing.  Any other input raises DataError, which names the first
    bad line whenever a row fails those checks.
    """
    with open(path) as f:
        try:  # a ValueError here includes bytes that are not UTF-8
            if not _is_header(next(csv.reader([f.readline()]), [])):
                f.seek(0)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(f, delimiter=",", comments=None, quotechar='"', ndmin=2,
                                  usecols=(0, 1) if extra_columns else None)
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
    CRLF row per sample of an integer timestamp, the watts and each extra
    column, all but the timestamp to six decimals.

    Rows are formatted CSV_WRITE_CHUNK at a time, which bounds the text
    held at once; the bytes are those of one `csv.writer` row per sample.
    """
    columns = [series.timestamps().astype(np.int64), series.values, *extra_columns]
    row = "{:d}" + ",{:.6f}" * (len(columns) - 1) + "\r\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for lo in range(0, len(series), CSV_WRITE_CHUNK):
            chunk = (column[lo : lo + CSV_WRITE_CHUNK].tolist() for column in columns)
            f.write("".join(map(row.format, *chunk)))


def fill_gaps(timestamps, values, sample_period: int,
              max_forward_fill: float = DEFAULT_MAX_FORWARD_FILL) -> PowerSeries:
    """Fill missing grid slots between on-grid (timestamp, value) pairs.

    A gap is the stretch of missing slots between two consecutive
    samples.  Gaps of at most `max_forward_fill` seconds repeat the last
    seen value; longer gaps are read as the meter being off and filled
    with zeros.  The result covers every slot from the first to the last
    timestamp.
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if timestamps.size == 0:
        return PowerSeries(start_time=0.0, sample_period=sample_period, values=np.empty(0))
    if timestamps.size != values.size:
        raise DataError("timestamps and values must have equal length")

    start = timestamps[0]
    slots = np.rint((timestamps - start) / sample_period).astype(np.int64)
    gaps = np.diff(slots)
    if np.any(gaps <= 0):
        raise DataError("timestamps must be strictly increasing on the grid")
    # Each slot is owned by the last sample at or before it; a sample
    # followed by a gap longer than max_forward_fill hands zeros to the
    # slots it owns (meter assumed off).
    owner = np.zeros(int(slots[-1]) + 1, dtype=np.intp)
    owner[slots] = np.arange(len(slots))
    np.maximum.accumulate(owner, out=owner)
    filled = (gaps - 1) * sample_period <= max_forward_fill
    carried = values.copy()
    carried[:-1][~filled] = 0.0
    out = carried[owner]
    out[slots] = values
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
    above = values > params.on_power_threshold
    if not above.any():
        return []

    # Maximal runs of consecutive above-threshold samples, as [start, end).
    edges = np.flatnonzero(np.diff(above.astype(np.int8)))
    runs = []
    run_start = 0 if above[0] else None
    for e in edges:
        if above[e]:  # falling edge after e
            runs.append((run_start, int(e) + 1))
            run_start = None
        else:  # rising edge: run starts at e+1
            run_start = int(e) + 1
    if run_start is not None:
        runs.append((run_start, len(values)))

    merged = [runs[0]]
    for start, end in runs[1:]:
        gap_samples = start - merged[-1][1]
        if gap_samples * period < params.min_off_duration:
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))

    activations = []
    for start, end in merged:
        if (end - start) * period < params.min_on_duration:
            continue
        chunk = np.minimum(values[start:end], params.max_power)
        activations.append(Activation(source_offset=start, values=chunk))
    return activations
