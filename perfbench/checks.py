"""Output checks for the pipeline benchmark.

Every check recomputes what the program should have produced from its
inputs, or tests a property the method must have.  None compares against
a stored copy of earlier output.  A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

METRIC_NAMES = ("recall", "precision", "f1", "accuracy",
                "relative_error_total_energy", "mean_absolute_error",
                "proportion_energy_correct")

# Estimates are written with six decimals.
WATT_TOLERANCE = 5e-7 + 1e-12


class CheckFailed(Exception):
    pass


def read_table(path) -> np.ndarray:
    """A numeric CSV with one header line, as a 2-D float64 array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# -- extract --------------------------------------------------------------

def count_activations(values, sample_period, on_threshold, min_on, min_off) -> int:
    """Runs strictly above the threshold, merged across off-gaps shorter
    than `min_off` seconds, kept if they last at least `min_on` seconds."""
    above = np.concatenate([[False], np.asarray(values) > on_threshold, [False]])
    edges = np.diff(above.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    if starts.size == 0:
        return 0
    new_group = np.concatenate([[True], (starts[1:] - ends[:-1]) * sample_period >= min_off])
    group_starts = starts[new_group]
    group_ends = np.append(ends[np.flatnonzero(new_group)[1:] - 1], ends[-1])
    return int(np.sum((group_ends - group_starts) * sample_period >= min_on))


def check_activation_counts(stored: dict, expected: dict):
    if stored != expected:
        wrong = {k: (stored.get(k), v) for k, v in expected.items() if stored.get(k) != v}
        raise CheckFailed(f"activation counts (stored, expected) differ: {wrong}")


# -- train ----------------------------------------------------------------

def _dense(n_in, n_out):
    return n_in * n_out + n_out


def expected_parameter_count(kind: str, width: int) -> int:
    """Closed-form parameter count of each architecture at full layer sizes."""
    if kind == "dae":
        hidden = (width - 3) * 8
        return (4 * 8 + 8) + _dense(hidden, hidden) + _dense(hidden, 128) \
            + _dense(128, hidden) + (4 * 8 + 1)

    if kind == "lstm":
        def bilstm(n_in, n):
            return 2 * (n_in * 4 * n + n * 4 * n + 4 * n + 3 * n)
        return (4 * 16 + 16) + bilstm(16, 128) + bilstm(256, 256) + _dense(512, 128) \
            + _dense(128, 1)
    if kind == "rectangles":
        sizes = ((width - 6) * 16, 4096, 3072, 2048, 512, 3)
        return (4 * 16 + 16) + (4 * 16 * 16 + 16) + sum(
            _dense(a, b) for a, b in zip(sizes, sizes[1:]))
    raise ValueError(f"unknown kind {kind!r}")


def checkpoint_parameter_count(path) -> int:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
    return sum(math.prod(t["shape"]) for t in header["tensors"])


def check_parameter_count(count: int, kind: str, width: int):
    expected = expected_parameter_count(kind, width)
    if count != expected:
        raise CheckFailed(f"{kind} checkpoint holds {count} parameters, expected {expected}")


def check_loss_log(rows: np.ndarray, updates: int):
    """rows: (step, loss, smoothed_loss, wallclock_s), one per update."""
    if rows.shape != (updates, 4):
        raise CheckFailed(f"loss log has shape {rows.shape}, expected ({updates}, 4)")
    if not np.array_equal(rows[:, 0], np.arange(1, updates + 1)):
        raise CheckFailed("loss log steps are not 1..updates")
    if not np.all(np.isfinite(rows)):
        raise CheckFailed("loss log holds a non-finite value")
    if not rows[-1, 2] < rows[0, 1]:
        raise CheckFailed(f"last smoothed loss {rows[-1, 2]} is not below "
                          f"the first loss {rows[0, 1]}")


# -- disaggregate -----------------------------------------------------------

def check_estimate(estimate: np.ndarray, timestamps: np.ndarray, rectangles: bool = False,
                   on_threshold: float = 0.0):
    """One finite non-negative row per aggregate sample, on its timestamps."""
    if estimate.shape[0] != timestamps.shape[0]:
        raise CheckFailed(f"estimate has {estimate.shape[0]} rows, "
                          f"aggregate has {timestamps.shape[0]} samples")
    if not np.array_equal(estimate[:, 0], timestamps):
        raise CheckFailed("estimate timestamps differ from the aggregate's")
    watts = estimate[:, 1]
    if not (np.all(np.isfinite(watts)) and np.all(watts >= 0)):
        raise CheckFailed("estimate holds a negative or non-finite value")
    if rectangles:
        if estimate.shape[1] != 3:
            raise CheckFailed("rectangles estimate has no probability column")
        probability = estimate[:, 2]
        if not np.all((probability >= 0) & (probability <= 1)):
            raise CheckFailed("a rectangles probability lies outside [0, 1]")
        if np.any((watts != 0) & (watts < on_threshold)):
            raise CheckFailed("a nonzero rectangles estimate is below the on threshold")


def _joint_states(models):
    """Every joint combination of state powers: (per-appliance powers, totals)."""
    powers = np.array(list(itertools.product(*(m["state_powers"] for m in models))))
    return powers, powers.sum(axis=1)


def check_co(watts, aggregate, models, target: str, chunk: int = 8192):
    """At every sample the target's estimate is its state in some combination
    of state powers whose total is nearest the aggregate (brute force)."""
    index = [m["appliance_id"] for m in models].index(target)
    powers, totals = _joint_states(models)
    for lo in range(0, len(aggregate), chunk):
        y = aggregate[lo : lo + chunk, None]
        residual = np.abs(y - totals[None, :])
        nearest = residual <= residual.min(axis=1, keepdims=True) + 1e-9 * np.maximum(1, y)
        matches = np.abs(watts[lo : lo + chunk, None] - powers[None, :, index]) \
            <= WATT_TOLERANCE * np.maximum(1, powers[None, :, index])
        bad = np.flatnonzero(~np.any(nearest & matches, axis=1))
        if bad.size:
            t = lo + int(bad[0])
            raise CheckFailed(f"CO estimate {watts[t]} at sample {t} is not the {target} "
                              f"state of a combination nearest the aggregate {aggregate[t]}")


def check_state_powers(watts, models, target: str):
    """Every estimate value is one of the target's fitted state powers."""
    model = next(m for m in models if m["appliance_id"] == target)
    powers = np.asarray(model["state_powers"])
    distance = np.min(np.abs(watts[:, None] - powers[None, :]), axis=1)
    bad = np.flatnonzero(distance > WATT_TOLERANCE * np.maximum(1, np.abs(watts)))
    if bad.size:
        raise CheckFailed(f"FHMM estimate {watts[bad[0]]} at sample {bad[0]} is not a "
                          f"fitted {target} state power {powers.tolist()}")


# -- evaluate ---------------------------------------------------------------

def seven_metrics(pred, truth, aggregate, on_threshold) -> dict:
    """The paper's seven scores, computed from the CSV values."""
    pred_on, true_on = pred > on_threshold, truth > on_threshold
    tp = int(np.count_nonzero(pred_on & true_on))
    fp = int(np.count_nonzero(pred_on & ~true_on))
    fn = int(np.count_nonzero(~pred_on & true_on))
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    e_pred, e_true = float(np.sum(pred)), float(np.sum(truth))
    abs_error = np.abs(pred - truth)
    return {
        "recall": recall,
        "precision": precision,
        "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
        "accuracy": float(np.count_nonzero(pred_on == true_on)) / len(pred),
        "relative_error_total_energy":
            abs(e_pred - e_true) / max(e_pred, e_true) if max(e_pred, e_true) else 0.0,
        "mean_absolute_error": float(np.mean(abs_error)),
        "proportion_energy_correct": 1.0 - float(np.sum(abs_error)) / (2 * float(np.sum(aggregate))),
    }


def check_metrics(reported: dict, expected: dict, rel: float = 1e-9):
    for name in METRIC_NAMES:
        a, b = reported.get(name), expected[name]
        if a is None or not abs(a - b) <= rel * max(abs(a), abs(b), 1e-300):
            raise CheckFailed(f"{name}: reported {a}, computed {b}")


def check_report(rows: list, evaluation: dict):
    """report.csv rows: one per (algorithm, metric) of the evaluation."""
    expected = {(algo, name): scores[name]
                for algo, scores in evaluation["algorithms"].items() for name in METRIC_NAMES}
    got = {(r[2], r[3]): float(r[4]) for r in rows}
    if len(rows) != len(expected) or got.keys() != expected.keys():
        raise CheckFailed(f"report has {len(rows)} rows, expected {len(expected)}")
    for key, value in expected.items():
        if abs(got[key] - value) > 5e-7:
            raise CheckFailed(f"report {key} = {got[key]}, evaluation says {value}")
