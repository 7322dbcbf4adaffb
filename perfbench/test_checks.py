"""Each output check accepts the program's own correct output and rejects
a corrupted copy of it.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
import workloads
from checks import CheckFailed
from disagg import architectures, baselines, metrics
from disagg.nn import save_checkpoint
from disagg.synthworld import DESK_APPLIANCES, make_household
from disagg.timeseries import ActivationParams, extract_activations

ON = 1000.0


@pytest.fixture(scope="module")
def house():
    aggregate, channels = make_household(DESK_APPLIANCES, 3000, np.random.default_rng(5))
    return aggregate, channels


@pytest.fixture(scope="module")
def models(house):
    _, channels = house
    out = []
    for name, channel in channels.items():
        acts = extract_activations(channel, ActivationParams(5000, 100, 12, 0))
        out.append(baselines.fit_states(acts, 2, appliance_id=name))
    return out


@pytest.mark.parametrize("min_on,min_off", [(12, 0), (30, 12), (60, 30)])
def test_activation_count_matches_extraction(house, min_on, min_off):
    _, channels = house
    params = ActivationParams(2400, 150, min_on, min_off)
    for channel in channels.values():
        expected = len(extract_activations(channel, params))
        assert checks.count_activations(channel.values, 6, 150, min_on, min_off) == expected


def test_activation_count_check_rejects_off_by_one():
    expected = {("kettle", 1): 40, ("kettle", 2): 37}
    checks.check_activation_counts(dict(expected), expected)
    with pytest.raises(CheckFailed):
        checks.check_activation_counts({("kettle", 1): 40, ("kettle", 2): 36}, expected)
    with pytest.raises(CheckFailed):
        checks.check_activation_counts({("kettle", 1): 40}, expected)


def test_parameter_counts_at_paper_width():
    assert checks.expected_parameter_count("dae", 128) == 1_258_201
    assert checks.expected_parameter_count("lstm", 128) == 1_267_281
    assert checks.expected_parameter_count("rectangles", 128) == 27_930_723


@pytest.mark.parametrize("kind,width", [("dae", 40), ("lstm", 24)])
def test_parameter_count_matches_built_network(tmp_path, kind, width):
    network = architectures.build_network(kind, width, np.random.default_rng(0))
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, network.parameters(), meta={"kind": kind})
    count = checks.checkpoint_parameter_count(path)
    checks.check_parameter_count(count, kind, width)
    with pytest.raises(CheckFailed):
        checks.check_parameter_count(count - 1, kind, width)


def _loss_log(updates=20):
    losses = 0.5 * np.exp(-np.arange(updates) / 5.0) + 0.01
    smoothed = np.empty(updates)
    ema = None
    for i, loss in enumerate(losses):
        ema = loss if ema is None else 0.95 * ema + 0.05 * loss
        smoothed[i] = ema
    return np.column_stack([np.arange(1, updates + 1), losses, smoothed,
                            np.linspace(0.1, 2.0, updates)])


def test_loss_log_check():
    rows = _loss_log()
    checks.check_loss_log(rows, 20)
    with pytest.raises(CheckFailed):
        checks.check_loss_log(rows[:-1], 20)
    bad = rows.copy()
    bad[7, 1] = np.nan
    with pytest.raises(CheckFailed):
        checks.check_loss_log(bad, 20)
    rising = rows.copy()
    rising[-1, 2] = rows[0, 1] * 1.01
    with pytest.raises(CheckFailed):
        checks.check_loss_log(rising, 20)


def _estimate_table(series, probability=None):
    columns = [series.timestamps(), series.values]
    if probability is not None:
        columns.append(probability)
    return np.column_stack(columns)


def test_estimate_check_rejects_missing_row_and_shift(house):
    aggregate, channels = house
    table = _estimate_table(channels["kettle"])
    checks.check_estimate(table, aggregate.timestamps())
    with pytest.raises(CheckFailed):
        checks.check_estimate(np.delete(table, 100, axis=0), aggregate.timestamps())
    shifted = table.copy()
    shifted[:, 0] += 6
    with pytest.raises(CheckFailed):
        checks.check_estimate(shifted, aggregate.timestamps())
    negative = table.copy()
    negative[5, 1] = -1e-3
    with pytest.raises(CheckFailed):
        checks.check_estimate(negative, aggregate.timestamps())


def test_rectangles_estimate_check(house):
    aggregate, _ = house
    n = len(aggregate)
    watts = np.where(np.arange(n) % 50 < 4, 2000.0, 0.0)
    probability = np.where(watts > 0, 0.75, 0.25)
    table = np.column_stack([aggregate.timestamps(), watts, probability])
    checks.check_estimate(table, aggregate.timestamps(), rectangles=True, on_threshold=ON)
    above_one = table.copy()
    above_one[3, 2] = 1.0 + 1e-6
    with pytest.raises(CheckFailed):
        checks.check_estimate(above_one, aggregate.timestamps(), True, ON)
    below_threshold = table.copy()
    below_threshold[0, 1] = ON - 1
    with pytest.raises(CheckFailed):
        checks.check_estimate(below_threshold, aggregate.timestamps(), True, ON)


def _rounded(values):
    return np.array([float(format(v, ".6f")) for v in values])


def test_co_check_accepts_program_output_and_rejects_flipped_state(house, models):
    aggregate, _ = house
    estimate = baselines.co_disaggregate(aggregate, models)["kettle"].series.values
    model_dicts = [m.to_dict() for m in models]
    watts = _rounded(estimate)
    checks.check_co(watts, aggregate.values, model_dicts, "kettle")
    kettle_powers = models[0].state_powers
    t = int(np.flatnonzero(watts > 0)[0])
    flipped = watts.copy()
    flipped[t] = 0.0
    with pytest.raises(CheckFailed):
        checks.check_co(flipped, aggregate.values, model_dicts, "kettle")
    flipped = watts.copy()
    flipped[0] = float(format(kettle_powers[1], ".6f"))
    with pytest.raises(CheckFailed):
        checks.check_co(flipped, aggregate.values, model_dicts, "kettle")


def test_fhmm_check_accepts_program_output_and_rejects_other_power(house, models):
    aggregate, _ = house
    estimate = baselines.fhmm_disaggregate(aggregate, models)["kettle"].series.values
    model_dicts = [m.to_dict() for m in models]
    watts = _rounded(estimate)
    checks.check_state_powers(watts, model_dicts, "kettle")
    corrupted = watts.copy()
    corrupted[10] += 1.0
    with pytest.raises(CheckFailed):
        checks.check_state_powers(corrupted, model_dicts, "kettle")


def test_metrics_check_matches_program_and_rejects_small_error(house):
    aggregate, channels = house
    truth = channels["kettle"].values
    pred = np.roll(truth, 2) * 0.9
    reported = metrics.metrics_report(pred, truth, aggregate.values, ON).to_dict()
    expected = checks.seven_metrics(pred, truth, aggregate.values, ON)
    checks.check_metrics(reported, expected)
    for name in checks.METRIC_NAMES:
        off = dict(reported, **{name: reported[name] * (1 + 1e-6) + 1e-12})
        with pytest.raises(CheckFailed):
            checks.check_metrics(off, expected)
    missing = {k: v for k, v in reported.items() if k != "f1"}
    with pytest.raises(CheckFailed):
        checks.check_metrics(missing, expected)


def test_report_check():
    evaluation = {"algorithms": {"co": {name: 0.5 + i / 10 for i, name in
                                        enumerate(checks.METRIC_NAMES)}}}
    text = io.StringIO()
    writer = csv.writer(text)
    for name in checks.METRIC_NAMES:
        writer.writerow(["kettle", 2, "co", name,
                         format(evaluation["algorithms"]["co"][name], ".6f")])
    rows = [line.split(",") for line in text.getvalue().splitlines()]
    checks.check_report(rows, evaluation)
    with pytest.raises(CheckFailed):
        checks.check_report(rows[:-1], evaluation)
    changed = [list(r) for r in rows]
    changed[0][4] = "0.600000"
    with pytest.raises(CheckFailed):
        checks.check_report(changed, evaluation)


def test_benchmark_json_lists_every_reported_metric():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(workloads.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.PER_LAYER
    for entry in doc["workloads"]:
        assert workloads.get(entry["name"]).why == entry["why"]
