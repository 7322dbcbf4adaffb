"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criterion 3 trains two networks on the CPU and takes several minutes;
everything else completes in well under a minute apiece.
"""

import itertools
import json
import time

import numpy as np
import pytest

from conftest import (check_network_gradients, general_position, numeric_gradient,
                      relative_error)
from desk_experiment import run_desk_experiment
from disagg import architectures, baselines, datagen, metrics, sliding
from disagg.datagen import RectangleTriple, WindowSpec, encode_rectangle
from disagg.nn import LSTM, Bidirectional, Conv1D, Dense
from disagg.sliding import DisaggConfig
from disagg.timeseries import ActivationParams, PowerSeries, extract_activations, fill_gaps

from test_baselines import (brute_force_best_path, co_oracle, make_model,
                            path_log_probability, random_models)
from test_sliding import (ConstantNetwork, OracleNetwork, rect_outputs, rectangle_estimate,
                          spec_for)


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion}: {status}" + (f" — {detail}" if detail else ""))
    return passed


class TestCriterion1Gradients:
    def test_gradient_correctness_all_layers_and_architectures(self):
        start = time.time()
        rng = np.random.default_rng(2024)
        worst = 0.0

        def layer_check(layer, x):
            nonlocal worst
            y, cache = layer.forward_cached(x)
            weight = rng.normal(size=y.shape)
            dx, grads = layer.backward(weight, cache)

            def loss():
                return float(np.sum(layer.forward(x) * weight))

            worst = max(worst, relative_error(dx, numeric_gradient(loss, x)))
            for key, value in layer.params.items():
                worst = max(worst, relative_error(grads[key], numeric_gradient(loss, value)))

        for activation in ("linear", "relu", "tanh"):
            layer = Dense("d", 6, 5, activation, rng)
            layer.params["bias"][:] = rng.normal(scale=0.1, size=5)
            layer_check(layer, rng.normal(size=(3, 6)))
        for border in ("valid", "same"):
            layer = Conv1D("c", 3, 4, filter_size=4, border=border, init=rng)
            layer.params["bias"][:] = rng.normal(scale=0.1, size=4)
            layer_check(layer, rng.normal(size=(2, 10, 3)))
        layer_check(LSTM("l", 3, 5, init=rng), rng.normal(size=(2, 8, 3)))
        layer_check(Bidirectional("b", LSTM("f", 3, 4, init=rng), LSTM("w", 3, 4, init=rng)),
                    rng.normal(size=(2, 8, 3)))

        nets = {
            "lstm": (architectures.build_lstm(12, rng, conv_filters=2, lstm_units=(3, 4),
                                              dense_units=3),
                     rng.normal(size=(2, 12)), rng.uniform(0, 1, size=(2, 12))),
            "dae": (architectures.build_dae(16, rng, conv_filters=2, code_units=4),
                    rng.normal(size=(2, 16)), rng.uniform(0, 1, size=(2, 16))),
            "rectangles": (architectures.build_rectangles(
                16, rng, conv_filters=2, dense_units=(8, 6, 4, 3)),
                rng.normal(size=(2, 16)), rng.uniform(0, 1, size=(2, 3))),
        }
        for name, (net, x, target) in nets.items():
            general_position(net, rng)
            worst = max(worst, check_network_gradients(net, x, target))

        elapsed = time.time() - start
        ok = worst < 1e-4 and elapsed < 60
        assert report(1, ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s"), \
            f"worst rel err {worst}, elapsed {elapsed}"


class TestCriterion2ArchitectureAudit:
    def test_stack_enumerations(self):
        lstm = architectures.build_lstm(128).describe()
        dae = architectures.build_dae(128).describe()
        rect = architectures.build_rectangles(128).describe()

        checks = [
            [d["type"] for d in lstm] == ["reshape", "conv1d", "bidirectional_lstm",
                                          "bidirectional_lstm", "dense", "dense", "reshape"],
            lstm[1]["filter_size"] == 4 and lstm[1]["stride"] == 1
            and lstm[1]["filters"] == 16 and lstm[1]["border"] == "same",
            lstm[2]["units"] == 128 and lstm[2]["peepholes"],
            lstm[3]["units"] == 256 and lstm[3]["peepholes"],
            (lstm[4]["units"], lstm[4]["activation"]) == (128, "tanh"),
            (lstm[5]["units"], lstm[5]["activation"]) == (1, "linear"),
            [d["units"] for d in dae if d["type"] == "dense"] == [1000, 128, 1000],
            dae[1]["filters"] == 8 and dae[7]["filters"] == 1,
            [d["units"] for d in rect if d["type"] == "dense"] == [4096, 3072, 2048, 512, 3],
        ]
        ok = all(checks)
        assert report("2 (stack audit)", ok, f"{sum(checks)}/{len(checks)} structural checks"), checks

    def test_lstm_parameter_count_within_band(self):
        # The paper's other stated counts (dAE 1M-150M, rectangles 28M-120M)
        # are reproduced by this stack, so the count below is not a bug in
        # the construction; see the decisions ledger for the analysis.
        net = architectures.build_lstm(128)
        total = net.parameter_count()
        lstm_only = sum(v.size for k, v in net.parameters().items() if "bilstm" in k)
        ok = 0.8e6 <= total <= 1.2e6
        report("2 (parameter count)", ok,
               f"total {total:,} (LSTM layers alone {lstm_only:,}) vs band [800,000, 1,200,000]")
        assert ok, (f"LSTM net has {total:,} parameters ({lstm_only:,} in the LSTM layers); "
                    "neither is within ±20% of 1e6")

    def test_companion_parameter_counts_match_stated_ranges(self):
        # Corroboration for the audit: the same conventions reproduce the
        # stated dAE and rectangles parameter ranges at their window extremes.
        dae_small = architectures.build_dae(128).parameter_count()
        dae_large = architectures.build_dae(1536).parameter_count()
        rect_small = architectures.build_rectangles(128).parameter_count()
        ok = (0.8e6 <= dae_small <= 1.5e6 and 140e6 <= dae_large <= 160e6
              and 25e6 <= rect_small <= 31e6)
        assert report("2 (companion counts)", ok,
                      f"dAE 128/1536: {dae_small:,}/{dae_large:,}; rectangles 128: {rect_small:,}")


@pytest.mark.slow
class TestCriterion3DeskScaleEndToEnd:
    """Trains the dAE and rectangles nets on the synthetic desk world and
    scores them on a held-out household.  Several minutes of CPU time."""

    def test_desk_experiment_dae_and_rectangles(self):
        start = time.time()
        runs = {}
        runs["dae"] = run_desk_experiment("dae", width=20, updates=2500,
                                          batch_size=64, learning_rate=0.01, stride=2)
        runs["rectangles"] = run_desk_experiment("rectangles", width=20, updates=1000,
                                                 batch_size=64, learning_rate=0.01,
                                                 stride=2)
        elapsed = time.time() - start
        ok = elapsed <= 15 * 60
        detail = []
        for kind, run in runs.items():
            ok &= run.f1 >= 0.90 and run.proportion >= 0.90
            detail.append(f"{kind}: F1 {run.f1:.3f}, proportion {run.proportion:.3f}, "
                          f"{run.updates} updates")
        assert report(3, ok, "; ".join(detail) + f"; {elapsed/60:.1f} min"), runs


class TestCriterion4DisaggregationIdentity:
    def test_oracle_identity_full_stride(self):
        rng = np.random.default_rng(7)
        width, max_power = 16, 2048.0
        truth = rng.uniform(0, 2000, size=56)
        aggregate = PowerSeries(0, 6, truth)
        net = OracleNetwork(truth, width, width, max_power)
        estimate = sliding.disaggregate(net, aggregate, spec_for(width, max_power),
                                        DisaggConfig(stride=width), 100.0)
        exact = np.array_equal(estimate.series.values, truth)
        assert report("4 (identity)", exact, "stride = window width, oracle network")

    def test_constant_outputs_stride_16(self):
        width, total = 128, 640
        aggregate = PowerSeries(0, 6, np.zeros(total))
        net = ConstantNetwork(777.0, width, 2048.0)
        estimate = sliding.disaggregate(net, aggregate, spec_for(width),
                                        DisaggConfig(stride=16), 100.0)
        err = float(np.abs(estimate.series.values - 777.0).max())
        assert report("4 (constant)", err <= 1e-9, f"max deviation {err:.2e}")


class TestCriterion5RectanglePipeline:
    def test_encode_decode_round_trip_exact(self):
        rng = np.random.default_rng(3)
        ok = True
        for width in (32, 100, 128, 512):
            spec = WindowSpec(width, 1.0, 1.0)
            for _ in range(200):
                start = int(rng.integers(0, width - 1))
                end = int(rng.integers(start + 1, width + 1))
                target = np.zeros(width)
                target[start:end] = rng.uniform(0.2, 1.0)
                triple = encode_rectangle(target)
                decoded = spec.decode_rectangle(triple, 0)
                ok &= decoded is not None and decoded[0] == start and decoded[1] == end
        assert report("5 (round trip)", ok, "start/end exact on the index lattice")

    def test_unanimous_overlay_probability_one(self):
        triple = RectangleTriple(0.25, 0.5, 2000.0 / 2400.0)
        _, probability = rectangle_estimate(rect_outputs([triple] * 6, [0] * 6), 32, 32,
                                            DisaggConfig(probability_threshold=0.5), 500.0)
        ok = bool(np.all(probability[8:16] == 1.0))
        assert report("5 (unanimity)", ok)

    def test_worked_example_geometry(self):
        target = np.zeros(100)
        target[10:90] = 0.5
        triple = encode_rectangle(target)
        ok = (triple.start, triple.end) == (0.1, 0.9)
        assert report("5 (worked example)", ok, f"({triple.start}, {triple.end})")


class TestCriterion6COOracle:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(60)
        violations = 0
        for _ in range(1000):
            models = []
            for i in range(int(rng.integers(1, 4))):
                k = int(rng.integers(2, 4))
                powers = np.concatenate([[0.0], np.sort(rng.uniform(10, 2500, size=k - 1))])
                models.append(make_model(f"m{i}", powers))
            y = rng.uniform(0, 3500, size=int(rng.integers(1, 51)))
            estimates = baselines.co_disaggregate(PowerSeries(0, 6, y), models)
            totals = np.zeros(len(y))
            for m in models:
                totals += estimates[m.appliance_id].series.values
            for t, y_t in enumerate(y):
                oracle_states = co_oracle(y_t, models)
                oracle_total = sum(m.state_powers[s] for m, s in zip(models, oracle_states))
                if abs(y_t - totals[t]) > abs(y_t - oracle_total) + 1e-12:
                    violations += 1
        assert report(6, violations == 0, f"{violations} violations in 1000 trials")


class TestCriterion7FHMMOracle:
    def test_two_hundred_random_instances(self):
        rng = np.random.default_rng(70)
        violations = 0
        worst_gap = 0.0
        for _ in range(200):
            models = random_models(rng, int(rng.integers(1, 3)), max_states=3)
            n_joint = int(np.prod([m.num_states for m in models]))
            if n_joint > 9:
                models = models[:1]
                n_joint = models[0].num_states
            horizon = int(rng.integers(1, 9))
            y = rng.uniform(0, 2500, size=horizon)

            combos = np.array(list(itertools.product(*[range(m.num_states) for m in models])))
            totals = np.zeros(len(combos))
            variances = np.zeros(len(combos))
            log_trans = np.zeros((len(combos), len(combos)))
            log_init = np.zeros(len(combos))
            for i, m in enumerate(models):
                idx = combos[:, i]
                totals += m.state_powers[idx]
                variances += m.emission_std[idx] ** 2
                log_trans += np.log(m.transition)[idx[:, None], idx[None, :]]
                log_init += np.log(m.initial)[idx]
            emission = (-0.5 * np.log(2 * np.pi * variances)[None, :]
                        - 0.5 * (y[:, None] - totals[None, :]) ** 2 / variances[None, :])

            best_logp, _ = brute_force_best_path(log_init, log_trans, emission)
            decoded = baselines._viterbi(log_init, log_trans, emission)
            decoded_logp = path_log_probability(log_init, log_trans, emission, decoded)
            gap = abs(decoded_logp - best_logp)
            worst_gap = max(worst_gap, gap)
            if gap > 1e-9:
                violations += 1
        assert report(7, violations == 0,
                      f"{violations} violations in 200 trials, worst |gap| {worst_gap:.2e}")


class TestCriterion8MetricsHandCases:
    def test_hand_cases(self):
        pred = np.array([True, True, False, False])
        truth = np.array([True, False, True, False])
        counts, recall, precision, f1, accuracy = metrics.classification_metrics(pred, truth)
        confusion_ok = (recall == precision == f1 == accuracy == 0.5
                        and (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1))

        rng = np.random.default_rng(8)
        series = rng.uniform(0, 2500, size=200)
        perfect = metrics.metrics_report(series, series, series + 100, on_threshold=1000)
        perfect_ok = (perfect.f1 == 1.0 and perfect.relative_error_total_energy == 0.0
                      and perfect.mean_absolute_error == 0.0
                      and perfect.proportion_energy_correct == 1.0)

        half = metrics.relative_error_total_energy(np.full(10, 5.0), np.full(10, 10.0))
        zeros_prop = metrics.proportion_energy_correct(
            np.zeros(10), np.full(10, 4.0), np.full(10, 10.0))
        formulas_ok = half == 0.5 and zeros_prop == 1 - 40.0 / 200.0

        ok = confusion_ok and perfect_ok and formulas_ok
        assert report(8, ok, "confusion 0.5s, perfect scores, formula substitutions")


class TestCriterion9DataRules:
    def test_gap_boundary_and_kettle_pulses(self):
        filled = fill_gaps([0, 180], [7, 7], sample_period=1)
        gap_179_ok = bool(np.all(filled.values == 7)) and len(filled) == 181
        zeroed = fill_gaps([0, 182], [7, 7], sample_period=1)
        gap_181_ok = bool(np.all(zeroed.values[1:182] == 0)) and zeroed.values[182] == 7

        kettle = ActivationParams(3100, 2000, 12, 0)
        accept = extract_activations(PowerSeries(0, 6, np.array([0.0, 2500, 2500, 2500, 0])),
                                     kettle)
        reject = extract_activations(PowerSeries(0, 6, np.array([0.0, 2500, 0])), kettle)
        pulses_ok = len(accept) == 1 and len(accept[0]) == 3 and reject == []

        ok = gap_179_ok and gap_181_ok and pulses_ok
        assert report(9, ok, "179 s filled, 181 s zeroed, 18 s accepted, 6 s rejected")


class TestCriterion10Reproducibility:
    def test_cli_pipeline_byte_identical(self, tmp_path):
        from test_cli import run_pipeline, snapshot_outputs, world_config
        path_a = world_config(tmp_path / "a")
        path_b = world_config(tmp_path / "b")
        run_pipeline(path_a)
        run_pipeline(path_b)
        snap_a = snapshot_outputs(tmp_path / "a" / "out")
        snap_b = snapshot_outputs(tmp_path / "b" / "out")
        same = snap_a.keys() == snap_b.keys() and all(
            snap_a[name] == snap_b[name] for name in snap_a)
        assert report(10, same,
                      f"{len(snap_a)} artifacts byte-identical across repeated runs "
                      "(loss-log wallclock column excluded)")
