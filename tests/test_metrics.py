import numpy as np
import pytest

from disagg.errors import DataError
from disagg.metrics import (classification_metrics, mean_absolute_error, metrics_report,
                            on_off, proportion_energy_correct, relative_error_total_energy)


class TestOnOff:
    def test_strict_inequality(self):
        np.testing.assert_array_equal(on_off([0.0, 60.0, 50.0], 50.0),
                                      [False, True, False])

    def test_all_zeros_off(self):
        assert not on_off(np.zeros(5), 10.0).any()

    def test_zero_threshold_positive_series_on(self):
        assert on_off([1.0, 2.0, 3.0], 0.0).all()


class TestClassification:
    def test_perfect_prediction(self):
        truth = np.array([True, False, True, True])
        counts, recall, precision, f1, accuracy = classification_metrics(truth, truth)
        assert recall == precision == f1 == accuracy == 1.0

    def test_four_sample_hand_count(self):
        pred = np.array([True, True, False, False])
        truth = np.array([True, False, True, False])
        counts, recall, precision, f1, accuracy = classification_metrics(pred, truth)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
        assert recall == precision == f1 == accuracy == 0.5

    def test_all_off_prediction_zero_precision_f1(self):
        pred = np.zeros(4, dtype=bool)
        truth = np.array([True, True, False, False])
        counts, recall, precision, f1, accuracy = classification_metrics(pred, truth)
        assert precision == 0.0 and f1 == 0.0 and recall == 0.0
        assert accuracy == 0.5

    def test_counts_identities(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 200))
            pred = rng.random(n) < 0.5
            truth = rng.random(n) < 0.5
            counts, *_ = classification_metrics(pred, truth)
            assert counts.positives == truth.sum()
            assert counts.negatives == (~truth).sum()
            assert counts.tp + counts.fp + counts.fn + counts.tn == n

    def test_f1_is_harmonic_mean_bounded(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 100))
            pred = rng.random(n) < 0.4
            truth = rng.random(n) < 0.6
            _, recall, precision, f1, _ = classification_metrics(pred, truth)
            assert 0.0 <= f1 <= 1.0
            assert f1 <= min(precision, recall) * 2 / (1 + 1e-12) or f1 == 0.0
            if precision and recall:
                assert f1 == pytest.approx(2 * precision * recall / (precision + recall))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            classification_metrics([True], [True, False])


class TestEnergyMetrics:
    def test_perfect(self, rng):
        truth = rng.uniform(0, 100, size=50)
        assert relative_error_total_energy(truth, truth) == 0.0
        assert mean_absolute_error(truth, truth) == 0.0
        assert proportion_energy_correct(truth, truth, truth * 2) == 1.0

    def test_half_energy(self):
        truth = np.full(10, 10.0)  # E = 100
        pred = np.full(10, 5.0)    # E_hat = 50
        assert relative_error_total_energy(pred, truth) == pytest.approx(0.5)

    def test_relative_error_symmetry(self, rng):
        for _ in range(20):
            a = rng.uniform(0, 100, size=30)
            b = rng.uniform(0, 100, size=30)
            assert relative_error_total_energy(a, b) == \
                pytest.approx(relative_error_total_energy(b, a))

    def test_relative_error_zero_when_both_empty(self):
        assert relative_error_total_energy(np.zeros(4), np.zeros(4)) == 0.0

    def test_mae_zero_iff_identical(self, rng):
        a = rng.uniform(0, 100, size=30)
        assert mean_absolute_error(a, a) == 0.0
        b = a.copy()
        b[7] += 1e-6
        assert mean_absolute_error(a, b) > 0.0

    def test_zero_prediction_proportion_formula(self, rng):
        truth = rng.uniform(0, 100, size=40)
        aggregate = truth + rng.uniform(0, 50, size=40)
        got = proportion_energy_correct(np.zeros(40), truth, aggregate)
        assert got == pytest.approx(1 - truth.sum() / (2 * aggregate.sum()))

    def test_proportion_one_for_exact_regardless_of_aggregate(self, rng):
        truth = rng.uniform(0, 100, size=40)
        for scale in (0.1, 1.0, 7.0):
            assert proportion_energy_correct(truth, truth, truth * scale) == 1.0

    def test_multi_appliance_proportion(self):
        truths = np.array([[10.0, 0.0], [0.0, 20.0]])
        preds = np.array([[10.0, 0.0], [0.0, 0.0]])
        aggregate = np.array([15.0, 25.0])
        got = proportion_energy_correct(preds, truths, aggregate)
        assert got == pytest.approx(1 - 20.0 / (2 * 40.0))

    def test_proportion_can_go_negative_unclamped(self):
        truth = np.zeros(4)
        pred = np.full(4, 100.0)
        aggregate = np.full(4, 10.0)
        assert proportion_energy_correct(pred, truth, aggregate) < 0


class TestReport:
    def test_report_has_seven_metrics(self, rng):
        truth = rng.uniform(0, 2500, size=100)
        pred = truth * rng.uniform(0.8, 1.2, size=100)
        aggregate = truth + 300
        report = metrics_report(pred, truth, aggregate, on_threshold=1000.0)
        d = report.to_dict()
        for name in report.METRIC_NAMES:
            assert name in d
        assert len(report.METRIC_NAMES) == 7

    def test_report_perfect_prediction(self, rng):
        truth = rng.uniform(0, 2500, size=100)
        report = metrics_report(truth, truth, truth + 100, on_threshold=1000.0)
        assert report.f1 == 1.0
        assert report.relative_error_total_energy == 0.0
        assert report.mean_absolute_error == 0.0
        assert report.proportion_energy_correct == 1.0
