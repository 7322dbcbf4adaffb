"""The seven evaluation metrics for estimated vs true appliance power.

Classification metrics (recall, precision, F1, accuracy) operate on
on/off state sequences obtained by thresholding power.  Energy metrics
compare watt sequences directly.  Ratios are computed on power sums,
which equal the energy ratios because the sample period cancels.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def positives(self) -> int:
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        return self.tn + self.fp


@dataclass(frozen=True)
class MetricsReport:
    """The seven scores for one appliance estimate, plus the energy sums
    they were derived from."""

    recall: float
    precision: float
    f1: float
    accuracy: float
    relative_error_total_energy: float
    mean_absolute_error: float
    proportion_energy_correct: float
    energy_true: float
    energy_predicted: float
    counts: ConfusionCounts

    def to_dict(self) -> dict:
        out = asdict(self)
        out["counts"] = asdict(self.counts)
        return out

    METRIC_NAMES = ("recall", "precision", "f1", "accuracy",
                    "relative_error_total_energy", "mean_absolute_error",
                    "proportion_energy_correct")


def on_off(values, on_threshold_watts: float) -> np.ndarray:
    """Boolean on/off states: on iff power strictly above the threshold."""
    return np.asarray(values, dtype=np.float64) > on_threshold_watts


def classification_metrics(pred_on, true_on):
    """Confusion counts and recall/precision/F1/accuracy.

    Undefined ratios (zero denominators) are reported as 0 so results
    stay comparable across appliances.
    """
    pred_on = np.asarray(pred_on, dtype=bool)
    true_on = np.asarray(true_on, dtype=bool)
    if pred_on.shape != true_on.shape:
        raise DataError(f"length mismatch: {pred_on.shape} vs {true_on.shape}")
    tp = int(np.sum(pred_on & true_on))
    fp = int(np.sum(pred_on & ~true_on))
    fn = int(np.sum(~pred_on & true_on))
    tn = int(np.sum(~pred_on & ~true_on))
    counts = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)

    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    total = counts.positives + counts.negatives
    accuracy = (tp + tn) / total if total else 0.0
    return counts, recall, precision, f1, accuracy


def relative_error_total_energy(pred, truth) -> float:
    """|E_hat - E| / max(E, E_hat); defined as 0 when both energies are 0."""
    e_hat = float(np.sum(pred))
    e = float(np.sum(truth))
    denom = max(e, e_hat)
    return abs(e_hat - e) / denom if denom else 0.0


def mean_absolute_error(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DataError(f"length mismatch: {pred.shape} vs {truth.shape}")
    return float(np.mean(np.abs(pred - truth))) if pred.size else 0.0


def proportion_energy_correct(preds, truths, aggregate) -> float:
    """1 - sum_t sum_i |pred_i(t) - true_i(t)| / (2 sum_t aggregate(t)).

    `preds` and `truths` are per-appliance sequences (a single sequence
    is accepted for the one-appliance form).  May go below 0 under gross
    over-prediction; reported unclamped.
    """
    preds = np.atleast_2d(np.asarray(preds, dtype=np.float64))
    truths = np.atleast_2d(np.asarray(truths, dtype=np.float64))
    aggregate = np.asarray(aggregate, dtype=np.float64)
    if preds.shape != truths.shape or preds.shape[1] != aggregate.shape[0]:
        raise DataError("prediction, truth, and aggregate lengths must agree")
    numerator = float(np.sum(np.abs(preds - truths)))
    denominator = 2.0 * float(np.sum(aggregate))
    if denominator == 0.0:
        return 1.0 if numerator == 0.0 else 0.0
    return 1.0 - numerator / denominator


def metrics_report(pred_watts, true_watts, aggregate_watts, on_threshold: float) -> MetricsReport:
    """All seven scores for one appliance estimate."""
    counts, recall, precision, f1, accuracy = classification_metrics(
        on_off(pred_watts, on_threshold), on_off(true_watts, on_threshold))
    return MetricsReport(
        recall=recall, precision=precision, f1=f1, accuracy=accuracy,
        relative_error_total_energy=relative_error_total_energy(pred_watts, true_watts),
        mean_absolute_error=mean_absolute_error(pred_watts, true_watts),
        proportion_energy_correct=proportion_energy_correct(pred_watts, true_watts,
                                                            aggregate_watts),
        energy_true=float(np.sum(true_watts)),
        energy_predicted=float(np.sum(pred_watts)),
        counts=counts,
    )
