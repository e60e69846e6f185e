"""Evaluation measures: confusion-matrix metrics, ROC/AUC, information gain,
and Pearson correlation. The fake class is the positive class throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .kernels import best_threshold_split, binary_entropy


class MetricError(ValueError):
    pass


def as01(labels: Iterable) -> np.ndarray:
    """Map labels to the 0/1 encoding (fake/positive = 1)."""
    if isinstance(labels, np.ndarray) and labels.ndim == 1 and labels.dtype.kind in "biuf":
        y = labels.astype(np.float64)
        bad = (y != 0.0) & (y != 1.0)
        if bad.any():
            item = labels[int(np.argmax(bad))]
            raise MetricError(f"labels must be 0/1 or human/fake, got {item!r}")
        return y
    out = []
    for item in labels:
        if isinstance(item, str):
            if item == "fake":
                out.append(1.0)
            elif item == "human":
                out.append(0.0)
            else:
                raise MetricError(f"unknown label {item!r}")
        else:
            value = float(item)
            if value not in (0.0, 1.0):
                raise MetricError(f"labels must be 0/1 or human/fake, got {item!r}")
            out.append(value)
    return np.asarray(out, dtype=np.float64)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise MetricError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp,
            self.tn + other.tn,
            self.fp + other.fp,
            self.fn + other.fn,
        )

    @classmethod
    def from_predictions(cls, actual: Iterable, predicted: Iterable) -> "ConfusionMatrix":
        y = as01(actual)
        p = as01(predicted)
        if y.shape != p.shape:
            raise MetricError("label/prediction length mismatch")
        tp = int(np.sum((y == 1) & (p == 1)))
        tn = int(np.sum((y == 0) & (p == 0)))
        fp = int(np.sum((y == 0) & (p == 1)))
        fn = int(np.sum((y == 1) & (p == 0)))
        return cls(tp=tp, tn=tn, fp=fp, fn=fn)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f_measure: float
    mcc: float
    auc: Optional[float] = None

    def as_dict(self) -> dict[str, Optional[float]]:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f_measure": self.f_measure,
            "mcc": self.mcc,
            "auc": self.auc,
        }


def mcc(cm: ConfusionMatrix) -> float:
    """Matthews correlation; 0 when any factor under the root vanishes."""
    denom = (
        (cm.tp + cm.fn) * (cm.tp + cm.fp) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
    )
    if denom == 0:
        return 0.0
    return (cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(denom)


def summarize(cm: ConfusionMatrix, auc: Optional[float] = None) -> MetricsReport:
    if cm.total < 1:
        raise MetricError("empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) > 0 else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) > 0 else 0.0
    f_measure = (
        2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    )
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        mcc=mcc(cm),
        auc=auc,
    )


@dataclass(frozen=True)
class RocResult:
    auc: float
    points: tuple[tuple[float, float], ...]  # (fpr, tpr), threshold descending


def roc_auc(scores: Sequence[float], labels: Iterable) -> RocResult:
    """Rank-statistic AUC (ties get half credit) plus the ROC polyline."""
    y = as01(labels)
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != y.shape:
        raise MetricError("score/label length mismatch")
    n_fake = int(np.sum(y == 1))
    n_human = int(np.sum(y == 0))
    if n_fake == 0 or n_human == 0:
        raise MetricError("roc_auc needs both classes present")
    if np.isnan(s).any():
        raise MetricError("roc_auc scores contain NaN")

    # one group per distinct score, ascending; a group's rows share its midrank
    _, group, count = np.unique(s, return_inverse=True, return_counts=True)
    start = np.cumsum(count) - count
    ranks = (0.5 * (start + start + count - 1) + 1.0)[group]  # 1-based
    rank_sum = float(np.sum(ranks[y == 1]))
    auc = (rank_sum - n_fake * (n_fake + 1) / 2.0) / (n_fake * n_human)

    # one ROC point per distinct score, from the highest threshold down
    fakes = np.bincount(group[y == 1], minlength=len(count))
    tp = np.cumsum(fakes[::-1])
    fp = np.cumsum((count - fakes)[::-1])
    points = [(0.0, 0.0), *zip((fp / n_human).tolist(), (tp / n_fake).tolist())]
    return RocResult(auc=float(auc), points=tuple(points))


def entropy(labels: Iterable) -> float:
    y = as01(labels)
    return binary_entropy(float(y.sum()), float(len(y)))


def info_gain(
    values: Sequence[float],
    labels: Iterable,
    discrete: Optional[bool] = None,
) -> float:
    """Expected entropy reduction (bits) from knowing the attribute.

    Boolean and explicitly discrete attributes use the partition-by-value
    gain; continuous ones use the best binary threshold over midpoints of
    adjacent distinct values, matching the decision-tree split criterion.
    """
    y = as01(labels)
    v = np.asarray(values, dtype=np.float64)
    if v.shape != y.shape:
        raise MetricError("value/label length mismatch")
    if len(y) == 0:
        raise MetricError("info_gain needs at least one sample")
    h_parent = binary_entropy(float(y.sum()), float(len(y)))
    if h_parent == 0.0:
        return 0.0
    if discrete is None:
        discrete = bool(np.all((v == 0.0) | (v == 1.0)))
    if discrete:
        n = len(y)
        h_children = 0.0
        for value in np.unique(v):
            mask = v == value
            h_children += (mask.sum() / n) * binary_entropy(
                float(y[mask].sum()), float(mask.sum())
            )
        return h_parent - h_children
    order = np.argsort(v, kind="stable")
    found = best_threshold_split(v[order, None], None, y[order, None])
    if found is None:
        return 0.0
    return max(0.0, found[0])


def pearson(values: Sequence[float], labels: Iterable) -> float:
    """Sample Pearson correlation between an attribute and the 0/1 class.

    Zero variance on either side is degenerate: returns 0.0 with a warning.
    """
    y = as01(labels)
    v = np.asarray(values, dtype=np.float64)
    if v.shape != y.shape:
        raise MetricError("value/label length mismatch")
    if len(y) < 2:
        raise MetricError("pearson needs at least two samples")
    vc = v - v.mean()
    yc = y - y.mean()
    sv = float(np.sqrt(np.sum(vc * vc)))
    sy = float(np.sqrt(np.sum(yc * yc)))
    if sv == 0.0 or sy == 0.0:
        warnings.warn("pearson: zero variance, coefficient defined as 0", stacklevel=2)
        return 0.0
    return float(np.sum(vc * yc) / (sv * sy))
