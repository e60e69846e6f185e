"""Cross-validation and the class-distribution sweep."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..corpus.model import LabeledDataset
from ..corpus.sampling import rebalance, split_folds
from ..features.catalog import FeatureSpec
from ..features.extract import FeatureMatrix, extract, without_unread_tables
from ..metrics import ConfusionMatrix, MetricsReport, RocResult, roc_auc, summarize
from ..seeding import derive_seed
from .model import jsonable_params, predict_many, train
from .tree import FAKE_CUT, LearnError


@dataclass
class CvReport:
    algorithm: str
    params: dict
    seed: int
    k: int
    fold_matrices: tuple[ConfusionMatrix, ...]
    roc: RocResult

    @property
    def pooled_matrix(self) -> ConfusionMatrix:
        return sum(self.fold_matrices, ConfusionMatrix(0, 0, 0, 0))

    @property
    def pooled(self) -> MetricsReport:
        return summarize(self.pooled_matrix, auc=self.roc.auc)

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "params": jsonable_params(self.params),
            "seed": self.seed,
            "k": self.k,
            "folds": [
                {"tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn}
                for cm in self.fold_matrices
            ],
            "pooled": self.pooled.as_dict(),
        }


def cross_validate_matrix(
    algorithm: str,
    matrix: FeatureMatrix,
    dataset: LabeledDataset,
    k: int,
    seed: int,
    params: Optional[dict] = None,
    jobs: int = 1,
) -> CvReport:
    """K-fold CV over a pre-extracted matrix (stratified folds by label).

    Each fold trains through `train`, then scores its test rows, before
    the next fold's training matrix is built; fold seeds derive from the
    master seed and fold index. ``jobs`` is an upper bound on workers; one
    thread trains every fold, which meets any bound, because thread
    workers measured slower than none.
    """
    plan = split_folds(dataset, k, seed)
    row_of = {uid: i for i, uid in enumerate(matrix.account_ids)}
    y = matrix.y01()

    fold_cms: list[ConfusionMatrix] = []
    pooled_scores: list[float] = []
    pooled_labels: list[float] = []
    for i in range(plan.k):
        train_ids, test_ids = plan.train_test(i)
        model = train(
            algorithm,
            matrix.take_rows([row_of[uid] for uid in train_ids]),
            params=params,
            seed=derive_seed(seed, 11, i),
        )
        test_rows = [row_of[uid] for uid in test_ids]
        _, scores = predict_many(model, matrix.values[test_rows])
        y_test = y[test_rows]
        predicted = (scores >= FAKE_CUT).astype(np.float64)
        fold_cms.append(ConfusionMatrix.from_predictions(y_test, predicted))
        pooled_scores.extend(float(s) for s in scores)
        pooled_labels.extend(float(v) for v in y_test)
    return CvReport(
        algorithm=algorithm,
        params=dict(params or {}),
        seed=seed,
        k=k,
        fold_matrices=tuple(fold_cms),
        roc=roc_auc(pooled_scores, pooled_labels),
    )


def cross_validate(
    algorithm: str,
    dataset: LabeledDataset,
    specs: Sequence[FeatureSpec],
    k: int,
    seed: int,
    params: Optional[dict] = None,
    jobs: int = 1,
) -> CvReport:
    """Extract ``specs``, then cross-validate; ``jobs`` as in `cross_validate_matrix`."""
    matrix = extract(dataset, specs)
    return cross_validate_matrix(algorithm, matrix, dataset, k, seed, params, jobs=jobs)


@dataclass
class SweepEntry:
    human_fraction: float
    report: CvReport


@dataclass
class SweepReport:
    entries: tuple[SweepEntry, ...]
    best_fraction: dict[str, float]  # per metric

    def as_rows(self) -> list[dict[str, object]]:
        rows = []
        for entry in self.entries:
            row: dict[str, object] = {"human_fraction": entry.human_fraction}
            row.update(entry.report.pooled.as_dict())
            rows.append(row)
        return rows


def class_distribution_sweep(
    dataset: LabeledDataset,
    algorithm: str,
    fractions: Sequence[float],
    target_size: int,
    k: int,
    seed: int,
    specs: Sequence[FeatureSpec],
    params: Optional[dict] = None,
) -> SweepReport:
    """Cross-validate at each human/fake mixture and mark the best fraction.

    The tables no spec reads are dropped once, before any mixture is sampled."""
    if not fractions:
        raise LearnError("empty fraction list")
    dataset = without_unread_tables(dataset, specs)
    entries: list[SweepEntry] = []
    for i, fraction in enumerate(fractions):
        sampled = rebalance(
            dataset, fraction, target_size, seed=derive_seed(seed, 23, i)
        )
        report = cross_validate(
            algorithm, sampled, specs, k=k, seed=derive_seed(seed, 29, i), params=params
        )
        entries.append(SweepEntry(human_fraction=float(fraction), report=report))
    best: dict[str, float] = {}
    for metric in ("accuracy", "precision", "recall", "f_measure", "mcc", "auc"):
        values = [
            (entry.report.pooled.as_dict()[metric], entry.human_fraction)
            for entry in entries
            if entry.report.pooled.as_dict()[metric] is not None
        ]
        if values:
            best[metric] = max(values, key=lambda pair: pair[0])[1]
    return SweepReport(entries=tuple(entries), best_fraction=best)
