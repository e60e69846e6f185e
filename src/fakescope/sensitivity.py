"""Leave-one-feature-out sensitivity analysis fused across classifiers.

For each classifier the local sensitivity of a feature is the ratio of the
model's test MCC without that feature to its full-feature MCC. Classifier
weights are proportional to full-model MCC. Feature importance aggregates
the inverse ratios (floored at one, so a removal that happens to help
cannot score a feature below "no effect") and is normalized so the top
feature scores exactly 1. Ties break by the total prediction churn the
removal caused; a feature whose removal provably changes nothing ranks
last.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus.model import LabeledDataset
from .features.catalog import CLASS_A_SPECS, FeatureSpec
from .features.extract import FeatureMatrix, extract
from .learn.model import ALGORITHMS, TrainedModel, predict_many, train, unused_columns
from .learn.tree import FAKE_CUT
from .metrics import ConfusionMatrix, mcc
from .seeding import derive_seed

EPSILON = 1e-6


class SensitivityError(ValueError):
    pass


def local_sensitivity(mcc_full: float, mcc_without: float) -> float:
    """Performance ratio of the reduced model; negatives clamp to zero."""
    if mcc_full <= 0:
        raise SensitivityError("full-model MCC must be positive")
    return max(0.0, mcc_without) / mcc_full


@dataclass(frozen=True)
class SensitivityCell:
    algorithm: str
    feature: str
    mcc_full: float
    mcc_without: float
    local: float
    changed_predictions: int


@dataclass(frozen=True)
class FeatureScore:
    feature: str
    global_sensitivity: float  # weighted sum of local sensitivities
    raw_importance: float
    normalized_importance: float
    perturbation: float
    rank: int


@dataclass
class SensitivityReport:
    cells: tuple[SensitivityCell, ...]
    scores: tuple[FeatureScore, ...]  # rank order
    weights: dict[str, float]
    full_mcc: dict[str, float]
    excluded: tuple[str, ...]
    seed: int

    def ranking(self) -> tuple[str, ...]:
        return tuple(score.feature for score in self.scores)

    def as_rows(self) -> list[dict[str, object]]:
        rows = []
        locals_by_feature: dict[str, dict[str, float]] = {}
        for cell in self.cells:
            locals_by_feature.setdefault(cell.feature, {})[cell.algorithm] = cell.local
        for score in self.scores:
            row: dict[str, object] = {
                "rank": score.rank,
                "feature": score.feature,
                "normalized_importance": score.normalized_importance,
                "raw_importance": score.raw_importance,
                "global_sensitivity": score.global_sensitivity,
            }
            for algorithm, value in sorted(locals_by_feature.get(score.feature, {}).items()):
                row[f"local_{algorithm}"] = value
            rows.append(row)
        return rows


def _test_mcc(
    model: TrainedModel, test_matrix: FeatureMatrix, y_test: np.ndarray
) -> tuple[float, np.ndarray]:
    """A trained model's test MCC and its 0/1 test predictions."""
    _, scores = predict_many(model, test_matrix.values)
    predicted = (scores >= FAKE_CUT).astype(np.float64)
    return mcc(ConfusionMatrix.from_predictions(y_test, predicted)), predicted


def analyze_matrices(
    train_matrix: FeatureMatrix,
    test_matrix: FeatureMatrix,
    algorithms: Sequence[str] = ALGORITHMS,
    seed: int = 0,
    params: Optional[dict] = None,
    jobs: int = 1,
) -> SensitivityReport:
    """The full leave-one-out grid over pre-extracted train/test matrices.

    Each fit's seed derives from the master seed, the algorithm and the
    dropped feature. A classifier's full fit runs first, because its MCC
    decides whether the classifier is excluded; then each leave-one-out
    cell trains through `train` and is scored before the next.

    A cell is not fitted when the full model provably equals its refit
    (`unused_columns`): a dt without pruning, or an ab that ran all its
    rounds, that never splits on the dropped feature. Each node search
    scores every column on its own and keeps the first maximum in column
    order, and these fits draw nothing from their seed, so the refit would
    make every choice the full fit made and predict exactly what it
    predicts; the cell records the full MCC, a local sensitivity of 1 and
    no changed predictions. rf (seeded), knn, nb, lr and pruned dt (seeded
    hold-out; pruning can hide a split) fit every cell.

    ``jobs`` is an upper bound on workers; one thread runs every fit,
    which meets any bound, because thread workers measured slower than
    none.
    """
    roster = ", ".join(ALGORITHMS)
    if not algorithms:
        raise SensitivityError(f"no classifiers given; choose from {roster}")
    for i, algorithm in enumerate(algorithms):
        if algorithm not in ALGORITHMS:
            raise SensitivityError(f"unknown classifier {algorithm!r}; choose from {roster}")
        if algorithm in algorithms[:i]:
            raise SensitivityError(
                f"classifier {algorithm!r} is listed twice; choose each of {roster} at most once"
            )
    if train_matrix.feature_names != test_matrix.feature_names:
        raise SensitivityError("train/test matrices disagree on features")
    if set(train_matrix.account_ids) & set(test_matrix.account_ids):
        raise SensitivityError("train and test sets must be disjoint")
    features = train_matrix.feature_names
    if not features:
        raise SensitivityError("no features to analyze")
    params = params or {}
    y_test = test_matrix.y01()

    full_mcc: dict[str, float] = {}
    excluded: list[str] = []
    cells: list[SensitivityCell] = []
    for algorithm in algorithms:
        algo_id = ALGORITHMS.index(algorithm)
        full_model = train(
            algorithm, train_matrix, params=params.get(algorithm),
            seed=derive_seed(seed, 31, algo_id, 0),
        )
        full, full_pred = _test_mcc(full_model, test_matrix, y_test)
        if full <= 0:
            warnings.warn(
                f"{algorithm}: full-model MCC {full:.3f} <= 0, excluded from fusion",
                stacklevel=2,
            )
            excluded.append(algorithm)
            continue
        full_mcc[algorithm] = full
        unused = unused_columns(full_model)
        for j, feature in enumerate(features):
            if j in unused:  # the refit is the full model: same predictions
                score, changed = full, 0
            else:
                model = train(
                    algorithm, train_matrix.drop_feature(feature), params=params.get(algorithm),
                    seed=derive_seed(seed, 31, algo_id, j + 1),
                )
                score, predicted = _test_mcc(model, test_matrix.drop_feature(feature), y_test)
                changed = int(np.sum(predicted != full_pred))
            cells.append(
                SensitivityCell(
                    algorithm=algorithm,
                    feature=feature,
                    mcc_full=full,
                    mcc_without=score,
                    local=local_sensitivity(full, score),
                    changed_predictions=changed,
                )
            )
    if not full_mcc:
        raise SensitivityError("every classifier scored MCC <= 0 on the test set")
    weight_total = sum(full_mcc.values())
    weights = {a: full_mcc[a] / weight_total for a in full_mcc}

    by_feature: dict[str, list[SensitivityCell]] = {f: [] for f in features}
    for cell in cells:
        by_feature[cell.feature].append(cell)

    raw_scores: dict[str, float] = {}
    global_sens: dict[str, float] = {}
    perturbation: dict[str, float] = {}
    for feature in features:
        raw = 0.0
        sens = 0.0
        churn = 0.0
        for cell in by_feature[feature]:
            w = weights[cell.algorithm]
            damage_ratio = cell.mcc_full / max(max(0.0, cell.mcc_without), EPSILON)
            raw += w * max(1.0, damage_ratio)
            sens += w * cell.local
            churn += w * cell.changed_predictions
        raw_scores[feature] = raw
        global_sens[feature] = sens
        perturbation[feature] = churn
    top = max(raw_scores.values())
    order = sorted(
        features,
        key=lambda f: (-raw_scores[f], -perturbation[f], features.index(f)),
    )
    scores = tuple(
        FeatureScore(
            feature=f,
            global_sensitivity=global_sens[f],
            raw_importance=raw_scores[f],
            normalized_importance=raw_scores[f] / top,
            perturbation=perturbation[f],
            rank=i + 1,
        )
        for i, f in enumerate(order)
    )
    return SensitivityReport(
        cells=tuple(cells),
        scores=scores,
        weights=weights,
        full_mcc=full_mcc,
        excluded=tuple(excluded),
        seed=seed,
    )


def analyze(
    train_set: LabeledDataset,
    test_set: LabeledDataset,
    algorithms: Sequence[str] = ALGORITHMS,
    specs: Sequence[FeatureSpec] = CLASS_A_SPECS,
    seed: int = 0,
    params: Optional[dict] = None,
    jobs: int = 1,
) -> SensitivityReport:
    """Extract both corpora once, then run the leave-one-out grid; ``jobs``
    as in `analyze_matrices`."""
    train_matrix = extract(train_set, specs)
    test_matrix = extract(test_set, specs)
    return analyze_matrices(
        train_matrix, test_matrix, algorithms=algorithms, seed=seed, params=params, jobs=jobs
    )
