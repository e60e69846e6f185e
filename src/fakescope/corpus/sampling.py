"""Class-distribution resampling and stratified fold plans."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..seeding import make_rng
from .errors import CorpusError
from .model import FAKE, HUMAN, LabeledDataset


def _ids_by_class(dataset: LabeledDataset) -> tuple[list[str], list[str]]:
    humans = [a.user_id for a in dataset.accounts.values() if a.label == HUMAN]
    fakes = [a.user_id for a in dataset.accounts.values() if a.label == FAKE]
    return humans, fakes


def rebalance(
    dataset: LabeledDataset,
    human_fraction: float,
    target_size: int,
    seed: int = 0,
) -> LabeledDataset:
    """Undersample without replacement to the requested mixture."""
    if not 0.0 < human_fraction < 1.0:
        raise CorpusError(f"human_fraction must be in (0,1), got {human_fraction}")
    if target_size <= 0:
        raise CorpusError("target_size must be positive")
    n_humans = int(np.floor(target_size * human_fraction + 0.5))
    n_fakes = target_size - n_humans
    humans, fakes = _ids_by_class(dataset)
    if len(humans) < n_humans:
        raise CorpusError(f"not enough human accounts: need {n_humans}, have {len(humans)}")
    if len(fakes) < n_fakes:
        raise CorpusError(f"not enough fake accounts: need {n_fakes}, have {len(fakes)}")
    rng = make_rng(seed)
    picked = [humans[i] for i in rng.permutation(len(humans))[:n_humans]]
    picked += [fakes[i] for i in rng.permutation(len(fakes))[:n_fakes]]
    return dataset.subset(
        picked,
        provenance=f"{dataset.provenance}|rebalanced({human_fraction},{target_size},{seed})",
    )


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[tuple[str, ...], ...]
    seed: int

    @property
    def k(self) -> int:
        return len(self.folds)

    def train_test(self, i: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        test = self.folds[i]
        train = tuple(uid for j, fold in enumerate(self.folds) if j != i for uid in fold)
        return train, test


def split_folds(dataset: LabeledDataset, k: int, seed: int = 0) -> FoldPlan:
    """Disjoint stratified folds covering the dataset, deterministic per seed."""
    if k < 2:
        raise CorpusError("k must be at least 2")
    if k > len(dataset):
        raise CorpusError(f"k={k} exceeds dataset size {len(dataset)}")
    rng = make_rng(seed)
    humans, fakes = _ids_by_class(dataset)
    unlabeled = [
        a.user_id for a in dataset.accounts.values() if a.label not in (HUMAN, FAKE)
    ]
    folds: list[list[str]] = [[] for _ in range(k)]
    for group in (humans, fakes, unlabeled):
        if not group:
            continue
        order = rng.permutation(len(group))
        for pos, idx in enumerate(order):
            folds[pos % k].append(group[idx])
    return FoldPlan(folds=tuple(tuple(f) for f in folds), seed=seed)
