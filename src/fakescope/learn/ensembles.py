"""Bagged random forest and adaptive boosting over the entropy tree."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..kernels import presort
from ..seeding import make_rng
from .tree import FAKE_CUT, LearnError, Tree, grow_tree, grow_trees, predict_each


AB_ROUNDS = 50  # boosting rounds when the params name none


@dataclass
class ForestState:
    trees: list[Tree]
    mtry: int


def rf_fit(
    X: np.ndarray,
    y: np.ndarray,
    seed: int,
    n_trees: int = 64,
    min_leaf: int = 2,
    max_depth: int | None = None,
    feature_sample: str = "sqrt",
) -> ForestState:
    """Bootstrap each tree; per split, draw ceil(sqrt(d)) candidate features.

    Tree t draws its bootstrap sample and then its candidates from its own
    generator, ``make_rng(seed, 7, t)``. X is sorted once per fit, and
    each tree's sorted rows are that order with every row repeated as
    often as its sample drew it; the trees grow in lock-step
    (`grow_trees`) on row ids of X, not on copies of their rows.
    """
    if n_trees < 1:
        raise LearnError("n_trees must be positive")
    if feature_sample not in ("sqrt", "all"):
        raise LearnError(f"unknown feature_sample {feature_sample!r}")
    n, d = X.shape
    mtry = d if feature_sample == "all" else max(1, math.ceil(math.sqrt(d)))
    rngs = [make_rng(seed, 7, t) for t in range(n_trees)]
    counts = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs])
    order = presort(X).astype(np.min_scalar_type(max(n - 1, 0)))
    trees = grow_trees(X, y, order, counts, min_leaf=min_leaf, max_depth=max_depth, rngs=rngs,
                       mtry=mtry)
    return ForestState(trees=trees, mtry=mtry)


def rf_scores(state: ForestState, X: np.ndarray) -> np.ndarray:
    total = np.zeros(X.shape[0])
    # added one tree at a time, in tree order, so the sum's bits never change
    for probs in predict_each(state.trees, X):
        total += probs
    return total / len(state.trees)


@dataclass
class BoostState:
    alphas: list[float]
    trees: list[Tree]


def ab_fit(
    X: np.ndarray,
    y: np.ndarray,
    rounds: int = AB_ROUNDS,
    depth: int = 1,
    min_leaf: int = 2,
) -> BoostState:
    """Standard exponential-loss boosting of depth-capped trees.

    Only the weights change between rounds, so the columns are sorted once.
    """
    if rounds < 1:
        raise LearnError("rounds must be positive")
    if not 1 <= depth <= 3:
        raise LearnError("base-tree depth must be 1..3")
    n = X.shape[0]
    order = presort(X)
    w = np.full(n, 1.0 / n)
    alphas: list[float] = []
    trees: list[Tree] = []
    for t in range(rounds):
        tree = grow_tree(X, y, weights=w, min_leaf=min_leaf, max_depth=depth, order=order)
        pred = (predict_each([tree], X)[0] >= FAKE_CUT).astype(np.float64)
        miss = pred != y
        err = float(w[miss].sum())
        err = min(max(err, 1e-10), 1.0 - 1e-10)
        if err >= 0.5 and trees:
            break
        alpha = 0.5 * math.log((1.0 - err) / err)
        alphas.append(alpha)
        trees.append(tree)
        w = w * np.exp(np.where(miss, alpha, -alpha))
        w = w / w.sum()
    return BoostState(alphas=alphas, trees=trees)


def ab_scores(state: BoostState, X: np.ndarray) -> np.ndarray:
    """Normalized ensemble margin mapped to [0, 1]."""
    total_alpha = sum(state.alphas)
    if total_alpha <= 0:
        return np.full(X.shape[0], 0.5)
    margin = np.zeros(X.shape[0])
    for alpha, probs in zip(state.alphas, predict_each(state.trees, X)):
        h = np.where(probs >= FAKE_CUT, 1.0, -1.0)
        margin += alpha * h
    return (margin / total_alpha + 1.0) / 2.0
