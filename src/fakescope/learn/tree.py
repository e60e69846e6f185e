"""Entropy decision tree: growth, prediction, statistics, and pruning."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from ..kernels import best_threshold_split, presort

GAIN_EPS = 1e-12


class LearnError(ValueError):
    pass


@dataclass
class TreeNode:
    n_samples: float  # weighted
    n_fake: float
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def prob_fake(self) -> float:
        if self.n_samples <= 0:
            return 0.5
        return self.n_fake / self.n_samples

    @property
    def majority_fake(self) -> bool:
        return self.prob_fake >= 0.5  # ties resolve toward the positive class

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"n": self.n_samples, "n_fake": self.n_fake}
        return {
            "n": self.n_samples,
            "n_fake": self.n_fake,
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TreeNode":
        node = cls(n_samples=data["n"], n_fake=data["n_fake"])
        if "feature" in data:
            node.feature = data["feature"]
            node.threshold = data["threshold"]
            node.left = cls.from_dict(data["left"])
            node.right = cls.from_dict(data["right"])
        return node

    def copy(self) -> "TreeNode":
        return TreeNode.from_dict(self.to_dict())


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    weights: Optional[np.ndarray] = None,
    min_leaf: int = 2,
    max_depth: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    mtry: Optional[int] = None,
    order: Optional[np.ndarray] = None,
) -> TreeNode:
    """Best-gain threshold splits, grown depth first, left before right.

    With ``rng``/``mtry`` set, each split considers a random subset of the
    features that actually vary within the node (columns constant in the
    node sample carry no split and never enter the draw). Equal gains pick
    the lowest feature index, then the lowest threshold.

    Columns are sorted once per tree: ``order`` is ``presort(X)``, passed
    in by callers that grow several trees on the same rows, and each child
    takes its rows from its parent's sorted lists by a stable partition.
    """
    n, d = X.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    wy = w * y
    XT = np.ascontiguousarray(X.T, dtype=np.float64)
    flat = XT.ravel()
    columns = np.arange(d)
    offsets = columns * n  # row r of column j sits at flat[offsets[j] + r]
    sorted_rows = presort(X) if order is None else order
    goes_left = np.empty(n, dtype=bool)

    def new_node(idx: np.ndarray, depth: int) -> tuple[TreeNode, bool]:
        """A leaf node for the ascending rows ``idx``, and whether to split it."""
        node = TreeNode(n_samples=float(w[idx].sum()), n_fake=float(wy[idx].sum()))
        splittable = not (
            len(idx) < min_leaf
            or node.n_fake <= 0.0
            or node.n_fake >= node.n_samples
            or (max_depth is not None and depth >= max_depth)
        )
        return node, splittable

    def split(node: TreeNode, rows: np.ndarray, idx: np.ndarray, depth: int) -> list:
        """Splits ``node`` in place; returns its children still to be split."""
        if rng is not None and mtry is not None:
            spans = flat[offsets + rows[:, 0]] != flat[offsets + rows[:, -1]]
            pool = np.nonzero(spans)[0]
            if pool.size == 0:
                return []
            take = min(mtry, pool.size)
            chosen = rng.choice(pool.size, size=take, replace=False)
            candidates = np.sort(pool[chosen])
            block = rows[candidates]
        else:
            candidates, block = columns, rows
        at = block + offsets[candidates, None]
        found = best_threshold_split(flat[at].T, w[block].T, wy[block].T)
        if found is None or found[0] <= GAIN_EPS:
            return []
        _, column, threshold = found
        feature = int(candidates[column])
        mask = XT[feature][idx] <= threshold
        node.feature = feature
        node.threshold = threshold
        left_idx = np.compress(mask, idx)
        right_idx = np.compress(~mask, idx)
        node.left, left_open = new_node(left_idx, depth + 1)
        node.right, right_open = new_node(right_idx, depth + 1)
        if not (left_open or right_open):
            return []
        # a stable partition of every column's sorted rows
        goes_left[idx] = mask
        on_left = goes_left[rows].ravel()
        # the left child goes on the stack last, so it is split first and
        # rng is drawn in the same node order as by a recursive build
        pending = []
        if right_open:
            right = np.compress(~on_left, rows).reshape(d, -1)
            pending.append((node.right, right, right_idx, depth + 1))
        if left_open:
            left = np.compress(on_left, rows).reshape(d, -1)
            pending.append((node.left, left, left_idx, depth + 1))
        return pending

    root, root_open = new_node(np.arange(n), 0)
    # Pending nodes hold disjoint row sets, so the stack never holds more
    # than one tree's worth of sorted lists.
    stack = [(root, sorted_rows, np.arange(n), 0)] if root_open else []
    while stack:
        stack.extend(split(*stack.pop()))
    return root


def tree_predict_proba(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)

    def route(node: TreeNode, idx: np.ndarray) -> None:
        if node.is_leaf:
            out[idx] = node.prob_fake
            return
        mask = X[idx, node.feature] <= node.threshold
        route(node.left, idx[mask])
        route(node.right, idx[~mask])

    route(root, np.arange(X.shape[0]))
    return out


@dataclass(frozen=True)
class TreeStats:
    nodes: int
    leaves: int
    height: int


def tree_stats(root: TreeNode) -> TreeStats:
    """Node/leaf/height counts; a lone leaf is (1, 1, 1)."""

    def walk(node: TreeNode) -> tuple[int, int, int]:
        if node.is_leaf:
            return 1, 1, 1
        ln, ll, lh = walk(node.left)
        rn, rl, rh = walk(node.right)
        return ln + rn + 1, ll + rl, max(lh, rh) + 1

    nodes, leaves, height = walk(root)
    return TreeStats(nodes=nodes, leaves=leaves, height=height)


def reduced_error_prune(
    root: TreeNode,
    X: np.ndarray,
    y: np.ndarray,
    folds: int,
    seed: int = 0,
) -> TreeNode:
    """Collapse subtrees that do not help accuracy on a held-out slice.

    Holds out 1/folds of the given samples (seeded) and, bottom-up, replaces
    any subtree with its majority leaf whenever that does not reduce
    held-out accuracy (ties collapse, favoring smaller trees).
    """
    n = len(y)
    if folds < 2:
        raise LearnError("folds must be at least 2")
    if folds > n:
        raise LearnError(f"folds={folds} exceeds training size {n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    held = max(1, n // folds)
    prune_idx = rng.permutation(n)[:held]
    Xp = X[prune_idx]
    yp = y[prune_idx]

    pruned = root.copy()

    def walk(node: TreeNode, idx: np.ndarray) -> int:
        """Returns held-out errors of the (possibly pruned) subtree."""
        majority = 1.0 if node.majority_fake else 0.0
        leaf_errors = int(np.sum(yp[idx] != majority))
        if node.is_leaf:
            return leaf_errors
        mask = Xp[idx, node.feature] <= node.threshold
        subtree_errors = walk(node.left, idx[mask]) + walk(node.right, idx[~mask])
        if leaf_errors <= subtree_errors:
            node.feature = None
            node.threshold = None
            node.left = None
            node.right = None
            return leaf_errors
        return subtree_errors

    walk(pruned, np.arange(len(yp)))
    return pruned


def _pessimistic_errors(n: float, errors: float, confidence: float, z: float) -> float:
    """Upper confidence bound on the error count from training counts.

    Binomial upper bound with continuity correction; the zero-error case
    uses the exact bound and fractional errors interpolate toward it.
    """
    if n <= 0:
        return 0.0
    if errors < 1.0:
        base = n * (1.0 - math.pow(confidence, 1.0 / n))
        if errors == 0.0:
            return base
        return base + errors * (_pessimistic_errors(n, 1.0, confidence, z) - base)
    if errors + 0.5 >= n:
        return n
    f = (errors + 0.5) / n
    z2 = z * z
    upper = (f + z2 / (2 * n) + z * math.sqrt(f * (1 - f) / n + z2 / (4 * n * n))) / (
        1 + z2 / n
    )
    return n * upper


def pessimistic_prune(root: TreeNode, confidence: float = 0.25) -> TreeNode:
    """Collapse subtrees whose pessimistic error estimate favors a leaf.

    The estimate is the binomial upper bound at the given confidence on the
    node's training error rate; raising is approximated by replacing the
    whole subtree with its majority leaf when the bound favors it.
    """
    if not 0.0 < confidence < 0.5:
        raise LearnError("confidence must be in (0, 0.5)")
    z = NormalDist().inv_cdf(1.0 - confidence)
    pruned = root.copy()

    def walk(node: TreeNode) -> float:
        node_errors = min(node.n_fake, node.n_samples - node.n_fake)
        leaf_estimate = _pessimistic_errors(node.n_samples, node_errors, confidence, z)
        if node.is_leaf:
            return leaf_estimate
        subtree_estimate = walk(node.left) + walk(node.right)
        if leaf_estimate <= subtree_estimate + 0.1:
            node.feature = None
            node.threshold = None
            node.left = None
            node.right = None
            return leaf_estimate
        return subtree_estimate

    walk(pruned)
    return pruned
