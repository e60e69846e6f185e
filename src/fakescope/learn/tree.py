"""Entropy decision tree as flat node arrays: growth, prediction,
statistics, pruning, and the nested dict that ``model.json`` stores."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import Iterator, Optional, Sequence

import numpy as np

from ..kernels import best_threshold_split, presort
from ..seeding import make_rng

GAIN_EPS = 1e-12


class LearnError(ValueError):
    pass


@dataclass(eq=False)
class Tree:
    """A binary tree as parallel node arrays, as in scikit-learn's ``Tree``.

    Node 0 is the root, every child's index is larger than its parent's,
    and every node is reachable from the root; so a pass in reverse index
    order meets children before their parents. At a leaf, ``feature``,
    ``left`` and ``right`` are -1 and ``threshold`` is NaN. A split sends
    the rows with ``x[feature] <= threshold`` left. ``n`` and ``n_fake``
    are the node's (weighted) sample count and fake count.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n: np.ndarray
    n_fake: np.ndarray

    def __post_init__(self):
        for name in ("feature", "left", "right"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.intp))
        for name in ("threshold", "n", "n_fake"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    @property
    def prob_fake(self) -> np.ndarray:
        """Each node's fake share of its weight; 0.5 at an empty node."""
        n = self.n
        return np.where(n > 0, self.n_fake / np.where(n > 0, n, 1.0), 0.5)

    def to_dict(self) -> dict:
        """The nested form: ``n`` and ``n_fake`` at every node, plus
        ``feature``, ``threshold``, ``left`` and ``right`` at a split."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        n, n_fake = self.n.tolist(), self.n_fake.tolist()
        nodes: list = [None] * len(n)
        for i in reversed(range(len(n))):  # children first
            node = {"n": n[i], "n_fake": n_fake[i]}
            if left[i] >= 0:
                node.update(feature=feature[i], threshold=threshold[i],
                            left=nodes[left[i]], right=nodes[right[i]])
            nodes[i] = node
        return nodes[0]

    @classmethod
    def from_dict(cls, data: dict, n_features: int) -> "Tree":
        """Flattens the nested form, numbering nodes in preorder; a split
        whose feature is not one of ``n_features`` columns, or a node with
        a count or threshold that is not a number, raises LearnError."""
        rows: list = []  # one [feature, threshold, left, right, n, n_fake] per node
        stack = [(data, None, 0)]  # (node, its parent's row, the link to set)
        while stack:
            node, parent, link = stack.pop()
            if parent is not None:
                parent[link] = len(rows)
            row = [-1, math.nan, -1, -1, _number(node["n"], "n"),
                   _number(node["n_fake"], "n_fake")]
            rows.append(row)
            if "feature" in node:
                f = node["feature"]
                if isinstance(f, bool) or not isinstance(f, int) or not 0 <= f < n_features:
                    raise LearnError(
                        f"tree node feature {f!r} is out of range for {n_features} features"
                    )
                row[:2] = f, _number(node["threshold"], "threshold")
                stack += [(node["right"], row, 3), (node["left"], row, 2)]
        return cls(*zip(*rows))


def _number(value, name: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LearnError(f"tree node {name} {value!r} is not a number")
    return value


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    weights: Optional[np.ndarray] = None,
    min_leaf: int = 2,
    max_depth: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    mtry: Optional[int] = None,
    order: Optional[np.ndarray] = None,
) -> Tree:
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
    nodes: list = []  # one [feature, threshold, left, right, n, n_fake] per node

    def new_node(idx: np.ndarray, depth: int) -> tuple[int, bool]:
        """Appends a leaf for the ascending rows ``idx``; returns its index
        and whether to split it."""
        total, fake = float(w[idx].sum()), float(wy[idx].sum())
        nodes.append([-1, math.nan, -1, -1, total, fake])
        splittable = not (
            len(idx) < min_leaf
            or fake <= 0.0
            or fake >= total
            or (max_depth is not None and depth >= max_depth)
        )
        return len(nodes) - 1, splittable

    def split(node: int, rows: np.ndarray, idx: np.ndarray, depth: int) -> list:
        """Splits leaf ``node``; returns its children still to be split."""
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
        left_idx = np.compress(mask, idx)
        right_idx = np.compress(~mask, idx)
        left_node, left_open = new_node(left_idx, depth + 1)
        right_node, right_open = new_node(right_idx, depth + 1)
        nodes[node][:4] = feature, threshold, left_node, right_node
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
            pending.append((right_node, right, right_idx, depth + 1))
        if left_open:
            left = np.compress(on_left, rows).reshape(d, -1)
            pending.append((left_node, left, left_idx, depth + 1))
        return pending

    root, root_open = new_node(np.arange(n), 0)
    # Pending nodes hold disjoint row sets, so the stack never holds more
    # than one tree's worth of sorted lists.
    stack = [(root, sorted_rows, np.arange(n), 0)] if root_open else []
    while stack:
        stack.extend(split(*stack.pop()))
    return Tree(*zip(*nodes))


def _stack(trees: Sequence[Tree]) -> tuple[Tree, np.ndarray]:
    """The trees as one array set with several roots: tree t's node i
    becomes node ``i + roots[t]``."""
    if len(trees) == 1:
        return trees[0], np.zeros(1, dtype=np.intp)
    sizes = [t.feature.size for t in trees]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)
    shift = np.repeat(roots, sizes)
    feature, threshold, left, right, n, n_fake = (
        np.concatenate([getattr(t, f.name) for t in trees]) for f in fields(Tree))
    left, right = np.where(left >= 0, left + shift, -1), np.where(right >= 0, right + shift, -1)
    return Tree(feature, threshold, left, right, n, n_fake), roots


def _leaves(tree: Tree, roots: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The leaf each row of ``X`` reaches from each root, shape (roots, rows).

    Every (root, row) pair moves down one level per step, so the loop runs
    once per level of the deepest tree, however many trees and rows.
    """
    m, d = X.shape
    flat = np.ascontiguousarray(X, dtype=np.float64).ravel()
    feature, threshold, left, right = tree.feature, tree.threshold, tree.left, tree.right
    node = np.repeat(roots, m)
    cell = np.tile(np.arange(0, m * d, d), len(roots))  # each pair's row in flat
    pair = np.flatnonzero(feature[node] >= 0)  # pairs still at a split
    while pair.size:
        at = node[pair]
        goes_left = flat[cell[pair] + feature[at]] <= threshold[at]
        node[pair] = step = np.where(goes_left, left[at], right[at])
        pair = pair[feature[step] >= 0]
    return node.reshape(len(roots), m)


def predict_each(trees: Sequence[Tree], X: np.ndarray) -> np.ndarray:
    """Each tree's leaf probability of fake for every row of ``X``, shape
    (trees, rows), from one routing loop over all the trees."""
    stacked, roots = _stack(trees)
    return stacked.prob_fake[_leaves(stacked, roots, X)]


def tree_predict_proba(tree: Tree, X: np.ndarray) -> np.ndarray:
    return predict_each([tree], X)[0]


def _levels(tree: Tree) -> Iterator[np.ndarray]:
    """The node indices at each depth, root first."""
    level = np.zeros(1, dtype=np.intp)
    while level.size:
        yield level
        level = np.concatenate((tree.left[level], tree.right[level]))
        level = level[level >= 0]


@dataclass(frozen=True)
class TreeStats:
    nodes: int
    leaves: int
    height: int


def tree_stats(tree: Tree) -> TreeStats:
    """Node/leaf/height counts; a lone leaf is (1, 1, 1)."""
    return TreeStats(
        nodes=int(tree.feature.size),
        leaves=int(np.count_nonzero(tree.feature < 0)),
        height=sum(1 for _ in _levels(tree)),
    )


def _prune(tree: Tree, leaf_cost: list, slack: float) -> Tree:
    """Children before parents, collapses every split whose cost as a leaf
    is at most its children's summed cost plus ``slack``; a split that
    stays costs that sum. Keeps only the nodes still reachable."""
    left, right = tree.left.tolist(), tree.right.tolist()
    cost = list(leaf_cost)
    collapse = np.zeros(len(cost), dtype=bool)
    for i in reversed(range(len(cost))):
        if left[i] < 0:
            continue
        subtree = cost[left[i]] + cost[right[i]]
        if cost[i] <= subtree + slack:
            collapse[i] = True
        else:
            cost[i] = subtree
    pruned = Tree(tree.feature.copy(), tree.threshold.copy(), tree.left.copy(),
                  tree.right.copy(), tree.n, tree.n_fake)
    pruned.feature[collapse] = pruned.left[collapse] = pruned.right[collapse] = -1
    pruned.threshold[collapse] = np.nan
    keep = np.sort(np.concatenate(list(_levels(pruned))))
    renumber = np.full(len(cost) + 1, -1, dtype=np.intp)  # renumber[-1] stays -1
    renumber[keep] = np.arange(keep.size)
    return Tree(pruned.feature[keep], pruned.threshold[keep], renumber[pruned.left[keep]],
                renumber[pruned.right[keep]], tree.n[keep], tree.n_fake[keep])


def reduced_error_prune(
    tree: Tree,
    X: np.ndarray,
    y: np.ndarray,
    folds: int,
    seed: int = 0,
) -> Tree:
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
    rng = make_rng(seed)
    held = max(1, n // folds)
    prune_idx = rng.permutation(n)[:held]
    Xp = X[prune_idx]
    yp = y[prune_idx]

    # wrong[k, i]: held-out rows reaching node i that a leaf labelled k gets wrong
    size = tree.feature.size
    reached = _leaves(*_stack([tree]), Xp)[0]
    wrong = np.stack([np.bincount(reached, yp != k, size) for k in (0.0, 1.0)])
    for level in reversed(list(_levels(tree))):
        split = level[tree.left[level] >= 0]
        wrong[:, split] = wrong[:, tree.left[split]] + wrong[:, tree.right[split]]
    majority = (tree.prob_fake >= 0.5).astype(int)  # ties resolve toward fake
    return _prune(tree, wrong[majority, np.arange(size)].tolist(), slack=0)


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


def pessimistic_prune(tree: Tree, confidence: float = 0.25) -> Tree:
    """Collapse subtrees whose pessimistic error estimate favors a leaf.

    The estimate is the binomial upper bound at the given confidence on the
    node's training error rate; raising is approximated by replacing the
    whole subtree with its majority leaf when the bound favors it.
    """
    if not 0.0 < confidence < 0.5:
        raise LearnError("confidence must be in (0, 0.5)")
    z = NormalDist().inv_cdf(1.0 - confidence)
    estimates = [
        _pessimistic_errors(n, min(fake, n - fake), confidence, z)
        for n, fake in zip(tree.n.tolist(), tree.n_fake.tolist())
    ]
    return _prune(tree, estimates, slack=0.1)
