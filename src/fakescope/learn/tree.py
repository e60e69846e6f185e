"""Entropy decision tree as flat node arrays: growth, prediction,
statistics, pruning, and the nested dict that ``model.json`` stores."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from ..kernels import best_threshold_split, presort
from ..seeding import make_rng

GAIN_EPS = 1e-12
FAKE_CUT = 0.5  # a score (or a leaf's fake share) at or above it means fake
# One split search stacks the nodes of a step, smallest first, while the
# stacked block holds at most SEARCH_CELLS (row, candidate column) cells
# and its largest node is at most PAD_RATIO times its smallest; a larger
# node is searched alone. Larger blocks measured slower per node, since
# their temporaries outgrow what the allocator reuses and every call pays
# for fresh pages, and so did padding small nodes to much larger ones.
SEARCH_CELLS = 4096
PAD_RATIO = 2.0


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


class _Open(NamedTuple):
    """A node to split: its tree, its index there, its rows sorted by each
    column, the same rows ascending, its depth and its candidate columns."""

    tree: int
    node: int
    rows: np.ndarray
    idx: np.ndarray
    depth: int
    candidates: np.ndarray


def _batches(nodes: list, same_size: bool) -> list:
    """``nodes`` in row-count order, cut into the batches one kernel call
    searches (see SEARCH_CELLS); with ``same_size``, a batch holds nodes of
    one row count only."""
    if len(nodes) < 2:
        return [nodes] if nodes else []
    batches: list = []
    cells = smallest = 0
    for node in sorted(nodes, key=lambda node: node.rows.shape[1]):
        size, width = node.rows.shape[1], len(node.candidates)
        if (batches and (cells + width) * size <= SEARCH_CELLS and size <= PAD_RATIO * smallest
                and not (same_size and size != smallest)):
            batches[-1].append(node)
            cells += width
        else:
            batches.append([node])
            cells, smallest = width, size
    return batches


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    counts: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
    min_leaf: int = 2,
    max_depth: Optional[int] = None,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    mtry: Optional[int] = None,
) -> list[Tree]:
    """Grows one tree per row sample of ``X``, all of them in lock-step.

    ``order`` is ``presort(X)``, in any integer dtype. ``counts[t]`` holds
    how often tree t draws each row of ``X`` (a bootstrap sample's
    ``np.bincount``), and its root takes ``order`` with every row repeated
    that often; ``None`` grows one tree on every row once. ``y`` (0/1
    labels) and ``weights`` are per row of ``X``; with weights, equal
    values must keep ascending ids (``presort``), and without them (every
    weight 1) they may come in any order, since every sum the search takes
    over whole runs of equal values is then an exact count.

    Each tree is grown best-gain split by split, depth first, left before
    right. With ``rngs``/``mtry`` set, each split considers a random subset
    of the features that actually vary within the node, drawn from the
    tree's own generator (columns constant in the node sample carry no
    split and never enter the draw). Equal gains pick the lowest feature
    index, then the lowest threshold.

    Each step takes the next open node of every tree, so every tree sees
    the node order, and draws, it would see grown alone. The step's nodes
    are searched a batch at a time, one kernel call each; without weights,
    the smaller nodes of a batch are padded to its largest. Each child
    takes its rows from its parent's sorted lists by a stable partition,
    so no column is sorted twice.
    """
    d, N = order.shape
    n_trees = 1 if counts is None else len(counts)
    if weights is None:  # unit weights: a node's weight is its row count
        w, wy = None, np.asarray(y, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        wy = w * y
    XT = np.ascontiguousarray(X.T, dtype=np.float64)
    flat = XT.ravel()
    columns = np.arange(d)
    offsets = columns * N  # row r of column j sits at flat[offsets[j] + r]
    goes_left = np.empty(N, dtype=bool)
    trees: list = [[] for _ in range(n_trees)]  # [feature, threshold, left, right, n, n_fake] rows
    stacks: list = [[] for _ in range(n_trees)]  # each tree's open nodes, next on top

    def totals(idx: np.ndarray) -> tuple[float, float]:
        """Weight and fake weight of the ascending rows ``idx``."""
        return float(len(idx) if w is None else w[idx].sum()), float(wy[idx].sum())

    def new_node(t: int, size: int, total: float, fake: float, depth: int) -> tuple[int, bool]:
        """Appends a leaf of ``size`` rows to tree ``t``; returns its index
        and whether to split it."""
        nodes = trees[t]
        nodes.append([-1, math.nan, -1, -1, total, fake])
        splittable = not (
            size < min_leaf
            or fake <= 0.0
            or fake >= total
            or (max_depth is not None and depth >= max_depth)
        )
        return len(nodes) - 1, splittable

    def search(batch: list) -> list:
        """The best split of each node of ``batch`` (of unequal row counts
        only without weights)."""
        if len(batch) == 1:  # one node: its own block, no stacking
            rows, candidates = batch[0].rows, batch[0].candidates
            block = rows if rngs is None else rows[candidates]
            at = block + offsets[candidates, None]
            return [best_threshold_split(
                flat[at].T, None if w is None else w[block].T, wy[block].T)]
        # Each node's rows, padded to the longest with copies of its last
        # row that weigh 0 (unit weights only): a pad adds no cut, and
        # every sum stays an exact count.
        widths = [len(node.candidates) for node in batch]
        sizes = [node.rows.shape[1] for node in batch]
        lengths = np.repeat(sizes, widths)
        starts = np.cumsum(lengths) - lengths
        stacked = np.concatenate([node.rows[node.candidates].ravel() for node in batch])
        span = np.arange(max(sizes))
        block = stacked[starts[:, None] + np.minimum(span, lengths[:, None] - 1)]
        at = block + offsets[np.concatenate([node.candidates for node in batch]), None]
        if min(sizes) < max(sizes):
            weights = (span < lengths[:, None]).astype(np.float64)
            return best_threshold_split(flat[at].T, weights.T, (wy[block] * weights).T,
                                        widths=widths)
        return best_threshold_split(
            flat[at].T, None if w is None else w[block].T, wy[block].T, widths=widths)

    def split(open_node: _Open, feature: int, threshold: float) -> None:
        """Splits the node, sending ``x[feature] <= threshold`` left;
        pushes its children still to be split. A node whose rows would all
        go left stays a leaf: its child would be the node itself, split the
        same way forever."""
        t, node, rows, idx, depth, _ = open_node
        mask = XT[feature][idx] <= threshold
        left_idx = np.compress(mask, idx)
        if len(left_idx) == len(idx):  # the midpoint of neighbouring floats rounded up to the top
            return
        right_idx = np.compress(~mask, idx)
        if w is None:  # exact counts: the right side holds what the left does not
            total, fake = trees[t][node][4:]
            left = float(len(left_idx)), float(wy[left_idx].sum())
            right = total - left[0], fake - left[1]
        else:
            left, right = totals(left_idx), totals(right_idx)
        left_node, left_open = new_node(t, len(left_idx), *left, depth + 1)
        right_node, right_open = new_node(t, len(right_idx), *right, depth + 1)
        trees[t][node][:4] = feature, threshold, left_node, right_node
        if not (left_open or right_open):
            return
        # a stable partition of every column's sorted rows; repeats of a
        # row share its value, so they all go the same way
        goes_left[idx] = mask
        on_left = goes_left[rows].ravel()
        # the left child goes on the stack last, so it is split first and
        # the rng is drawn in the same node order as by a recursive build
        if right_open:
            right = np.compress(~on_left, rows).reshape(d, -1)
            stacks[t].append((right_node, right, right_idx, depth + 1))
        if left_open:
            left = np.compress(on_left, rows).reshape(d, -1)
            stacks[t].append((left_node, left, left_idx, depth + 1))

    ids, flat_order = np.arange(N), order.ravel()
    at = flat_order.astype(np.intp, copy=False)  # numpy gathers fastest by intp ids
    for t in range(n_trees):
        rows = order if counts is None else np.repeat(flat_order, counts[t][at]).reshape(d, -1)
        idx = ids if counts is None else np.repeat(ids, counts[t])
        root, root_open = new_node(t, len(idx), *totals(idx), 0)
        if root_open:
            stacks[t].append((root, rows, idx, 0))

    def step(live: list) -> None:
        """Pops, draws for, searches and splits the next open node of every
        tree in ``live``; the popped nodes' rows are freed on return."""
        popped = [stacks[t].pop() for t in live]
        if rngs is not None:  # the columns whose first and last sorted values differ
            firsts = np.stack([item[1][:, 0] for item in popped])
            lasts = np.stack([item[1][:, -1] for item in popped])
            varying = flat[offsets + firsts] != flat[offsets + lasts]
        searched = []
        for i, (t, item) in enumerate(zip(live, popped)):
            if rngs is None:
                candidates = columns
            else:
                pool = np.flatnonzero(varying[i])
                if pool.size == 0:
                    continue
                chosen = rngs[t].choice(pool.size, size=min(mtry, pool.size), replace=False)
                candidates = np.sort(pool[chosen])
            searched.append(_Open(t, *item, candidates))
        for batch in _batches(searched, same_size=w is not None):
            for open_node, best in zip(batch, search(batch)):
                if best is not None and best[0] > GAIN_EPS:
                    split(open_node, int(open_node.candidates[best[1]]), best[2])

    live = [t for t in range(n_trees) if stacks[t]]
    while live:
        step(live)
        live = [t for t in live if stacks[t]]
    return [Tree(*zip(*nodes)) for nodes in trees]


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
    """One tree on every row of ``X``, as `grow_trees` grows it.

    ``order`` is ``presort(X)``, passed in by callers that grow several
    trees on the same rows; ``rng`` and ``mtry`` draw candidate features
    only when both are set.
    """
    rngs = None if rng is None or mtry is None else [rng]
    return grow_trees(X, y, presort(X) if order is None else order, None, weights,
                      min_leaf, max_depth, rngs, mtry)[0]


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
    folds: int = 3,
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
    majority = (tree.prob_fake >= FAKE_CUT).astype(int)  # ties resolve toward fake
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
