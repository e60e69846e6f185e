"""Lock-step tree growth against the one-tree-at-a-time grower it replaced.

``_oracle_grow_tree`` is the depth-first grower every tree learner used
before trees were grown in lock-step (with one change: it no longer
splits, forever, a node whose rows would all go left); ``_oracle_rf_fit``
and ``_oracle_ab_fit`` fit forests and boosting with it, tree by tree. The
lock-step growers must give the same trees, node for node and bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fakescope.kernels import best_threshold_split, presort
from fakescope.learn.ensembles import ab_fit, rf_fit
from fakescope.learn.tree import GAIN_EPS, Tree, grow_tree, grow_trees, tree_predict_proba
from fakescope.seeding import make_rng


def _oracle_grow_tree(X, y, weights=None, min_leaf=2, max_depth=None, rng=None, mtry=None,
                      order=None):
    """Best-gain splits, depth first, left before right, one node per search."""
    n, d = X.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    wy = w * y
    XT = np.ascontiguousarray(X.T, dtype=np.float64)
    flat = XT.ravel()
    columns = np.arange(d)
    offsets = columns * n
    sorted_rows = presort(X) if order is None else order
    goes_left = np.empty(n, dtype=bool)
    nodes = []

    def new_node(idx, depth):
        total, fake = float(w[idx].sum()), float(wy[idx].sum())
        nodes.append([-1, math.nan, -1, -1, total, fake])
        splittable = not (
            len(idx) < min_leaf
            or fake <= 0.0
            or fake >= total
            or (max_depth is not None and depth >= max_depth)
        )
        return len(nodes) - 1, splittable

    def split(node, rows, idx, depth):
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
        if mask.all():  # the one change: this grower used to split such a node forever
            return []
        left_idx = np.compress(mask, idx)
        right_idx = np.compress(~mask, idx)
        left_node, left_open = new_node(left_idx, depth + 1)
        right_node, right_open = new_node(right_idx, depth + 1)
        nodes[node][:4] = feature, threshold, left_node, right_node
        if not (left_open or right_open):
            return []
        goes_left[idx] = mask
        on_left = goes_left[rows].ravel()
        pending = []
        if right_open:
            right = np.compress(~on_left, rows).reshape(d, -1)
            pending.append((right_node, right, right_idx, depth + 1))
        if left_open:
            left = np.compress(on_left, rows).reshape(d, -1)
            pending.append((left_node, left, left_idx, depth + 1))
        return pending

    root, root_open = new_node(np.arange(n), 0)
    stack = [(root, sorted_rows, np.arange(n), 0)] if root_open else []
    while stack:
        stack.extend(split(*stack.pop()))
    return Tree(*zip(*nodes))


def _oracle_rf_fit(X, y, seed, n_trees, min_leaf, max_depth, feature_sample):
    n, d = X.shape
    mtry = d if feature_sample == "all" else max(1, math.ceil(math.sqrt(d)))
    trees = []
    for t in range(n_trees):
        rng = make_rng(seed, 7, t)
        idx = rng.integers(0, n, size=n)
        trees.append(_oracle_grow_tree(X[idx], y[idx], min_leaf=min_leaf, max_depth=max_depth,
                                       rng=rng, mtry=mtry, order=presort(X[idx])))
    return trees


def _oracle_ab_fit(X, y, rounds, depth, min_leaf):
    n = X.shape[0]
    order = presort(X)
    w = np.full(n, 1.0 / n)
    alphas, trees = [], []
    for _ in range(rounds):
        tree = _oracle_grow_tree(X, y, weights=w, min_leaf=min_leaf, max_depth=depth, order=order)
        pred = (tree_predict_proba(tree, X) >= 0.5).astype(np.float64)
        miss = pred != y
        err = min(max(float(w[miss].sum()), 1e-10), 1.0 - 1e-10)
        if err >= 0.5 and trees:
            break
        alpha = 0.5 * math.log((1.0 - err) / err)
        alphas.append(alpha)
        trees.append(tree)
        w = w * np.exp(np.where(miss, alpha, -alpha))
        w = w / w.sum()
    return alphas, trees


def _same(a: Tree, b: Tree) -> bool:
    """Node arrays equal bit for bit (NaN thresholds at the same leaves)."""
    return (np.array_equal(a.feature, b.feature) and np.array_equal(a.left, b.left)
            and np.array_equal(a.right, b.right)
            and np.array_equal(a.threshold, b.threshold, equal_nan=True)
            and a.n.tobytes() == b.n.tobytes() and a.n_fake.tobytes() == b.n_fake.tobytes())


@st.composite
def samples(draw, max_rows=40):
    """Rows with tied values, constant columns, duplicate rows, both labels."""
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, 4))
    tied = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    spread = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["tied", "spread", "constant", "adjacent"]))
        if kind == "constant":
            columns.append([draw(tied)] * n)
        elif kind == "adjacent":  # midpoints of neighbouring floats round up
            columns.append(draw(st.lists(st.sampled_from([1.0, np.nextafter(1.0, 2.0)]),
                                         min_size=n, max_size=n)))
        else:
            columns.append(draw(st.lists(tied if kind == "tied" else spread,
                                         min_size=n, max_size=n)))
    X = np.array(columns).T
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    y[0], y[-1] = 0.0, 1.0
    copies = draw(st.lists(st.integers(0, n - 1), max_size=n // 2))
    X, y = np.concatenate((X, X[copies])), np.concatenate((y, y[copies]))
    return X, y


grow = settings(max_examples=150, deadline=None)
depths = st.one_of(st.none(), st.integers(0, 4))


class TestOracle:
    @grow
    @given(samples(), st.integers(1, 4), depths, st.booleans(), st.data())
    def test_grow_tree(self, sample, min_leaf, max_depth, weighted, data):
        X, y = sample
        w = None
        if weighted:
            w = np.array(data.draw(st.lists(st.floats(0.01, 10.0), min_size=len(y),
                                            max_size=len(y))))
        got = grow_tree(X, y, weights=w, min_leaf=min_leaf, max_depth=max_depth)
        assert _same(got, _oracle_grow_tree(X, y, weights=w, min_leaf=min_leaf,
                                            max_depth=max_depth))

    @grow
    @given(samples(), st.integers(1, 4), st.integers(0, 99))
    def test_grow_tree_with_candidate_draws(self, sample, mtry, seed):
        X, y = sample
        (got,) = grow_trees(X, y, presort(X), rngs=[make_rng(seed)], mtry=mtry)
        assert _same(got, _oracle_grow_tree(X, y, rng=make_rng(seed), mtry=mtry))

    @grow
    @given(samples(), st.integers(1, 12), st.integers(1, 4), depths,
           st.sampled_from(["sqrt", "all"]), st.integers(0, 99))
    def test_rf_fit(self, sample, n_trees, min_leaf, max_depth, feature_sample, seed):
        X, y = sample
        got = rf_fit(X, y, seed=seed, n_trees=n_trees, min_leaf=min_leaf, max_depth=max_depth,
                     feature_sample=feature_sample)
        want = _oracle_rf_fit(X, y, seed, n_trees, min_leaf, max_depth, feature_sample)
        assert len(got.trees) == len(want)
        assert all(_same(a, b) for a, b in zip(got.trees, want))

    @grow
    @given(samples(), st.integers(1, 6), st.integers(1, 3), st.integers(1, 4))
    def test_ab_fit(self, sample, rounds, depth, min_leaf):
        X, y = sample
        got = ab_fit(X, y, rounds=rounds, depth=depth, min_leaf=min_leaf)
        alphas, trees = _oracle_ab_fit(X, y, rounds, depth, min_leaf)
        assert got.alphas == alphas
        assert len(got.trees) == len(trees)
        assert all(_same(a, b) for a, b in zip(got.trees, trees))

    def test_forest_of_sensitivity_size(self):
        """64 trees on 140 rows: roots and equal-size children share searches."""
        rng = make_rng(5)
        X = np.round(rng.normal(size=(140, 9)), 2)
        y = (X[:, 0] + X[:, 3] + 0.5 * rng.normal(size=140) > 0).astype(float)
        got = rf_fit(X, y, seed=11)
        want = _oracle_rf_fit(X, y, 11, 64, 2, None, "sqrt")
        assert all(_same(a, b) for a, b in zip(got.trees, want))


@st.composite
def node_blocks(draw):
    """Several nodes of m rows each, every node with its own rows and
    candidate columns, each column sorted with its rows' weights and labels."""
    m = draw(st.integers(1, 12))
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    tied = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    spread = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    unit = draw(st.booleans())
    values, weights, fake = [], [], []
    for width in widths:
        labels = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=m, max_size=m)))
        w = np.ones(m) if unit else np.array(
            draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)))
        for _ in range(width):
            column = np.array(draw(st.lists(draw(st.sampled_from([tied, spread])),
                                            min_size=m, max_size=m)))
            order = np.argsort(column, kind="stable")
            values.append(column[order])
            weights.append(w[order])
            fake.append((w * labels)[order])
    return np.array(values).T, None if unit else np.array(weights).T, np.array(fake).T, widths


def test_a_midpoint_that_rounds_up_to_the_top_value_ends_the_branch():
    """Between 1.0000000000000002 and the next float up, the midpoint rounds
    up, so ``x <= threshold`` would keep every row on the left."""
    low = np.nextafter(1.0, 2.0)
    high = np.nextafter(low, 2.0)
    assert 0.5 * (low + high) == high
    X = np.array([[low], [high], [high], [low]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    tree = grow_tree(X, y)
    assert tree.feature.tolist() == [-1]
    forest = rf_fit(X, y, seed=1, n_trees=4, feature_sample="all")
    assert all(tree.feature.tolist() == [-1] for tree in forest.trees)


class TestBatchedSearch:
    @settings(max_examples=300, deadline=None)
    @given(node_blocks())
    def test_each_node_as_if_searched_alone(self, block):
        values, weights, fake, widths = block
        found = best_threshold_split(values, weights, fake, widths=widths)
        ends = np.cumsum(widths)
        for i, (start, end) in enumerate(zip(ends - widths, ends)):
            alone = best_threshold_split(values[:, start:end],
                                         None if weights is None else weights[:, start:end],
                                         fake[:, start:end])
            assert found[i] == alone, i
