"""Tree statistics and both pruning strategies."""

import numpy as np
import pytest

from fakescope.corpus import SynthConfig, synthesize
from fakescope.features import CLASS_A_SPECS, extract
from fakescope.learn import (
    LearnError,
    Tree,
    grow_tree,
    model_from_json,
    model_to_json,
    pessimistic_prune,
    prune,
    reduced_error_prune,
    train,
    tree_predict_proba,
    tree_stats,
)
from fakescope.seeding import make_rng


def leaf(n, n_fake):
    return Tree.from_dict({"n": n, "n_fake": n_fake}, n_features=3)


def split(feature, threshold, left, right):
    left, right = left.to_dict(), right.to_dict()
    node = {
        "n": left["n"] + right["n"],
        "n_fake": left["n_fake"] + right["n_fake"],
        "feature": feature,
        "threshold": threshold,
        "left": left,
        "right": right,
    }
    return Tree.from_dict(node, n_features=3)


def noisy_training_data(seed=0, n=400, flip=0.18):
    """Coarse grid features with flipped labels: room for genuine pruning."""
    rng = make_rng(seed)
    X = rng.integers(0, 4, size=(n, 5)).astype(float)
    y = (X[:, 0] >= 2).astype(float)
    flips = rng.random(n) < flip
    y[flips] = 1.0 - y[flips]
    return X, y


class TestTreeStats:
    def test_single_leaf(self):
        assert tree_stats(leaf(10, 4)) == tree_stats(leaf(1, 0))
        stats = tree_stats(leaf(10, 4))
        assert (stats.nodes, stats.leaves, stats.height) == (1, 1, 1)

    def test_one_split(self):
        stats = tree_stats(split(0, 0.5, leaf(5, 0), leaf(5, 5)))
        assert (stats.nodes, stats.leaves, stats.height) == (3, 2, 2)

    def test_known_shape_hand_count(self):
        tree = split(
            0,
            0.5,
            split(1, 0.2, leaf(2, 0), leaf(3, 3)),
            split(2, 0.7, leaf(4, 4), split(0, 0.9, leaf(1, 0), leaf(2, 2))),
        )
        stats = tree_stats(tree)
        assert (stats.nodes, stats.leaves, stats.height) == (9, 5, 4)


class TestReducedError:
    def test_pure_leaf_unchanged(self):
        X = np.zeros((4, 1))
        y = np.zeros(4)
        root = leaf(4, 0)
        pruned = reduced_error_prune(root, X, y, folds=2, seed=0)
        assert tree_stats(pruned) == tree_stats(root)

    def test_noisy_fixture_strictly_smaller(self):
        X, y = noisy_training_data()
        root = grow_tree(X, y)
        pruned = reduced_error_prune(root, X, y, folds=3, seed=1)
        assert tree_stats(pruned).nodes < tree_stats(root).nodes

    def test_never_increases_nodes_over_random_trees(self):
        rng = make_rng(99)
        for trial in range(100):
            n = int(rng.integers(10, 120))
            d = int(rng.integers(1, 5))
            X = rng.integers(0, 5, size=(n, d)).astype(float)
            y = (rng.random(n) < 0.5).astype(float)
            if y.sum() in (0, n):
                continue
            root = grow_tree(X, y)
            folds = int(rng.integers(2, min(10, n) + 1))
            pruned = reduced_error_prune(root, X, y, folds=folds, seed=trial)
            assert tree_stats(pruned).nodes <= tree_stats(root).nodes

    def test_folds_exceeding_samples_rejected(self):
        X = np.zeros((3, 1))
        y = np.array([0.0, 1.0, 0.0])
        with pytest.raises(LearnError):
            reduced_error_prune(grow_tree(X, y), X, y, folds=4, seed=0)

    def test_surviving_pure_leaves_keep_their_predictions(self):
        X, y = noisy_training_data(seed=4)
        root = grow_tree(X, y)
        pruned = reduced_error_prune(root, X, y, folds=3, seed=2)

        def pure_leaf_rows(tree, rows, node=0):
            if tree.feature[node] < 0:
                if tree.n_fake[node] in (0.0, tree.n[node]):
                    yield from rows
                return
            mask = X[rows, tree.feature[node]] <= tree.threshold[node]
            yield from pure_leaf_rows(tree, rows[mask], tree.left[node])
            yield from pure_leaf_rows(tree, rows[~mask], tree.right[node])

        # rows that still land in pure leaves after pruning keep their label
        surviving = np.fromiter(
            pure_leaf_rows(pruned, np.arange(len(y))), dtype=int
        )
        if surviving.size:
            probs = tree_predict_proba(pruned, X[surviving])
            assert np.array_equal(probs >= 0.5, y[surviving] >= 0.5)


class TestPessimistic:
    def test_pure_leaf_unchanged(self):
        assert tree_stats(pessimistic_prune(leaf(5, 0))).nodes == 1

    def test_collapses_noise_twigs(self):
        X, y = noisy_training_data(seed=8)
        root = grow_tree(X, y)
        pruned = pessimistic_prune(root, confidence=0.25)
        assert tree_stats(pruned).nodes < tree_stats(root).nodes

    def test_lower_confidence_prunes_at_least_as_hard(self):
        X, y = noisy_training_data(seed=12)
        root = grow_tree(X, y)
        relaxed = pessimistic_prune(root, confidence=0.45)
        harsh = pessimistic_prune(root, confidence=0.05)
        assert tree_stats(harsh).nodes <= tree_stats(relaxed).nodes

    def test_bad_confidence_rejected(self):
        with pytest.raises(LearnError):
            pessimistic_prune(leaf(3, 1), confidence=0.9)


class TestLoadedModel:
    """A model read back from JSON keeps its tree but not its training sample."""

    @pytest.fixture(scope="class")
    def trained(self):
        ds = synthesize(SynthConfig.paper_like(seed=5, n_humans=60, n_fakes=60))
        return train("dt", extract(ds, CLASS_A_SPECS), seed=2)

    def test_reduced_error_names_the_missing_sample(self, trained):
        loaded = model_from_json(model_to_json(trained))
        with pytest.raises(LearnError, match="training sample"):
            prune(loaded, "reduced_error")

    def test_subtree_raising_matches_the_in_memory_model(self, trained):
        loaded = model_from_json(model_to_json(trained))
        strategy = ("subtree_raising", 0.25)
        expected = prune(trained, strategy).state.root.to_dict()
        assert prune(loaded, strategy).state.root.to_dict() == expected
