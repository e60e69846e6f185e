"""Classifier training, prediction, determinism, CV, and the sweep."""

import hashlib
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fakescope.corpus import SynthConfig, synthesize
from fakescope.features import FeatureSpec, extract, specs_by_names
from fakescope.features.catalog import CLASS_A_SPECS, RATIO, YANG_SET
from fakescope.features.extract import FeatureMatrix
from fakescope.learn import (
    LearnError,
    Tree,
    class_distribution_sweep,
    cross_validate,
    cross_validate_matrix,
    model_from_json,
    model_to_json,
    model_tree_stats,
    pessimistic_prune,
    predict,
    predict_many,
    predict_scores,
    reduced_error_prune,
    train,
    unused_columns,
)
from fakescope.kernels import best_threshold_split, presort
from fakescope.learn.ensembles import ab_fit, ab_scores, BoostState
from fakescope.learn.simple import (
    HESSIAN_FLOOR,
    MAX_HALVINGS,
    knn_fit,
    knn_scores,
    lr_fit,
    lr_scores,
    nearest_rows,
)
from fakescope.seeding import derive_seed, make_rng
from fakescope.sensitivity import analyze_matrices


def make_matrix(X, y, kinds=None, prefix="f"):
    X = np.asarray(X, dtype=np.float64)
    kinds = kinds or [RATIO] * X.shape[1]
    specs = tuple(
        FeatureSpec(name=f"{prefix}{j}", cost_class="A", source_set="CC", kind=kinds[j])
        for j in range(X.shape[1])
    )
    labels = tuple("fake" if v else "human" for v in y)
    ids = tuple(f"u{i:04d}" for i in range(X.shape[0]))
    return FeatureMatrix(
        specs=specs, account_ids=ids, values=X, labels=labels, provenance={}
    )


def simple_matrix():
    X = np.array([[0.0], [0.1], [0.9], [1.0]])
    y = [0, 0, 1, 1]
    return make_matrix(X, y)


class TestTrain:
    def test_dt_single_split_perfect_training(self):
        matrix = simple_matrix()
        model = train("dt", matrix, seed=0)
        stats = model_tree_stats(model)
        assert (stats.nodes, stats.leaves, stats.height) == (3, 2, 2)
        labels, _ = predict_many(model, matrix.values)
        assert labels == ["human", "human", "fake", "fake"]

    def test_rf_deterministic_serialization(self, paper_like_small):
        matrix = extract(paper_like_small, specs_by_names(YANG_SET))
        a = train("rf", matrix, params={"n_trees": 8}, seed=5)
        b = train("rf", matrix, params={"n_trees": 8}, seed=5)
        assert model_to_json(a) == model_to_json(b)
        c = train("rf", matrix, params={"n_trees": 8}, seed=6)
        assert model_to_json(a) != model_to_json(c)

    def test_single_class_rejected(self):
        X = np.array([[0.0], [1.0]])
        matrix = make_matrix(X, [1, 1])
        with pytest.raises(LearnError):
            train("dt", matrix, seed=0)

    def test_non_finite_rejected(self):
        matrix = make_matrix(np.array([[0.0], [np.inf]]), [0, 1])
        with pytest.raises(LearnError):
            train("dt", matrix, seed=0)

    def test_unknown_algorithm(self):
        with pytest.raises(LearnError):
            train("svm", simple_matrix(), seed=0)

    @pytest.mark.parametrize(("given", "recorded", "tree_level"), [
        ("reduced_error", ("reduced_error", None),
         lambda root, X, y: reduced_error_prune(root, X, y, seed=7)),
        (["reduced_error", 2.0], ("reduced_error", 2.0),
         lambda root, X, y: reduced_error_prune(root, X, y, folds=2, seed=7)),
        ("subtree_raising", ("subtree_raising", None), lambda root, X, y: pessimistic_prune(root)),
        (("subtree_raising", 0.1), ("subtree_raising", 0.1),
         lambda root, X, y: pessimistic_prune(root, confidence=0.1)),
    ])
    def test_dt_prunes_the_tree_it_grew(self, noisy_matrix, given, recorded, tree_level):
        model = train("dt", noisy_matrix, params={"prune": given, "min_leaf": 3}, seed=7)
        assert model.params == {"prune": recorded, "min_leaf": 3}
        grown = train("dt", noisy_matrix, params={"min_leaf": 3}).state.root
        want = tree_level(grown, noisy_matrix.values, noisy_matrix.y01())
        assert model.state.root.to_dict() == want.to_dict()

    def test_unknown_pruning_strategy(self):
        with pytest.raises(LearnError, match="unknown pruning strategy 'cost'"):
            train("dt", simple_matrix(), params={"prune": "cost"})

    def test_rf_one_tree_full_features_equals_dt_on_bootstrap(self):
        rng_data = make_rng(123)
        X = rng_data.normal(size=(80, 3))
        y = (X[:, 0] + 0.2 * rng_data.normal(size=80) > 0).astype(float)
        matrix = make_matrix(X, y)
        forest = train(
            "rf", matrix, params={"n_trees": 1, "feature_sample": "all"}, seed=9
        )
        boot_rng = make_rng(9, 7, 0)
        idx = boot_rng.integers(0, 80, size=80)
        boot = make_matrix(X[idx], y[idx])
        tree = train("dt", boot, seed=0)
        probe = rng_data.normal(size=(40, 3))
        assert predict_many(forest, probe)[0] == predict_many(tree, probe)[0]

    def test_monotone_transform_invariance(self):
        rng = make_rng(7)
        X = rng.normal(size=(120, 4))
        y = ((X[:, 1] > 0.3) | (X[:, 2] < -1.0)).astype(float)
        probe = rng.normal(size=(50, 4))

        def warp(A):
            B = A.copy()
            B[:, 1] = np.exp(B[:, 1])
            B[:, 2] = B[:, 2] ** 3
            return B

        plain = train("dt", make_matrix(X, y), seed=0)
        warped = train("dt", make_matrix(warp(X), y), seed=0)
        assert predict_many(plain, probe)[0] == predict_many(warped, warp(probe))[0]


class TestPredict:
    def test_dt_score_one_on_pure_leaf(self):
        model = train("dt", simple_matrix(), seed=0)
        result = predict(model, [1.0])
        assert result.label == "fake"
        assert result.score == 1.0

    def test_knn_k1_returns_stored_label(self):
        matrix = simple_matrix()
        model = train("knn", matrix, params={"k": 1}, seed=0)
        assert predict(model, [0.1]).label == "human"
        assert predict(model, [0.9]).label == "fake"

    def test_nb_midpoint_score_half(self):
        matrix = make_matrix(np.array([[0.0], [1.0]]), [0, 1])
        model = train("nb", matrix, seed=0)
        assert predict(model, [0.5]).score == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        model = train("dt", simple_matrix(), seed=0)
        with pytest.raises(LearnError):
            predict(model, [1.0, 2.0])

    def test_serialization_roundtrip_preserves_predictions(self, paper_like_small):
        matrix = extract(paper_like_small, CLASS_A_SPECS)
        for algo in ("dt", "rf", "ab", "knn", "nb", "lr"):
            model = train(
                algo, matrix, params={"n_trees": 4, "rounds": 5} if algo in ("rf", "ab") else None,
                seed=2,
            )
            clone = model_from_json(model_to_json(model))
            probe = matrix.values[:50]
            assert predict_many(model, probe)[0] == predict_many(clone, probe)[0]


class TestBoosting:
    def test_training_error_non_increasing_on_separable_fixture(self):
        rng = make_rng(42)
        X = rng.normal(size=(100, 2))
        y = (X[:, 0] > 0).astype(float)
        state = ab_fit(X, y, rounds=10, depth=1)
        errors = []
        for t in range(1, len(state.trees) + 1):
            prefix = BoostState(alphas=state.alphas[:t], trees=state.trees[:t])
            pred = (ab_scores(prefix, X) >= 0.5).astype(float)
            errors.append(float(np.mean(pred != y)))
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] == 0.0

    def test_depth_bounds(self):
        with pytest.raises(LearnError):
            ab_fit(np.zeros((4, 1)), np.array([0.0, 1, 0, 1]), depth=4)


class TestCrossValidate:
    def test_separable_corpus_near_perfect(self):
        import dataclasses

        base = SynthConfig.paper_like(seed=3, n_humans=150, n_fakes=150)
        config = dataclasses.replace(
            base,
            human=dataclasses.replace(base.human, p_atypical=0.0),
            fake=dataclasses.replace(base.fake, p_atypical=0.0),
        )
        ds = synthesize(config)
        report = cross_validate("dt", ds, specs_by_names(YANG_SET), k=10, seed=1)
        assert report.pooled.mcc >= 0.99
        assert report.pooled_matrix.total == 300

    def test_pooled_counts_are_fold_sums(self, paper_like_small):
        report = cross_validate("dt", paper_like_small, CLASS_A_SPECS, k=5, seed=2)
        total = report.pooled_matrix
        assert total.total == len(paper_like_small)
        assert len(report.fold_matrices) == 5

    def test_label_shuffle_control(self, paper_like_small):
        rng = make_rng(17)
        ids = paper_like_small.account_ids
        labels = [paper_like_small.accounts[uid].label for uid in ids]
        shuffled = {uid: labels[i] for uid, i in zip(ids, rng.permutation(len(ids)))}
        control = paper_like_small.relabeled(shuffled)
        report = cross_validate("dt", control, CLASS_A_SPECS, k=5, seed=2)
        assert abs(report.pooled.mcc) <= 0.1

    def test_jobs_do_not_change_results(self, paper_like_small):
        a = cross_validate("dt", paper_like_small, CLASS_A_SPECS, k=4, seed=3, jobs=1)
        b = cross_validate("dt", paper_like_small, CLASS_A_SPECS, k=4, seed=3, jobs=3)
        assert a.as_dict() == b.as_dict()

    def test_class_a_close_to_full_features(self):
        from fakescope.features import catalog

        ds = synthesize(SynthConfig.paper_like(seed=19, n_humans=400, n_fakes=400))
        class_a = cross_validate("rf", ds, CLASS_A_SPECS, k=5, seed=4)
        full = cross_validate("rf", ds, catalog(), k=5, seed=4)
        assert full.pooled.mcc >= class_a.pooled.mcc - 0.01


class TestSweep:
    def test_single_fraction_matches_plain_cv(self, paper_like_small):
        report = class_distribution_sweep(
            paper_like_small, "dt", [0.5], target_size=len(paper_like_small),
            k=4, seed=6, specs=CLASS_A_SPECS,
        )
        assert len(report.entries) == 1
        plain = cross_validate(
            "dt",
            paper_like_small,
            CLASS_A_SPECS,
            k=4,
            seed=derive_seed(6, 29, 0),
        )
        assert report.entries[0].report.pooled.as_dict() == plain.pooled.as_dict()

    def test_empty_fraction_list_rejected(self, paper_like_small):
        with pytest.raises(LearnError):
            class_distribution_sweep(
                paper_like_small, "dt", [], target_size=100, k=3, seed=0, specs=CLASS_A_SPECS
            )

    def test_reports_best_fraction_per_metric(self, paper_like_small):
        report = class_distribution_sweep(
            paper_like_small, "dt", [0.3, 0.5, 0.7], target_size=400,
            k=3, seed=6, specs=CLASS_A_SPECS,
        )
        assert set(report.best_fraction) >= {"accuracy", "mcc", "auc"}
        assert all(v in (0.3, 0.5, 0.7) for v in report.best_fraction.values())


class TestModelValidation:
    def _payload(self, **changes):
        payload = json.loads(model_to_json(train("dt", simple_matrix(), seed=0)))
        payload.update(changes)
        return payload

    def test_unknown_algorithm(self):
        text = json.dumps(self._payload(algorithm="mean"))
        with pytest.raises(LearnError, match="unknown algorithm 'mean'"):
            model_from_json(text)

    def test_tree_feature_out_of_range(self):
        payload = self._payload()
        payload["state"]["tree"]["feature"] = 5
        with pytest.raises(LearnError, match="feature 5 is out of range for 1 features"):
            model_from_json(json.dumps(payload))

    def test_tree_threshold_not_a_number(self):
        payload = self._payload()
        payload["state"]["tree"]["threshold"] = "0.5"
        with pytest.raises(LearnError, match="threshold '0.5' is not a number"):
            model_from_json(json.dumps(payload))

    def test_mis_shaped_array(self):
        model = train("lr", simple_matrix(), seed=0)
        payload = json.loads(model_to_json(model))
        payload["state"]["weights"].append(0.0)
        with pytest.raises(LearnError, match="'weights' has shape \\(3,\\), expected \\(2,\\)"):
            model_from_json(json.dumps(payload))

    def test_feature_names_and_kinds_differ_in_length(self):
        text = json.dumps(self._payload(feature_kinds=[RATIO, RATIO]))
        with pytest.raises(LearnError, match="1 feature names but 2 feature kinds"):
            model_from_json(text)

    def test_tree_count_not_a_number(self):
        payload = self._payload()
        payload["state"]["tree"]["left"]["n"] = "2"
        with pytest.raises(LearnError, match="tree node n '2' is not a number"):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize("k", [0, -1, 99, "3", 2.5, True])
    def test_knn_k_outside_the_stored_rows(self, k):
        payload = json.loads(model_to_json(train("knn", simple_matrix(), params={"k": 1})))
        payload["state"]["k"] = k
        with pytest.raises(LearnError, match="knn k must be an integer from 1 to 4"):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize(("algo", "name", "message"), [
        ("lr", "mean", "'mean' has shape \\(\\), expected \\(1,\\)"),
        ("knn", "y", "'X' has shape \\(4, 1\\), expected \\(1, 1\\)"),  # one row per label
    ])
    def test_scalar_where_an_array_belongs(self, algo, name, message):
        payload = json.loads(model_to_json(train(algo, simple_matrix(), params={"k": 1})))
        payload["state"][name] = 5
        with pytest.raises(LearnError, match=message):
            model_from_json(json.dumps(payload))

    def test_lr_weights_not_numbers(self):
        payload = json.loads(model_to_json(train("lr", simple_matrix(), seed=0)))
        payload["state"]["weights"] = ["a", "b"]
        with pytest.raises(LearnError, match="'weights' holds values that are not numbers"):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize("algo", ["lr", "knn"])
    def test_std_not_positive(self, algo):
        payload = json.loads(model_to_json(train(algo, simple_matrix(), params={"k": 1})))
        payload["state"]["std"] = [0.0]
        with pytest.raises(LearnError, match="'std' holds a value that is not positive"):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize(("algo", "name", "value", "message"), [
        ("nb", "prior_fake", "x", "'prior_fake' holds a value that is not a number"),
        ("nb", "prior_fake", True, "'prior_fake' holds a value that is not a number"),
        ("ab", "alphas", "a", "'alphas' holds a value that is not a number"),
        ("rf", "mtry", 1.5, "'mtry' holds a value that is not an integer"),
        ("lr", "iterations", "8", "'iterations' holds a value that is not an integer"),
    ])
    def test_scalar_not_a_number(self, algo, name, value, message):
        payload = json.loads(model_to_json(train(algo, simple_matrix(), seed=0)))
        state = payload["state"]
        state[name] = [value] * len(state[name]) if isinstance(state[name], list) else value
        with pytest.raises(LearnError, match=message):
            model_from_json(json.dumps(payload))

    @pytest.mark.parametrize(("algo", "path", "constant"), [
        ("dt", ("tree", "threshold"), "NaN"),
        ("rf", ("trees", 0, "threshold"), "-Infinity"),
        ("ab", ("alphas", 0), "Infinity"),
        ("knn", ("mean", 0), "Infinity"),
        ("nb", ("prior_fake",), "NaN"),
        ("lr", ("weights", 0), "Infinity"),
    ])
    def test_non_finite_constant(self, algo, path, constant):
        payload = json.loads(model_to_json(train(algo, simple_matrix(), params={"k": 1})))
        container = payload["state"]
        *steps, key = path
        for step in steps:
            container = container[step]
        container[key] = float(constant)  # json.dumps writes the bare constant
        text = json.dumps(payload)
        assert constant in text
        with pytest.raises(LearnError, match=f"{constant} is not a JSON number"):
            model_from_json(text)

    def test_forest_without_trees(self):
        payload = json.loads(model_to_json(train("rf", simple_matrix(), seed=0)))
        payload["state"]["trees"] = []
        with pytest.raises(LearnError, match="rf model has no trees"):
            model_from_json(json.dumps(payload))


def _oracle_entropy(pos, total):
    p = np.where(total > 0, pos / np.where(total > 0, total, 1.0), 0.0)
    q = 1.0 - p
    h = np.zeros_like(p)
    h[p > 0] -= p[p > 0] * np.log2(p[p > 0])
    h[q > 0] -= q[q > 0] * np.log2(q[q > 0])
    return h


def _oracle_split(X, y, w):
    """Column by column: stable argsort, then a 1-D scan over the cuts."""
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        v, wj, fj = X[order, j], w[order], (w * y)[order]
        cuts = np.nonzero(v[1:] != v[:-1])[0]
        if cuts.size == 0:
            continue
        total_w, total_f = float(wj.sum()), float(fj.sum())
        lw, lf = np.cumsum(wj)[cuts], np.cumsum(fj)[cuts]
        rw, rf = total_w - lw, total_f - lf
        parent = float(_oracle_entropy(np.array([total_f]), np.array([total_w]))[0])
        gains = parent - (lw * _oracle_entropy(lf, lw) + rw * _oracle_entropy(rf, rw)) / total_w
        i = int(np.argmax(gains))
        if best is None or gains[i] > best[0]:
            best = (float(gains[i]), j, 0.5 * float(v[cuts[i]] + v[cuts[i] + 1]))
    return best


@st.composite
def split_blocks(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 3))
    tied = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    spread = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    columns = []
    for _ in range(cols):
        kind = draw(st.sampled_from(["tied", "spread", "constant"]))
        if kind == "constant":
            columns.append([draw(tied)] * rows)
        else:
            columns.append(draw(st.lists(tied if kind == "tied" else spread,
                                         min_size=rows, max_size=rows)))
    y = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=rows, max_size=rows))
    if draw(st.booleans()):
        w = [1.0] * rows
    else:
        w = draw(st.lists(st.floats(0.01, 10.0), min_size=rows, max_size=rows))
    return np.array(columns).T, np.array(y), np.array(w)


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(split_blocks())
    def test_node_search_matches_per_column_oracle(self, block):
        X, y, w = block
        order = presort(X)
        values = np.take_along_axis(X.T, order, axis=1)
        found = best_threshold_split(values.T, w[order].T, (w * y)[order].T)
        assert found == _oracle_split(X, y, w)


def _noisy_class_a_dataset():
    ds = synthesize(SynthConfig.paper_like(seed=23, n_humans=120, n_fakes=120))
    rng = make_rng(31)
    flip = {"fake": "human", "human": "fake"}
    labels = {}
    for uid in ds.account_ids:
        label = ds.accounts[uid].label
        labels[uid] = flip[label] if rng.random() < 0.15 else label
    return ds.relabeled(labels)


def _noisy_class_a_matrix():
    return extract(_noisy_class_a_dataset(), CLASS_A_SPECS)


# sha256 of model_to_json: dt, rf and ab recorded before the split search was
# presorted, knn and nb before the state codec was derived from the dataclasses
GOLDEN_MODELS = {
    "dt": (None, "d83314c4d345f8874ac245b82cfbef36275517fa89f2cfee9d8fddd799541e63"),
    "rf": ({"n_trees": 8}, "623ce711c1dcd762f0eba1295a942f03931ec9a2cec283dd7a70d34387fd2ceb"),
    "ab": ({"rounds": 20, "depth": 2},
           "1f44b7d16408e274826915610adc6194a734b8f65b1b2e1f97ecd194e0d6c2b3"),
    "knn": (None, "fcd733f9a8d4f1c7418cb4c6495aa059891e0593121cc2d6a8ac04a4a20fafff"),
    "nb": (None, "c7186c695614b2e6ed2bbf4b1bbc367f013a84e2e5a0a45c9591c781eea9494e"),
}


def test_tree_models_are_byte_identical_to_golden():
    matrix = _noisy_class_a_matrix()
    for algo, (params, digest) in GOLDEN_MODELS.items():
        text = model_to_json(train(algo, matrix, params=params, seed=4))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, algo


# sha256 of lr outputs: cv and sensitivity recorded while each lr fit ran its
# own gradient descent, and unchanged by Newton steps; the model recorded
# with Newton steps, whose weights differ from descent's in the last digits
GOLDEN_LR = {
    "model": "a8b28035e128634e17238d1b553f894da1e58ac443c485d20d3a2323b60d3119",
    "cv": "1a84ea92786ba2a7f8de2f676ae9216712da06f6efa0699a44a092f3d11e1bab",
    "sensitivity": "4768b3f4b52f9ebba337ced9d6ba9e8a3123da5c863d7224776b548ab6fc07a7",
}


def test_lr_outputs_are_byte_identical_to_golden():
    """One model, a 7-fold CV (folds of two sizes) and a dt/nb/lr grid."""
    dataset = _noisy_class_a_dataset()
    matrix = extract(dataset, CLASS_A_SPECS)
    texts = {
        "model": model_to_json(train("lr", matrix, seed=4)),
        "cv": json.dumps(
            cross_validate_matrix("lr", matrix, dataset, k=7, seed=4).as_dict(), sort_keys=True
        ),
        "sensitivity": json.dumps(
            analyze_matrices(
                matrix.take_rows([i for i in range(matrix.n_rows) if i % 3]),
                matrix.take_rows(range(0, matrix.n_rows, 3)),
                algorithms=("dt", "nb", "lr"),
                seed=4,
            ).as_rows(),
            sort_keys=True,
        ),
    }
    for name, text in texts.items():
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_LR[name], name


def test_tree_model_json_round_trips_byte_for_byte():
    matrix = _noisy_class_a_matrix()
    cases = [
        ("dt", None),
        ("dt", {"prune": ("reduced_error", None)}),
        ("dt", {"prune": ("subtree_raising", 0.25)}),
        ("rf", {"n_trees": 8}),
        ("ab", {"rounds": 20, "depth": 2}),
    ]
    for algo, params in cases:
        text = model_to_json(train(algo, matrix, params=params, seed=4))
        assert model_to_json(model_from_json(text)) == text, (algo, params)


def _assert_same_value(trained, loaded):
    """Equal type, and equal bytes and dtype for an array."""
    assert type(loaded) is type(trained)
    if isinstance(trained, list):
        assert len(loaded) == len(trained)
        for a, b in zip(trained, loaded):
            _assert_same_value(a, b)
    elif isinstance(trained, Tree):
        for f in fields(Tree):
            _assert_same_value(getattr(trained, f.name), getattr(loaded, f.name))
    elif isinstance(trained, np.ndarray):
        assert (loaded.dtype, loaded.shape) == (trained.dtype, trained.shape)
        assert loaded.tobytes() == trained.tobytes()
    else:
        assert loaded == trained


@pytest.fixture(scope="module")
def noisy_matrix():
    return _noisy_class_a_matrix()


@pytest.mark.parametrize(("algo", "params"), [
    ("dt", None),
    ("dt", {"prune": "reduced_error"}),
    ("dt", {"prune": ("subtree_raising", 0.25)}),
    ("rf", {"n_trees": 8}),
    ("ab", {"rounds": 20, "depth": 2}),
    ("knn", None),
    ("nb", None),
    ("lr", None),
])
def test_a_loaded_model_is_the_trained_model(noisy_matrix, algo, params):
    trained = train(algo, noisy_matrix, params=params, seed=4)
    loaded = model_from_json(model_to_json(trained))
    assert type(loaded.state) is type(trained.state)
    for f in fields(trained.state):
        _assert_same_value(getattr(trained.state, f.name), getattr(loaded.state, f.name))
    X = noisy_matrix.values
    assert predict_scores(loaded, X).tobytes() == predict_scores(trained, X).tobytes()
    assert unused_columns(loaded) == unused_columns(trained)


def test_trees_deeper_than_the_recursion_limit():
    """Alternating labels on one column grow a tree one row per level."""
    n = 1200
    X = np.arange(n, dtype=np.float64).reshape(-1, 1)
    matrix = make_matrix(X, np.arange(n) % 2)
    model = train("dt", matrix, seed=0)
    stats = model_tree_stats(model)
    assert (stats.nodes, stats.leaves, stats.height) == (2 * n - 1, n, n)
    labels, _ = predict_many(model, X)
    assert labels == ["fake" if i % 2 else "human" for i in range(n)]
    for strategy in ("reduced_error", "subtree_raising"):
        pruned = train("dt", matrix, params={"prune": strategy}, seed=1)
        assert model_tree_stats(pruned).nodes <= stats.nodes
    with pytest.raises(LearnError, match=f"height {n} is nested too deeply"):
        model_to_json(model)
    with pytest.raises(LearnError, match="nested too deeply"):
        model_from_json('{"a":' * 5000 + "1" + "}" * 5000)


def _oracle_walk(node, x):
    while "feature" in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["n_fake"] / node["n"] if node["n"] > 0 else 0.5


def _oracle_scores(model, X):
    """Scores row by row, from a walk of each tree's nested ``to_dict`` form."""
    state = model.state
    if model.algorithm == "dt":
        root = state.root.to_dict()
        return [_oracle_walk(root, x) for x in X]
    roots = [tree.to_dict() for tree in state.trees]
    scores = []
    for x in X:
        if model.algorithm == "rf":
            total = 0.0
            for root in roots:
                total += _oracle_walk(root, x)
            scores.append(total / len(roots))
            continue
        total_alpha = sum(state.alphas)
        if total_alpha <= 0:
            scores.append(0.5)
            continue
        margin = 0.0
        for alpha, root in zip(state.alphas, roots):
            margin += alpha * (1.0 if _oracle_walk(root, x) >= 0.5 else -1.0)
        scores.append((margin / total_alpha + 1.0) / 2.0)
    return scores


@st.composite
def tree_models(draw):
    cols = draw(st.integers(1, 3))
    value = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(
        -1e3, 1e3, allow_nan=False, allow_infinity=False
    )
    row = st.lists(value, min_size=cols, max_size=cols)
    X = np.array(draw(st.lists(row, min_size=4, max_size=30)))
    y = [0, 1] + draw(st.lists(st.sampled_from([0, 1]), min_size=len(X) - 2,
                               max_size=len(X) - 2))
    probe = np.array(draw(st.lists(row, min_size=1, max_size=10)))
    algo = draw(st.sampled_from(["dt", "rf", "ab"]))
    params = {"min_leaf": draw(st.integers(1, 4))}
    if algo == "ab":
        params.update(rounds=draw(st.integers(1, 6)), depth=draw(st.integers(1, 3)))
    else:
        params["max_depth"] = draw(st.none() | st.integers(1, 4))
    if algo == "rf":
        params["n_trees"] = draw(st.integers(1, 4))
    model = train(algo, make_matrix(X, y), params=params, seed=draw(st.integers(0, 99)))
    return model, np.concatenate((X, probe))


@settings(max_examples=150, deadline=None)
@given(tree_models())
def test_routed_scores_match_a_walk_of_the_nested_form(case):
    model, X = case
    trees = [model.state.root] if model.algorithm == "dt" else model.state.trees
    for tree in trees:
        splits = np.flatnonzero(tree.feature >= 0)
        assert np.all(tree.left[splits] > splits) and np.all(tree.right[splits] > splits)
    assert predict_scores(model, X).tolist() == _oracle_scores(model, X)


def _oracle_lr_fit(X, y, ridge, max_iter, tol):
    """One problem, one Newton loop with the same line search; the
    reference `lr_fit` must match bit for bit. Also returns how many
    steps the line search halved at least once."""
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Xs = (X - mean) / std
    n = X.shape[0]
    Xb = np.hstack([np.ones((n, 1)), Xs])
    w = np.zeros(Xb.shape[1])
    penalty_mask = np.ones_like(w)
    penalty_mask[0] = 0.0
    penalty = ridge * penalty_mask

    def loss(z, w):
        log_loss = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0) - y * z
        return log_loss.sum() / n + ridge / 2 * (w[1:] ** 2).sum()

    z = Xb @ w
    current = loss(z, w)
    iterations = halved = 0
    for iterations in range(1, max_iter + 1):
        e = np.exp(-np.abs(z))
        p = np.where(z >= 0, 1.0, e) / (1.0 + e)
        grad = Xb.T @ (p - y) / n + penalty * w
        if math.sqrt(grad.dot(grad)) < tol:
            break
        hessian = Xb.T @ ((p * (1.0 - p))[:, None] * Xb) / n + np.diag(penalty + HESSIAN_FLOOR)
        step = np.linalg.solve(hessian, grad)
        for halvings in range(MAX_HALVINGS + 1):
            trial = w - 0.5 ** halvings * step
            trial_z = Xb @ trial
            trial_loss = loss(trial_z, trial)
            if trial_loss <= current:
                break
        else:  # every halving still rose: keep the weights
            trial, trial_z, trial_loss = w, Xb @ w, current
        halved += halvings > 0
        w, z, current = trial, trial_z, trial_loss
    return mean, std, w, iterations, halved


def _lr_problem(rng, n, d, kind):
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    if kind == "constant":
        X[:, rng.integers(d)] = 3.0
    if kind == "separable":
        y = (X[:, 0] > np.median(X[:, 0])).astype(np.float64)
    else:
        y = (X[:, 0] + rng.normal(scale=2.0, size=n) > 0).astype(np.float64)
    return X, y


def _assert_matches_oracle(problems, ridge, max_iter, tol):
    states = [lr_fit(X, y, ridge=ridge, max_iter=max_iter, tol=tol) for X, y in problems]
    for (X, y), state in zip(problems, states):
        mean, std, w, iterations, _ = _oracle_lr_fit(X, y, ridge, max_iter, tol)
        assert state.iterations == iterations
        assert state.weights.tobytes() == w.tobytes()
        assert state.mean.tobytes() == mean.tobytes()
        assert state.std.tobytes() == std.tobytes()
    return [state.iterations for state in states]


@st.composite
def lr_problems(draw):
    shapes = [(draw(st.integers(4, 60)), draw(st.integers(1, 5))) for _ in range(2)]
    problems = []
    for _ in range(draw(st.integers(1, 6))):
        n, d = shapes[draw(st.integers(0, 1))]
        rng = make_rng(draw(st.integers(0, 2**32 - 1)))
        kind = draw(st.sampled_from(["noisy", "constant", "separable"]))
        problems.append(_lr_problem(rng, n, d, kind))
    ridge = draw(st.sampled_from([1e-3, 0.1]))
    max_iter = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 400))
    tol = draw(st.sampled_from([1e-1, 1e-2, 1e-3, 1e-6]))
    return problems, ridge, max_iter, tol


class TestNewtonLogistic:
    @settings(max_examples=200, deadline=None)
    @given(lr_problems())
    def test_fit_is_bit_identical_to_the_oracle(self, problems):
        _assert_matches_oracle(*problems)

    def test_problems_retire_at_their_own_iteration(self):
        rng = make_rng(5)
        problems = [_lr_problem(rng, 40, 3, "noisy") for _ in range(4)]
        problems += [_lr_problem(rng, 25, 2, "constant"), _lr_problem(rng, 40, 3, "separable")]
        iterations = _assert_matches_oracle(problems, ridge=1e-3, max_iter=400, tol=1e-4)
        assert len(set(iterations[:5])) > 1 and max(iterations[:5]) < 400
        assert iterations[5] < 400  # separable: the ridge bounds the weights Newton reaches

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_tiny_iteration_caps(self, max_iter):
        rng = make_rng(6)
        problems = [_lr_problem(rng, 10, 2, kind) for kind in ("noisy", "constant")]
        assert _assert_matches_oracle(problems, 1e-3, max_iter, 1e-6) == [max_iter] * 2

    def test_converged_at_the_first_iteration(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        assert _assert_matches_oracle([(X, y)], 1e-3, 10, 1e-6) == [1]

    @pytest.mark.parametrize("ridge", [1e-3, 0.0])
    def test_separable_with_a_constant_column(self, ridge):
        X = np.column_stack([np.arange(20.0), np.full(20, 3.0)])
        y = (X[:, 0] >= 10).astype(np.float64)
        state = lr_fit(X, y, ridge=ridge)
        assert np.all(np.isfinite(state.weights)) and state.weights[2] == 0.0
        assert state.iterations < 30
        assert np.array_equal(lr_scores(state, X) >= 0.5, y == 1.0)

    def test_a_rising_step_is_halved_mid_fit(self):
        # ridge 0 and skewed columns: the full Newton step at pass 5 raises
        # the loss, long before the fit converges at pass 17
        X = np.array([[0.79, 56.59, 0.82], [0.26, 0.03, 0.38], [0.09, 0.28, 0.22],
                      [1.38, 0.0, 0.32], [0.02, 0.73, 6.8], [8.58, 0.0, 0.2],
                      [3.1, 0.03, 0.01], [0.0, 17.05, 1.4], [6.23, 0.06, 1.24]])
        y = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        *_, iterations, halved = _oracle_lr_fit(X, y, 0.0, 100, 1e-6)
        assert halved > 0 and iterations < 100
        noisy = _lr_problem(make_rng(8), 9, 3, "noisy")
        assert _assert_matches_oracle([noisy, (X, y), noisy], 0.0, 100, 1e-6)[1] == iterations

    def test_steps_at_the_rounding_floor_keep_the_weights(self):
        # tol 0 is never met: near the optimum every halving still rises
        rng = make_rng(5)
        problems = [_lr_problem(rng, 40, 3, kind) for kind in ("noisy", "constant", "separable")]
        assert _assert_matches_oracle(problems, 1e-3, 60, 0.0) == [60] * 3

    def test_golden_noisy_fit_converges_in_few_steps(self):
        model = train("lr", _noisy_class_a_matrix(), seed=4)
        assert model.state.iterations <= 20

    def test_fold_and_dropped_feature_fits_match_the_oracle(self):
        # the matrices a CV fold and a sensitivity cell hand to `train`
        matrix = _noisy_class_a_matrix()
        matrices = [matrix.take_rows(range(i, matrix.n_rows, 3)) for i in range(3)]
        matrices.append(matrix.drop_feature(matrix.feature_names[0]))
        for part in matrices:
            state = train("lr", part, seed=1).state
            mean, std, w, iterations, _ = _oracle_lr_fit(part.values, part.y01(), 1e-3, 100, 1e-6)
            assert state.iterations == iterations
            assert state.weights.tobytes() == w.tobytes()
            assert (state.mean.tobytes(), state.std.tobytes()) == (mean.tobytes(), std.tobytes())


@st.composite
def distance_rows(draw):
    """Distances with heavy ties (a few distinct values), sometimes NaN or
    infinite, and a k from 1 to their count."""
    n = draw(st.integers(1, 40))
    values = draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, np.inf, np.nan]) | st.floats(0.0, 4.0),
        min_size=n, max_size=n))
    return np.array(values), draw(st.integers(1, n))


@st.composite
def knn_problems(draw):
    """Training and test rows on a coarse grid, so many distances tie, with
    some columns constant, and a k from 1 to the training rows."""
    n, m, d = draw(st.integers(1, 30)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    T = rng.integers(0, 3, size=(m, d)).astype(np.float64)
    for j in draw(st.sets(st.integers(0, d - 1))):
        X[:, j] = T[:, j] = 2.0
    y = rng.integers(0, 2, size=n).astype(np.float64)
    return X, y, T, draw(st.integers(1, n))


class TestKnnSelection:
    @settings(max_examples=300, deadline=None)
    @given(distance_rows())
    def test_nearest_rows_are_the_head_of_the_stable_argsort(self, case):
        d2, k = case
        assert nearest_rows(d2, k).tolist() == np.argsort(d2, kind="stable")[:k].tolist()

    @settings(max_examples=200, deadline=None)
    @given(knn_problems())
    def test_scores_equal_a_full_stable_argsort(self, case):
        X, y, T, k = case
        state = knn_fit(X, y, k=k)
        Ts = (T - state.mean) / state.std
        expected = [
            float(state.y[np.argsort(np.sum((state.X - row) ** 2, axis=1), kind="stable")[:k]]
                  .mean())
            for row in Ts
        ]
        assert knn_scores(state, T).tolist() == expected
