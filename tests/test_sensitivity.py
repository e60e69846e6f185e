"""Leave-one-feature-out sensitivity: locals, fusion, ranking, determinism."""

import numpy as np
import pytest

import fakescope.sensitivity as sensitivity
from fakescope.corpus import SynthConfig, synthesize
from fakescope.features import FeatureSpec
from fakescope.features.catalog import BOOLEAN, CLASS_A_SPECS, RATIO, feature_set
from fakescope.features.extract import FeatureMatrix, extract
from fakescope.learn import predict_scores, train, unused_columns
from fakescope.learn.ensembles import BoostState
from fakescope.learn.model import TrainedModel
from fakescope.seeding import make_rng
from fakescope.sensitivity import (
    SensitivityError,
    analyze_matrices,
    local_sensitivity,
)


def build_matrix(X, y, names, kinds=None, prefix="tr"):
    X = np.asarray(X, dtype=np.float64)
    kinds = kinds or [RATIO] * X.shape[1]
    specs = tuple(
        FeatureSpec(name=n, cost_class="A", source_set="CC", kind=k)
        for n, k in zip(names, kinds)
    )
    return FeatureMatrix(
        specs=specs,
        account_ids=tuple(f"{prefix}{i:05d}" for i in range(X.shape[0])),
        values=X,
        labels=tuple("fake" if v else "human" for v in y),
        provenance={},
    )


def noise_corpus(seed, n, d_noise=4, with_constant=True, prefix="tr"):
    """One perfect boolean column, iid noise columns, one constant column."""
    rng = make_rng(seed)
    y = np.array([1.0] * (n // 2) + [0.0] * (n - n // 2))
    rng.shuffle(y)
    columns = [y.copy()]  # 'perfect'
    names = ["perfect"]
    kinds = [BOOLEAN]
    for j in range(d_noise):
        columns.append(rng.normal(size=n))
        names.append(f"noise{j}")
        kinds.append(RATIO)
    if with_constant:
        columns.append(np.ones(n))
        names.append("always_one")
        kinds.append(BOOLEAN)
    X = np.column_stack(columns)
    return build_matrix(X, y, names, kinds, prefix=prefix)


class TestLocalSensitivity:
    def test_unchanged_model(self):
        assert local_sensitivity(0.9, 0.9) == pytest.approx(1.0)

    def test_halved(self):
        assert local_sensitivity(0.9, 0.45) == pytest.approx(0.5)

    def test_negative_clamps_to_zero(self):
        assert local_sensitivity(0.9, -0.1) == 0.0

    def test_nonpositive_full_mcc_rejected(self):
        with pytest.raises(SensitivityError):
            local_sensitivity(0.0, 0.5)


class TestAnalyze:
    def test_perfect_feature_ranks_first_noise_low(self):
        train = noise_corpus(1, 400, prefix="tr")
        test = noise_corpus(2, 240, prefix="te")
        report = analyze_matrices(train, test, algorithms=("dt", "nb", "lr"), seed=5)
        top = report.scores[0]
        assert top.feature == "perfect"
        assert top.normalized_importance == 1.0
        for score in report.scores[1:]:
            assert score.normalized_importance < 0.5

    def test_constant_feature_ranks_last_with_unit_locals(self):
        train = noise_corpus(3, 400, prefix="tr")
        test = noise_corpus(4, 240, prefix="te")
        report = analyze_matrices(
            train, test, algorithms=("dt", "knn", "nb", "lr"), seed=7
        )
        assert report.ranking()[-1] == "always_one"
        for cell in report.cells:
            if cell.feature == "always_one":
                assert cell.local == pytest.approx(1.0)
                assert cell.changed_predictions == 0

    def test_duplicated_column_leaves_tree_models_unchanged(self):
        rng = make_rng(11)
        n = 300
        y = (rng.random(n) < 0.5).astype(float)
        signal = y + 0.1 * rng.normal(size=n)
        X = np.column_stack([signal, signal, rng.normal(size=n)])
        train = build_matrix(X, y, ["twin_a", "twin_b", "noise"], prefix="tr")
        rng2 = make_rng(12)
        y2 = (rng2.random(120) < 0.5).astype(float)
        signal2 = y2 + 0.1 * rng2.normal(size=120)
        X2 = np.column_stack([signal2, signal2, rng2.normal(size=120)])
        test = build_matrix(X2, y2, ["twin_a", "twin_b", "noise"], prefix="te")
        report = analyze_matrices(train, test, algorithms=("dt",), seed=3)
        for cell in report.cells:
            if cell.feature in ("twin_a", "twin_b"):
                assert cell.local == pytest.approx(1.0)
                assert cell.changed_predictions == 0

    def test_deterministic_across_jobs(self):
        train = noise_corpus(21, 300, prefix="tr")
        test = noise_corpus(22, 200, prefix="te")
        kwargs = dict(algorithms=("dt", "rf", "nb"), seed=9)
        sequential = analyze_matrices(train, test, jobs=1, **kwargs)
        threaded = analyze_matrices(train, test, jobs=4, **kwargs)
        assert sequential.cells == threaded.cells
        assert sequential.scores == threaded.scores

    def test_useless_classifier_excluded_with_warning(self):
        train = noise_corpus(32, 200, prefix="tr")
        test = noise_corpus(33, 150, prefix="te")
        # k equal to the training size votes with the global mean everywhere
        with pytest.warns(UserWarning, match="excluded"):
            report = analyze_matrices(
                train,
                test,
                algorithms=("dt", "knn"),
                seed=2,
                params={"knn": {"k": 200}},
            )
        assert "knn" in report.excluded
        assert "dt" in report.weights

    def test_overlapping_train_test_rejected(self):
        m = noise_corpus(41, 100, prefix="x")
        with pytest.raises(SensitivityError):
            analyze_matrices(m, m, algorithms=("dt",), seed=0)

    def test_weights_sum_to_one(self):
        train = noise_corpus(51, 300, prefix="tr")
        test = noise_corpus(52, 200, prefix="te")
        report = analyze_matrices(train, test, algorithms=("dt", "nb", "lr"), seed=1)
        assert sum(report.weights.values()) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def small_corpora():
    """Class A and Yang train/test matrices of two small synthetic corpora."""
    out = []
    for seed in (3, 19):
        dataset = synthesize(SynthConfig.paper_like(seed=seed, n_humans=70, n_fakes=70))
        ids = dataset.account_ids
        train_set = dataset.subset([u for i, u in enumerate(ids) if i % 4], provenance="train")
        test_set = dataset.subset([u for i, u in enumerate(ids) if not i % 4], provenance="test")
        for specs in (CLASS_A_SPECS, feature_set("yang")):
            out.append((extract(train_set, specs), extract(test_set, specs)))
    return out


class TestSkippedCells:
    """A leave-one-out cell is skipped only where the refit is the full model."""

    @pytest.fixture
    def fitted(self, monkeypatch):
        """The feature names of every matrix each `train_many` call fits."""
        calls = []
        train_many = sensitivity.train_many

        def counting(algorithm, matrices, **kwargs):
            calls.append([matrix.feature_names for matrix in matrices])
            return train_many(algorithm, matrices, **kwargs)

        monkeypatch.setattr(sensitivity, "train_many", counting)
        return calls

    @pytest.mark.parametrize(("algorithm", "params"), [
        ("ab", {"rounds": 20, "depth": 1}),
        ("ab", {"rounds": 20, "depth": 3}),
        ("dt", {}),
        ("dt", {"max_depth": 4}),
    ])
    def test_a_skipped_cell_trained_anyway_predicts_as_the_full_model(
        self, small_corpora, algorithm, params
    ):
        skipped = 0
        for train_matrix, test_matrix in small_corpora:
            full = train(algorithm, train_matrix, params=params, seed=7)
            want = predict_scores(full, test_matrix.values)
            for j in sorted(unused_columns(full)):
                name = train_matrix.feature_names[j]
                refit = train(algorithm, train_matrix.drop_feature(name), params=params, seed=11)
                got = predict_scores(refit, test_matrix.drop_feature(name).values)
                assert got.tobytes() == want.tobytes(), (algorithm, params, name)
                skipped += 1
        assert skipped >= 20

    @pytest.mark.parametrize(("algorithm", "params"), [
        ("rf", {"n_trees": 8}),
        ("lr", {}),
        ("knn", {}),
        ("nb", {}),
        ("dt", {"prune": ("reduced_error", None)}),
        ("dt", {"prune": ("subtree_raising", 0.25)}),
    ])
    def test_seeded_pruned_and_non_tree_fits_skip_nothing(self, fitted, algorithm, params):
        train_matrix = noise_corpus(1, 400, prefix="tr")
        report = analyze_matrices(train_matrix, noise_corpus(2, 240, prefix="te"),
                                  algorithms=(algorithm,), seed=5, params={algorithm: params})
        assert [len(names) for names in fitted] == [len(train_matrix.feature_names)]
        assert len(report.cells) == len(train_matrix.feature_names)

    def test_a_dt_with_one_split_fits_one_cell(self, fitted):
        train_matrix = noise_corpus(1, 400, prefix="tr")
        report = analyze_matrices(train_matrix, noise_corpus(2, 240, prefix="te"),
                                  algorithms=("dt",), seed=5)
        assert fitted == [[train_matrix.drop_feature("perfect").feature_names]]
        for cell in report.cells:
            if cell.feature != "perfect":
                assert (cell.mcc_without, cell.local, cell.changed_predictions) == (
                    cell.mcc_full, 1.0, 0)
        assert report.ranking()[0] == "perfect"

    def test_a_model_without_a_split_leaves_every_column_unused(self):
        matrix = noise_corpus(1, 100)
        leaf = train("dt", matrix, params={"max_depth": 0})
        assert unused_columns(leaf) == frozenset(range(len(matrix.feature_names)))

    def test_boosting_that_stopped_early_leaves_no_column_unused(self):
        matrix = noise_corpus(1, 100)
        full = train("ab", matrix, params={"rounds": 5})
        assert len(full.state.trees) == 5 and unused_columns(full)
        stopped = TrainedModel(
            algorithm="ab", params=full.params, feature_names=full.feature_names,
            feature_kinds=full.feature_kinds, seed=full.seed,
            state=BoostState(alphas=full.state.alphas[:4], trees=full.state.trees[:4]),
        )
        assert unused_columns(stopped) == frozenset()

    @pytest.mark.parametrize(("train_seed", "test_seed", "run_seed"), [(1, 2, 5), (3, 4, 7), (21, 22, 9)])
    def test_report_equals_a_run_that_fits_every_cell(
        self, monkeypatch, train_seed, test_seed, run_seed
    ):
        train_matrix = noise_corpus(train_seed, 300, prefix="tr")
        test_matrix = noise_corpus(test_seed, 200, prefix="te")
        kwargs = dict(algorithms=("dt", "ab", "nb"), seed=run_seed, params={"ab": {"rounds": 10}})
        skipping = analyze_matrices(train_matrix, test_matrix, **kwargs)
        monkeypatch.setattr(sensitivity, "unused_columns", lambda model: frozenset())
        fitting = analyze_matrices(train_matrix, test_matrix, **kwargs)
        assert skipping.cells == fitting.cells
        assert skipping.scores == fitting.scores
        assert skipping.weights == fitting.weights
