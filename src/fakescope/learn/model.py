"""Training/prediction facade over the six classifiers, plus serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..features.catalog import BOOLEAN
from ..features.extract import FeatureMatrix
from .ensembles import BoostState, ForestState, ab_fit, ab_scores, rf_fit, rf_scores
from .simple import (
    KnnState,
    LogisticState,
    NaiveBayesState,
    knn_fit,
    knn_scores,
    lr_fit_many,
    lr_scores,
    nb_fit,
    nb_scores,
)
from .tree import (
    FAKE_CUT,
    LearnError,
    Tree,
    grow_tree,
    pessimistic_prune,
    reduced_error_prune,
    tree_predict_proba,
    tree_stats,
)

ALGORITHMS = ("dt", "rf", "ab", "knn", "nb", "lr")

MODEL_FORMAT_VERSION = 1
AB_ROUNDS = 50  # boosting rounds when the params name none


@dataclass
class TreeState:
    root: Tree
    X: np.ndarray  # retained training sample, for reduced-error pruning
    y: np.ndarray


@dataclass
class TrainedModel:
    algorithm: str
    params: dict
    feature_names: tuple[str, ...]
    feature_kinds: tuple[str, ...]
    seed: int
    state: object

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


@dataclass(frozen=True)
class Prediction:
    label: str
    score: float


def _check_matrix(matrix: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    X = matrix.values
    if not np.all(np.isfinite(X)):
        raise LearnError("training matrix contains non-finite values")
    y = matrix.y01()
    if y.sum() == 0 or y.sum() == len(y):
        raise LearnError("training data must contain both classes")
    return X, y


def _fit_state(algorithm: str, matrix: FeatureMatrix, params: dict, seed: int):
    """One classifier's state, for every algorithm but lr."""
    X, y = _check_matrix(matrix)
    if algorithm == "dt":
        root = grow_tree(
            X,
            y,
            min_leaf=params.get("min_leaf", 2),
            max_depth=params.get("max_depth"),
        )
        return TreeState(root=root, X=X, y=y)
    if algorithm == "rf":
        return rf_fit(
            X,
            y,
            seed=seed,
            n_trees=params.get("n_trees", 64),
            min_leaf=params.get("min_leaf", 2),
            max_depth=params.get("max_depth"),
            feature_sample=params.get("feature_sample", "sqrt"),
        )
    if algorithm == "ab":
        return ab_fit(
            X,
            y,
            rounds=params.get("rounds", AB_ROUNDS),
            depth=params.get("depth", 1),
            min_leaf=params.get("min_leaf", 2),
        )
    if algorithm == "knn":
        return knn_fit(X, y, k=params.get("k", 5))
    boolean_mask = np.asarray([s.kind == BOOLEAN for s in matrix.specs])
    return nb_fit(X, y, boolean_mask=boolean_mask)


def train_many(
    algorithm: str,
    matrices: Sequence[FeatureMatrix],
    params: Optional[dict],
    seeds: Sequence[int],
) -> list[TrainedModel]:
    """Train one model per matrix, the i-th with ``seeds[i]``.

    lr fits every matrix in one lock-step descent (`lr_fit_many`); the
    other algorithms fit the matrices one by one. Each model equals what
    ``train`` returns for its matrix and seed alone.
    """
    algorithm = algorithm.lower()
    if algorithm not in ALGORITHMS:
        raise LearnError(f"unknown algorithm {algorithm!r}")
    if len(seeds) != len(matrices):
        raise LearnError(f"{len(matrices)} matrices but {len(seeds)} seeds")
    params = dict(params or {})
    if algorithm == "lr":
        states = lr_fit_many(
            [_check_matrix(matrix) for matrix in matrices],
            ridge=params.get("ridge", 1e-3),
            max_iter=params.get("max_iter", 10_000),
            tol=params.get("tol", 1e-6),
        )
    else:
        states = [
            _fit_state(algorithm, matrix, params, seed)
            for matrix, seed in zip(matrices, seeds)
        ]
    models = [
        TrainedModel(
            algorithm=algorithm,
            params=dict(params),
            feature_names=matrix.feature_names,
            feature_kinds=tuple(s.kind for s in matrix.specs),
            seed=seed,
            state=state,
        )
        for matrix, seed, state in zip(matrices, seeds, states)
    ]
    prune_spec = params.get("prune") if algorithm == "dt" else None
    if prune_spec is not None:
        models = [prune(model, prune_spec, seed=model.seed) for model in models]
    return models


def train(
    algorithm: str,
    matrix: FeatureMatrix,
    params: Optional[dict] = None,
    seed: int = 0,
) -> TrainedModel:
    return train_many(algorithm, [matrix], params, [seed])[0]


def unused_columns(model: TrainedModel) -> frozenset:
    """Columns the model's fit provably did not depend on: refitting
    without any one of them gives the same model, with its columns
    renumbered, and so the same predictions.

    That holds for a seedless tree fit that never splits on the column:
    dt without pruning, and ab when it ran all its rounds (an early stop
    is decided by a tree the model does not keep). Every node search
    scores each column on its own and takes the first maximum in column
    order, so dropping a column no node chose changes no split, threshold,
    leaf, boosting weight or alpha. Every other fit (rf, knn, nb, lr,
    pruned dt) gives the empty set.
    """
    state = model.state
    if model.algorithm == "dt" and model.params.get("prune") is None:
        trees = [state.root]
    elif model.algorithm == "ab" and len(state.trees) == model.params.get("rounds", AB_ROUNDS):
        trees = state.trees
    else:
        return frozenset()
    used = set()
    for tree in trees:
        used.update(tree.feature[tree.feature >= 0].tolist())
    return frozenset(range(model.n_features)) - used


def predict_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise LearnError(
            f"expected {model.n_features} features, got shape {X.shape}"
        )
    state = model.state
    if model.algorithm == "dt":
        return tree_predict_proba(state.root, X)
    if model.algorithm == "rf":
        return rf_scores(state, X)
    if model.algorithm == "ab":
        return ab_scores(state, X)
    if model.algorithm == "knn":
        return knn_scores(state, X)
    if model.algorithm == "nb":
        return nb_scores(state, X)
    return lr_scores(state, X)


def predict_many(model: TrainedModel, X: np.ndarray) -> tuple[list[str], np.ndarray]:
    scores = predict_scores(model, X)
    labels = ["fake" if s >= FAKE_CUT else "human" for s in scores]
    return labels, scores


def predict(model: TrainedModel, vector: Sequence[float]) -> Prediction:
    row = np.asarray(vector, dtype=np.float64)
    if row.ndim != 1 or row.shape[0] != model.n_features:
        raise LearnError(
            f"expected a vector of {model.n_features} features, got shape {row.shape}"
        )
    labels, scores = predict_many(model, row.reshape(1, -1))
    return Prediction(label=labels[0], score=float(scores[0]))


def prune(model: TrainedModel, strategy, seed: int = 0) -> TrainedModel:
    """Prune a trained decision tree.

    ``strategy`` is ("reduced_error", folds) or ("subtree_raising",
    confidence); a bare string uses the strategy's default parameter.
    """
    if model.algorithm != "dt":
        raise LearnError("pruning applies to decision trees only")
    if isinstance(strategy, str):
        strategy = (strategy, None)
    name, arg = strategy
    state: TreeState = model.state
    if name == "reduced_error":
        if len(state.y) == 0:
            raise LearnError(
                "reduced_error pruning needs the training sample, which this model "
                "does not carry (a model read from JSON keeps only its tree)"
            )
        folds = int(arg) if arg is not None else 3
        root = reduced_error_prune(state.root, state.X, state.y, folds=folds, seed=seed)
    elif name == "subtree_raising":
        confidence = float(arg) if arg is not None else 0.25
        root = pessimistic_prune(state.root, confidence=confidence)
    else:
        raise LearnError(f"unknown pruning strategy {name!r}")
    params = dict(model.params)
    params["prune"] = (name, arg)
    return TrainedModel(
        algorithm="dt",
        params=params,
        feature_names=model.feature_names,
        feature_kinds=model.feature_kinds,
        seed=model.seed,
        state=TreeState(root=root, X=state.X, y=state.y),
    )


def model_tree_stats(model: TrainedModel):
    if model.algorithm != "dt":
        raise LearnError("tree statistics apply to decision trees only")
    return tree_stats(model.state.root)


def _state_to_json(model: TrainedModel) -> dict:
    state = model.state
    if model.algorithm == "dt":
        return {"tree": state.root.to_dict()}
    if model.algorithm == "rf":
        return {"mtry": state.mtry, "trees": [t.to_dict() for t in state.trees]}
    if model.algorithm == "ab":
        return {"alphas": state.alphas, "trees": [t.to_dict() for t in state.trees]}
    if model.algorithm == "knn":
        return {
            "k": state.k,
            "mean": state.mean.tolist(),
            "std": state.std.tolist(),
            "X": state.X.tolist(),
            "y": state.y.tolist(),
        }
    if model.algorithm == "nb":
        return {
            "prior_fake": state.prior_fake,
            "is_bernoulli": state.is_bernoulli.astype(int).tolist(),
            "p_fake": state.p_fake.tolist(),
            "p_human": state.p_human.tolist(),
            "mean_fake": state.mean_fake.tolist(),
            "mean_human": state.mean_human.tolist(),
            "var_fake": state.var_fake.tolist(),
            "var_human": state.var_human.tolist(),
        }
    return {
        "mean": state.mean.tolist(),
        "std": state.std.tolist(),
        "weights": state.weights.tolist(),
        "iterations": state.iterations,
    }


def _state_from_json(algorithm: str, data: dict, n_features: int):
    if algorithm == "dt":
        root = Tree.from_dict(data["tree"], n_features)
        return TreeState(root=root, X=np.zeros((0, 0)), y=np.zeros(0))
    if algorithm == "rf":
        return ForestState(
            trees=[Tree.from_dict(t, n_features) for t in data["trees"]], mtry=data["mtry"]
        )
    if algorithm == "ab":
        return BoostState(
            alphas=list(data["alphas"]),
            trees=[Tree.from_dict(t, n_features) for t in data["trees"]],
        )
    if algorithm == "knn":
        return KnnState(
            k=data["k"],
            mean=np.asarray(data["mean"]),
            std=np.asarray(data["std"]),
            X=np.asarray(data["X"]),
            y=np.asarray(data["y"]),
        )
    if algorithm == "nb":
        return NaiveBayesState(
            prior_fake=data["prior_fake"],
            is_bernoulli=np.asarray(data["is_bernoulli"], dtype=bool),
            p_fake=np.asarray(data["p_fake"]),
            p_human=np.asarray(data["p_human"]),
            mean_fake=np.asarray(data["mean_fake"]),
            mean_human=np.asarray(data["mean_human"]),
            var_fake=np.asarray(data["var_fake"]),
            var_human=np.asarray(data["var_human"]),
        )
    return LogisticState(
        mean=np.asarray(data["mean"]),
        std=np.asarray(data["std"]),
        weights=np.asarray(data["weights"]),
        iterations=data["iterations"],
    )


def jsonable_params(params: dict) -> dict:
    """``params`` with tuple values as lists, as JSON writes them."""
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()}


def model_to_json(model: TrainedModel) -> str:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "algorithm": model.algorithm,
        "params": jsonable_params(model.params),
        "feature_names": list(model.feature_names),
        "feature_kinds": list(model.feature_kinds),
        "seed": model.seed,
        "state": _state_to_json(model),
    }
    try:
        return json.dumps(payload, sort_keys=True)
    except RecursionError:
        trees = [model.state.root] if model.algorithm == "dt" else model.state.trees
        height = max(tree_stats(tree).height for tree in trees)
        raise LearnError(
            f"a tree of height {height} is nested too deeply for the model format"
        ) from None


def _check_state(model: TrainedModel) -> None:
    """Raises LearnError unless the state of a loaded model can score rows."""
    d = model.n_features
    state = model.state
    if model.algorithm in ("dt", "rf", "ab"):
        if model.algorithm != "dt" and not state.trees:
            raise LearnError(f"{model.algorithm} model has no trees")
        if model.algorithm == "ab" and len(state.alphas) != len(state.trees):
            raise LearnError("boosting model has different numbers of alphas and trees")
        return
    if model.algorithm == "knn":
        arrays = {"mean": (d,), "std": (d,), "X": (len(state.y), d), "y": (len(state.y),)}
    elif model.algorithm == "nb":
        arrays = {name: (d,) for name in (
            "is_bernoulli", "p_fake", "p_human", "mean_fake", "mean_human",
            "var_fake", "var_human")}
    else:
        arrays = {"mean": (d,), "std": (d,), "weights": (d + 1,)}
    for name, shape in arrays.items():
        array = getattr(state, name)
        if array.shape != shape:
            raise LearnError(f"model array {name!r} has shape {array.shape}, expected {shape}")
        if name != "is_bernoulli" and array.dtype.kind not in "fiu":
            raise LearnError(f"model array {name!r} holds values that are not numbers")
    if model.algorithm in ("knn", "lr") and not np.all(state.std > 0):
        raise LearnError("model array 'std' holds a value that is not positive")
    if model.algorithm == "knn" and (type(state.k) is not int or not 1 <= state.k <= len(state.y)):
        raise LearnError(
            f"knn k must be an integer from 1 to {len(state.y)} (the stored rows), "
            f"got {state.k!r}"
        )


def model_from_json(text: str) -> TrainedModel:
    """Reads a model written by ``model_to_json``; a malformed or
    inconsistent model raises LearnError naming the problem."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise LearnError(f"model is not valid JSON: {exc}") from None
    except RecursionError:
        raise LearnError("model JSON is nested too deeply to read") from None
    if not isinstance(payload, dict):
        raise LearnError("model must be a JSON object")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise LearnError(f"unsupported model format {payload.get('format_version')!r}")
    algorithm = payload.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise LearnError(f"unknown algorithm {algorithm!r}")
    try:
        feature_names = tuple(payload["feature_names"])
        model = TrainedModel(
            algorithm=algorithm,
            params=payload["params"],
            feature_names=feature_names,
            feature_kinds=tuple(payload["feature_kinds"]),
            seed=payload["seed"],
            state=_state_from_json(algorithm, payload["state"], len(feature_names)),
        )
    except KeyError as exc:
        raise LearnError(f"model is missing the field {exc.args[0]!r}") from None
    except LearnError:
        raise
    except (TypeError, ValueError) as exc:
        raise LearnError(f"malformed model: {exc}") from None
    if len(model.feature_names) != len(model.feature_kinds):
        raise LearnError(
            f"model has {len(model.feature_names)} feature names "
            f"but {len(model.feature_kinds)} feature kinds"
        )
    _check_state(model)
    return model
