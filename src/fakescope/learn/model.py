"""Training/prediction facade over the six classifiers, plus serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from ..features.catalog import BOOLEAN
from ..features.extract import FeatureMatrix
from .ensembles import AB_ROUNDS, BoostState, ForestState, ab_fit, ab_scores, rf_fit, rf_scores
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

# The params keys each algorithm's fit takes; each default lives in the fit's
# signature (grow_tree, rf_fit, ab_fit, knn_fit, lr_fit_many). dt also takes
# "prune", applied after the fit. Keys an algorithm does not take are ignored.
FIT_PARAMS = {
    "dt": ("min_leaf", "max_depth"),
    "rf": ("n_trees", "min_leaf", "max_depth", "feature_sample"),
    "ab": ("rounds", "depth", "min_leaf"),
    "knn": ("k",),
    "nb": (),
    "lr": ("ridge", "max_iter", "tol"),
}

MODEL_FORMAT_VERSION = 1
UNSAVED = {"saved": False}  # field metadata: a state field model.json leaves out


@dataclass
class TreeState:
    root: Tree = field(metadata={"key": "tree"})
    # the training sample, for reduced-error pruning; a model read from JSON has none
    X: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)), metadata=UNSAVED)
    y: np.ndarray = field(default_factory=lambda: np.zeros(0), metadata=UNSAVED)


STATES = {"dt": TreeState, "rf": ForestState, "ab": BoostState, "knn": KnnState,
          "nb": NaiveBayesState, "lr": LogisticState}


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


def _fit_state(algorithm: str, matrix: FeatureMatrix, fit_params: dict, seed: int):
    """One classifier's state, for every algorithm but lr."""
    X, y = _check_matrix(matrix)
    if algorithm == "dt":
        return TreeState(root=grow_tree(X, y, **fit_params), X=X, y=y)
    if algorithm == "rf":
        return rf_fit(X, y, seed=seed, **fit_params)
    if algorithm == "ab":
        return ab_fit(X, y, **fit_params)
    if algorithm == "knn":
        return knn_fit(X, y, **fit_params)
    boolean_mask = np.asarray([s.kind == BOOLEAN for s in matrix.specs])
    return nb_fit(X, y, boolean_mask=boolean_mask)


def train_many(
    algorithm: str,
    matrices: Sequence[FeatureMatrix],
    params: Optional[dict],
    seeds: Sequence[int],
) -> list[TrainedModel]:
    """Train one model per matrix, the i-th with ``seeds[i]``.

    lr fits every matrix in one lock-step Newton loop (`lr_fit_many`); the
    other algorithms fit the matrices one by one. Each model equals what
    ``train`` returns for its matrix and seed alone.
    """
    algorithm = algorithm.lower()
    if algorithm not in ALGORITHMS:
        raise LearnError(f"unknown algorithm {algorithm!r}")
    if len(seeds) != len(matrices):
        raise LearnError(f"{len(matrices)} matrices but {len(seeds)} seeds")
    params = dict(params or {})
    fit_params = {name: params[name] for name in FIT_PARAMS[algorithm] if name in params}
    if algorithm == "lr":
        states = lr_fit_many([_check_matrix(matrix) for matrix in matrices], **fit_params)
    else:
        states = [
            _fit_state(algorithm, matrix, fit_params, seed)
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
        given = {} if arg is None else {"folds": int(arg)}
        root = reduced_error_prune(state.root, state.X, state.y, seed=seed, **given)
    elif name == "subtree_raising":
        given = {} if arg is None else {"confidence": float(arg)}
        root = pessimistic_prune(state.root, **given)
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


def _saved_fields(state_type) -> list:
    return [f for f in fields(state_type) if f.metadata.get("saved", True)]


def _encoded(value):
    if isinstance(value, Tree):
        return value.to_dict()
    if isinstance(value, list):
        return [_encoded(item) for item in value]
    if isinstance(value, np.ndarray):
        return (value.astype(int) if value.dtype == bool else value).tolist()
    return value


def _decoded(declared, value, n_features: int, dtype=None):
    """``value`` read back as the type a state field ``declared``."""
    if declared is Tree:
        return Tree.from_dict(value, n_features)
    if get_origin(declared) is list:
        (item,) = get_args(declared)
        return [_decoded(item, v, n_features) for v in value]
    if declared is np.ndarray:
        return np.asarray(value, dtype=dtype)
    return value


def _state_to_json(model: TrainedModel) -> dict:
    state = model.state
    return {f.metadata.get("key", f.name): _encoded(getattr(state, f.name))
            for f in _saved_fields(state)}


def _state_from_json(algorithm: str, data: dict, n_features: int):
    state_type = STATES[algorithm]
    declared = get_type_hints(state_type)
    return state_type(**{
        f.name: _decoded(declared[f.name], data[f.metadata.get("key", f.name)], n_features,
                         f.metadata.get("dtype"))
        for f in _saved_fields(state_type)
    })


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
    saved = [(f, getattr(state, f.name)) for f in _saved_fields(state)]
    lists = {f.name: len(value) for f, value in saved if isinstance(value, list)}
    if len(set(lists.values())) > 1:  # every list holds one entry per tree
        raise LearnError(
            f"{model.algorithm} model has different numbers of {' and '.join(lists)}")
    if 0 in lists.values():
        raise LearnError(f"{model.algorithm} model has no trees")
    rows = np.size(getattr(state, "y", ()))
    shapes = {"X": (rows, d), "y": (rows,), "weights": (d + 1,)}  # others: one per feature
    for f, array in saved:
        if not isinstance(array, np.ndarray):
            continue
        shape = shapes.get(f.name, (d,))
        if array.shape != shape:
            raise LearnError(f"model array {f.name!r} has shape {array.shape}, expected {shape}")
        if "dtype" not in f.metadata and array.dtype.kind not in "fiu":
            raise LearnError(f"model array {f.name!r} holds values that are not numbers")
        if f.name == "std" and not np.all(array > 0):
            raise LearnError("model array 'std' holds a value that is not positive")
    if model.algorithm == "knn" and (type(state.k) is not int or not 1 <= state.k <= rows):
        raise LearnError(
            f"knn k must be an integer from 1 to {rows} (the stored rows), got {state.k!r}"
        )
    declared = get_type_hints(type(state))
    for f, value in saved:
        kind, values = declared[f.name], [value]
        if get_origin(kind) is list:
            (kind,), values = get_args(kind), value
        # bool is an int subclass, and JSON true/false are not counts or weights
        numbers = (int,) if kind is int else (int, float) if kind is float else None
        if numbers and not all(type(v) in numbers for v in values):
            what = "an integer" if kind is int else "a number"
            raise LearnError(f"model field {f.name!r} holds a value that is not {what}")


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
