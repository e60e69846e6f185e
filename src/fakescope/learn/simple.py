"""k-nearest-neighbors, naive Bayes, and ridge logistic regression."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import LearnError


def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


@dataclass
class KnnState:
    k: int
    mean: np.ndarray
    std: np.ndarray
    X: np.ndarray  # standardized training rows
    y: np.ndarray


def knn_fit(X: np.ndarray, y: np.ndarray, k: int = 5) -> KnnState:
    if k < 1:
        raise LearnError("k must be positive")
    if k > len(y):
        raise LearnError(f"k={k} exceeds training size {len(y)}")
    mean, std = standardize_fit(X)
    return KnnState(k=k, mean=mean, std=std, X=(X - mean) / std, y=y.copy())


def knn_scores(state: KnnState, X: np.ndarray) -> np.ndarray:
    Xs = (X - state.mean) / state.std
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        d2 = np.sum((state.X - Xs[i]) ** 2, axis=1)
        nearest = np.argsort(d2, kind="stable")[: state.k]
        out[i] = float(state.y[nearest].mean())
    return out


@dataclass
class NaiveBayesState:
    prior_fake: float
    is_bernoulli: np.ndarray  # per feature
    p_fake: np.ndarray  # Bernoulli P(x=1 | class)
    p_human: np.ndarray
    mean_fake: np.ndarray
    mean_human: np.ndarray
    var_fake: np.ndarray
    var_human: np.ndarray


VAR_FLOOR = 1e-9
LAPLACE = 1.0


def nb_fit(
    X: np.ndarray, y: np.ndarray, boolean_mask: np.ndarray | None = None
) -> NaiveBayesState:
    """Gaussian per continuous feature, Bernoulli per boolean feature."""
    if boolean_mask is None:
        boolean_mask = np.all((X == 0.0) | (X == 1.0), axis=0)
    fake = X[y == 1]
    human = X[y == 0]
    if len(fake) == 0 or len(human) == 0:
        raise LearnError("naive Bayes needs both classes")

    def bernoulli(rows: np.ndarray) -> np.ndarray:
        return (rows.sum(axis=0) + LAPLACE) / (rows.shape[0] + 2 * LAPLACE)

    return NaiveBayesState(
        prior_fake=float(len(fake) / len(y)),
        is_bernoulli=np.asarray(boolean_mask, dtype=bool),
        p_fake=bernoulli(fake),
        p_human=bernoulli(human),
        mean_fake=fake.mean(axis=0),
        mean_human=human.mean(axis=0),
        var_fake=fake.var(axis=0) + VAR_FLOOR,
        var_human=human.var(axis=0) + VAR_FLOOR,
    )


def _nb_class_loglik(
    X: np.ndarray,
    state: NaiveBayesState,
    mean: np.ndarray,
    var: np.ndarray,
    p_one: np.ndarray,
) -> np.ndarray:
    mask = state.is_bernoulli
    loglik = np.zeros(X.shape[0])
    if np.any(mask):
        xb = X[:, mask]
        pb = np.clip(p_one[mask], 1e-12, 1 - 1e-12)
        loglik += np.sum(np.where(xb >= 0.5, np.log(pb), np.log(1 - pb)), axis=1)
    cont = ~mask
    if np.any(cont):
        xc = X[:, cont]
        mu = mean[cont]
        v = var[cont]
        loglik += np.sum(-0.5 * (np.log(2 * np.pi * v) + (xc - mu) ** 2 / v), axis=1)
    return loglik


def nb_scores(state: NaiveBayesState, X: np.ndarray) -> np.ndarray:
    log_fake = _nb_class_loglik(X, state, state.mean_fake, state.var_fake, state.p_fake)
    log_human = _nb_class_loglik(X, state, state.mean_human, state.var_human, state.p_human)
    log_fake = log_fake + np.log(max(state.prior_fake, 1e-300))
    log_human = log_human + np.log(max(1 - state.prior_fake, 1e-300))
    top = np.maximum(log_fake, log_human)
    pf = np.exp(log_fake - top)
    ph = np.exp(log_human - top)
    return pf / (pf + ph)


@dataclass
class LogisticState:
    mean: np.ndarray
    std: np.ndarray
    weights: np.ndarray  # [intercept, coefficients...]
    iterations: int


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows: the exponent is at most 0
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def lr_fit(
    X: np.ndarray,
    y: np.ndarray,
    ridge: float = 1e-3,
    max_iter: int = 10_000,
    tol: float = 1e-6,
) -> LogisticState:
    """Gradient descent on the ridge-penalized logistic loss.

    Fixed step size 1/L, where L bounds the loss curvature; the intercept
    is not penalized. Stops at the gradient-norm tolerance or the
    iteration cap.
    """
    mean, std = standardize_fit(X)
    Xs = (X - mean) / std
    n = X.shape[0]
    Xb = np.hstack([np.ones((n, 1)), Xs])
    spectral = float(np.linalg.norm(Xb, 2))
    step = 1.0 / (0.25 * spectral * spectral / n + ridge)
    w = np.zeros(Xb.shape[1])
    penalty_mask = np.ones_like(w)
    penalty_mask[0] = 0.0
    penalty = ridge * penalty_mask
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p = _sigmoid(Xb @ w)
        grad = Xb.T @ (p - y) / n + penalty * w
        if math.sqrt(grad.dot(grad)) < tol:
            break
        w -= step * grad
    return LogisticState(mean=mean, std=std, weights=w, iterations=iterations)


def lr_scores(state: LogisticState, X: np.ndarray) -> np.ndarray:
    Xs = (X - state.mean) / state.std
    Xb = np.hstack([np.ones((X.shape[0], 1)), Xs])
    return _sigmoid(Xb @ state.weights)
