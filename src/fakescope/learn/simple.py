"""k-nearest-neighbors, naive Bayes, and ridge logistic regression."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def nearest_rows(d2: np.ndarray, k: int) -> np.ndarray:
    """The first k of ``np.argsort(d2, kind="stable")``, ties and NaNs
    included, without sorting every distance: one partition finds the k-th
    smallest, and one stable sort orders the rows at or below it."""
    kth = np.partition(d2, k - 1)[k - 1]
    candidates = np.flatnonzero(~(d2 > kth))  # a NaN kth keeps every row
    return candidates[np.argsort(d2[candidates], kind="stable")[:k]]


def knn_scores(state: KnnState, X: np.ndarray) -> np.ndarray:
    Xs = (X - state.mean) / state.std
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        d2 = np.sum((state.X - Xs[i]) ** 2, axis=1)
        out[i] = float(state.y[nearest_rows(d2, state.k)].mean())
    return out


@dataclass
class NaiveBayesState:
    prior_fake: float
    # per feature; model.json saves it as 0/1 and reads it back as this dtype
    is_bernoulli: np.ndarray = field(metadata={"dtype": bool})
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
    iterations: int  # the pass whose gradient test stopped the fit, else max_iter


# a Newton step that raises the loss is halved, at most this many times; a
# step still rising after them is not taken
MAX_HALVINGS = 30
# added to the Hessian's diagonal, not to the loss: with ridge 0 it keeps the
# Hessian of a constant column, or of saturated margins, invertible
HESSIAN_FLOOR = 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows: the exponent is at most 0
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def lr_fit(
    X: np.ndarray,
    y: np.ndarray,
    ridge: float = 1e-3,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> LogisticState:
    """Damped Newton (IRLS) steps on the ridge-penalized logistic loss: the
    mean log-loss plus ``ridge/2·‖w[1:]‖²``, so the intercept is not
    penalized.

    Each step solves the penalized Hessian against the gradient and halves
    the step until the loss does not rise; a step still rising after
    ``MAX_HALVINGS`` halvings is not taken. The fit stops at the
    gradient-norm tolerance, tested before each step, or at the step cap.
    """
    mean, std = standardize_fit(X)
    n = X.shape[0]
    Xb = np.hstack([np.ones((n, 1)), (X - mean) / std])
    w = np.zeros(Xb.shape[1])
    penalty = np.full_like(w, ridge)
    penalty[0] = 0.0
    curvature = np.diag(penalty + HESSIAN_FLOOR)

    def loss(z: np.ndarray, w: np.ndarray) -> float:
        log_loss = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0) - y * z
        return log_loss.sum() / n + ridge / 2 * (w[1:] ** 2).sum()

    z = Xb @ w
    current = loss(z, w)
    iterations = max_iter
    for it in range(1, max_iter + 1):
        p = _sigmoid(z)
        grad = Xb.T @ (p - y) / n + penalty * w
        if math.sqrt(grad.dot(grad)) < tol:
            iterations = it
            break
        step = np.linalg.solve(Xb.T @ ((p * (1.0 - p))[:, None] * Xb) / n + curvature, grad)
        for halvings in range(MAX_HALVINGS + 1):
            trial = w - 0.5 ** halvings * step
            trial_z = Xb @ trial
            trial_loss = loss(trial_z, trial)
            if trial_loss <= current:  # a NaN loss rises
                w, z, current = trial, trial_z, trial_loss
                break
    return LogisticState(mean=mean, std=std, weights=w, iterations=iterations)


def lr_scores(state: LogisticState, X: np.ndarray) -> np.ndarray:
    Xs = (X - state.mean) / state.std
    Xb = np.hstack([np.ones((X.shape[0], 1)), Xs])
    return _sigmoid(Xb @ state.weights)
