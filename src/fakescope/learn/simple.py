"""k-nearest-neighbors, naive Bayes, and ridge logistic regression."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

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


def _losses(Z: np.ndarray, Y: np.ndarray, W: np.ndarray, ridge: float) -> np.ndarray:
    """Mean log-loss plus ``ridge/2·‖w[1:]‖²`` of each stacked problem, from
    its margins ``Z`` (F, n, 1), labels ``Y`` (F, n, 1) and weights ``W``
    (F, d + 1, 1); every sum runs along one contiguous row, so it adds in
    the order a lone problem's would."""
    log_loss = np.log1p(np.exp(-np.abs(Z))) + np.maximum(Z, 0.0) - Y * Z
    return log_loss[:, :, 0].sum(axis=1) / Z.shape[1] + ridge / 2 * (
        W[:, 1:, 0] ** 2).sum(axis=1)


def lr_fit_many(
    problems: Sequence[tuple[np.ndarray, np.ndarray]],
    ridge: float = 1e-3,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> list[LogisticState]:
    """Damped Newton (IRLS) steps on the ridge-penalized logistic loss of
    each (X, y): the mean log-loss plus ``ridge/2·‖w[1:]‖²``, so the
    intercept is not penalized.

    Each step solves the penalized Hessian against the gradient and halves
    the step until the loss does not rise. A problem stops at the
    gradient-norm tolerance, tested before each step, or at the step cap.
    Problems of one shape step in lock-step: each batched product and
    solve runs the BLAS or LAPACK call a lone fit would make, once per
    problem (`np.einsum` would not), so every state is bit-identical to
    fitting the problems one at a time.
    """
    states: list[Optional[LogisticState]] = [None] * len(problems)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (X, _) in enumerate(problems):
        groups.setdefault(X.shape, []).append(i)
    for (n, d), members in groups.items():
        moments = [standardize_fit(problems[i][0]) for i in members]
        Xa = np.stack([
            np.hstack([np.ones((n, 1)), (problems[i][0] - mean) / std])
            for i, (mean, std) in zip(members, moments)
        ])
        # labels, weights and gradients are stacks of columns, (F, n, 1) and
        # (F, d + 1, 1), so every product is one matrix call per problem
        Ya = np.stack([problems[i][1] for i in members])[:, :, None]
        penalty = np.full((d + 1, 1), ridge)
        penalty[0] = 0.0
        curvature = np.diag(penalty[:, 0] + HESSIAN_FLOOR)
        W = np.zeros((len(members), d + 1, 1))
        XaT = Xa.transpose(0, 2, 1)
        Z = np.matmul(Xa, W)
        loss = _losses(Z, Ya, W, ridge)
        active = np.arange(len(members))
        weights = np.zeros_like(W)
        iterations = np.full(len(members), max_iter)
        for it in range(1, max_iter + 1):
            P = _sigmoid(Z)
            G = np.matmul(XaT, P - Ya) / n + penalty * W
            squared = np.matmul(G.transpose(0, 2, 1), G).ravel()
            converged = [math.sqrt(v) < tol for v in squared.tolist()]
            if any(converged):
                done = np.array(converged)
                weights[active[done]] = W[done]
                iterations[active[done]] = it
                left = ~done
                active, Xa, Ya, W, G, P, loss = (
                    active[left], Xa[left], Ya[left], W[left], G[left], P[left], loss[left])
                if not active.size:
                    break
                XaT = Xa.transpose(0, 2, 1)
            H = np.matmul(XaT, P * (1.0 - P) * Xa) / n + curvature
            D = np.linalg.solve(H, G)
            W, Z, loss = _line_search(Xa, Ya, W, D, loss, ridge)
        weights[active] = W
        for j, i in enumerate(members):
            mean, std = moments[j]
            states[i] = LogisticState(
                mean=mean, std=std, weights=weights[j, :, 0], iterations=int(iterations[j]))
    return states


def _line_search(
    Xa: np.ndarray,
    Ya: np.ndarray,
    W: np.ndarray,
    D: np.ndarray,
    loss: np.ndarray,
    ridge: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each problem's step ``W - t·D`` at the first t of 1, 1/2, 1/4, ...
    whose loss does not exceed ``loss``: its weights, margins and loss. A
    problem whose step still raises the loss after ``MAX_HALVINGS``
    halvings keeps its weights."""
    trial = W - D
    Z = np.matmul(Xa, trial)
    trial_loss = _losses(Z, Ya, trial, ridge)
    rising = np.flatnonzero(~(trial_loss <= loss))  # a NaN loss rises too
    for halvings in range(1, MAX_HALVINGS + 1):
        if not rising.size:
            break
        trial[rising] = W[rising] - 0.5 ** halvings * D[rising]
        Z[rising] = np.matmul(Xa[rising], trial[rising])
        trial_loss[rising] = _losses(Z[rising], Ya[rising], trial[rising], ridge)
        rising = rising[~(trial_loss[rising] <= loss[rising])]
    if rising.size:
        trial[rising] = W[rising]
        Z[rising] = np.matmul(Xa[rising], W[rising])
        trial_loss[rising] = loss[rising]
    return trial, Z, trial_loss


def lr_scores(state: LogisticState, X: np.ndarray) -> np.ndarray:
    Xs = (X - state.mean) / state.std
    Xb = np.hstack([np.ones((X.shape[0], 1)), Xs])
    return _sigmoid(Xb @ state.weights)
