"""Best-threshold split search over a block of presorted columns.

One search serves every caller: the tree learner scans all candidate
features of a node in one pass, the 1-D information gain scans a single
column, and a forest grown in lock-step scans the nodes of each step
together, the candidates of a whole batch of nodes stacked into one call.
Gains are evaluated only where the sorted value changes, and within each
node ties go to the lowest column, then the lowest threshold. A fit sorts
its columns once (`presort`); every node of every tree it grows takes its
sorted rows from that one order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def presort(X: np.ndarray) -> np.ndarray:
    """Stable row order of every column of ``X``, shape (d, n), C order."""
    return np.argsort(np.ascontiguousarray(X.T), axis=1, kind="stable")


def _entropy_pair(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Binary entropy (bits) of pos / total, elementwise; 0 where total <= 0."""
    p = pos / np.where(total > 0, total, np.inf)
    q = 1.0 - p
    # log2(1) = 0 stands in for the 0 * log2(0) term of a pure side
    return (0.0 - p * np.log2(np.where(p > 0, p, 1.0))) - q * np.log2(np.where(q > 0, q, 1.0))


def binary_entropy(pos: float, total: float) -> float:
    if total <= 0:
        return 0.0
    return float(_entropy_pair(np.asarray([pos], float), np.asarray([total], float))[0])


def best_threshold_split(
    values: np.ndarray,
    weights: Optional[np.ndarray],
    weighted_fake: np.ndarray,
    widths: Optional[Sequence[int]] = None,
):
    """Best (gain, column, threshold) for splitting `values[:, column] <= t`.

    All three arguments are (m, k) blocks of m rows and k columns, each
    column sorted ascending by its values: ``weights`` holds the row
    weights (None: every weight is 1) and ``weighted_fake`` the weights
    times the 0/1 labels, in the same order. Weights must be non-negative.
    Column-major blocks (the transpose of a C-order (k, m) array) are used
    without a copy, and each column is then summed like a 1-D array.
    Returns None when no column holds two distinct values.

    With ``widths``, the k columns are the candidates of ``len(widths)``
    nodes of m rows each, node i owning the next ``widths[i]`` (at least
    one) columns; the result is then a list with one (gain, column within
    the node, threshold) or None per node, each equal to what the node's
    columns alone would give, since every column is scored on its own.
    """
    v = np.ascontiguousarray(values.T, dtype=np.float64)
    wf = np.ascontiguousarray(weighted_fake.T, dtype=np.float64)
    k, m = v.shape
    if weights is None:  # unit weights: sums are exact counts
        w = None
        total_w = np.full(k, float(m))
    else:
        w = np.ascontiguousarray(weights.T, dtype=np.float64)
        total_w = w.sum(axis=1)
    if widths is None:
        if m < 2 or k == 0 or total_w[0] <= 0.0:
            return None
    elif m < 2:
        return [None] * len(widths)
    # flat index j * (m - 1) + i of each cut between positions i and i + 1
    cuts = np.flatnonzero(v[:, 1:] != v[:, :-1])
    if widths is not None:
        widths = np.asarray(widths)
        firsts = np.cumsum(widths) - widths  # each node's first column
        if w is not None:  # a node of zero weight has no split
            dead = np.repeat(total_w[firsts] <= 0.0, widths)
            if dead.any():
                cuts = cuts[~dead[cuts // (m - 1)]]
    if cuts.size == 0:
        return None if widths is None else [None] * len(widths)
    column = cuts // (m - 1)
    at = cuts + column  # the same cut as an index into a flat (k, m) block
    if w is None:
        lw = (at - column * m + 1).astype(np.float64)
    else:
        lw = np.cumsum(w, axis=1).ravel()[at]
    lf = np.cumsum(wf, axis=1).ravel()[at]
    total_f = wf.sum(axis=1)
    tw = total_w[column]
    rw = tw - lw
    rf = total_f[column] - lf
    n = cuts.size
    h = _entropy_pair(np.concatenate((lf, rf, total_f)), np.concatenate((lw, rw, total_w)))
    gains = h[2 * n:][column] - (lw * h[:n] + rw * h[n:2 * n]) / tw
    if widths is None:
        best = int(np.argmax(gains))  # first max: lowest column, then lowest threshold
        j = int(column[best])
        i = int(cuts[best]) - j * (m - 1)
        return float(gains[best]), j, 0.5 * float(v[j, i] + v[j, i + 1])
    # Each node's cuts go to its own row of a (nodes, widest * (m - 1))
    # block in (column, cut) order, -inf elsewhere; a row's argmax is then
    # the node's first max, as above.
    nodes, widest = len(widths), int(widths.max())
    slots = np.full((nodes, widest * (m - 1)), -np.inf)
    if (widths == widest).all():
        slots.ravel()[cuts] = gains
    else:  # shift each column to its node's row
        owner = np.repeat(np.arange(nodes), widths)
        shift = (owner * widest - firsts[owner]) * (m - 1)
        slots.ravel()[cuts + shift[column]] = gains
    best = slots.argmax(axis=1)
    peak = slots[np.arange(nodes), best]
    col, i = np.divmod(best, m - 1)
    j = firsts + col
    live = peak > -np.inf
    return [(gain, c, 0.5 * (low + high)) if ok else None
            for ok, gain, c, low, high in zip(live.tolist(), peak.tolist(), col.tolist(),
                                              v[j, i].tolist(), v[j, i + 1].tolist())]
