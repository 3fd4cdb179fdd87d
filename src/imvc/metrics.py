"""Clustering metrics and the raw-space neighbor-mean imputer.

accuracy() solves the optimal label matching with the Hungarian algorithm
on the contingency table (rectangular tables are fine: unmatched predicted
clusters simply score zero). nmi() normalizes mutual information by the
arithmetic mean of the two entropies. ari() is computed in exact integer
arithmetic with a single final division.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import MultiViewDataset


def _check_pair(pred, truth):
    pred = np.asarray(pred).astype(np.int64)
    truth = np.asarray(truth).astype(np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("prediction/truth length mismatch")
    if pred.size == 0:
        raise ValueError("empty label vectors")
    if pred.min() < 0 or truth.min() < 0:
        raise ValueError("labels must be non-negative")
    return pred, truth


def contingency(pred, truth):
    """Counts table C[p, t] = #{i : pred_i = p and truth_i = t}."""
    pred, truth = _check_pair(pred, truth)
    C = np.zeros((pred.max() + 1, truth.max() + 1), dtype=np.int64)
    np.add.at(C, (pred, truth), 1)
    return C


def accuracy(pred, truth):
    """Clustering accuracy under the best one-to-one label matching."""
    C = contingency(pred, truth)
    rows, cols = linear_sum_assignment(-C)
    return float(C[rows, cols].sum()) / int(C.sum())


def nmi(pred, truth):
    """Mutual information over the arithmetic mean of entropies.

    Returns 0 by convention when either partition has zero entropy
    (e.g. a constant prediction).
    """
    C = contingency(pred, truth)
    n = C.sum()
    a = C.sum(axis=1)  # predicted cluster sizes
    b = C.sum(axis=0)  # true cluster sizes
    h_pred = float(sum((ai / n) * np.log(n / ai) for ai in a if ai > 0))
    h_true = float(sum((bj / n) * np.log(n / bj) for bj in b if bj > 0))
    if h_pred == 0.0 or h_true == 0.0:
        return 0.0
    mi = 0.0
    for i in range(C.shape[0]):
        for j in range(C.shape[1]):
            nij = C[i, j]
            if nij > 0:
                mi += (nij / n) * np.log((n * nij) / (a[i] * b[j]))
    return float(mi / ((h_pred + h_true) / 2.0))


def ari(pred, truth):
    """Adjusted Rand index via exact pair counts.

    Numerator and denominator are built as Python integers, so the single
    closing division is the only rounding step.
    """
    C = contingency(pred, truth)
    n = int(C.sum())
    index = int(sum(int(nij) * (int(nij) - 1) // 2 for nij in C.ravel()))
    A = int(sum(int(ai) * (int(ai) - 1) // 2 for ai in C.sum(axis=1)))
    B = int(sum(int(bj) * (int(bj) - 1) // 2 for bj in C.sum(axis=0)))
    T = n * (n - 1) // 2
    num = 2 * (T * index - A * B)
    den = T * (A + B) - 2 * A * B
    if den == 0:
        # both partitions trivial (all-singletons or one cluster)
        return 1.0
    return num / den


def plugin_impute(dataset, table, k=10):
    """Fill selected missing positions with raw-space neighbor means.

    For each selected position (i, v), candidate donors are samples
    observed in view v that share at least one observed view with i; they
    are ranked by the average of per-shared-view Euclidean distances and
    the k nearest donate the unweighted mean of their view-v rows. All
    fills are computed from the original observed data before any is
    applied. Returns (new dataset, imputed flag matrix); observed cells
    and unselected positions are untouched, and filled cells get mask 1.
    """
    if k < 1:
        raise ValueError(f"need at least one neighbor, got k={k}")
    mask = dataset.mask
    n, V = mask.shape
    new_views = [X.copy() for X in dataset.views]
    new_mask = mask.copy()
    imputed = np.zeros((n, V), dtype=bool)

    selected = [
        (int(i), int(v))
        for (i, v), sel in zip(table.positions, table.selected)
        if sel
    ]
    if not selected:
        return (
            MultiViewDataset(new_views, new_mask, labels=dataset.labels, K=dataset.K),
            imputed,
        )

    # Per-view squared distances over observed pairs, lazily materialized.
    dist_cache = {}

    def view_dist(u):
        if u not in dist_cache:
            obs = np.where(mask[:, u] == 1)[0]
            X = dataset.views[u][obs]
            sq = np.sum(X * X, axis=1)
            d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
            np.maximum(d2, 0.0, out=d2)
            full = np.full((n, n), np.nan)
            full[np.ix_(obs, obs)] = np.sqrt(d2)
            dist_cache[u] = full
        return dist_cache[u]

    fills = []
    for i, v in selected:
        if mask[i, v] != 0:
            raise ValueError(f"position ({i}, {v}) is observed, nothing to impute")
        donors = np.where((mask[:, v] == 1))[0]
        if donors.size == 0:
            raise ValueError(f"no sample observes view {v}; cannot impute")
        shared = (mask[donors] & mask[i][None, :]).astype(bool)  # (n_donors, V)
        usable = shared.any(axis=1)
        donors = donors[usable]
        shared = shared[usable]
        if donors.size == 0:
            raise ValueError(f"no donor shares an observed view with sample {i}")
        dist = np.zeros(donors.size)
        for u in np.where(mask[i] == 1)[0]:
            col = view_dist(u)[i, donors]
            has = shared[:, int(u)]
            dist[has] += col[has]
        dist /= shared.sum(axis=1)
        kk = min(k, donors.size)
        order = np.argsort(dist, kind="stable")[:kk]
        fills.append((i, v, dataset.views[v][donors[order]].mean(axis=0)))

    for i, v, value in fills:
        new_views[v][i] = value
        new_mask[i, v] = 1
        imputed[i, v] = True
    return (
        MultiViewDataset(new_views, new_mask, labels=dataset.labels, K=dataset.K),
        imputed,
    )
