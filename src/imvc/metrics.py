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
from .model import QUERY_BLOCK
from .scoring import view_distances


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
    are ranked by the average of per-shared-view Euclidean distances
    (``scoring.view_distances``; ties go to the lower donor index) and the
    k nearest donate the unweighted mean of their view-v rows. Donors are
    ranked per view over blocks of ``model.QUERY_BLOCK`` querying samples,
    so memory beyond the distance matrices is O(block * N). Fills are
    computed from the original observed data only. Returns (new dataset,
    imputed flag matrix); observed cells and unselected positions are
    untouched, and filled cells get mask 1.
    """
    if k < 1:
        raise ValueError(f"need at least one neighbor, got k={k}")
    mask = dataset.mask.astype(bool)
    V = dataset.n_views
    new_views = [X.copy() for X in dataset.views]
    new_mask = dataset.mask.copy()
    imputed = np.zeros(mask.shape, dtype=bool)
    pos = table.positions[table.selected]
    observed = mask[pos[:, 0], pos[:, 1]]
    if observed.any():
        i, v = pos[observed][0]
        raise ValueError(f"position ({i}, {v}) is observed, nothing to impute")
    views = np.unique(pos[:, 1])
    dists = [view_distances(dataset, u)[1] for u in range(V)] if views.size else []
    # row of each observed sample in its view's distance matrix
    row = np.cumsum(mask, axis=0) - 1
    maskf = mask.astype(np.float64)
    for v in views:
        donors = np.where(mask[:, v])[0]
        if donors.size == 0:
            raise ValueError(f"no sample observes view {v}; cannot impute")
        q = pos[pos[:, 1] == v, 0]
        lonely = q[~(mask[q] & mask[donors].any(axis=0)).any(axis=1)]
        if lonely.size:
            raise ValueError(f"no donor shares an observed view with sample {lonely[0]}")
        X = dataset.views[v]
        for lo in range(0, q.size, QUERY_BLOCK):
            qb = q[lo:lo + QUERY_BLOCK]
            total = np.zeros((qb.size, donors.size))
            for u in range(V):
                a = np.where(mask[qb, u])[0]
                b = np.where(mask[donors, u])[0]
                total[np.ix_(a, b)] += dists[u][np.ix_(row[qb[a], u], row[donors[b], u])]
            count = maskf[qb] @ maskf[donors].T
            usable = count > 0
            # donors sharing a view first, each group by mean distance (NaN
            # last), ties to the lower donor index
            order = np.lexsort((total / np.maximum(count, 1.0), ~usable), axis=1)
            kk = np.minimum(k, usable.sum(axis=1))
            # rows grouped by neighbour count, so each mean reduces a
            # (c, d) slice in the same order as a one-query mean would
            for c in np.unique(kk):
                r = kk == c
                new_views[v][qb[r]] = X[donors[order[r, :c]]].mean(axis=1)
        new_mask[q, v] = 1
        imputed[q, v] = True
    return (
        MultiViewDataset(new_views, new_mask, labels=dataset.labels, K=dataset.K),
        imputed,
    )
