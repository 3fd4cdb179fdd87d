"""Clustering metrics and the raw-space neighbor-mean imputer.

accuracy() solves the optimal label matching with an exact integer
Hungarian method on the contingency table (rectangular tables are fine:
unmatched predicted clusters simply score zero). nmi() normalizes mutual
information by the arithmetic mean of the two entropies. ari() is computed
in exact integer arithmetic with a single final division.
"""

from __future__ import annotations

import numpy as np

from .data import MultiViewDataset, mask_patterns
from .model import QUERY_BLOCK, check_neighbors
from .scoring import pattern_blocks, view_distances


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


def _max_matching(C):
    """Largest sum of C[i, j] over one-to-one matchings of rows to columns.

    The shortest-augmenting-path Hungarian method (Kuhn 1955, in its
    O(n^3) form) minimises max(C) - C on the table zero-padded to square,
    with int64 potentials, so every step is exact. Only the optimal value
    is returned: it is unique even when the matching is not.
    """
    C = np.asarray(C, dtype=np.int64)
    C = C[C.any(axis=1)][:, C.any(axis=0)]  # zero rows/columns add nothing
    n = max(C.shape)
    if n == 0:
        return 0
    gain = np.zeros((n, n), dtype=np.int64)
    gain[: C.shape[0], : C.shape[1]] = C
    cost = gain.max() - gain
    # 1-based rows and columns; column 0 is the virtual start of each
    # augmenting path, row_of[j] the row matched to column j (0 = none)
    big = np.iinfo(np.int64).max
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(n + 1, dtype=np.int64)
    row_of = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = np.full(n + 1, big, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            closer = ~used[1:] & (reduced < minv[1:])
            minv[1:][closer] = reduced[closer]
            way[1:][closer] = j0
            slack = np.where(used[1:], big, minv[1:])
            j0 = int(slack.argmin()) + 1
            delta = slack[j0 - 1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            if row_of[j0] == 0:
                break
        while j0:  # flip the path back to its start
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    return int(gain[row_of[1:] - 1, np.arange(n)].sum())


def accuracy(pred, truth):
    """Clustering accuracy under the best one-to-one label matching."""
    C = contingency(pred, truth)
    return float(_max_matching(C)) / int(C.sum())


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


def _k_nearest(key, k, tie):
    """Columns of each row's k smallest keys, in the order of
    ``np.lexsort((tie, key), axis=1)``: by key with NaN last, equal keys by
    ``tie`` (one value per column); k is capped at the column count.

    Rows are not sorted whole: ``np.partition`` finds each row's k-th
    smallest key, and only the columns whose key is not above it are
    sorted. Where it is finite they hold the k smallest, ties included;
    where it is inf or NaN (fewer than k finite keys) they are all the
    columns.
    """
    n, m = key.shape
    k = min(k, m)
    kth = np.partition(key, k - 1, axis=1)[:, k - 1]
    r, c = np.nonzero(~(key > kth[:, None]))
    c = c[np.lexsort((tie[c], key[r, c], r))]
    count = np.bincount(r, minlength=n)
    start = np.cumsum(count) - count
    return c[start[:, None] + np.arange(k)]


def plugin_impute(dataset, table, k=10):
    """Fill selected missing positions with raw-space neighbor means.

    For each selected position (i, v), candidate donors are samples
    observed in view v that share at least one observed view with i; they
    are ranked by the average of per-shared-view Euclidean distances
    (``scoring.view_distances``, added in ascending view order; ties go to
    the lower donor index, NaN distances rank last) and the k nearest
    donate the unweighted mean of their view-v rows, added nearest first.

    Like ``scoring.info_scores``, each view v is walked by
    ``scoring.pattern_blocks``, in blocks of at most ``model.QUERY_BLOCK``
    querying samples. Each donor group of a block fills its own columns of
    the block's key matrix with one dense sum of its |S| distance blocks
    over |S|, so memory is O(block * N). Within a block only each query's
    k nearest are sorted (``_k_nearest``, ties broken by donor index), and
    the order equals that of a full sort. Fills are computed from the
    original observed data only.

    Returns (new dataset, imputed flag matrix); observed cells and
    unselected positions are untouched, and filled cells get mask 1.
    Raises ValueError unless k is an integer of at least 1.
    """
    check_neighbors(k)
    mask = dataset.mask.astype(bool)
    new_views = [X.copy() for X in dataset.views]
    new_mask = dataset.mask.copy()
    imputed = np.zeros(mask.shape, dtype=bool)
    pos = table.positions[table.selected]
    observed = mask[pos[:, 0], pos[:, 1]]
    if observed.any():
        i, v = pos[observed][0]
        raise ValueError(f"position ({i}, {v}) is observed, nothing to impute")
    patterns = mask_patterns(mask)
    for v in np.unique(pos[:, 1]):
        donors = np.flatnonzero(mask[:, v])
        if donors.size == 0:
            raise ValueError(f"no sample observes view {v}; cannot impute")
        q = pos[pos[:, 1] == v, 0]
        lonely = q[~(mask[q] & mask[donors].any(axis=0)).any(axis=1)]
        if lonely.size:
            raise ValueError(f"no donor shares an observed view with sample {lonely[0]}")
        X = dataset.views[v]
        for qb, pairs in pattern_blocks(patterns, v, q, QUERY_BLOCK):
            tie = np.concatenate([members for members, _ in pairs])
            cuts = np.cumsum([members.size for members, _ in pairs[:-1]], dtype=np.int64)
            key = np.empty((qb.size, tie.size))
            for (members, S), block in zip(pairs, np.split(key, cuts, axis=1)):
                # the kernel sums squares from +0.0, so no distance is
                # -0.0 and copying the first view equals adding it to 0
                block[...] = view_distances(dataset, S[0], qb, members)
                for u in S[1:]:
                    block += view_distances(dataset, u, qb, members)
                block /= float(S.size)
            new_views[v][qb] = X[tie[_k_nearest(key, k, tie)]].mean(axis=1)
        new_mask[q, v] = 1
        imputed[q, v] = True
    return (
        MultiViewDataset(new_views, new_mask, labels=dataset.labels, K=dataset.K),
        imputed,
    )
