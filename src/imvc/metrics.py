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
from .model import QUERY_BLOCK, check_neighbors, gemm_sq_distances
from .scoring import pattern_blocks, view_distances


# A query block with fewer query x donor pairs than this is ranked without
# the GEMM screen of ``plugin_impute``: there, the screen's fixed cost of
# some 50 numpy calls is more than the exact distances it saves.
SCREEN_MIN_PAIRS = 1 << 15


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
    ``tie`` (one value per column, or per entry: any array that broadcasts
    to key's shape); k is capped at the column count.

    Rows are not sorted whole: ``np.partition`` finds each row's k-th
    smallest key, and only the entries whose key is not above it (NaN
    included) are sorted, packed to the left of one narrow matrix with NaN
    keys after them. Where the k-th key is not NaN the row's k smallest,
    ties included, are among its entries and sort before the padding;
    where it is NaN (fewer than k keys that are not NaN) the entries are
    all the columns, and the row has no padding.
    """
    n, m = key.shape
    k = min(k, m)
    kth = np.partition(key, k - 1, axis=1)[:, k - 1]
    r, c = np.divmod(np.flatnonzero(~(key > kth[:, None])), m)
    count = np.bincount(r, minlength=n)
    slot = np.arange(r.size) - (np.cumsum(count) - count)[r]
    tie = np.broadcast_to(tie, key.shape)
    cols = np.zeros((n, count.max(initial=k)), dtype=np.intp)
    packed_key = np.full(cols.shape, np.nan)
    packed_tie = np.zeros(cols.shape, dtype=tie.dtype)
    cols[r, slot] = c
    packed_key[r, slot] = key[r, c]
    packed_tie[r, slot] = tie[r, c]
    order = np.lexsort((packed_tie, packed_key), axis=1)[:, :k]
    return np.take_along_axis(cols, order, axis=1)


def _by_view(pairs, widths):
    """For each view u that a donor group of ``pairs`` shares, in ascending
    order: ``(u, gs, cuts)``, the groups gs sharing u and the cuts that
    split an array over their columns (``widths[g]`` each, in the order of
    gs) into one part per group."""
    for u in np.unique(np.concatenate([S for _, S in pairs])):
        gs = [g for g, (_, S) in enumerate(pairs) if u in S]
        yield u, gs, np.cumsum([widths[g] for g in gs[:-1]], dtype=np.int64)


def _approx_keys(dataset, sq, qb, pairs):
    """GEMM estimates of a query block's keys, and a bound on their error.

    ``sq`` holds each view's squared row norms. Each view u gets one
    ``model.gemm_sq_distances`` from the view-u rows of ``qb`` to those of
    the donor groups ``(members, S)`` of ``pairs`` that share it; a group's
    estimated key adds sqrt(max(approx_u, 0)) over its views S and divides
    by |S|. Returns ``(approx, margin)``: the (len(qb), total members)
    estimates, the groups' columns in the order of ``pairs``, and per query
    row a margin that bounds how far any estimate in the row lies from its
    exact key. Returns None when ``gemm_sq_distances`` declines a view.

    The margin is the largest over groups of sum_{u in S} sqrt(tol_u) / |S|.
    Per view, the squared estimate and the exact kernel's sum of squares
    differ by less than tol_u / 2, clamping at 0 keeps that, and
    |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), so the distances differ by less
    than sqrt(tol_u / 2). With e = eps, the rest is rounding: both square
    roots (at most 1.5 sqrt(n_u), with n_u = |a|^2 + max |b|^2 as in
    ``gemm_sq_distances``), both sums over S and both divisions add at most
    1.6 (|S| + 1) e sqrt(n_u) per view, and tol_u >= 20 e n_u makes that at
    most 0.51 (|S| + 1) sqrt(e) sqrt(tol_u / 2). Below a million views
    this is far less than the (sqrt(2) - 1) sqrt(tol_u / 2) that the
    margin's sqrt(tol_u) leaves, which also covers the rounding of the
    margin itself and of adding it to a key.
    """
    widths = [members.size for members, _ in pairs]
    approx = np.empty((qb.size, sum(widths)))
    blocks = np.split(approx, np.cumsum(widths[:-1]), axis=1)
    root_tol = {}
    for u, gs, cuts in _by_view(pairs, widths):
        X = dataset.views[u]
        donors = np.concatenate([pairs[g][0] for g in gs])
        screen = gemm_sq_distances(X[qb], sq[u][qb], X[donors], sq[u][donors])
        if screen is None:
            return None
        est, tol = screen
        np.maximum(est, 0.0, out=est)
        for g, part in zip(gs, np.split(est, cuts, axis=1)):
            if u == pairs[g][1][0]:
                np.sqrt(part, out=blocks[g])
            else:
                blocks[g] += np.sqrt(part, out=part)
        root_tol[u] = np.sqrt(tol)
    margin = np.zeros(qb.size)
    for (_, S), block in zip(pairs, blocks):
        block /= float(S.size)
        np.maximum(margin, sum(root_tol[u] for u in S) / S.size, out=margin)
    return approx, margin


def _candidates(approx, margin, pairs, k):
    """The screened candidates of a query block: ``(cand, pad, widths)``.

    ``approx`` and ``margin`` are ``_approx_keys``'. A row's candidates are
    the columns whose estimate is at most its k-th smallest estimate plus
    twice its margin. Donor group g's candidates fill widths[g] columns of
    the (rows, sum of widths) donor array ``cand``, widths[g] the group's
    largest count in a row, in the order of the groups; ``pad`` marks the
    slots that a row leaves empty, which hold the group's first donor.
    """
    n, m = approx.shape[0], len(pairs)
    tie = np.concatenate([members for members, _ in pairs])
    group = np.repeat(np.arange(m), [members.size for members, _ in pairs])
    kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
    r, j = np.divmod(np.flatnonzero(approx <= (kth + 2 * margin)[:, None]), approx.shape[1])
    # the entries of one (row, group) cell are consecutive
    cell = r * m + group[j]
    count = np.bincount(cell, minlength=n * m)
    widths = count.reshape(n, m).max(axis=0)
    col = ((np.cumsum(widths) - widths)[group[j]]
           + np.arange(r.size) - (np.cumsum(count) - count)[cell])
    cand = np.tile(np.repeat([members[0] for members, _ in pairs], widths), (n, 1))
    cand[r, col] = tie[j]
    pad = np.ones(cand.shape, dtype=bool)
    pad[r, col] = False
    return cand, pad, widths


def _nearest(dataset, sq, qb, pairs, k):
    """The k donors nearest to each query of a ``pattern_blocks`` block
    ``(qb, pairs)``, nearest first; ``sq`` holds each view's squared row
    norms.

    Unless the screen declines (``_approx_keys`` returns None), k is not
    below the block's donor count, or the block has fewer than
    ``SCREEN_MIN_PAIRS`` query x donor pairs, only ``_candidates`` get
    exact keys; else every donor does. Either way each donor group's
    columns get the sum of its |S| ``view_distances`` over |S|, from one
    kernel call per shared view for the whole block.
    """
    cand = np.concatenate([members for members, _ in pairs])
    pad = np.zeros(cand.size, dtype=bool)
    widths = [members.size for members, _ in pairs]
    screen = None
    if k < cand.size and qb.size * cand.size >= SCREEN_MIN_PAIRS:
        screen = _approx_keys(dataset, sq, qb, pairs)
    if screen is not None:
        cand, pad, widths = _candidates(*screen, pairs, k)
    # each key adds its shared views' distances to +0.0 in ascending view
    # order (no distance is -0.0, so the first add is a copy)
    key = np.zeros((qb.size, cand.shape[-1]))
    cuts = np.cumsum(widths[:-1], dtype=np.int64)
    blocks = np.split(key, cuts, axis=1)
    cands = np.split(cand, cuts, axis=-1)
    for u, gs, at in _by_view(pairs, widths):
        dist = view_distances(dataset, u, qb, np.concatenate([cands[g] for g in gs], axis=-1))
        for g, part in zip(gs, np.split(dist, at, axis=1)):
            blocks[g] += part
    for (_, S), block in zip(pairs, blocks):
        block /= float(S.size)
    key[np.broadcast_to(pad, key.shape)] = np.inf
    tie = np.broadcast_to(cand, key.shape)
    return tie[np.arange(qb.size)[:, None], _k_nearest(key, k, tie)]


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
    querying samples, so memory is O(block * N). A GEMM screen only
    chooses candidates (``_nearest``): every exact key is within a row's
    margin of its estimate (``_approx_keys``), so a row's exact top k, ties
    included, have estimates within twice the margin of its k-th smallest
    estimate (``_candidates``). Only each query's k nearest candidates are
    sorted (``_k_nearest``, ties broken by donor index), so the order
    equals that of a full sort of every donor. Fills are computed from the
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
    # a huge or stale cell may overflow its norm, which fails the screen's guard
    with np.errstate(over="ignore"):
        sq = [(X * X).sum(axis=1) for X in dataset.views]
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
            new_views[v][qb] = X[_nearest(dataset, sq, qb, pairs, k)].mean(axis=1)
        new_mask[q, v] = 1
        imputed[q, v] = True
    return (
        MultiViewDataset(new_views, new_mask, labels=dataset.labels, K=dataset.K),
        imputed,
    )
