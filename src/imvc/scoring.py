"""Training-free informativeness scoring of missing positions.

Whether a missing position (i, v) is worth imputing is decided before any
imputation happens, from two evidence sources:

  * intra-view: how close sample i is (in view v, approximated through
    co-observed views) to samples that actually observe view v;
  * cross-view: how strongly i's observed views correlate with view v,
    weighted by similarity to each supporting sample.

Support samples for (i, v) are those that observe view v and share at
least one observed view with i. With per-view similarities

    sim_ij^u = (1 - ||x_i^u - x_j^u|| / D_max(u))^2

over observed pairs, a view-correlation matrix corr (first canonical
correlation of latent codes on co-observed samples, diagonal 1), and the
missing-view similarity approximated by the correlation-weighted average

    sim_ij^v = sum_u sim_ij^u corr[u,v] / sum_u corr[u,v]    (u co-observed)

the score, with shared[j,u] marking views that both i and j observe, is

    Info(i, v) = sum_{j in support} ( sim_ij^v + sum_{u != v} sim_ij^u
                                      * corr[u,v] * shared[j,u] ).

For a query i and a donor j, shared[j, :] depends only on the two
samples' observation patterns (the sets of views they observe), so
``info_scores`` works per pair of patterns, walked by ``pattern_blocks``:
each shared view gives one dense block of similarities, computed by the
exact kernel ``view_distances``, and a pair that shares no view holds no
support member and is skipped. ``max_view_distance`` finds D_max(u) by
letting a GEMM pre-filter choose the candidate rows and taking the exact
maximum of ``view_distances`` over those. Positions are then selected by
keeping the top fraction of scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import mask_patterns
from .model import QUERY_BLOCK, gemm_sq_distances

CORR_FLOOR = 1e-3
CCA_RIDGE = 1e-4


@dataclass
class InfoTable:
    """Scores for every missing position plus the selection state.

    positions is (m, 2) int (sample, view) in row-major order; selected
    marks the top-ceil(ratio * m) scores (ties broken by lower sample
    index, then lower view index).
    """

    positions: np.ndarray
    scores: np.ndarray
    selected: np.ndarray

    @property
    def n_missing(self):
        return self.positions.shape[0]

    @property
    def n_selected(self):
        return int(self.selected.sum())


def view_distances(dataset, u, rows, cols):
    """Euclidean distances in view u from samples ``rows`` to samples ``cols``.

    Returns the (len(rows), len(cols)) matrix of sqrt(sum_k (a_k - b_k)^2),
    summed one feature at a time in ascending k with separate elementwise
    subtract, multiply and add: no GEMM, no FMA and no reduction whose
    order depends on the array shape. Each entry is thus the same sequence
    of IEEE operations whatever else the call holds, so any block of rows
    and columns gives bit-equal values, and the matrix is exactly symmetric.
    """
    X = dataset.views[u]
    A = np.ascontiguousarray(X[rows].T)
    B = np.ascontiguousarray(X[cols].T)
    acc = np.zeros((A.shape[1], B.shape[1]))
    diff = np.empty_like(acc)
    for a, b in zip(A, B):
        np.subtract(a[:, None], b, out=diff)
        np.multiply(diff, diff, out=diff)
        acc += diff
    return np.sqrt(acc, out=acc)


def max_view_distance(dataset, u):
    """d_max of view u: the largest distance between two samples observing it.

    A GEMM pre-filter (``model.gemm_sq_distances`` over the upper triangle,
    in blocks of ``QUERY_BLOCK`` rows) only chooses candidate rows: those
    whose largest approximate squared distance is within its rounding
    margin of the overall largest. Every value comes from one blocked pass
    of ``view_distances`` over the candidates, each row block against
    itself and the later rows; its maximum equals the dense matrix's,
    because both rows of a pair attaining it are candidates and the kernel
    is symmetric and block-invariant. When a squared norm fails the
    filter's guard, the pass runs over every observer.
    """
    obs = dataset.observed(u)
    if obs.size < 2:
        raise ValueError(f"view {u} needs at least 2 observed samples, has {obs.size}")
    X = dataset.views[u][obs]
    sq = (X * X).sum(axis=1)
    # top[i]: the largest approximate squared distance of row i, from the
    # blocks of the upper triangle (its row and its column)
    top = np.full(obs.size, -np.inf)
    margin = 0.0
    for lo in range(0, obs.size, QUERY_BLOCK):
        hi = lo + QUERY_BLOCK
        screen = gemm_sq_distances(X[lo:hi], sq[lo:hi], X[lo:], sq[lo:])
        if screen is None:
            break
        approx, tol = screen
        np.maximum(top[lo:hi], approx.max(axis=1), out=top[lo:hi])
        np.maximum(top[lo:], approx.max(axis=0), out=top[lo:])
        margin = max(margin, float(tol.max()))
    else:
        # A pair (i, j) attaining the exact maximum has an approximate
        # value within margin / 2 of it, and the pair attaining top.max()
        # an exact value within margin / 2 of that, so top[i] and top[j]
        # are both at least top.max() - margin.
        obs = obs[top >= top.max() - margin]
    return float(np.max([view_distances(dataset, u, obs[lo:lo + QUERY_BLOCK], obs[lo:]).max()
                         for lo in range(0, obs.size, QUERY_BLOCK)]))


def _inv_sqrt_psd(S):
    w, Q = np.linalg.eigh(S)
    w = np.maximum(w, 1e-12)
    return (Q / np.sqrt(w)) @ Q.T


def first_canonical_correlation(X, Y):
    """Top canonical correlation between row-aligned matrices X and Y.

    Mean-centers, whitens both covariances (with a ridge of ``CCA_RIDGE``
    for rank safety) and returns the largest singular value of the
    whitened cross-covariance, clamped to [0, 1].
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[0] != Y.shape[0]:
        raise ValueError("row counts differ")
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    Sxx = Xc.T @ Xc / (n - 1) + CCA_RIDGE * np.eye(X.shape[1])
    Syy = Yc.T @ Yc / (n - 1) + CCA_RIDGE * np.eye(Y.shape[1])
    Sxy = Xc.T @ Yc / (n - 1)
    T = _inv_sqrt_psd(Sxx) @ Sxy @ _inv_sqrt_psd(Syy)
    sigma = np.linalg.svd(T, compute_uv=False)[0]
    return float(min(max(sigma, 0.0), 1.0))


def view_correlation(latents, dataset):
    """V x V matrix of first canonical correlations between latent codes.

    latents[v] is an (N, d_z) matrix whose rows are meaningful only where
    view v is observed; each pair is estimated on co-observed samples.
    Pairs with fewer than d_z + 2 co-observed samples fall back to
    ``CORR_FLOOR`` (a canonical correlation is meaningless there).
    Symmetric, unit diagonal, off-diagonal clamped to [CORR_FLOOR, 1].
    """
    dataset.check_views_observed()
    V = dataset.n_views
    d_z = latents[0].shape[1]
    corr = np.eye(V)
    for u in range(V):
        for v in range(u + 1, V):
            both = np.where((dataset.mask[:, u] == 1) & (dataset.mask[:, v] == 1))[0]
            if both.size < d_z + 2:
                c = CORR_FLOOR
            else:
                c = first_canonical_correlation(latents[u][both], latents[v][both])
                c = min(max(c, CORR_FLOOR), 1.0)
            corr[u, v] = corr[v, u] = c
    return corr


def pattern_blocks(patterns, v, queries, step):
    """The walk over observation patterns for target view v.

    ``patterns`` is ``data.mask_patterns``' (kinds, pattern) of a boolean
    mask and ``queries`` are samples that miss view v. The donors, the
    samples observing v, are grouped by pattern Q. For each pattern P of
    the queries this yields blocks ``(qb, pairs)`` of at most ``step``
    queries of pattern P, in the order of ``queries``, with ``pairs`` the
    list of ``(members, S)``: a donor group's samples and the views S = P &
    Q that it shares with P, for each group with S non-empty. A pattern
    that shares no view with any donor yields nothing.
    """
    kinds, pattern = patterns
    donors = np.flatnonzero(kinds[pattern, v])
    groups = [(kinds[q], donors[pattern[donors] == q])
              for q in np.unique(pattern[donors]).tolist()]
    for p in np.unique(pattern[queries]).tolist():
        pairs = [(members, S) for kind, members in groups
                 if (S := np.flatnonzero(kinds[p] & kind)).size]
        if not pairs:
            continue
        qp = queries[pattern[queries] == p]
        for lo in range(0, qp.size, step):
            yield qp[lo:lo + step], pairs


def info_scores(dataset, corr):
    """Score every missing position under the V x V view correlations
    ``corr``; returns an InfoTable with nothing selected yet.

    ``corr`` needs a unit diagonal and finite, non-negative off-diagonal
    entries; anything else raises ValueError.

    Each target view v is scored by the blocks of ``pattern_blocks``. For a
    block of queries and a donor group, each shared view u in S gives one
    dense block of cross terms ``(1 - d / d_max)^2 * corr[u, v]``, with d
    from ``view_distances`` and d_max from ``max_view_distance``. A
    member's intra term is the sum of its |S| cross terms over the pair's
    one denominator, the sum of corr[S, v]. A query in no block has an
    empty support set and scores 0. Only these terms are summed, and a
    block holds at most ``model.QUERY_BLOCK * N`` of them, so no N x N
    array is built.

    Every sum (a member's numerator and denominator, a position's total)
    is the correctly rounded sum of ``_fsum_rows`` or ``math.fsum``, so
    each score equals, bit for bit, ``math.fsum`` of its terms, whatever
    the traversal order.
    """
    V = dataset.n_views
    n = dataset.n_samples
    corr = np.asarray(corr, dtype=np.float64)
    if corr.shape != (V, V):
        raise ValueError(f"correlation matrix must be {V} x {V}, got shape {corr.shape}")
    if not np.array_equal(np.diag(corr), np.ones(V)):
        raise ValueError("correlation matrix must have a unit diagonal")
    off = corr[~np.eye(V, dtype=bool)]
    if not (np.isfinite(off) & (off >= 0.0)).all():
        raise ValueError("correlation matrix must have finite, non-negative "
                         "off-diagonal entries")
    d_max = [max_view_distance(dataset, u) for u in range(V)]

    grid = np.zeros((n, V))
    maskb = dataset.mask.astype(bool)
    patterns = mask_patterns(maskb)
    for v in range(V):
        # a pattern pair gives |S| + 1 terms per (query, donor) and
        # |S| < V, so a block of `step` queries holds < step * V * donors
        step = max(1, QUERY_BLOCK * n // (V * int(maskb[:, v].sum())))
        for qb, pairs in pattern_blocks(patterns, v, np.flatnonzero(~maskb[:, v]), step):
            terms = []
            for members, S in pairs:
                cross = [_similarity(dataset, u, qb, members, d_max[u], corr[u, v])
                         for u in S]
                terms += cross
                terms.append(_fsum_rows(np.stack(cross, axis=-1))
                             / math.fsum(corr[S, v].tolist()))
            grid[qb, v] = _fsum_rows(np.hstack(terms))
    # the (i, v) pairs with mask 0, row-major like grid[missing]
    missing = dataset.mask == 0
    positions = np.argwhere(missing)
    return InfoTable(
        positions=positions,
        scores=grid[missing],
        selected=np.zeros(len(positions), dtype=bool),
    )


def _similarity(dataset, u, rows, cols, d_max, c):
    """(1 - d / d_max)^2 * c over view u's distances d from rows to cols."""
    sim = view_distances(dataset, u, rows, cols)
    if d_max == 0.0:
        sim.fill(1.0)
    else:
        sim /= d_max
        np.subtract(1.0, sim, out=sim)
        np.square(sim, out=sim)
    sim *= c
    return sim


def _fsum_rows(A):
    """Sums over the last axis of A, each equal to ``math.fsum`` of its row.

    A row with at most two nonzero terms is summed by IEEE addition, which
    rounds the one inexact add correctly. A wider row is split by one
    error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation I", 2008) into high parts that sum exactly and small
    remainders; their rounded total is kept only when ``_certified_rows``
    proves it is the correctly rounded sum. The rest, non-finite rows
    included, go to ``math.fsum``, which also raises where it would.
    """
    A = np.asarray(A, dtype=np.float64)
    narrow = np.count_nonzero(A, axis=-1) <= 2
    with np.errstate(invalid="ignore", over="ignore"):
        if narrow.all():
            out, ok = _added_rows(A)
        else:
            out, ok = _certified_rows(A)
            if narrow.any():
                out[narrow], ok[narrow] = _added_rows(A[narrow])
    if not ok.all():
        for r in zip(*np.nonzero(~ok)):
            out[r] = math.fsum(A[r].tolist())
    return out


def _added_rows(A):
    # + 0.0 turns a -0.0 sum into the 0.0 that fsum returns
    s = A.sum(axis=-1) + 0.0
    return s, np.isfinite(s)


# one extraction needs 2 * width * max|a| to stay well inside the normal range
_EXTRACT_MIN = 2.0 ** -900
_EXTRACT_MAX = 2.0 ** 900
_UNIT_ROUNDOFF = 2.0 ** -53


def _certified_rows(A):
    """Rounded row sums of A and whether each is certified correctly rounded.

    A total is certified when its TwoSum error plus a bound on the rounding
    error of the remainders' sum is strictly under half the gap to the
    neighbouring double, or when the remainders provably add up exactly.
    """
    w = A.shape[-1]
    big = np.maximum(A.max(axis=-1), -A.min(axis=-1))
    sane = (big >= _EXTRACT_MIN) & (big <= _EXTRACT_MAX)
    # sigma = 2^k >= 2 w max|a|: q = (sigma + a) - sigma is a multiple of
    # sigma u, and |q| <= sigma / 2w + sigma u, so every partial sum of q
    # is exact; the remainder a - q is exact with |a - q| <= sigma u
    sigma = np.ldexp(1.0, np.frexp(np.where(sane, 2.0 * w * big, 1.0))[1])[..., None]
    q = np.add(sigma, A)
    q -= sigma
    high = q.sum(axis=-1)
    low = np.subtract(A, q, out=q).sum(axis=-1)
    total = high + low
    # TwoSum: high + low - total, exactly
    b = total - high
    err = (high - (total - b)) + (low - b)
    # rounding error of low: gamma_{w-1} * w * sigma * u <= 2 w^2 u^2 sigma
    bound = np.abs(err) + (2.0 * w * w * _UNIT_ROUNDOFF * _UNIT_ROUNDOFF) * sigma[..., 0]
    # half the gap to the nearer neighbour of |total| (the one below it)
    mag = np.abs(total)
    half_gap = (mag - np.nextafter(mag, 0.0)) * 0.5
    certain = sane & (bound < half_gap)
    # The remainders are multiples of min(sigma u, ulp of the smallest
    # nonzero term). When that term is at least w sigma u, every partial
    # sum of them fits that grid, so low is exact and total is the
    # correctly rounded sum even at a tie.
    doubt = sane & ~certain
    if doubt.any():
        terms = np.abs(A[doubt])
        smallest = np.min(terms, axis=-1, where=terms > 0, initial=np.inf)
        certain[doubt] = smallest >= w * sigma[doubt, 0] * _UNIT_ROUNDOFF
    return total, certain


def select_positions(table, ratio):
    """Keep the top ceil(ratio * m) scored positions.

    Ties at the cutoff are broken by lower sample index, then lower view
    index, so selections are reproducible and nest as the ratio grows.
    ratio 0 selects nothing, ratio 1 everything.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("selection ratio must lie in [0, 1]")
    m = table.n_missing
    selected = np.zeros(m, dtype=bool)
    if m:
        order = np.lexsort((table.positions[:, 1], table.positions[:, 0], -table.scores))
        selected[order[:math.ceil(ratio * m)]] = True
    return InfoTable(table.positions.copy(), table.scores.copy(), selected)
