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

Positions are then selected by keeping the top fraction of scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import QUERY_BLOCK

CORR_FLOOR = 1e-3
CCA_RIDGE = 1e-4


@dataclass
class InfoTable:
    """Scores for every missing position plus the selection state.

    positions is (m, 2) int (sample, view) in row-major order; selected
    marks the top-ceil(ratio * m) scores (ties broken by lower sample
    index, then lower view index); tau is the (1 - ratio)-quantile of the
    scores that the selection corresponds to.
    """

    positions: np.ndarray
    scores: np.ndarray
    selected: np.ndarray
    tau: float = float("inf")
    ratio: float = 0.0

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

    One pass of ``view_distances`` over blocks of ``QUERY_BLOCK`` rows, each
    against itself and the later rows, equals the dense matrix's maximum
    because the kernel is symmetric and block-invariant.
    """
    obs = dataset.observed(u)
    if obs.size < 2:
        raise ValueError(f"view {u} needs at least 2 observed samples, has {obs.size}")
    return float(np.max([view_distances(dataset, u, obs[lo:lo + QUERY_BLOCK], obs[lo:]).max()
                         for lo in range(0, obs.size, QUERY_BLOCK)]))


def _inv_sqrt_psd(S):
    w, Q = np.linalg.eigh(S)
    w = np.maximum(w, 1e-12)
    return (Q / np.sqrt(w)) @ Q.T


def first_canonical_correlation(X, Y, ridge=CCA_RIDGE):
    """Top canonical correlation between row-aligned matrices X and Y.

    Mean-centers, whitens both covariances (with a ridge for rank safety)
    and returns the largest singular value of the whitened cross-
    covariance, clamped to [0, 1].
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[0] != Y.shape[0]:
        raise ValueError("row counts differ")
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    Sxx = Xc.T @ Xc / (n - 1) + ridge * np.eye(X.shape[1])
    Syy = Yc.T @ Yc / (n - 1) + ridge * np.eye(Y.shape[1])
    Sxy = Xc.T @ Yc / (n - 1)
    T = _inv_sqrt_psd(Sxx) @ Sxy @ _inv_sqrt_psd(Syy)
    sigma = np.linalg.svd(T, compute_uv=False)[0]
    return float(min(max(sigma, 0.0), 1.0))


def view_correlation(latents, dataset, ridge=CCA_RIDGE, floor=CORR_FLOOR):
    """V x V matrix of first canonical correlations between latent codes.

    latents[v] is an (N, d_z) matrix whose rows are meaningful only where
    view v is observed; each pair is estimated on co-observed samples.
    Pairs with fewer than d_z + 2 co-observed samples fall back to the
    floor (a canonical correlation is meaningless there). Symmetric, unit
    diagonal, off-diagonal clamped to [floor, 1].
    """
    V = dataset.n_views
    for v in range(V):
        if dataset.observed(v).size == 0:
            raise ValueError(f"view {v} has no observed samples")
    d_z = latents[0].shape[1]
    corr = np.eye(V)
    for u in range(V):
        for v in range(u + 1, V):
            both = np.where((dataset.mask[:, u] == 1) & (dataset.mask[:, v] == 1))[0]
            if both.size < d_z + 2:
                c = floor
            else:
                c = first_canonical_correlation(
                    latents[u][both], latents[v][both], ridge=ridge
                )
                c = min(max(c, floor), 1.0)
            corr[u, v] = corr[v, u] = c
    return corr


def info_scores(dataset, latents=None, corr=None, sims=None):
    """Score every missing position; returns an InfoTable with nothing
    selected yet.

    Pass a correlation matrix, or latents from which it is estimated. The
    similarities are streamed by query block from ``view_distances`` and
    each view's ``max_view_distance``, so no N x N array is built; ``sims``
    may instead give one dense (N, N) similarity matrix per view. Empty
    support sets score 0.

    Each target view v is scored over blocks of the samples missing it,
    against every sample observing it; a block holds at most
    ``model.QUERY_BLOCK * N`` (donor, view) terms. Every sum (a member's
    numerator and denominator, a position's total) is the correctly
    rounded sum of ``_fsum_rows``, so each score equals, bit for bit,
    ``math.fsum`` of its terms, whatever the traversal order.
    """
    mask = dataset.mask
    V = dataset.n_views
    n = dataset.n_samples
    if corr is None:
        if latents is None:
            raise ValueError("need either latents or a correlation matrix")
        corr = view_correlation(latents, dataset)

    corr = np.asarray(corr, dtype=np.float64)
    if corr.shape != (V, V):
        raise ValueError(f"correlation matrix must be {V} x {V}, got shape {corr.shape}")
    if not np.array_equal(np.diag(corr), np.ones(V)):
        raise ValueError("correlation matrix must have a unit diagonal")
    if sims is None:
        d_max = [max_view_distance(dataset, u) for u in range(V)]
    else:
        if len(sims) != V:
            raise ValueError(f"need one similarity matrix per view ({V}), got {len(sims)}")
        for u, s in enumerate(sims):
            if np.shape(s) != (n, n):
                raise ValueError(f"similarity matrix of view {u} must be {n} x {n}, "
                                 f"got shape {np.shape(s)}")
        flat_sims = [np.ravel(np.asarray(s, dtype=np.float64)) for s in sims]

    positions = np.asarray(dataset.missing_positions(), dtype=np.int64).reshape(-1, 2)
    scores = np.zeros(len(positions))
    index = np.zeros((n, V), dtype=np.int64)
    index[positions[:, 0], positions[:, 1]] = np.arange(len(positions))
    maskb = mask.astype(bool)
    for v in range(V):
        donors = np.flatnonzero(maskb[:, v])
        queries = np.flatnonzero(~maskb[:, v])
        if donors.size == 0:
            continue
        # a block holds (rows, V, donors) terms: rows of the score sums
        # are contiguous, and the per-member sums run over axis 1
        step = max(1, QUERY_BLOCK * n // (V * donors.size))
        observes = np.ascontiguousarray(maskb[donors].T)
        observers = [np.flatnonzero(o) for o in observes]
        for lo in range(0, queries.size, step):
            qb = queries[lo:lo + step]
            shared = maskb[qb][:, :, None] & observes  # [:, v] is False
            member = shared.any(axis=1)
            if sims is None:
                # (1 - d / d_max)^2 corr[u, v] on the pairs observing u,
                # 0 in every other cell
                cross = np.zeros(shared.shape)
                for u, b in enumerate(observers):
                    a = np.flatnonzero(maskb[qb, u])  # empty for u = v
                    d = view_distances(dataset, u, qb[a], donors[b])
                    sim = np.ones_like(d) if d_max[u] == 0.0 else (1.0 - d / d_max[u]) ** 2
                    cross[:, u][np.ix_(a, b)] = sim * corr[u, v]
            else:
                cells = qb[:, None] * n + donors  # flat (query, donor) indices
                cross = np.empty(shared.shape)
                for u in range(V):
                    np.take(flat_sims[u], cells, out=cross[:, u])
                    cross[:, u] *= corr[u, v]
                cross *= shared
            # non-members are not part of the sum: zero them rather than
            # multiply, so that a NaN similarity there stays out
            rows, cols = np.nonzero(~member)
            cross[rows, :, cols] = 0.0
            num = _fsum_rows(cross.transpose(0, 2, 1))
            den = _fsum_rows((corr[:, v, None] * shared).transpose(0, 2, 1))
            # intra term: corr-weighted mean, corr[v,v] = 1
            np.divide(num, den, out=cross[:, v], where=member)
            scores[index[qb, v]] = _fsum_rows(cross.reshape(qb.size, -1))
    return InfoTable(
        positions=positions,
        scores=scores,
        selected=np.zeros(len(positions), dtype=bool),
    )


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
    tau records the matching score quantile. ratio 0 selects nothing,
    ratio 1 everything.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("selection ratio must lie in [0, 1]")
    m = table.n_missing
    selected = np.zeros(m, dtype=bool)
    if m == 0:
        return InfoTable(table.positions.copy(), table.scores.copy(),
                         selected, tau=float("inf"), ratio=ratio)
    n_keep = math.ceil(ratio * m)
    order = np.lexsort((table.positions[:, 1], table.positions[:, 0], -table.scores))
    selected[order[:n_keep]] = True
    tau = float(np.quantile(table.scores, 1.0 - ratio)) if ratio > 0 else float("inf")
    return InfoTable(table.positions.copy(), table.scores.copy(),
                     selected, tau=tau, ratio=ratio)
