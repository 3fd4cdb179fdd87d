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

CORR_FLOOR = 1e-3
CCA_RIDGE = 1e-4
# rows of the distance matrix per GEMM call in view_distances
DIST_BLOCK = 4096


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


def view_distances(dataset, u):
    """Euclidean distances between the samples observed in view u.

    Returns ``(obs, dist)``: the ascending indices of those samples and
    their (m, m) distance matrix, zero on the diagonal. Rows are built by
    the GEMM form |a|^2 + |b|^2 - 2 a.b over blocks of DIST_BLOCK rows.
    """
    obs = dataset.observed(u)
    X = dataset.views[u][obs]
    m = obs.size
    dist = np.zeros((m, m))
    sq = np.sum(X * X, axis=1)
    for start in range(0, m, DIST_BLOCK):
        rows = slice(start, start + DIST_BLOCK)
        block = dist[rows]
        gram = X[rows] @ X.T
        gram *= 2.0
        np.add(sq[rows, None], sq[None, :], out=block)
        block -= gram
        np.maximum(block, 0.0, out=block)
        np.sqrt(block, out=block)
    np.fill_diagonal(dist, 0.0)
    return obs, dist


def pairwise_similarity(dataset, u):
    """Similarity matrix of view u over samples observed in that view.

    sim = (1 - d / d_max)^2 with d from ``view_distances`` and d_max the
    largest observed pairwise distance, so the metric is invariant to
    rescaling the view. Entries involving an unobserved sample are 0 and
    must be guarded by the mask.
    """
    obs, dist = view_distances(dataset, u)
    m = obs.size
    if m < 2:
        raise ValueError(f"view {u} needs at least 2 observed samples, has {m}")
    d_max = dist.max()
    if d_max == 0.0:
        sim_obs = np.ones((m, m))
    else:
        sim_obs = (1.0 - dist / d_max) ** 2
    n = dataset.n_samples
    sim = np.zeros((n, n))
    sim[np.ix_(obs, obs)] = sim_obs
    return sim


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

    Either pass precomputed per-view similarity matrices and a correlation
    matrix, or latents from which the correlations are estimated. Empty
    support sets score 0. Per-position sums are accumulated with exact
    (fsum) summation so the result does not depend on traversal order.
    """
    mask = dataset.mask
    V = dataset.n_views
    if sims is None:
        sims = [pairwise_similarity(dataset, u) for u in range(V)]
    if corr is None:
        if latents is None:
            raise ValueError("need either latents or a correlation matrix")
        corr = view_correlation(latents, dataset)

    if not np.array_equal(np.diag(corr), np.ones(V)):
        raise ValueError("correlation matrix must have a unit diagonal")

    positions = dataset.missing_positions()
    scores = np.zeros(len(positions))
    maskb = mask.astype(bool)
    for p, (i, v) in enumerate(positions):
        shared = maskb & maskb[i][None, :]  # (N, V); column v is False
        members = np.where(maskb[:, v] & shared.any(axis=1))[0]
        if members.size == 0:
            continue
        shared = shared[members]
        sim_rows = np.stack([sims[u][i, members] for u in range(V)], axis=1)
        cross = sim_rows * corr[None, :, v] * shared
        # exactly rounded per-member sums keep the score independent of
        # the traversal order
        num = np.array([math.fsum(row) for row in cross.tolist()])
        den = np.array([math.fsum(row) for row in (corr[None, :, v] * shared).tolist()])
        cross[:, v] = num / den  # intra term: corr-weighted mean, corr[v,v] = 1
        scores[p] = math.fsum(cross.ravel().tolist())
    return InfoTable(
        positions=np.asarray(positions, dtype=np.int64).reshape(len(positions), 2),
        scores=scores,
        selected=np.zeros(len(positions), dtype=bool),
    )


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
