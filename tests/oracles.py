"""Per-sample reference implementations of batched pipeline steps.

The library computes imputation, fusion and the coherence term densely
over all samples at once (``model.impute_all``, ``model.fuse``,
``model.loss_and_grads``). These functions redo the same arithmetic one
sample and one position at a time, in the form the method is usually
written down, so the tests can compare the two. ``impute_all_bruteforce``
is the dense imputation without the blocked neighbour search: the full
query x donor distance matrix and a stable argsort.
``plugin_impute_per_position`` ranks the raw-feature donors of
``metrics.plugin_impute`` one selected position at a time, from dense
N x N distance matrices per view.
"""

import numpy as np

from imvc.data import MultiViewDataset
from imvc.model import GaussianPosterior, aggregate_observed, fuse, w2_distance


def _row(post, i):
    return GaussianPosterior(post.mu[i], post.var[i])


def impute_distribution(dataset, table, aggregated, view_posteriors, i, v, k=10):
    """Posterior parameters for missing view v of sample i from latent
    neighbors.

    Neighbors are the k samples observing view v whose fused posteriors
    are closest to sample i's (2-Wasserstein on the pre-imputation
    aggregates); softmax(-distance) weights average their view-v means and
    variances, and the weighted dispersion of their means is added to the
    variance (imputation uncertainty).
    """
    if table is not None:
        sel = dict(zip(map(tuple, table.positions.tolist()), table.selected))
        if not sel.get((int(i), int(v)), False):
            raise ValueError(f"position ({i}, {v}) was not selected for imputation")
    donors = np.where(dataset.mask[:, v] == 1)[0]
    if donors.size == 0:
        raise ValueError(f"no sample observes view {v}; cannot impute")
    dist = w2_distance(_row(aggregated, i), _row(aggregated, donors))
    k = min(int(k), donors.size)
    order = np.argsort(dist, kind="stable")[:k]
    nearest = donors[order]
    dn = dist[order]
    # softmax over negated distances
    e = np.exp(-(dn - dn.min()))
    w = e / e.sum()
    mu_nb = view_posteriors[v].mu[nearest]
    var_nb = view_posteriors[v].var[nearest]
    mu_hat = w @ mu_nb
    var_hat = w @ var_nb + w @ (mu_nb - mu_hat) ** 2
    return GaussianPosterior(mu=mu_hat, var=var_hat)


def impute_all_bruteforce(dataset, table, view_posteriors, k=10):
    """``impute_all`` from one (queries x donors x d_z) distance tensor per
    view and a full stable argsort of each row."""
    n, d = view_posteriors[0].mu.shape
    prec = np.zeros((n, d))
    num = np.zeros((n, d))
    pos = table.positions[table.selected]
    if pos.size == 0:
        return prec, num
    agg = aggregate_observed(view_posteriors, dataset.mask)
    for v in np.unique(pos[:, 1]).tolist():
        donors = np.where(dataset.mask[:, v] == 1)[0]
        q = np.unique(pos[pos[:, 1] == v, 0])
        query = GaussianPosterior(agg.mu[q][:, None, :], agg.var[q][:, None, :])
        dist = w2_distance(query, GaussianPosterior(agg.mu[donors], agg.var[donors]))
        kk = min(int(k), donors.size)
        order = np.argsort(dist, axis=1, kind="stable")[:, :kk]
        rows = np.arange(q.size)[:, None]
        dn = dist[rows, order]
        e = np.exp(-(dn - dn.min(axis=1, keepdims=True)))
        w = e / e.sum(axis=1, keepdims=True)
        nb = donors[order]
        mu_nb = view_posteriors[v].mu[nb]  # (nq, kk, d)
        var_nb = view_posteriors[v].var[nb]
        mu_hat = np.einsum("qk,qkd->qd", w, mu_nb)
        var_hat = np.einsum("qk,qkd->qd", w, var_nb)
        var_hat += np.einsum("qk,qkd->qd", w, (mu_nb - mu_hat[:, None, :]) ** 2)
        prec[q] += 1.0 / var_hat
        num[q] += mu_hat / var_hat
    return prec, num


def fuse_with_imputation(dataset, table, i, view_posteriors, k=10):
    """Fused posterior for sample i: its observed views, then the imputed
    experts of its selected missing views in ascending view order."""
    agg_all = aggregate_observed(view_posteriors, dataset.mask)
    experts = [_row(view_posteriors[v], i) for v in dataset.observed_views(i)]
    if table is not None:
        for (j, v), selected in zip(table.positions.tolist(), table.selected):
            if selected and j == i:
                experts.append(
                    impute_distribution(dataset, table, agg_all, view_posteriors, i, v, k=k)
                )
    mu, var = fuse([p.mu for p in experts], [1.0 / p.var for p in experts])
    return GaussianPosterior(mu=mu, var=var)


def kl_diag_gaussian(a, b):
    """KL(N(mu_a, var_a) || N(mu_b, var_b)), summed over dimensions."""
    return 0.5 * (
        np.log(b.var / a.var) + (a.var + (a.mu - b.mu) ** 2) / b.var - 1.0
    ).sum(axis=-1)


def coherence_loss(aggregated, view_posteriors):
    """Mean KL from the fused posterior to each contributing view posterior.

    Zero when every view already agrees with the fusion; always
    non-negative.
    """
    if not view_posteriors:
        raise ValueError("need at least one view posterior")
    total = sum(kl_diag_gaussian(aggregated, p) for p in view_posteriors)
    return float(total) / len(view_posteriors)


def score_of(table, i, v):
    """The informativeness score of missing position (i, v) in ``table``."""
    hit = (table.positions[:, 0] == i) & (table.positions[:, 1] == v)
    idx = np.where(hit)[0]
    if idx.size == 0:
        raise KeyError(f"({i}, {v}) is not a missing position")
    return float(table.scores[idx[0]])


def plugin_impute_per_position(dataset, table, k=10):
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
