"""Per-sample reference implementations of batched pipeline steps.

The library computes imputation, fusion and the coherence term densely
over all samples at once (``model.impute_all``, ``model.fuse``,
``model.loss_and_grads``). These functions redo the same arithmetic one
sample and one position at a time, in the form the method is usually
written down, so the tests can compare the two.
"""

import numpy as np

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
