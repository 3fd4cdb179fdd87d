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
N x N distance matrices per view. ``info_scores_per_position`` scores one
missing position at a time with one ``math.fsum`` per support member.
``pairwise_similarity`` is the dense N x N similarity matrix of one view
that ``scoring.info_scores`` streams by query blocks.

``AdamPerArray``, ``sigmoid_masked``, ``mlp_forward`` and
``mlp_backward`` are the optimiser step, the sigmoid and the MLP passes of
``imvc.nn`` written array by array, with boolean masks and one head slice
(``head_slices``) at a time. ``observed_views`` lists one sample's
observed views. ``pretrain_reference`` is ``trainer.pretrain`` run through
the full ``Mlp.forward``/``Mlp.backward`` passes: both heads evaluated,
the scale heads' zero gradients scaled by their slope, and an input
gradient formed for every network.
"""

import math

import numpy as np

from imvc.data import MultiViewDataset
from imvc.model import (GaussianPosterior, NonFiniteLossError, aggregate_observed,
                        encode_view, fuse, w2_distance)
from imvc.nn import SIGMA_MIN, Adam, sigmoid, softplus
from imvc.scoring import InfoTable, view_distances


def _row(post, i):
    return GaussianPosterior(post.mu[i], post.var[i])


def observed_views(dataset, i):
    """Indices of views observed for sample i."""
    return np.where(dataset.mask[i] == 1)[0]


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
    experts = [_row(view_posteriors[v], i) for v in observed_views(dataset, i)]
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


def info_scores_per_position(dataset, corr, sims):
    """``scoring.info_scores`` one missing position at a time: the support
    members' (member, view) terms, one ``math.fsum`` per member numerator
    and denominator, and one over all terms of the position."""
    mask = dataset.mask
    V = dataset.n_views
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


def pairwise_similarity(dataset, u):
    """Dense (N, N) similarities of view u: sim = (1 - d / d_max)^2 over the
    pairs observing u, with d from ``view_distances`` over every observed
    row and d_max its maximum (sim = 1 when d_max is 0); 0 elsewhere."""
    obs = dataset.observed(u)
    if obs.size < 2:
        raise ValueError(f"view {u} needs at least 2 observed samples, has {obs.size}")
    dist = view_distances(dataset, u, obs, obs)
    d_max = dist.max()
    sim = np.zeros((dataset.n_samples, dataset.n_samples))
    sim[np.ix_(obs, obs)] = 1.0 if d_max == 0.0 else (1.0 - dist / d_max) ** 2
    return sim


def head_slices(net):
    """(kind, slice) pairs over the output columns of ``net``."""
    out, start = [], 0
    for kind, width in net.heads:
        out.append((kind, slice(start, start + width)))
        start += width
    return out


def sigmoid_masked(x):
    """Logistic function evaluated separately on each side of zero."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def mlp_backward(net, cache, d_out):
    """``Mlp.backward`` with one head-slope product per head and a fresh
    ReLU-masked array per layer."""
    inputs, a_out = cache
    d_out = np.asarray(d_out, dtype=np.float64)
    da = np.empty_like(d_out)
    for kind, sl in head_slices(net):
        slope = np.ones_like(a_out[:, sl]) if kind == "identity" else sigmoid_masked(a_out[:, sl])
        da[:, sl] = d_out[:, sl] * slope
    grads = [None] * (2 * net.n_layers)
    for l in range(net.n_layers - 1, -1, -1):
        h_in = inputs[l]
        grads[2 * l] = h_in.T @ da
        grads[2 * l + 1] = da.sum(axis=0)
        if l > 0:
            dh = da @ net.weights[l].T
            da = dh * (inputs[l] > 0)
    dX = da @ net.weights[0].T
    return grads, dX


def mlp_forward(net, X):
    """``Mlp.forward`` with a separate ReLU array per layer and each head
    written into its own output slice."""
    inputs = [X]
    h = X
    for l in range(net.n_layers - 1):
        a = h @ net.weights[l] + net.biases[l]
        h = np.maximum(a, 0.0)
        inputs.append(h)
    a_out = h @ net.weights[-1] + net.biases[-1]
    Y = np.empty_like(a_out)
    for kind, sl in head_slices(net):
        Y[:, sl] = a_out[:, sl] if kind == "identity" else softplus(a_out[:, sl]) + SIGMA_MIN
    return Y, (inputs, a_out)


class AdamPerArray:
    """Adam with one pair of moment arrays per parameter array."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient list does not match optimizer state")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if p.shape != g.shape:
                raise ValueError("gradient shape mismatch")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    def state_dict(self):
        return {
            "t": self.t,
            "m": [a.copy() for a in self.m],
            "v": [a.copy() for a in self.v],
        }

    def load_state_dict(self, state):
        self.t = state["t"]
        self.m = [a.copy() for a in state["m"]]
        self.v = [a.copy() for a in state["v"]]


def pretrain_reference(model, dataset, config):
    """``trainer.pretrain`` through the full MLP passes; returns
    (latents, losses) and trains ``model`` in place."""
    params = []
    for net in model.encoders + model.decoders:
        params.extend(net.parameters())
    opt = Adam(params, lr=config.pretrain_lr)
    d = model.d_z
    losses = []
    obs_rows = [dataset.observed(v) for v in range(model.n_views)]
    obs_X = [dataset.views[v][rows] for v, rows in enumerate(obs_rows)]
    for _ in range(config.pretrain_epochs):
        total = 0.0
        enc_grads, dec_grads = [], []
        for v in range(model.n_views):
            X = obs_X[v]
            out_e, cache_e = model.encoders[v].forward(X)
            mu = out_e[:, :d]
            out_d, cache_d = model.decoders[v].forward(mu)
            if model.likelihoods[v] == "gaussian":
                recon = out_d[:, : X.shape[1]]
            else:
                recon = sigmoid(out_d)
            err = recon - X
            total += float((err * err).sum(axis=1).mean())
            d_recon = 2.0 * err / X.shape[0]
            if model.likelihoods[v] == "gaussian":
                d_out_d = np.zeros_like(out_d)
                d_out_d[:, : X.shape[1]] = d_recon
            else:
                d_out_d = d_recon * recon * (1.0 - recon)
            gd, d_mu = model.decoders[v].backward(cache_d, d_out_d)
            d_out_e = np.zeros_like(out_e)
            d_out_e[:, :d] = d_mu
            ge, _ = model.encoders[v].backward(cache_e, d_out_e)
            enc_grads.append(ge)
            dec_grads.append(gd)
        if not np.isfinite(total):
            raise NonFiniteLossError("pretrain_reconstruction", total)
        grads = []
        for g in enc_grads + dec_grads:
            grads.extend(g)
        opt.step(params, grads)
        losses.append(total)

    latents = []
    for v in range(model.n_views):
        H = np.zeros((dataset.n_samples, d))
        if obs_rows[v].size:
            H[obs_rows[v]] = encode_view(model, v, obs_X[v]).mu
        latents.append(H)
    return latents, losses
