"""Per-sample reference implementations of batched pipeline steps.

The library computes imputation, fusion and the coherence term over all
samples at once: ``model.impute_all`` as dense per-sample sums,
``model.fuse`` and ``model.loss_and_grads`` over each view's expert on
the rows that observe it. These functions redo the same arithmetic one
sample and one position at a time, in the form the method is usually
written down, so the tests can compare the two;
``fuse_with_imputation`` fuses one sample's experts as a one-row batch.
``impute_all_bruteforce`` is the dense imputation without the blocked
neighbour search: the full query x donor distance matrix and a stable
argsort.
``plugin_impute_per_position`` ranks the raw-feature donors of
``metrics.plugin_impute`` one selected position at a time, from dense
N x N distance matrices per view, and ``lexsort_nearest`` is the full
(key, donor index) sort whose first k columns of a row the partial
selection ``metrics._k_nearest`` must equal.
``info_scores_per_position`` scores one
missing position at a time with one ``math.fsum`` per support member.
``pairwise_similarity`` is the dense N x N similarity matrix of one view
that ``scoring.info_scores`` streams by query blocks.

``AdamPerArray`` and ``sigmoid_masked`` are the optimiser step and the
sigmoid of ``imvc.nn`` written array by array and with boolean masks.
``mlp_forward`` and ``mlp_backward`` are the passes of an ``Mlp`` followed
by ``model.scale_heads`` and its slope, with one head slice
(``head_slices``) at a time. ``observed_views`` lists one sample's
observed views. ``pretrain_reference`` is ``trainer.pretrain`` run through
the full passes with heads: both heads evaluated, the scale heads' zero
gradients scaled by their slope, and an input gradient formed for every
network. ``loss_and_grads_per_view`` is ``model.loss_and_grads`` one view
at a time, each view's encoder run through its own passes with heads,
where the library stacks every view's expert rows into one array.
"""

import math

import numpy as np

from imvc.data import MultiViewDataset
from imvc.model import (LOG_2PI, SIGMA_MIN, VAR_MIN, GaussianPosterior, LossTerms,
                        NonFiniteLossError, aggregate_observed, fuse, w2_distance)
from imvc.nn import Adam, sigmoid, softplus
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
    zero = np.zeros((1, view_posteriors[0].mu.shape[1]))
    mu, var = fuse([([0], p.mu, 1.0 / p.var) for p in experts], (zero, zero))
    return GaussianPosterior(mu=mu[0], var=var[0])


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


def lexsort_nearest(key, k, tie):
    """Columns of each row's k nearest donors by a full sort of the row:
    by key with NaN last, equal keys by ``tie``, one value per column
    (the donor index of a column)."""
    return np.lexsort((np.broadcast_to(tie, key.shape), key), axis=1)[:, :k]


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
    positions = np.argwhere(mask == 0)
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
        positions=positions,
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


def head_slices(net, k):
    """(kind, slice) pairs over the output columns of ``net``: the first
    ``k`` identity, the rest softplus scales."""
    return [("identity", slice(0, k)), ("softplus", slice(k, net.layer_dims[-1]))]


def sigmoid_masked(x):
    """Logistic function evaluated separately on each side of zero."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def mlp_backward(net, cache, d_out, k):
    """``model.scale_slope`` then ``Mlp.backward``, with one head-slope
    product per head and a fresh ReLU-masked array per layer."""
    inputs, a_out = cache
    d_out = np.asarray(d_out, dtype=np.float64)
    da = np.empty_like(d_out)
    for kind, sl in head_slices(net, k):
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


def mlp_forward(net, X, k):
    """``Mlp.forward`` then ``model.scale_heads(., k)``, with a separate
    ReLU array per layer and each head written into its own output slice.
    Returns ``(Y, (inputs, a_out))``."""
    inputs = [X]
    h = X
    for l in range(net.n_layers - 1):
        a = h @ net.weights[l] + net.biases[l]
        h = np.maximum(a, 0.0)
        inputs.append(h)
    a_out = h @ net.weights[-1] + net.biases[-1]
    Y = np.empty_like(a_out)
    for kind, sl in head_slices(net, k):
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
        self.params = list(params)
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match the parameter list")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
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
    """``trainer.pretrain`` through the full MLP passes with heads; returns
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
            out_e, cache_e = mlp_forward(model.encoders[v], X, d)
            mu = out_e[:, :d]
            out_d, cache_d = mlp_forward(model.decoders[v], mu, X.shape[1])
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
            gd, d_mu = mlp_backward(model.decoders[v], cache_d, d_out_d, X.shape[1])
            d_out_e = np.zeros_like(out_e)
            d_out_e[:, :d] = d_mu
            ge, _ = mlp_backward(model.encoders[v], cache_e, d_out_e, d)
            enc_grads.append(ge)
            dec_grads.append(gd)
        if not np.isfinite(total):
            raise NonFiniteLossError("pretrain_reconstruction", total)
        grads = []
        for g in enc_grads + dec_grads:
            grads.extend(g)
        opt.step(grads)
        losses.append(total)

    latents = []
    for v in range(model.n_views):
        H = np.zeros((dataset.n_samples, d))
        if obs_rows[v].size:
            H[obs_rows[v]] = mlp_forward(model.encoders[v], obs_X[v], d)[0][:, :d]
        latents.append(H)
    return latents, losses


def loss_and_grads_per_view(model, dataset, batch_idx, eps, alpha=0.0, imputations=None,
                            encoded=None):
    """``model.loss_and_grads`` one view at a time: each view's encoder is
    run on its batch rows through ``mlp_forward``/``mlp_backward``, and its
    expert, coherence and expert-backward terms are formed
    on those rows alone. ``encoded`` is ignored (the encoders always run).
    Returns (LossTerms, grads) as ``loss_and_grads`` does."""
    batch_idx = np.asarray(batch_idx, dtype=np.int64)
    B = batch_idx.size
    d = model.d_z
    obs = dataset.mask[batch_idx].astype(bool)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (B, d):
        raise ValueError("noise shape must be (batch, d_z)")
    c = 1.0 / B

    enc = []  # (rows, X, encoder cache, mu, sd, var, prec) per view
    for v in range(model.n_views):
        rows = np.flatnonzero(obs[:, v])
        X = dataset.views[v][batch_idx[rows]]
        out, cache = mlp_forward(model.encoders[v], X, d)
        sd = out[:, d:]
        var = sd**2
        enc.append((rows, X, cache, out[:, :d], sd, var, 1.0 / var))

    if imputations is None:
        zero = np.zeros((B, d))
        imputed = (zero, zero)
    else:
        imputed = tuple(a[batch_idx] for a in imputations)
    mu_agg, var_agg = fuse([(rows, mu, prec) for rows, _, _, mu, _, _, prec in enc], imputed)
    sd_agg = np.sqrt(var_agg)
    z = mu_agg + sd_agg * eps

    pi = model.pi
    log_pi = np.log(pi)
    mu_k = model.prior_mu
    var_k = softplus(model.prior_rho) + VAR_MIN
    diff = z[:, None, :] - mu_k[None]
    diff2 = diff**2
    m_diff = mu_agg[:, None, :] - mu_k[None]
    spread = var_agg[:, None, :] + m_diff**2
    ll = -0.5 * (
        (LOG_2PI + np.log(var_k)).sum(axis=-1)[None, :]
        + (diff2 / var_k[None]).sum(axis=-1)
    )
    logits = log_pi[None, :] + ll
    log_gamma = logits - logits.max(axis=1, keepdims=True)
    log_gamma = log_gamma - np.log(np.exp(log_gamma).sum(axis=1, keepdims=True))
    gamma = np.exp(log_gamma)

    kl_k = 0.5 * (
        np.log(var_k).sum(axis=-1)[None, :]
        - np.log(var_agg).sum(axis=-1)[:, None]
        + (spread / var_k[None]).sum(axis=-1)
        - d
    )
    t2 = (gamma * kl_k).sum(axis=1)
    t3 = (gamma * (log_gamma - log_pi[None, :])).sum(axis=1)

    recon = np.zeros(B)
    ch = np.zeros(B)
    dec = []  # (decoder cache, output) per view
    for v, (rows, X, _, mu_v, _, var_v, _) in enumerate(enc):
        out, cache = mlp_forward(model.decoders[v], z[rows], X.shape[1])
        if model.likelihoods[v] == "gaussian":
            d_v = X.shape[1]
            m_x, s_x = out[:, :d_v], out[:, d_v:]
            nll = 0.5 * (LOG_2PI + 2.0 * np.log(s_x) + ((X - m_x) / s_x) ** 2).sum(axis=1)
        else:
            t = out  # identity head: logits
            nll = (softplus(t) - X * t).sum(axis=1)
        recon[rows] += nll
        dec.append((cache, out))
        ch[rows] += 0.5 * (
            np.log(var_v) - np.log(var_agg[rows])
            + (var_agg[rows] + (mu_agg[rows] - mu_v) ** 2) / var_v
            - 1.0
        ).sum(axis=1)
    nobs = obs.sum(axis=1)
    ch /= nobs

    terms = LossTerms(
        recon=float(recon.mean()),
        kl_gauss=float(t2.mean()),
        kl_cat=float(t3.mean()),
        coherence=float(ch.mean()),
        alpha=float(alpha),
    )
    for name, value in (("reconstruction", terms.recon), ("gaussian_kl", terms.kl_gauss),
                        ("categorical_kl", terms.kl_cat), ("coherence", terms.coherence)):
        if not math.isfinite(value):
            raise NonFiniteLossError(name, value)

    d_gamma = c * (kl_k + log_gamma - log_pi[None, :] + 1.0)
    d_logits = gamma * (d_gamma - (gamma * d_gamma).sum(axis=1, keepdims=True))
    inv_vk = 1.0 / var_k
    inv_vk2 = inv_vk**2
    diff_iv = diff * inv_vk[None]
    g_prior = -np.einsum("bk,bkd->bd", d_logits, diff_iv)

    d_log_pi = d_logits.sum(axis=0) - c * gamma.sum(axis=0)
    d_pi_logits = d_log_pi - pi * d_log_pi.sum()

    d_mu_k = np.einsum("bk,bkd->kd", d_logits, diff_iv)
    d_var_k = np.einsum(
        "bk,bkd->kd", d_logits, -0.5 * (inv_vk[None] - diff2 * inv_vk2[None])
    )

    w_bk = c * gamma
    mu_diff = m_diff * inv_vk[None]
    d_mu_agg = np.einsum("bk,bkd->bd", w_bk, mu_diff)
    d_var_agg = 0.5 * (
        np.einsum("bk,kd->bd", w_bk, inv_vk) - w_bk.sum(axis=1)[:, None] / var_agg
    )
    d_mu_k += np.einsum("bk,bkd->kd", w_bk, -mu_diff)
    d_var_k += np.einsum(
        "bk,bkd->kd",
        w_bk,
        0.5 * (inv_vk[None] - spread * inv_vk2[None]),
    )

    g_z = np.zeros((B, d))
    dec_grads = []
    for v, (cache, out) in enumerate(dec):
        rows, X = enc[v][:2]
        if model.likelihoods[v] == "gaussian":
            d_v = X.shape[1]
            m_x, s_x = out[:, :d_v], out[:, d_v:]
            d_m = c * (m_x - X) / s_x**2
            d_s = c * (1.0 / s_x - (X - m_x) ** 2 / s_x**3)
            d_out = np.concatenate([d_m, d_s], axis=1)
        else:
            d_out = c * (sigmoid(out) - X)
        gv, dz_rows = mlp_backward(model.decoders[v], cache, d_out, X.shape[1])
        g_z[rows] += dz_rows
        dec_grads.append(gv)
    g_z += g_prior

    d_mu_agg += g_z
    d_var_agg += g_z * eps / (2.0 * sd_agg)

    coef = (c * alpha / nobs)[:, None]
    if alpha != 0.0:
        for rows, _, _, mu_v, _, var_v, _ in enc:
            d_mu_agg[rows] += coef[rows] * (mu_agg[rows] - mu_v) / var_v
            d_var_agg[rows] += coef[rows] * 0.5 * (1.0 / var_v - 1.0 / var_agg[rows])

    enc_grads = []
    for v, (rows, _, cache, mu_v, sd_v, var_v, p_v) in enumerate(enc):
        dm_agg, dv_agg = d_mu_agg[rows], d_var_agg[rows]
        m_agg, v_agg = mu_agg[rows], var_agg[rows]
        d_m_v = dm_agg * p_v * v_agg
        d_p = dm_agg * (mu_v - m_agg) * v_agg - dv_agg * v_agg**2
        d_var_v = -d_p * p_v**2
        if alpha != 0.0:
            cf = coef[rows]
            d_m_v += cf * (mu_v - m_agg) / var_v
            d_var_v += cf * 0.5 * (1.0 / var_v - v_agg / var_v**2
                                   - (m_agg - mu_v) ** 2 / var_v**2)
        d_sd_v = d_var_v * 2.0 * sd_v
        d_out = np.concatenate([d_m_v, d_sd_v], axis=1)
        gv, _ = mlp_backward(model.encoders[v], cache, d_out, d)
        enc_grads.append(gv)

    grads = []
    for gv in enc_grads:
        grads.extend(gv)
    for gv in dec_grads:
        grads.extend(gv)
    grads.extend([d_pi_logits, d_mu_k, d_var_k * sigmoid(model.prior_rho)])
    return terms, grads
