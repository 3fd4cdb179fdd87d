"""Deep multi-view Gaussian mixture model.

Generative story: a cluster c ~ Categorical(pi) picks a component of a
diagonal-Gaussian mixture over the latent z; each view is then decoded
from z independently (Gaussian or Bernoulli likelihood per view).
Inference runs the other way: per-view encoders produce diagonal Gaussian
posteriors q(z | x^v), which are fused across observed views by a
product of experts (precision-weighted mean, summed precisions). Missing
views that were selected for imputation get their posterior parameters
estimated from latent-space neighbors, with the dispersion of neighbor
means added to the imputed variance as an epistemic term. Imputed experts
travel densely: ``impute_all`` sums them per sample into a pair
``(prec, num)`` of (N, d_z) arrays (summed precisions and summed
precision-weighted means). Every fusion goes through ``fuse``, which
starts from those sums and adds the observed views in index order.

The training loss is the negative ELBO (reconstruction over observed
views, mixture KL, categorical KL) plus ``alpha`` times a coherence
penalty KL(fused || per-view). ``loss_and_grads`` evaluates it together
with hand-derived analytic gradients for every parameter, including the
mixture parameters; imputed expert parameters are treated as constants
(they are refreshed once per epoch, not differentiated through).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import atomic_open
from .nn import SIGMA_MIN, Mlp, sigmoid, softplus

VAR_MIN = SIGMA_MIN**2

LIKELIHOODS = ("gaussian", "bernoulli")

LOG_2PI = float(np.log(2.0 * np.pi))


class NonFiniteLossError(RuntimeError):
    """A loss term stopped being finite; carries the offending term."""

    def __init__(self, term, value):
        super().__init__(f"non-finite loss term {term!r}: {value}")
        self.term = term
        self.value = value


@dataclass
class GaussianPosterior:
    """Diagonal Gaussian q(z) = N(mu, diag(var)).

    mu/var may be 1-D (one sample) or 2-D (a batch, one row per sample).
    """

    mu: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)
        if self.mu.shape != self.var.shape:
            raise ValueError("mu and var shapes differ")
        if not (self.var > 0).all():
            raise ValueError("variances must be positive")

    @property
    def sd(self):
        return np.sqrt(self.var)


@dataclass
class MixturePrior:
    """Categorical-Gaussian prior: weights pi, component means/variances."""

    pi: np.ndarray
    mu: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)
        K = self.pi.shape[0]
        if self.mu.shape[0] != K or self.var.shape != self.mu.shape:
            raise ValueError("component shapes disagree")
        if (self.pi <= 0).any() or abs(self.pi.sum() - 1.0) > 1e-9:
            raise ValueError("pi must be a positive probability vector")
        if (self.var < VAR_MIN * (1 - 1e-12)).any():
            raise ValueError(f"component variances must be >= {VAR_MIN}")

    @property
    def K(self):
        return self.pi.shape[0]


def _inv_softplus(y):
    # solve softplus(x) = y for y > 0
    y = np.maximum(y, 1e-12)
    return y + np.log(-np.expm1(-y))


class DmgmmModel:
    """Per-view encoder/decoder pairs plus free mixture parameters.

    Encoders emit [mu | sigma] (sigma through a softplus head, so the
    per-view posterior variance is sigma^2 >= SIGMA_MIN^2). Gaussian
    decoders emit [mean | sigma]; Bernoulli decoders emit logits. The
    mixture is parameterized unconstrained: pi = softmax(pi_logits),
    var_k = softplus(var_rho) + VAR_MIN.
    """

    def __init__(self, encoders, decoders, likelihoods, d_z, K, seed=0):
        self.encoders = list(encoders)
        self.decoders = list(decoders)
        self.likelihoods = list(likelihoods)
        for lk in self.likelihoods:
            if lk not in LIKELIHOODS:
                raise ValueError(f"unknown likelihood {lk!r}")
        self.d_z = int(d_z)
        self.K = int(K)
        rng = np.random.default_rng(seed)
        self.pi_logits = np.zeros(K)
        self.prior_mu = rng.normal(scale=0.1, size=(K, d_z))
        self.prior_rho = np.full((K, d_z), _inv_softplus(np.array(1.0 - VAR_MIN)))

    @classmethod
    def build(cls, view_dims, K, d_z=10, hidden=(256, 64), likelihoods=None, seed=0):
        """Symmetric architecture: d_v -> hidden -> 2*d_z and mirrored back."""
        if likelihoods is None:
            likelihoods = ["gaussian"] * len(view_dims)
        encoders, decoders = [], []
        for v, d_v in enumerate(view_dims):
            enc = Mlp(
                [d_v, *hidden, 2 * d_z],
                heads=(("identity", d_z), ("softplus", d_z)),
                seed=seed * 1000 + 2 * v,
            )
            if likelihoods[v] == "gaussian":
                dec = Mlp(
                    [d_z, *reversed(hidden), 2 * d_v],
                    heads=(("identity", d_v), ("softplus", d_v)),
                    seed=seed * 1000 + 2 * v + 1,
                )
            else:
                dec = Mlp(
                    [d_z, *reversed(hidden), d_v],
                    heads=(("identity", d_v),),
                    seed=seed * 1000 + 2 * v + 1,
                )
            encoders.append(enc)
            decoders.append(dec)
        return cls(encoders, decoders, likelihoods, d_z=d_z, K=K, seed=seed)

    @property
    def n_views(self):
        return len(self.encoders)

    def parameters(self):
        """Flat list of live arrays: all nets, then mixture parameters."""
        params = []
        for net in self.encoders + self.decoders:
            params.extend(net.parameters())
        params.extend([self.pi_logits, self.prior_mu, self.prior_rho])
        return params

    def copy_params(self):
        return [p.copy() for p in self.parameters()]

    def load_params(self, saved):
        for p, s in zip(self.parameters(), saved):
            p[...] = s

    @property
    def pi(self):
        """Mixture weights softmax(pi_logits)."""
        e = np.exp(self.pi_logits - self.pi_logits.max())
        return e / e.sum()

    @property
    def prior(self):
        return MixturePrior(
            pi=self.pi,
            mu=self.prior_mu.copy(),
            var=softplus(self.prior_rho) + VAR_MIN,
        )

    def set_prior(self, prior):
        self.pi_logits[...] = np.log(prior.pi)
        self.prior_mu[...] = prior.mu
        self.prior_rho[...] = _inv_softplus(np.maximum(prior.var - VAR_MIN, 1e-12))


def encode_view(model, v, X):
    """Posterior parameters for rows observed in view v."""
    out, _ = model.encoders[v].forward(X)
    d = model.d_z
    return GaussianPosterior(mu=out[:, :d], var=out[:, d:] ** 2)


def encode_all(model, dataset):
    """Per-view posteriors over all samples.

    Unobserved rows hold neutral placeholders (mu 0, var 1) and must be
    guarded by the mask; only observed rows are ever passed through the
    encoders, so poisoned masked cells cannot leak.
    """
    n, d = dataset.n_samples, model.d_z
    posts = []
    for v in range(model.n_views):
        rows = dataset.observed(v)
        mu = np.zeros((n, d))
        var = np.ones((n, d))
        if rows.size:
            p = encode_view(model, v, dataset.views[v][rows])
            mu[rows] = p.mu
            var[rows] = p.var
        posts.append(GaussianPosterior(mu=mu, var=var))
    return posts


def fuse(mus, precs, imputed=None):
    """Product of Gaussian experts given as means and precisions.

    Starts from the summed imputed experts ``imputed = (prec, num)`` of
    ``impute_all`` (zeros when None), then adds each expert in order:
    precisions add and ``num`` gathers precision * mean. Returns plain
    ``(mu, var)`` arrays; nothing is validated, so a non-finite expert
    reaches the caller's finiteness checks instead of raising here.
    """
    if imputed is None:
        P = np.zeros_like(precs[0])
        num = np.zeros_like(precs[0])
    else:
        P = imputed[0].copy()
        num = imputed[1].copy()
    for mu, p in zip(mus, precs):
        P += p
        num += p * mu
    var = 1.0 / P
    return num * var, var


def aggregate_observed(view_posteriors, mask, imputed=None):
    """PoE over observed views, batched over all samples.

    ``imputed`` is the ``(prec, num)`` pair of ``impute_all``; its experts
    are added to the observed ones.
    """
    maskb = np.asarray(mask).astype(bool)
    mus = [np.where(maskb[:, [v]], p.mu, 0.0) for v, p in enumerate(view_posteriors)]
    precs = [np.where(maskb[:, [v]], 1.0 / p.var, 0.0) for v, p in enumerate(view_posteriors)]
    mu, var = fuse(mus, precs, imputed)
    return GaussianPosterior(mu=mu, var=var)


def w2_distance(a, b):
    """2-Wasserstein distance between diagonal Gaussians.

    Broadcasts over leading axes: a single posterior against a batch gives
    a vector of distances.
    """
    dmu = a.mu - b.mu
    dsd = a.sd - b.sd
    return np.sqrt((dmu * dmu).sum(axis=-1) + (dsd * dsd).sum(axis=-1))


# Query rows per block of the neighbour searches (here and in
# metrics.plugin_impute). A block holds a few (block, donors) arrays, so
# one call needs O(block * N) memory.
QUERY_BLOCK = 256

# squared feature norms below this keep every GEMM-form value finite; a
# block with a larger (or NaN) norm re-ranks every donor
_SQ_MAX = np.finfo(np.float64).max / 8


def _nearest_donors(agg, feats, sq, q, donors, k):
    """The k donors nearest to each query row by ``w2_distance``.

    ``feats`` is ``[mu, sd]`` of the aggregates ``agg`` and ``sq`` its
    squared row norms. Returns ``(nb, dist)``, two (len(q), k) arrays of
    donor sample indices and their distances: each row is what a stable
    argsort of the full query x donor distance matrix keeps (ascending
    distance, ties to the lower donor index), bit for bit. Per block of
    query rows, one GEMM gives W2^2 = |f_q|^2 + |f_d|^2 - 2 f_q.f_d up to
    rounding; only donors within the rounding bound of a row's k-th value
    are re-ranked with ``w2_distance``.
    """
    fd, sq_d = feats[donors], sq[donors]
    usable = k < donors.size and bool((sq_d < _SQ_MAX).all())
    # Candidate margin. With u = eps/2, m = 2*d_z features and
    # n = |f_q|^2 + |f_d|^2, the GEMM form is within (2m + 4) u n of the
    # true W2^2, and the sum of squares inside w2_distance within
    # (m + 6) u n; a donor whose w2_distance rounds equal to a smaller
    # one's lies at most 8 u n above it. tol = tol_scale * n is twice the
    # sum of these, with n taken at the row's largest donor norm. The k
    # donors with the smallest approximate values have exact values within
    # tol of them, so the k-th exact value is at most the k-th approximate
    # one + tol, and every donor of the stable top k has an approximate
    # value of at most the k-th one + 2 tol.
    tol_scale = (3 * feats.shape[1] + 18) * np.finfo(np.float64).eps
    nb = np.empty((q.size, k), dtype=np.int64)
    dist = np.empty((q.size, k))
    for lo in range(0, q.size, QUERY_BLOCK):
        qb = q[lo:lo + QUERY_BLOCK]
        cand = np.broadcast_to(donors, (qb.size, donors.size))
        if usable and (sq[qb] < _SQ_MAX).all():
            approx = feats[qb] @ fd.T
            approx *= -2.0
            approx += sq[qb][:, None]
            approx += sq_d
            part = np.argpartition(approx, k - 1, axis=1)
            bound = approx[np.arange(qb.size), part[:, k - 1]]
            bound += 2.0 * tol_scale * (sq[qb] + sq_d.max())
            c = int((approx <= bound[:, None]).sum(axis=1).max())
            if c < donors.size:
                if c > k:
                    part = np.argpartition(approx, c - 1, axis=1)
                cand = donors[np.sort(part[:, :c], axis=1)]
        # re-rank in row chunks so that no gathered (rows, C, d_z) array
        # holds more than QUERY_BLOCK * donors elements, even when ties
        # make every donor a candidate
        exact = np.empty(cand.shape)
        step = max(1, QUERY_BLOCK * donors.size // (cand.shape[1] * agg.mu.shape[1]))
        for s in range(0, qb.size, step):
            qs, cs = qb[s:s + step], cand[s:s + step]
            exact[s:s + step] = w2_distance(
                GaussianPosterior(agg.mu[qs][:, None, :], agg.var[qs][:, None, :]),
                GaussianPosterior(agg.mu[cs], agg.var[cs]),
            )
        order = np.argsort(exact, axis=1, kind="stable")[:, :k]
        rows = np.arange(qb.size)[:, None]
        nb[lo:lo + qb.size] = cand[rows, order]
        dist[lo:lo + qb.size] = exact[rows, order]
    return nb, dist


def impute_all(dataset, table, view_posteriors, k=10):
    """Dense imputed experts for every selected missing position.

    For a missing view v of sample i, the neighbors are the k samples
    observing view v whose fused posteriors are closest to sample i's
    (``w2_distance`` on the pre-imputation aggregates, so the result is a
    pure function of the current encoder state; ties go to the lower
    sample index); softmax(-distance) weights average their view-v means
    and variances, and the weighted dispersion of their means is added to
    the variance (imputation uncertainty). The neighbour search runs per
    view over blocks of ``QUERY_BLOCK`` querying samples (a GEMM
    pre-filter, then an exact re-rank), so memory is O(block * N), never
    O(N^2). Returns ``(prec, num)``, two (N, d_z) arrays: prec[i] sums
    1/var_hat and num[i] sums mu_hat/var_hat over the views selected for
    sample i, in ascending view order; rows with no selected view are
    zero.
    """
    n, d = view_posteriors[0].mu.shape
    prec = np.zeros((n, d))
    num = np.zeros((n, d))
    pos = table.positions[table.selected]
    if pos.size == 0:
        return prec, num
    observed = dataset.mask[pos[:, 0], pos[:, 1]] != 0
    if observed.any():
        i, v = pos[observed][0].tolist()
        raise ValueError(f"position ({i}, {v}) is observed; cannot impute it")
    agg = aggregate_observed(view_posteriors, dataset.mask)
    feats = np.hstack([agg.mu, agg.sd])
    sq = (feats * feats).sum(axis=1)

    for v in np.unique(pos[:, 1]).tolist():
        donors = np.where(dataset.mask[:, v] == 1)[0]
        if donors.size == 0:
            raise ValueError(f"no sample observes view {v}; cannot impute")
        q = np.unique(pos[pos[:, 1] == v, 0])
        nb, dn = _nearest_donors(agg, feats, sq, q, donors, min(int(k), donors.size))
        e = np.exp(-(dn - dn.min(axis=1, keepdims=True)))
        w = e / e.sum(axis=1, keepdims=True)
        mu_nb = view_posteriors[v].mu[nb]  # (nq, k, d)
        var_nb = view_posteriors[v].var[nb]
        mu_hat = np.einsum("qk,qkd->qd", w, mu_nb)
        var_hat = np.einsum("qk,qkd->qd", w, var_nb)
        var_hat += np.einsum("qk,qkd->qd", w, (mu_nb - mu_hat[:, None, :]) ** 2)
        prec[q] += 1.0 / var_hat
        num[q] += mu_hat / var_hat
    return prec, num


def responsibilities(prior, z):
    """Posterior cluster probabilities of latent point(s) z under the prior.

    Log-space with max subtraction; rows sum to one. Accepts (d,) or
    (n, d).
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    zz = z[None, :] if single else z
    diff = zz[:, None, :] - prior.mu[None]
    ll = -0.5 * (
        (LOG_2PI + np.log(prior.var)).sum(axis=-1)[None, :]
        + (diff**2 / prior.var[None]).sum(axis=-1)
    )
    logits = np.log(prior.pi)[None, :] + ll
    logits = logits - logits.max(axis=1, keepdims=True)
    g = np.exp(logits)
    g /= g.sum(axis=1, keepdims=True)
    return g[0] if single else g


@dataclass
class LossTerms:
    recon: float
    kl_gauss: float
    kl_cat: float
    coherence: float
    alpha: float

    @property
    def elbo(self):
        """Negative ELBO (the quantity being minimized, before coherence)."""
        return self.recon + self.kl_gauss + self.kl_cat

    @property
    def total(self):
        return self.elbo + self.alpha * self.coherence

    def as_dict(self):
        return {
            "recon": self.recon,
            "kl_gauss": self.kl_gauss,
            "kl_cat": self.kl_cat,
            "coherence": self.coherence,
            "total": self.total,
        }


def _check_finite(name, value):
    if not np.all(np.isfinite(value)):
        flat = np.asarray(value).ravel()
        raise NonFiniteLossError(name, float(flat[~np.isfinite(flat)][0]))


def check_trainable(model):
    """Raise NonFiniteLossError when a parameter is not finite or a prior
    weight has underflowed to 0 (the loss takes its log)."""
    for p in model.parameters():
        _check_finite("parameters", p)
    with np.errstate(divide="ignore"):
        _check_finite("log_pi", np.log(model.pi))


def loss_and_grads(model, dataset, batch_idx, eps, alpha=0.0, imputations=None):
    """Training objective and analytic gradients on one batch.

    eps is the frozen reparameterization noise, shape (len(batch), d_z).
    imputations is the ``(prec, num)`` pair of ``impute_all`` over all
    samples (or None); its rows for the batch are treated as constant
    experts (no gradients flow into them). Returns
    (LossTerms, grads) with grads aligned to ``model.parameters()``.
    Raises NonFiniteLossError naming the first non-finite term.
    """
    batch_idx = np.asarray(batch_idx, dtype=np.int64)
    B = batch_idx.size
    d = model.d_z
    V = model.n_views
    K = model.K
    obs = dataset.mask[batch_idx].astype(bool)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (B, d):
        raise ValueError("noise shape must be (batch, d_z)")
    c = 1.0 / B

    # ---- encode observed views ----
    enc = []
    for v in range(V):
        rows = np.where(obs[:, v])[0]
        mu_v = np.zeros((B, d))
        sd_v = np.ones((B, d))
        cache = None
        if rows.size:
            X = dataset.views[v][batch_idx[rows]]
            out, cache = model.encoders[v].forward(X)
            mu_v[rows] = out[:, :d]
            sd_v[rows] = out[:, d:]
        var_v = sd_v**2
        prec_v = np.where(obs[:, v][:, None], 1.0 / var_v, 0.0)
        enc.append(
            {"rows": rows, "cache": cache, "mu": mu_v, "sd": sd_v,
             "var": var_v, "prec": prec_v}
        )

    # ---- product of experts: constant imputed experts, then observed ----
    imputed = None if imputations is None else tuple(a[batch_idx] for a in imputations)
    mu_agg, var_agg = fuse([e["mu"] for e in enc], [e["prec"] for e in enc], imputed)
    sd_agg = np.sqrt(var_agg)
    z = mu_agg + sd_agg * eps

    # ---- mixture prior ----
    prior = model.prior
    pi = prior.pi
    log_pi = np.log(pi)
    mu_k = prior.mu
    var_k = prior.var
    diff = z[:, None, :] - mu_k[None]
    ll = -0.5 * (
        (LOG_2PI + np.log(var_k)).sum(axis=-1)[None, :]
        + (diff**2 / var_k[None]).sum(axis=-1)
    )
    logits = log_pi[None, :] + ll
    log_gamma = logits - logits.max(axis=1, keepdims=True)
    log_gamma = log_gamma - np.log(np.exp(log_gamma).sum(axis=1, keepdims=True))
    gamma = np.exp(log_gamma)

    kl_k = 0.5 * (
        np.log(var_k).sum(axis=-1)[None, :]
        - np.log(var_agg).sum(axis=-1)[:, None]
        + ((var_agg[:, None, :] + (mu_agg[:, None, :] - mu_k[None]) ** 2) / var_k[None]).sum(axis=-1)
        - d
    )
    t2 = (gamma * kl_k).sum(axis=1)
    t3 = (gamma * (log_gamma - log_pi[None, :])).sum(axis=1)

    # ---- reconstruction over observed views ----
    recon = np.zeros(B)
    dec_cache = []
    for v in range(V):
        rows = enc[v]["rows"]
        if rows.size == 0:
            dec_cache.append(None)
            continue
        out, cache = model.decoders[v].forward(z[rows])
        X = dataset.views[v][batch_idx[rows]]
        if model.likelihoods[v] == "gaussian":
            d_v = X.shape[1]
            m_x, s_x = out[:, :d_v], out[:, d_v:]
            nll = 0.5 * (LOG_2PI + 2.0 * np.log(s_x) + ((X - m_x) / s_x) ** 2).sum(axis=1)
        else:
            t = out  # identity head: logits
            nll = (softplus(t) - X * t).sum(axis=1)
        recon[rows] += nll
        dec_cache.append((cache, X, out))

    # ---- coherence ----
    nobs = obs.sum(axis=1)
    ch = np.zeros(B)
    for v in range(V):
        m = obs[:, v]
        if not m.any():
            continue
        term = 0.5 * (
            np.log(enc[v]["var"]) - np.log(var_agg)
            + (var_agg + (mu_agg - enc[v]["mu"]) ** 2) / enc[v]["var"]
            - 1.0
        ).sum(axis=1)
        ch += np.where(m, term, 0.0)
    ch /= nobs

    terms = LossTerms(
        recon=float(recon.mean()),
        kl_gauss=float(t2.mean()),
        kl_cat=float(t3.mean()),
        coherence=float(ch.mean()),
        alpha=float(alpha),
    )
    _check_finite("reconstruction", terms.recon)
    _check_finite("gaussian_kl", terms.kl_gauss)
    _check_finite("categorical_kl", terms.kl_cat)
    _check_finite("coherence", terms.coherence)

    # ================= backward =================
    g_z = np.zeros((B, d))
    dec_grads = []
    for v in range(V):
        if dec_cache[v] is None:
            dec_grads.append([np.zeros_like(p) for p in model.decoders[v].parameters()])
            continue
        cache, X, out = dec_cache[v]
        rows = enc[v]["rows"]
        if model.likelihoods[v] == "gaussian":
            d_v = X.shape[1]
            m_x, s_x = out[:, :d_v], out[:, d_v:]
            d_m = c * (m_x - X) / s_x**2
            d_s = c * (1.0 / s_x - (X - m_x) ** 2 / s_x**3)
            d_out = np.concatenate([d_m, d_s], axis=1)
        else:
            d_out = c * (sigmoid(out) - X)
        gv, dz_rows = model.decoders[v].backward(cache, d_out)
        g_z[rows] += dz_rows
        dec_grads.append(gv)

    # gamma-dependent paths
    d_gamma = c * (kl_k + log_gamma - log_pi[None, :] + 1.0)
    d_logits = gamma * (d_gamma - (gamma * d_gamma).sum(axis=1, keepdims=True))
    inv_vk = 1.0 / var_k
    g_z += -np.einsum("bk,bkd->bd", d_logits, diff * inv_vk[None])

    d_log_pi = d_logits.sum(axis=0) - c * gamma.sum(axis=0)
    d_pi_logits = d_log_pi - pi * d_log_pi.sum()

    d_mu_k = np.einsum("bk,bkd->kd", d_logits, diff * inv_vk[None])
    d_var_k = np.einsum(
        "bk,bkd->kd", d_logits, -0.5 * (inv_vk[None] - diff**2 * inv_vk[None] ** 2)
    )

    w_bk = c * gamma
    mu_diff = (mu_agg[:, None, :] - mu_k[None]) * inv_vk[None]
    d_mu_agg = np.einsum("bk,bkd->bd", w_bk, mu_diff)
    d_var_agg = 0.5 * (
        np.einsum("bk,kd->bd", w_bk, inv_vk) - w_bk.sum(axis=1)[:, None] / var_agg
    )
    d_mu_k += np.einsum("bk,bkd->kd", w_bk, -mu_diff)
    d_var_k += np.einsum(
        "bk,bkd->kd",
        w_bk,
        0.5 * (inv_vk[None]
               - (var_agg[:, None, :] + (mu_agg[:, None, :] - mu_k[None]) ** 2)
               * inv_vk[None] ** 2),
    )

    # reparameterized sample
    d_mu_agg += g_z
    d_var_agg += g_z * eps / (2.0 * sd_agg)

    # coherence contributions
    ch_direct = [None] * V
    if alpha != 0.0:
        coef = (c * alpha / nobs)[:, None]
        for v in range(V):
            m = obs[:, v][:, None]
            mu_v, var_v = enc[v]["mu"], enc[v]["var"]
            d_mu_agg += np.where(m, coef * (mu_agg - mu_v) / var_v, 0.0)
            d_var_agg += np.where(m, coef * 0.5 * (1.0 / var_v - 1.0 / var_agg), 0.0)
            dm_dir = np.where(m, coef * (mu_v - mu_agg) / var_v, 0.0)
            dv_dir = np.where(
                m,
                coef * 0.5 * (1.0 / var_v - var_agg / var_v**2
                              - (mu_agg - mu_v) ** 2 / var_v**2),
                0.0,
            )
            ch_direct[v] = (dm_dir, dv_dir)

    # product-of-experts backward into each observed expert
    enc_grads = []
    for v in range(V):
        rows = enc[v]["rows"]
        if rows.size == 0:
            enc_grads.append([np.zeros_like(p) for p in model.encoders[v].parameters()])
            continue
        m = obs[:, v][:, None]
        p_v = enc[v]["prec"]
        mu_v, sd_v, var_v = enc[v]["mu"], enc[v]["sd"], enc[v]["var"]
        d_m_v = d_mu_agg * p_v * var_agg
        d_p = np.where(
            m, d_mu_agg * (mu_v - mu_agg) * var_agg - d_var_agg * var_agg**2, 0.0
        )
        d_var_v = -d_p * p_v**2
        if ch_direct[v] is not None:
            d_m_v = d_m_v + ch_direct[v][0]
            d_var_v = d_var_v + ch_direct[v][1]
        d_sd_v = d_var_v * 2.0 * sd_v
        d_out = np.concatenate([d_m_v[rows], d_sd_v[rows]], axis=1)
        gv, _ = model.encoders[v].backward(enc[v]["cache"], d_out, input_grad=False)
        enc_grads.append(gv)

    grads = []
    for gv in enc_grads:
        grads.extend(gv)
    for gv in dec_grads:
        grads.extend(gv)
    grads.extend([d_pi_logits, d_mu_k, d_var_k * sigmoid(model.prior_rho)])
    return terms, grads


MODEL_MAGIC = "imvc-model-v1"


def save_model(model, path):
    """Versioned JSON checkpoint: networks, likelihoods, mixture parameters."""
    payload = {
        "magic": MODEL_MAGIC,
        "d_z": model.d_z,
        "K": model.K,
        "likelihoods": model.likelihoods,
        "encoders": [net.to_dict() for net in model.encoders],
        "decoders": [net.to_dict() for net in model.decoders],
        "pi_logits": model.pi_logits.tolist(),
        "prior_mu": model.prior_mu.tolist(),
        "prior_rho": model.prior_rho.tolist(),
    }
    with atomic_open(path) as fh:
        json.dump(payload, fh)


def load_model(path):
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("magic") != MODEL_MAGIC:
        raise ValueError(f"not a {MODEL_MAGIC} checkpoint: {path}")
    model = DmgmmModel(
        encoders=[Mlp.from_dict(d) for d in payload["encoders"]],
        decoders=[Mlp.from_dict(d) for d in payload["decoders"]],
        likelihoods=payload["likelihoods"],
        d_z=payload["d_z"],
        K=payload["K"],
    )
    model.pi_logits = np.asarray(payload["pi_logits"], dtype=np.float64)
    model.prior_mu = np.asarray(payload["prior_mu"], dtype=np.float64)
    model.prior_rho = np.asarray(payload["prior_rho"], dtype=np.float64)
    return model
