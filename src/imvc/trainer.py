"""Training orchestration: pretrain, score, initialize the mixture, fit.

The pipeline is: (1) pretrain encoders/decoders as plain per-view
autoencoders on observed rows; (2) score every missing position once from
the pretrained latents and freeze the selection; (3) seed the mixture
prior with k-means++ on the fused latents; (4) run the epoch loop -- each
epoch re-encodes, refreshes the selected imputations from the current
posteriors (constants for the epoch), and takes Adam steps on the total
loss. Unobserved feature cells are never read anywhere in this pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import scoring
from .metrics import accuracy, ari, nmi
from .nn import Adam, sigmoid

# encoder scale head after calibration, as a fraction of the unit latent std
ENC_SIGMA_FRAC = 0.5
# k-means++ restarts, and Lloyd iterations per restart
KMEANS_RESTARTS = 10
KMEANS_ITERS = 100


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch, term):
        super().__init__(
            f"training diverged at epoch {epoch} (non-finite {term}) "
            "after exhausting learning-rate reductions"
        )
        self.epoch = epoch


@dataclass
class TrainConfig:
    pretrain_epochs: int = 200
    train_epochs: int = 300
    batch_size: int = 0  # 0 = full batch
    pretrain_lr: float = 1e-3
    train_lr: float = 1e-3
    alpha: float = 5.0
    selection_ratio: float = 0.5
    n_neighbors: int = 10
    d_z: int = 10
    hidden: tuple = (256, 64)
    likelihoods: list | None = None
    seed: int = 0
    log_every: int = 10

    def __post_init__(self):
        if self.train_epochs <= 0 or self.pretrain_epochs < 0:
            raise ValueError("epoch counts must be positive")
        if self.batch_size < 0:
            raise ValueError("batch_size must be non-negative")
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.selection_ratio <= 1.0:
            raise ValueError("selection ratio must lie in [0, 1]")
        # written so that NaN fails each comparison
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")
        M.check_neighbors(self.n_neighbors, "n_neighbors")
        if self.d_z < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("d_z and every hidden width must be at least 1")
        for name, lr in (("pretrain_lr", self.pretrain_lr), ("train_lr", self.train_lr)):
            if not 0 < lr < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {lr}")


@dataclass
class FitResult:
    model: M.DmgmmModel
    table: scoring.InfoTable | None
    assignments: np.ndarray
    gamma: np.ndarray
    history: list = field(default_factory=list)
    pretrain_losses: list = field(default_factory=list)


def pretrain(model, dataset, config):
    """Reconstruction-only warm-up; returns per-view latent mean matrices.

    Trains sum_v mean_i ||x_i^v - g^v(mu_i^v)||^2 over observed rows with
    Adam; the latent is the deterministic encoder mean (no sampling, no
    variance head involvement). H[v] rows are valid only where view v is
    observed. Raises ValueError when a view has no observed sample.

    The loss and the returned latents read only the mean columns of the
    network outputs (encoder means, Gaussian decoder means, Bernoulli
    logits), which ``model.scale_heads`` passes through unchanged, so the
    plain outputs are used and no encoder input gradient is formed. The
    GEMMs keep their full width, zero scale-column gradients included, so
    every result equals that of the passes with heads bit for bit.
    """
    dataset.check_views_observed()
    opt = Adam([p for net in model.encoders + model.decoders for p in net.parameters()],
               lr=config.pretrain_lr)
    d = model.d_z
    losses = []
    obs_rows = [dataset.observed(v) for v in range(model.n_views)]
    obs_X = [dataset.views[v][rows] for v, rows in enumerate(obs_rows)]
    for _ in range(config.pretrain_epochs):
        total = 0.0
        enc_grads, dec_grads = [], []
        for v in range(model.n_views):
            X = obs_X[v]
            enc, dec = model.encoders[v], model.decoders[v]
            a_e, in_e = enc.forward(X)
            a_d, in_d = dec.forward(a_e[:, :d])
            if model.likelihoods[v] == "gaussian":
                recon = a_d[:, : X.shape[1]]
            else:
                recon = sigmoid(a_d)
            err = recon - X
            total += float((err * err).sum(axis=1).mean())
            d_recon = 2.0 * err / X.shape[0]
            if model.likelihoods[v] == "gaussian":
                d_a_d = np.zeros_like(a_d)
                d_a_d[:, : X.shape[1]] = d_recon
            else:
                d_a_d = d_recon * recon * (1.0 - recon)
            gd, d_mu = dec.backward(in_d, d_a_d)
            d_a_e = np.zeros_like(a_e)
            d_a_e[:, :d] = d_mu
            ge, _ = enc.backward(in_e, d_a_e, input_grad=False)
            enc_grads.append(ge)
            dec_grads.append(gd)
        if not np.isfinite(total):
            raise M.NonFiniteLossError("pretrain_reconstruction", total)
        opt.step([g for gs in enc_grads + dec_grads for g in gs])
        losses.append(total)

    latents = []
    for v in range(model.n_views):
        H = np.zeros((dataset.n_samples, d))
        H[obs_rows[v]] = model.encoders[v].forward(obs_X[v])[0][:, :d]
        latents.append(H)
    return latents, losses


def calibrate_heads(model, dataset, latents):
    """Standardize the latent spaces and rescale the untrained scale heads
    after pretraining.

    Pretraining only shapes the mean paths: the softplus heads still sit at
    softplus(0) ~ 0.69 whatever the data looks like, and each view's latent
    cloud has an arbitrary offset and scale. Training straight from that
    state collapses the mixture (posterior noise wider than the latent
    spread) and makes the exp(-distance) neighbor weights degenerate
    (distances far from O(1) turn the softmax uniform or one-hot). The
    calibration therefore:

      * reparameterizes each encoder mean head so the view's latents have
        zero mean and unit per-dimension variance, with the inverse affine
        map absorbed exactly into the decoder's first layer (the composed
        function is unchanged);
      * sets the encoder scale head to ENC_SIGMA_FRAC (per-dimension std
        is now 1);
      * sets the decoder scale head to the per-dimension reconstruction
        residual std.

    Mutates the model and the latents in place.
    """
    d = model.d_z
    for v in range(model.n_views):
        rows = dataset.observed(v)
        if rows.size == 0:
            continue
        X = dataset.views[v][rows]
        H = latents[v][rows]

        center = H.mean(axis=0)
        scale = np.maximum(H.std(axis=0), 1e-3)
        enc = model.encoders[v]
        enc.weights[-1][:, :d] /= scale[None, :]
        enc.biases[-1][:d] = (enc.biases[-1][:d] - center) / scale
        dec = model.decoders[v]
        # first decoder layer absorbs the inverse map: g'(h) = g(h*s + c)
        dec.biases[0] += center @ dec.weights[0]
        dec.weights[0] *= scale[:, None]
        latents[v][rows] = (H - center) / scale

        if model.likelihoods[v] == "gaussian":
            out, _ = dec.forward(latents[v][rows])
            resid = X - out[:, : X.shape[1]]
            res_scale = np.maximum(resid.std(axis=0), 1e-3)
            dec.biases[-1][X.shape[1]:] = M._inv_softplus(res_scale)
        enc.biases[-1][d:] = M._inv_softplus(np.full(d, ENC_SIGMA_FRAC))


def _kmeans_once(X, K, rng):
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for kk in range(1, K):
        total = d2.sum()
        if total > 0:
            centers[kk] = X[rng.choice(n, p=d2 / total)]
        else:
            centers[kk] = X[rng.integers(n)]
        d2 = np.minimum(d2, ((X - centers[kk]) ** 2).sum(axis=1))

    assign = None
    for _ in range(KMEANS_ITERS):
        dist = ((X[:, None, :] - centers[None]) ** 2).sum(axis=-1)
        new_assign = dist.argmin(axis=1)
        # repair empty clusters by stealing the farthest point
        stolen = set()
        for kk in range(K):
            if (new_assign == kk).any():
                continue
            resid = dist[np.arange(n), new_assign].copy()
            if stolen:
                resid[list(stolen)] = -1.0
            far = int(resid.argmax())
            new_assign[far] = kk
            stolen.add(far)
        if assign is not None and (new_assign == assign).all():
            break
        assign = new_assign
        for kk in range(K):
            centers[kk] = X[assign == kk].mean(axis=0)
    dist = ((X - centers[assign]) ** 2).sum(axis=1)
    return centers, assign, float(dist.sum())


def kmeans_pp(X, K, seed):
    """k-means++ with Lloyd refinement; best of ``KMEANS_RESTARTS`` restarts."""
    if not 1 <= K <= X.shape[0]:
        raise ValueError(f"cannot place {K} clusters on {X.shape[0]} points")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_RESTARTS):
        centers, assign, inertia = _kmeans_once(X, K, rng)
        if best is None or inertia < best[2]:
            best = (centers, assign, inertia)
    return best[0], best[1]


def init_prior(latent_mu, K, seed, var_boost=None, fit_rows=None):
    """Mixture prior seeded by k-means++ on the fused latent means.

    fit_rows, when given, restricts the k-means itself to those rows
    (e.g. the fully observed samples, whose fused latents all live in one
    consistent frame); every sample is then assigned to its nearest
    centroid for the variance and weight estimates. Component variances
    are within-cluster per-dimension variances (floored); var_boost, when
    given, is added on top so the components cover the sampling spread of
    the posterior, not just the spread of its means. Weights are cluster
    fractions floored at 1/(10K) and renormalized.
    """
    basis = latent_mu if fit_rows is None else latent_mu[fit_rows]
    centers, _ = kmeans_pp(basis, K, seed)
    d2 = ((latent_mu[:, None, :] - centers[None]) ** 2).sum(axis=-1)
    assign = d2.argmin(axis=1)
    n, d = latent_mu.shape
    var = np.empty((K, d))
    pi = np.empty(K)
    for kk in range(K):
        rows = latent_mu[assign == kk]
        if rows.shape[0] == 0:
            var[kk] = M.VAR_MIN
            pi[kk] = 0.0
            continue
        var[kk] = np.maximum(rows.var(axis=0), M.VAR_MIN)
        pi[kk] = rows.shape[0] / n
    if var_boost is not None:
        var += np.asarray(var_boost)[None, :]
    pi = np.maximum(pi, 1.0 / (10 * K))
    pi /= pi.sum()
    return M.MixturePrior(pi=pi, mu=centers, var=var)


def build_pretrained(dataset, config, K):
    """Build the model for ``config``, pretrain it and calibrate its heads.

    Returns (model, latents, pretrain losses). ``build_scored`` goes on to
    score from the latents; a fit without the informativeness gate starts
    here and never scores.
    """
    dataset.check_views_observed()
    model = M.DmgmmModel.build(
        dataset.dims, K, d_z=config.d_z, hidden=tuple(config.hidden),
        likelihoods=config.likelihoods or None, seed=config.seed,
    )
    for v, lk in enumerate(model.likelihoods):
        if lk == "bernoulli":
            X = dataset.views[v][dataset.observed(v)]
            if X.min() < 0 or X.max() > 1:
                raise ValueError(f"view {v} is not in [0,1]; Bernoulli likelihood needs that")
    latents, losses = pretrain(model, dataset, config)
    calibrate_heads(model, dataset, latents)
    return model, latents, losses


def build_scored(dataset, config, K):
    """``build_pretrained``, then ``view_correlation`` and ``info_scores`` on
    its latents: the pretrain -> calibrate -> score start shared by ``fit``,
    ``imvc score`` and ``imvc plugin``. Returns (model, InfoTable with
    nothing selected, pretrain losses)."""
    model, latents, losses = build_pretrained(dataset, config, K)
    corr = scoring.view_correlation(latents, dataset)
    return model, scoring.info_scores(dataset, corr=corr), losses


def _enter_state(model, dataset, table, k, keep):
    """What the rest of ``fit`` reads of the current parameters, from one
    run of each encoder: ``encode_all``'s posteriors, the encoder pass
    they were read from when ``keep`` (else None), and ``impute_all``'s
    dense experts from them (None when nothing is selected)."""
    encoded = M.encoder_pass(model, dataset, np.arange(dataset.n_samples))
    posts = M.encode_all(model, dataset, encoded)
    if not keep:
        encoded = None  # released before the imputation runs
    imput = None
    if table is not None and table.n_selected:
        imput = M.impute_all(dataset, table, posts, k=k)
    return posts, encoded, imput


def _deterministic_assignments(model, dataset, posts, imput):
    """Cluster assignments from the noise-free fused posterior mean of the
    per-view posteriors ``posts`` and the imputed experts ``imput``."""
    agg = M.aggregate_observed(posts, dataset.mask, imput)
    gamma = M.responsibilities(model.prior, agg.mu)
    return gamma.argmax(axis=1), gamma


def label_metrics(assign, labels):
    """acc/nmi/ari of hard assignments against the true labels."""
    return {"acc": accuracy(assign, labels), "nmi": nmi(assign, labels),
            "ari": ari(assign, labels)}


def fit(dataset, config, selective_imputation=True):
    """Full pipeline; returns a FitResult with final hard assignments.

    With selective_imputation=False (or a selection ratio of 0, or
    complete data) the epoch loop reduces to plain observed-view fusion;
    the code path is otherwise identical, so gate-closed runs reproduce
    the imputation-free variant bit for bit. The selected positions are
    imputed once per parameter state: the next epoch's loss, the logged
    eval and the final assignments all read the same experts. A full-batch
    fit also encodes each state once: the encoder pass that gives the
    posteriors feeds the next epoch's loss. A missing cluster count, or one
    above the sample count, raises ValueError before any training.
    """
    K = dataset.K
    if K is None:
        raise ValueError("dataset has no cluster count; set K")
    if K > dataset.n_samples:
        raise ValueError(f"cannot place {K} clusters on {dataset.n_samples} samples")
    table = None
    if selective_imputation:
        model, table, pre_losses = build_scored(dataset, config, K)
        table = scoring.select_positions(table, config.selection_ratio)
    else:
        model, _, pre_losses = build_pretrained(dataset, config, K)
    n = dataset.n_samples
    batch = config.batch_size if 0 < config.batch_size < n else n

    # posts holds the posteriors of the current parameters throughout and
    # imput the experts imputed from them, which a retried epoch reuses; so
    # does encoded, the encoder pass of a full-batch fit (the one batch's
    # encoder runs), while mini-batches encode their own rows
    posts, encoded, imput = _enter_state(model, dataset, table, config.n_neighbors,
                                         keep=batch == n)
    agg0 = M.aggregate_observed(posts, dataset.mask)
    # Seed the k-means on fully observed samples when there are enough of
    # them: their fused latents share one frame, so the centroids are not
    # smeared by missing-pattern offsets.
    complete = np.where(dataset.mask.sum(axis=1) == dataset.n_views)[0]
    fit_rows = complete if complete.size >= max(4 * K, 20) else None
    model.set_prior(
        init_prior(agg0.mu, K, seed=config.seed + 1_000_003,
                   var_boost=agg0.var.mean(axis=0), fit_rows=fit_rows)
    )

    opt = Adam(model.parameters(), lr=config.train_lr)
    rng_noise = np.random.default_rng(config.seed + 2_000_003)
    rng_shuffle = np.random.default_rng(config.seed + 3_000_003)

    history = []
    snapshot = (model.copy_params(), opt.state_dict())
    retries = 0
    epoch = 0
    while epoch < config.train_epochs:
        try:
            if batch == n:
                batches = [np.arange(n)]
            else:
                order = rng_shuffle.permutation(n)
                batches = [order[s : s + batch] for s in range(0, n, batch)]
            # the epoch's terms are the batch terms weighted by |b| / n; one
            # full batch has weight 1.0, so its terms are logged unchanged
            logged = None
            for idx in batches:
                eps = rng_noise.standard_normal((idx.size, config.d_z))
                terms, grads = M.loss_and_grads(
                    model, dataset, idx, eps, alpha=config.alpha, imputations=imput,
                    encoded=encoded,
                )
                opt.step(grads)
                weighted = {k: idx.size / n * x for k, x in terms.as_dict().items()}
                logged = weighted if logged is None else {
                    k: logged[k] + x for k, x in weighted.items()
                }
            # a state that the next epoch or the logged eval cannot use (a
            # non-finite parameter, a prior weight of 0) must not be snapshotted
            M.check_trainable(model)
        except M.NonFiniteLossError as err:
            if retries >= 3:
                raise TrainingDiverged(epoch, err.term) from err
            retries += 1
            model.load_params(snapshot[0])
            opt.load_state_dict(snapshot[1])
            opt.lr *= 0.5
            continue

        snapshot = (model.copy_params(), opt.state_dict())
        # the old state is released before the new one is made
        posts = encoded = imput = None
        posts, encoded, imput = _enter_state(model, dataset, table, config.n_neighbors,
                                             keep=batch == n)
        entry = {"epoch": epoch, **logged}
        # the last epoch is evaluated once, below, with the final assignments
        if (dataset.labels is not None and epoch % config.log_every == 0
                and epoch < config.train_epochs - 1):
            assign, _ = _deterministic_assignments(model, dataset, posts, imput)
            entry.update(label_metrics(assign, dataset.labels))
        history.append(entry)
        epoch += 1

    assignments, gamma = _deterministic_assignments(model, dataset, posts, imput)
    if dataset.labels is not None:
        history[-1].update(label_metrics(assignments, dataset.labels))
    return FitResult(
        model=model,
        table=table,
        assignments=assignments,
        gamma=gamma,
        history=history,
        pretrain_losses=pre_losses,
    )
