"""Deep multi-view Gaussian mixture model.

Generative story: a cluster c ~ Categorical(pi) picks a component of a
diagonal-Gaussian mixture over the latent z; each view is then decoded
from z independently (Gaussian or Bernoulli likelihood per view).
Inference runs the other way: per-view encoders produce diagonal Gaussian
posteriors q(z | x^v), which are fused across observed views by a
product of experts (precision-weighted mean, summed precisions); a view a
sample does not observe is left out of its product. Missing views that
were selected for imputation get their posterior parameters estimated
from latent-space neighbors, with the dispersion of neighbor means added
to the imputed variance as an epistemic term. Imputed experts travel
densely: ``impute_all`` sums them per sample into a pair ``(prec, num)``
of (N, d_z) arrays (summed precisions and summed precision-weighted
means). An observed view's expert lives only on the rows that observe it,
as ``(rows, mu, prec)``. Every fusion goes through ``fuse``, which starts
from the imputed sums and adds the observed views' experts on their rows,
in view index order. ``encoder_pass`` stacks every view's experts into
one array, over which the loss forms their terms at once.

The training loss is the negative ELBO (reconstruction over observed
views, mixture KL, categorical KL) plus ``alpha`` times a coherence
penalty KL(fused || per-view). ``loss_and_grads`` evaluates it with
hand-derived gradients for every parameter, running each decoder forward
and backward in one pass; imputed experts are constants (refreshed once
per epoch, not differentiated through).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .nn import Mlp, sigmoid, softplus

# Floor added to every scale output; squaring it gives the variance floor
SIGMA_MIN = 1e-4
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


def _inv_softplus(y):
    # solve softplus(x) = y for y > 0
    y = np.maximum(y, 1e-12)
    return y + np.log(-np.expm1(-y))


def scale_heads(a, k):
    """A network output ``a`` read as ``[mean | scale]``, in a new array: the
    first ``k`` columns pass through, the rest become the scales
    ``softplus(a) + SIGMA_MIN``. Encoders are read with ``k = d_z`` and
    decoders with ``k = d_v``, so a Bernoulli decoder's logits (``d_v``
    wide) pass through whole."""
    out = a.copy()
    out[:, k:] = softplus(a[:, k:]) + SIGMA_MIN
    return out


def scale_slope(a, k, da):
    """Multiply ``da``, a gradient w.r.t. ``scale_heads(a, k)``, in place by
    the heads' slope, giving the gradient w.r.t. ``a``."""
    da[:, k:] *= sigmoid(a[:, k:])


class DmgmmModel:
    """Per-view encoder/decoder pairs plus free mixture parameters.

    Encoders emit [mu | sigma] (sigma through ``scale_heads``, so the
    per-view posterior variance is sigma^2 >= SIGMA_MIN^2). Gaussian
    decoders emit [mean | sigma]; Bernoulli decoders emit logits. The
    mixture is parameterized unconstrained: pi = softmax(pi_logits),
    var_k = softplus(var_rho) + VAR_MIN. Models come from ``build``, which
    checks its arguments; ``__init__`` takes the networks as given.
    """

    def __init__(self, encoders, decoders, likelihoods, d_z, K, seed=0):
        self.encoders = list(encoders)
        self.decoders = list(decoders)
        self.likelihoods = list(likelihoods)
        self.d_z = int(d_z)
        self.K = int(K)
        rng = np.random.default_rng(seed)
        self.pi_logits = np.zeros(K)
        self.prior_mu = rng.normal(scale=0.1, size=(K, d_z))
        self.prior_rho = np.full((K, d_z), _inv_softplus(np.array(1.0 - VAR_MIN)))

    @classmethod
    def build(cls, view_dims, K, d_z=10, hidden=(256, 64), likelihoods=None, seed=0):
        """Symmetric architecture: d_v -> hidden -> 2*d_z and mirrored back.

        ``likelihoods`` names one of ``LIKELIHOODS`` per view (all Gaussian
        by default); a wrong count or an unknown name raises ValueError.
        """
        if likelihoods is None:
            likelihoods = ["gaussian"] * len(view_dims)
        if len(likelihoods) != len(view_dims):
            raise ValueError(f"{len(likelihoods)} likelihoods given for {len(view_dims)} views")
        for lk in likelihoods:
            if lk not in LIKELIHOODS:
                raise ValueError(f"unknown likelihood {lk!r}")
        encoders, decoders = [], []
        for v, d_v in enumerate(view_dims):
            encoders.append(Mlp([d_v, *hidden, 2 * d_z], seed=seed * 1000 + 2 * v))
            # a Gaussian decoder emits [mean | sigma], a Bernoulli one logits
            width = d_v if likelihoods[v] == "bernoulli" else 2 * d_v
            decoders.append(Mlp([d_z, *reversed(hidden), width], seed=seed * 1000 + 2 * v + 1))
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
        """Copy ``saved``, one array per entry of ``parameters()`` in that
        order (``copy_params``' list), into the live parameters. Nothing is
        written unless the count and every shape match; otherwise ValueError
        names the count or the first bad ``parameters[i]``.
        """
        params = self.parameters()
        if len(saved) != len(params):
            raise ValueError(f"{len(saved)} parameter arrays given, expected {len(params)}")
        for i, (p, s) in enumerate(zip(params, saved)):
            if s.shape != p.shape:
                raise ValueError(f"parameters[{i}] has shape {s.shape}, expected {p.shape}")
        for p, s in zip(params, saved):
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


@dataclass(frozen=True)
class EncoderPass:
    """Every view's encoder run on the batch rows that observe the view,
    stacked in view order: stack row j is batch row ``rows[j]``, view v's
    stack rows are ``slices[v]``, ``a_out`` is the stacked network outputs
    and ``out`` their ``scale_heads`` ``[mu | sigma]``, and ``inputs[v]`` is
    view v's layer inputs (its rows' features first). A pass is only read,
    never written, so one pass of a parameter state can serve
    ``encode_all`` and ``loss_and_grads`` alike."""

    rows: np.ndarray
    slices: list
    a_out: np.ndarray
    out: np.ndarray
    inputs: list


def encoder_pass(model, dataset, batch_idx):
    """The ``EncoderPass`` of the rows ``batch_idx``: each view's encoder
    runs on its rows, and ``scale_heads`` with ``k = d_z`` once on the
    whole stack.
    """
    obs = dataset.mask[batch_idx].astype(bool)
    rows = [np.flatnonzero(obs[:, v]) for v in range(model.n_views)]
    passes = [net.forward(X[batch_idx[r]])
              for net, X, r in zip(model.encoders, dataset.views, rows)]
    bounds = np.cumsum([0] + [r.size for r in rows]).tolist()
    a_out = np.concatenate([a for a, _ in passes])
    return EncoderPass(rows=np.concatenate(rows),
                       slices=[slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])],
                       a_out=a_out, out=scale_heads(a_out, model.d_z),
                       inputs=[ins for _, ins in passes])


def encode_all(model, dataset, encoded=None):
    """Per-view posteriors over all samples.

    ``encoded``, when given, is ``encoder_pass`` over ``arange(N)`` at the
    current parameters, and no encoder is run. Unobserved rows hold
    neutral placeholders (mu 0, var 1) that no fusion reads:
    ``aggregate_observed`` takes each view's expert on its observed rows
    only. Only observed rows are ever passed through the encoders, so
    poisoned masked cells cannot leak.
    """
    n, d = dataset.n_samples, model.d_z
    if encoded is None:
        encoded = encoder_pass(model, dataset, np.arange(n))
    posts = []
    for sl in encoded.slices:
        rows = encoded.rows[sl]
        mu = np.zeros((n, d))
        var = np.ones((n, d))
        mu[rows] = encoded.out[sl, :d]
        var[rows] = encoded.out[sl, d:] ** 2
        posts.append(GaussianPosterior(mu=mu, var=var))
    return posts


def fuse(experts, imputed):
    """Product of Gaussian experts, each on the rows that observe it.

    Starts from the summed constant experts ``imputed = (prec, num)``
    (``impute_all``'s pair, or zeros), which are not written. Each expert
    is ``(rows, mu, prec)``: a view's means and precisions on the rows
    ``rows`` of the sums. In list order, ``P[rows] += prec`` and
    ``num[rows] += prec * mu``. Returns plain ``(mu, var)`` arrays; nothing
    is validated, so a non-finite expert reaches the caller's finiteness
    checks instead of raising here.
    """
    P = imputed[0].copy()
    num = imputed[1].copy()
    for rows, mu, prec in experts:
        P[rows] += prec
        num[rows] += prec * mu
    var = 1.0 / P
    return num * var, var


def aggregate_observed(view_posteriors, mask, imputed=None):
    """PoE over observed views, batched over all samples.

    ``imputed`` is the ``(prec, num)`` pair of ``impute_all``; its experts
    are added to the observed ones.
    """
    if imputed is None:
        zero = np.zeros_like(view_posteriors[0].mu)
        imputed = (zero, zero)
    experts = []
    for v, p in enumerate(view_posteriors):
        rows = np.flatnonzero(mask[:, v])
        experts.append((rows, p.mu[rows], 1.0 / p.var[rows]))
    mu, var = fuse(experts, imputed)
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
# metrics.plugin_impute). A block holds a few arrays of at most block *
# donors elements (plugin_impute's keys cover only the donors sharing a
# view with the block's observation pattern), so one call needs
# O(block * N) memory.
QUERY_BLOCK = 256


def check_neighbors(k, name="k"):
    """Raise ValueError unless the neighbour count k is an integer >= 1."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"need at least one neighbor: {name} must be an integer >= 1, "
                         f"got {k!r}")


# squared row norms below this keep every GEMM-form value finite
_SQ_MAX = np.finfo(np.float64).max / 8


def gemm_sq_distances(A, sq_a, B, sq_b):
    """GEMM estimate of the squared distances between the rows of A and B.

    ``sq_a`` and ``sq_b`` are the rows' squared norms, ``(X * X).sum(axis=1)``.
    Returns ``(approx, tol)``: approx[i, j] = |a_i|^2 + |b_j|^2 - 2 a_i.b_j,
    and tol[i] the rounding margin of row i, derived below. Returns None
    when a squared norm is non-finite or not below ``_SQ_MAX``; the caller
    then takes its exact pass over every row.

    With m features, u = eps / 2 and n = |a|^2 + |b|^2: the GEMM form is
    within (2m + 4) u n of the true squared distance T (the squared norms
    within m u of theirs, the dot product within m u n / 2, and two adds
    of values up to 2n). An exact kernel that sums the m squared
    differences in any order (``scoring.view_distances``, ``w2_distance``)
    is within (m + 2) u T <= (2m + 4) u n of T. Two values whose rounded
    square roots are equal lie within 8 u n of each other. tol is twice the
    sum of these three, with n taken at the row's norm plus the largest
    column norm, plus twice the up to 4m underflows of half the smallest
    subnormal that the products can add. So approx and the exact kernel
    differ by less than tol / 2 on every pair of the row.
    """
    if not ((sq_a < _SQ_MAX).all() and (sq_b < _SQ_MAX).all()):
        return None
    approx = A @ B.T
    approx *= -2.0
    approx += sq_a[:, None]
    approx += sq_b
    m = A.shape[1]
    tol = (4 * m + 16) * np.finfo(np.float64).eps * (sq_a + sq_b.max())
    tol += 4 * m * np.finfo(np.float64).smallest_subnormal
    return approx, tol


def _nearest_donors(feats, sq, q, donors, k):
    """The k donors nearest to each query row by ``w2_distance``.

    ``feats`` is ``[mu, sd]`` of the fused posteriors, one row per sample,
    and ``sq`` its squared row norms. Returns ``(nb, dist)``, two (len(q),
    k) arrays of donor sample indices and their distances: each row is
    what a stable argsort of the full query x donor distance matrix keeps
    (ascending distance, ties to the lower donor index), bit for bit. Per
    block of query rows, one GEMM gives W2^2 = |f_q|^2 + |f_d|^2 - 2 f_q.f_d
    up to rounding; only donors within the rounding bound of a row's k-th
    value are re-ranked, from the same ``feats`` rows, by the operations of
    ``w2_distance``: the mu and sd halves' squared differences are summed
    separately, then added.
    """
    d = feats.shape[1] // 2
    fd, sq_d = feats[donors], sq[donors]
    nb = np.empty((q.size, k), dtype=np.int64)
    dist = np.empty((q.size, k))
    for lo in range(0, q.size, QUERY_BLOCK):
        qb = q[lo:lo + QUERY_BLOCK]
        cand = np.broadcast_to(donors, (qb.size, donors.size))
        screen = gemm_sq_distances(feats[qb], sq[qb], fd, sq_d) if k < donors.size else None
        if screen is not None:
            # The k donors with the smallest approximate values have exact
            # values within tol / 2 of them, so the k-th exact value is at
            # most the k-th approximate one + tol / 2, and every donor of
            # the stable top k (a tie of rounded distances included) has
            # an approximate value of at most the k-th one + tol.
            approx, tol = screen
            part = np.argpartition(approx, k - 1, axis=1)
            bound = approx[np.arange(qb.size), part[:, k - 1]] + tol
            c = int((approx <= bound[:, None]).sum(axis=1).max())
            if c < donors.size:
                if c > k:
                    part = np.argpartition(approx, c - 1, axis=1)
                cand = donors[np.sort(part[:, :c], axis=1)]
        # re-rank in row chunks so that no gathered (rows, C, 2 d_z) array
        # holds more than 2 * QUERY_BLOCK * donors elements, even when ties
        # make every donor a candidate
        exact = np.empty(cand.shape)
        step = max(1, QUERY_BLOCK * donors.size // (cand.shape[1] * d))
        for s in range(0, qb.size, step):
            diff = feats[qb[s:s + step]][:, None, :] - feats[cand[s:s + step]]
            diff *= diff
            exact[s:s + step] = np.sqrt(diff[..., :d].sum(axis=-1) + diff[..., d:].sum(axis=-1))
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
    zero. Raises ValueError unless k is an integer of at least 1.
    """
    check_neighbors(k)
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
        nb, dn = _nearest_donors(feats, sq, q, donors, min(k, donors.size))
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
    weight has underflowed to 0 (the loss takes its log). One pass over all
    parameters, concatenated in ``parameters()`` order, so the error
    carries the first non-finite entry in that order."""
    _check_finite("parameters", np.concatenate([p.ravel() for p in model.parameters()]))
    with np.errstate(divide="ignore"):
        _check_finite("log_pi", np.log(model.pi))


def _nll_and_grad(likelihood, X, out, c):
    """Per-row NLL of X under decoder heads ``out`` ([mean | sigma] or
    logits), and ``c`` times its gradient w.r.t. ``out``."""
    if likelihood == "gaussian":
        m_x, s_x = out[:, :X.shape[1]], out[:, X.shape[1]:]
        nll = 0.5 * (LOG_2PI + 2.0 * np.log(s_x) + ((X - m_x) / s_x) ** 2).sum(axis=1)
        return nll, np.concatenate([c * (m_x - X) / s_x**2,
                                    c * (1.0 / s_x - (X - m_x) ** 2 / s_x**3)], axis=1)
    return (softplus(out) - X * out).sum(axis=1), c * (sigmoid(out) - X)


def loss_and_grads(model, dataset, batch_idx, eps, alpha=0.0, imputations=None,
                   encoded=None):
    """Training objective and analytic gradients on one batch.

    eps is the frozen reparameterization noise, shape (len(batch), d_z).
    imputations is ``impute_all``'s ``(prec, num)`` pair over all samples
    (or None); its batch rows are constant experts (no gradients flow into
    them). ``encoded``, when given, is ``encoder_pass(model, dataset,
    batch_idx)`` at the current parameters, read in place of running the
    encoders again, bit for bit. Each view's networks run on the batch rows
    that observe it only, so a view no batch row observes gets exactly zero
    gradients. Each decoder runs forward and backward once, in view order,
    before the (B, K, d) prior terms are formed; z's gradient adds the
    prior's path after the decoders'. Returns (LossTerms, grads), grads
    aligned to ``model.parameters()``. Raises NonFiniteLossError naming the
    first non-finite term, or ``log_pi`` before any network runs.
    """
    batch_idx = np.asarray(batch_idx, dtype=np.int64)
    B = batch_idx.size
    d = model.d_z
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (B, d):
        raise ValueError("noise shape must be (batch, d_z)")
    pi = model.pi
    if not pi.all():  # a weight underflowed to 0, whose log is -inf
        raise NonFiniteLossError("log_pi", -math.inf)
    c = 1.0 / B

    # ---- encode: the experts of every view, stacked; stack row j lies on
    # batch row R[j], and view v's experts are the stack rows slices[v] ----
    if encoded is None:
        encoded = encoder_pass(model, dataset, batch_idx)
    R, slices = encoded.rows, encoded.slices
    view_rows = [R[sl] for sl in slices]
    mu = encoded.out[:, :d]
    sd = encoded.out[:, d:]
    var = sd**2
    prec = 1.0 / var

    # ---- product of experts: constant imputed experts, then observed ----
    if imputations is None:
        zero = np.zeros((B, d))
        imputed = (zero, zero)
    else:
        imputed = tuple(a[batch_idx] for a in imputations)
    mu_agg, var_agg = fuse([(rows, mu[sl], prec[sl]) for rows, sl in zip(view_rows, slices)],
                           imputed)
    sd_agg = np.sqrt(var_agg)
    z = mu_agg + sd_agg * eps

    # ---- each view's decoder, forward and backward, on its rows ----
    recon = np.zeros(B)
    g_z = np.zeros((B, d))
    dec_grads = []
    for v, rows in enumerate(view_rows):
        X = encoded.inputs[v][0]
        a, ins = model.decoders[v].forward(z[rows])
        nll, d_out = _nll_and_grad(model.likelihoods[v], X, scale_heads(a, X.shape[1]), c)
        recon[rows] += nll
        scale_slope(a, X.shape[1], d_out)
        gv, dz_rows = model.decoders[v].backward(ins, d_out)
        g_z[rows] += dz_rows
        dec_grads.append(gv)
    del a, ins, nll, d_out, dz_rows  # the last view's are not read again

    # ---- mixture prior: each shared (B, K, d) term is formed once ----
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

    # coherence, per expert
    ch_R = 0.5 * (np.log(var) - np.log(var_agg[R])
                  + (var_agg[R] + (mu_agg[R] - mu) ** 2) / var - 1.0).sum(axis=1)
    ch = np.zeros(B)
    for rows, sl in zip(view_rows, slices):
        ch[rows] += ch_R[sl]
    nobs = np.bincount(R, minlength=B)  # the views each batch row observes
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

    # ================= backward =================
    # gamma-dependent paths first, so that their (B, K, d) terms are freed
    # before the encoders' backward passes
    d_gamma = c * (kl_k + log_gamma - log_pi[None, :] + 1.0)
    d_logits = gamma * (d_gamma - (gamma * d_gamma).sum(axis=1, keepdims=True))
    inv_vk = 1.0 / var_k
    inv_vk2 = inv_vk**2
    diff_iv = diff * inv_vk[None]
    g_z += -np.einsum("bk,bkd->bd", d_logits, diff_iv)  # the prior's path, after the decoders

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
    del diff, diff2, m_diff, spread, diff_iv, mu_diff

    # reparameterized sample
    d_mu_agg += g_z
    d_var_agg += g_z * eps / (2.0 * sd_agg)
    # the fused posterior at each expert's row, gathered only now so that
    # no stack-sized array is held through the (B, K, d) terms above
    m_R, v_R = mu_agg[R], var_agg[R]
    dev = m_R - mu

    # coherence through the fused posterior, added view by view before any
    # expert's backward reads the fused gradients
    coef = (c * alpha / nobs)[:, None]
    if alpha != 0.0:
        c_R = coef[R]
        dm_coh = c_R * dev / var
        dv_coh = c_R * 0.5 * (1.0 / var - 1.0 / v_R)
        for rows, sl in zip(view_rows, slices):
            d_mu_agg[rows] += dm_coh[sl]
            d_var_agg[rows] += dv_coh[sl]

    # product-of-experts backward into every expert, plus the coherence
    # term's direct path; then the encoder heads' slope once on the stack
    # and each view's encoder on its slice
    dm_R, dv_R = d_mu_agg[R], d_var_agg[R]
    own = mu - m_R
    d_m = dm_R * prec * v_R
    d_p = dm_R * own * v_R - dv_R * v_R**2
    d_var = -d_p * prec**2
    if alpha != 0.0:
        d_m += c_R * own / var
        d_var += c_R * 0.5 * (1.0 / var - v_R / var**2 - dev**2 / var**2)
    da = np.concatenate([d_m, d_var * 2.0 * sd], axis=1)
    scale_slope(encoded.a_out, d, da)
    enc_grads = [net.backward(ins, da[sl], input_grad=False)[0]
                 for net, ins, sl in zip(model.encoders, encoded.inputs, slices)]

    grads = [g for gv in enc_grads + dec_grads for g in gv]
    return terms, grads + [d_pi_logits, d_mu_k, d_var_k * sigmoid(model.prior_rho)]
