"""Correctness checks written independently of the library.

Every check returns ``(ok, detail)``. The references here recompute what a
workload's outputs must be from raw features and trained parameters, with
their own arithmetic; they share no helper with ``imvc`` beyond reading its
data structures.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial.distance import cdist, pdist

SCORE_RTOL = 1e-9  # vectorised sums against the library's exact fsum
GAMMA_ATOL = 1e-9  # summation order differs in the imputed-expert einsums
FILL_ATOL = 1e-12  # a mean of k rows, summed in a different order
CHANCE_MARGIN = 0.2  # accuracy must beat the majority-class share by this much


def score_sample(ds, corr, table, rng, n_sample):
    """``info_scores`` on a seeded sample of positions against a scorer that
    builds its own similarities from raw features.

    Info(i, v) = sum over support j of num_j * (1 + 1 / den_j), with
    num_j = sum_u sim_ij^u corr[u, v] and den_j = sum_u corr[u, v] over the
    views u that i and j both observe; sim^u = (1 - d / d_max(u))^2.
    """
    mask = ds.mask.astype(bool)
    V = ds.n_views
    d_max = [pdist(ds.views[u][mask[:, u]]).max() for u in range(V)]
    picks = rng.choice(len(table.scores), size=min(n_sample, len(table.scores)),
                       replace=False)
    worst = 0.0
    for p in picks:
        i, v = (int(x) for x in table.positions[p])
        shared = mask & mask[i][None, :]  # (N, V)
        support = mask[:, v] & shared.any(axis=1)
        num = np.zeros(ds.n_samples)
        den = np.zeros(ds.n_samples)
        for u in np.flatnonzero(mask[i]):
            d = cdist(ds.views[u][i][None, :], ds.views[u])[0]
            sim = (1.0 - d / d_max[u]) ** 2 if d_max[u] > 0 else np.ones_like(d)
            num += np.where(shared[:, u], sim * corr[u, v], 0.0)
            den += np.where(shared[:, u], corr[u, v], 0.0)
        ref = float((num[support] * (1.0 + 1.0 / den[support])).sum())
        got = float(table.scores[p])
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
    return worst <= SCORE_RTOL, f"{len(picks)} positions, max rel err {worst:.2e}"


def selection(table, ratio):
    """Exactly ceil(ratio * m) selected, and no unselected score above a
    selected one."""
    m = len(table.scores)
    want = math.ceil(ratio * m)
    got = int(table.selected.sum())
    ordered = True
    if 0 < got < m:
        ordered = table.scores[~table.selected].max() <= table.scores[table.selected].min()
    return got == want and ordered, f"{got}/{m} selected (want {want}), ordered={ordered}"


def plugin_fills(ds, table, filled, imputed, k, rng, n_sample):
    """Observed cells untouched; each sampled fill is the mean of k donors
    that observe the view, none ranked past the (k+1)-th donor on the
    average distance over shared observed views."""
    mask = ds.mask.astype(bool)
    sel = np.zeros_like(mask)
    pos = table.positions[table.selected]
    sel[pos[:, 0], pos[:, 1]] = True
    ok = bool(np.array_equal(imputed, sel))
    ok &= bool(np.array_equal(filled.mask.astype(bool), mask | sel))
    for v in range(ds.n_views):
        ok &= bool(np.array_equal(filled.views[v][mask[:, v]], ds.views[v][mask[:, v]]))
    if not ok:
        return False, "observed cells, mask or imputed flags changed"
    picks = rng.choice(len(pos), size=min(n_sample, len(pos)), replace=False)
    for p in picks:
        i, v = (int(x) for x in pos[p])
        donors = np.flatnonzero(mask[:, v] & (mask & mask[i][None, :]).any(axis=1))
        total = np.zeros(donors.size)
        n_shared = np.zeros(donors.size)
        for u in np.flatnonzero(mask[i]):
            has = mask[donors, u]
            d = cdist(ds.views[u][i][None, :], ds.views[u][donors[has]])[0]
            total[has] += d
            n_shared[has] += 1
        rank = donors[np.argsort(total / n_shared, kind="stable")]
        kk = min(k, rank.size)
        top = ds.views[v][rank[: kk + 1]]
        # any k of the k+1 nearest donors (k+1 only exists when there are spares)
        subsets = [top[:kk]] if top.shape[0] == kk else [
            np.delete(top, j, axis=0) for j in range(kk + 1)]
        fill = filled.views[v][i]
        if not any(np.allclose(s.mean(axis=0), fill, rtol=0, atol=FILL_ATOL) for s in subsets):
            return False, f"fill of ({i}, {v}) is no mean of k nearest donors"
    return True, f"{len(picks)} fills checked"


def reference_gamma(model, ds, table, posts, k):
    """Responsibilities recomputed from per-view posteriors: product-of-experts
    fusion, W2 k-NN imputation with softmax weights for the selected
    positions, and the mixture posterior."""
    mask = ds.mask.astype(bool)
    mus = [p.mu for p in posts]
    varis = [p.var for p in posts]
    prec = sum(np.where(mask[:, [v]], 1.0 / varis[v], 0.0) for v in range(ds.n_views))
    num = sum(np.where(mask[:, [v]], mus[v] / varis[v], 0.0) for v in range(ds.n_views))
    agg_mu, agg_sd = num / prec, np.sqrt(1.0 / prec)
    imp_prec = np.zeros_like(prec)
    imp_num = np.zeros_like(num)
    if table is not None:
        for i, v in table.positions[table.selected].tolist():
            donors = np.flatnonzero(mask[:, v])
            dist = np.sqrt(((agg_mu[donors] - agg_mu[i]) ** 2).sum(1)
                           + ((agg_sd[donors] - agg_sd[i]) ** 2).sum(1))
            order = np.argsort(dist, kind="stable")[: min(k, donors.size)]
            w = np.exp(-(dist[order] - dist[order].min()))
            w /= w.sum()
            nb = donors[order]
            mu_hat = w @ mus[v][nb]
            var_hat = w @ varis[v][nb] + w @ (mus[v][nb] - mu_hat) ** 2
            imp_prec[i] += 1.0 / var_hat
            imp_num[i] += mu_hat / var_hat
    z = (num + imp_num) / (prec + imp_prec)
    prior = model.prior
    logp = np.log(prior.pi)[None, :] - 0.5 * (
        np.log(2 * np.pi * prior.var).sum(1)[None, :]
        + (((z[:, None, :] - prior.mu[None]) ** 2) / prior.var[None]).sum(2))
    logp -= logp.max(axis=1, keepdims=True)
    g = np.exp(logp)
    return g / g.sum(axis=1, keepdims=True)


def fit_gamma(res, ds, k, encode_all):
    """``FitResult.gamma`` against ``reference_gamma`` on the trained model."""
    ref = reference_gamma(res.model, ds, res.table, encode_all(res.model, ds), k)
    err = float(np.abs(ref - res.gamma).max())
    argmax_ok = bool(np.array_equal(res.assignments, res.gamma.argmax(axis=1)))
    return err <= GAMMA_ATOL and argmax_ok, f"max abs err {err:.2e}, argmax={argmax_ok}"


def brute_force_accuracy(pred, truth, K):
    """Best accuracy over all K! relabelings of the prediction."""
    best = 0
    for perm in itertools.permutations(range(K)):
        best = max(best, int((np.asarray(perm)[pred] == truth).sum()))
    return best / truth.size


def fit_quality(res, labels, K, acc):
    """Accuracy equals the brute-force matcher, beats chance, and every
    logged loss is finite."""
    brute = brute_force_accuracy(res.assignments, labels, K)
    chance = np.bincount(labels).max() / labels.size
    finite = all(math.isfinite(e["total"]) for e in res.history) and all(
        math.isfinite(x) for x in res.pretrain_losses)
    ok = acc == brute and acc >= chance + CHANCE_MARGIN and finite
    return ok, f"acc {acc:.4f} brute {brute:.4f} chance {chance:.3f} finite={finite}"
