"""Multi-view dataset container, CSV ingestion, normalization, mask synthesis.

A dataset is N samples described by V feature matrices plus an N x V binary
observation mask: mask[i, v] == 1 means view v of sample i was observed.
Every sample must keep at least one observed view. Feature cells at
unobserved positions may hold anything (the model never reads them).

All values are treated as immutable after construction and are safe to
share across concurrent readers.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class MultiViewDataset:
    """V aligned feature matrices, observation mask, optional labels.

    views[v] has shape (N, d_v); mask has shape (N, V) with entries in
    {0, 1}; labels, when present, is a length-N integer vector in
    {0..K-1}. K may be None for unlabeled data loaded without a cluster
    count (training then requires it from configuration).
    """

    views: list[np.ndarray]
    mask: np.ndarray
    labels: np.ndarray | None = None
    K: int | None = None

    def __post_init__(self):
        self.views = [np.asarray(v, dtype=np.float64) for v in self.views]
        if not self.views:
            raise ValueError("dataset needs at least one view")
        n = self.views[0].shape[0]
        for v, X in enumerate(self.views):
            if X.ndim != 2:
                raise ValueError(f"view {v} is not a matrix")
            if X.shape[0] != n:
                raise ValueError(
                    f"row count mismatch: view {v} has {X.shape[0]} rows, view 0 has {n}"
                )
        mask = np.asarray(self.mask)
        if mask.shape != (n, len(self.views)):
            raise ValueError(
                f"mask shape {mask.shape} does not match {n} samples x {len(self.views)} views"
            )
        if not np.isin(mask, (0, 1)).all():
            raise ValueError("mask entries must be exactly 0 or 1")
        self.mask = mask.astype(np.int8)
        rows = np.where(self.mask.sum(axis=1) == 0)[0]
        if rows.size:
            raise ValueError(f"sample {rows[0]} has no observed view")
        if self.K is not None and self.K < 1:
            raise ValueError(f"cluster count must be at least 1, got {self.K}")
        if self.labels is not None:
            y = np.asarray(self.labels)
            if y.shape != (n,):
                raise ValueError("labels length does not match sample count")
            y = y.astype(np.int64)
            if self.K is None:
                self.K = int(y.max()) + 1
            if y.min() < 0 or y.max() >= self.K:
                raise ValueError(f"labels must lie in 0..{self.K - 1}")
            self.labels = y

    @property
    def n_samples(self):
        return self.views[0].shape[0]

    @property
    def n_views(self):
        return len(self.views)

    @property
    def dims(self):
        return [X.shape[1] for X in self.views]

    def observed(self, v):
        """Indices of samples observed in view v."""
        return np.where(self.mask[:, v] == 1)[0]

    def check_views_observed(self):
        """Raise ValueError naming the first view that no sample observes."""
        empty = np.where(self.mask.sum(axis=0) == 0)[0]
        if empty.size:
            raise ValueError(f"view {empty[0]} has no observed samples")


def mask_patterns(mask):
    """The observation patterns of ``mask``: ``(kinds, inverse)``, the
    distinct rows in ascending lexicographic order and each row's index
    into them, equal to ``np.unique(mask, axis=0, return_inverse=True)``
    (``inverse`` flattened). One ``np.lexsort`` over the columns, first
    column most significant, then a mark at every change of sorted row;
    it sorts no void records and works for any view count.
    """
    mask = np.asarray(mask)
    order = np.lexsort(mask.T[::-1])
    ranked = mask[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ranked[starts], inverse


@dataclass
class MissingSpec:
    """Unbalanced missing-mask request.

    per_view_missing_prob[v] is the marginal probability of dropping view v;
    target_rate is the overall fraction of dropped positions. Generation is
    deterministic given the seed and lands within +-0.02 of the target rate
    after the at-least-one-view repair.
    """

    per_view_missing_prob: np.ndarray
    target_rate: float
    seed: int = 0

    def __post_init__(self):
        p = np.asarray(self.per_view_missing_prob, dtype=np.float64)
        if p.ndim != 1 or ((p < 0) | (p >= 1)).any():
            raise ValueError("per-view missing probabilities must lie in [0, 1)")
        if not 0.0 <= self.target_rate < 1.0:
            raise ValueError("target rate must lie in [0, 1)")
        self.per_view_missing_prob = p


def _read_csv_matrix(path):
    try:
        arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric or ragged CSV ({exc})") from exc
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return arr


def load_dataset(view_paths, mask_path=None, labels_path=None, K=None):
    """Read one CSV per view plus optional mask/labels CSVs.

    All files must agree on the row count; a missing mask means fully
    observed data. Raises ValueError on any shape or domain violation.
    """
    views = [_read_csv_matrix(p) for p in view_paths]
    n = views[0].shape[0]
    for p, X in zip(view_paths, views):
        if X.shape[0] != n:
            raise ValueError(f"row count mismatch: {p} has {X.shape[0]} rows, expected {n}")
    if mask_path is not None:
        mask = _read_csv_matrix(mask_path)
    else:
        mask = np.ones((n, len(views)))
    labels = None
    if labels_path is not None:
        labels = _read_csv_matrix(labels_path).ravel()
        if not np.allclose(labels, np.round(labels)):
            raise ValueError(f"{labels_path}: labels must be integers")
        labels = np.round(labels).astype(np.int64)
    return MultiViewDataset(views=views, mask=mask, labels=labels, K=K)


def normalize(dataset):
    """Min-max scale every feature column to [0, 1].

    Statistics come from observed rows only, so masked cells cannot leak
    into the scaling; masked rows are transformed with the same statistics
    (they may hold anything, NaN included; the model never reads them).
    Constant columns map to 0. Idempotent. Raises ValueError when a view
    has no observed row, or when an observed cell is NaN or infinite.
    """
    dataset.check_views_observed()
    views = []
    for v, X in enumerate(dataset.views):
        obs = dataset.mask[:, v] == 1
        X_obs = X[obs]
        bad = np.argwhere(~np.isfinite(X_obs))
        if bad.size:
            (i, j), rows = bad[0], np.flatnonzero(obs)
            raise ValueError(f"view {v}: observed cell (sample {rows[i]}, column {j}) "
                             f"is {X_obs[i, j]}, not a finite number")
        lo = X_obs.min(axis=0)
        hi = X_obs.max(axis=0)
        span = hi - lo
        keep = span > 0
        Y = np.zeros_like(X)
        Y[:, keep] = (X[:, keep] - lo[keep]) / span[keep]
        views.append(Y)
    return MultiViewDataset(
        views=views,
        mask=dataset.mask.copy(),
        labels=None if dataset.labels is None else dataset.labels.copy(),
        K=dataset.K,
    )


def generate_mask(N, V, spec):
    """Sample an N x V observation mask with unbalanced per-view dropout.

    Entries are dropped independently per view, all-zero rows are repaired
    by restoring the least-dropped view, then per-view counts are nudged to
    their targets so the realized rate matches spec.target_rate. Pure
    function of (N, V, spec). N below 1 raises ValueError.
    """
    if N < 1:
        raise ValueError(f"a mask needs at least 1 sample, got {N}")
    probs = spec.per_view_missing_prob.astype(np.float64).copy()
    if probs.shape != (V,):
        raise ValueError(f"need {V} per-view probabilities, got {probs.shape}")
    eta = float(spec.target_rate)
    if eta == 0.0:
        return np.ones((N, V), dtype=np.int8)
    if eta >= 1.0 - 1.0 / V:
        raise ValueError(
            f"target rate {eta} is infeasible with {V} views "
            f"(every sample keeps one view, so the rate is capped below {1 - 1 / V:.3f})"
        )
    mean = probs.mean()
    if mean == 0.0:
        probs = np.full(V, eta)
    elif abs(mean - eta) > 1e-12:
        probs = probs * (eta / mean)
    if (probs >= 1.0).any():
        raise ValueError("rescaled per-view probabilities leave [0, 1); adjust the request")

    rng = np.random.default_rng(spec.seed)
    mask = (rng.random((N, V)) >= probs[None, :]).astype(np.int8)

    # Repair: every sample keeps its least-dropped view.
    fallback = int(np.argmin(probs))
    mask[mask.sum(axis=1) == 0, fallback] = 1

    # Nudge each view toward its target count of zeros (repair and sampling
    # noise both bias the realized rate).
    targets = np.round(probs * N).astype(int)
    for v in range(V):
        zeros = int(N - mask[:, v].sum())
        deficit = targets[v] - zeros
        if deficit > 0:
            eligible = np.where((mask[:, v] == 1) & (mask.sum(axis=1) >= 2))[0]
            take = min(deficit, eligible.size)
            if take:
                mask[rng.choice(eligible, size=take, replace=False), v] = 0
        elif deficit < 0:
            dropped = np.where(mask[:, v] == 0)[0]
            put = min(-deficit, dropped.size)
            if put:
                mask[rng.choice(dropped, size=put, replace=False), v] = 1

    realized = 1.0 - mask.mean()
    if abs(realized - eta) > 0.02:
        raise ValueError(
            f"could not realize missing rate {eta} (got {realized:.4f}); "
            "per-view probabilities are too constrained"
        )
    return mask


def make_synthetic(
    n_samples=600,
    n_clusters=4,
    view_dims=(12, 10, 8),
    latent_dim=4,
    separation=4.0,
    view_noise=(0.3, 0.5, 1.8),
    seed=0,
):
    """Gaussian-mixture toy data: shared latent clusters, one random linear
    map plus isotropic noise per view. Complete mask; labels included.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=separation, size=(n_clusters, latent_dim))
    labels = rng.integers(0, n_clusters, size=n_samples)
    z = centers[labels] + rng.normal(size=(n_samples, latent_dim))
    views = []
    for d_v, noise in zip(view_dims, view_noise):
        A = rng.normal(size=(latent_dim, d_v)) / np.sqrt(latent_dim)
        b = rng.normal(size=d_v)
        X = z @ A + b + noise * rng.normal(size=(n_samples, d_v))
        views.append(X)
    mask = np.ones((n_samples, len(view_dims)), dtype=np.int8)
    return MultiViewDataset(views=views, mask=mask, labels=labels, K=n_clusters)


@contextmanager
def atomic_open(path, newline=None):
    """Text handle on ``path + ".tmp"``, renamed over ``path`` on success and
    removed on error, so ``path`` holds the old or the new complete file."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_csv(path, X, fmt):
    """Write a 2-D array as comma-separated rows through ``atomic_open``, so
    a failed write leaves the previous file in place."""
    with atomic_open(path) as fh:
        np.savetxt(fh, X, delimiter=",", fmt=fmt)


def save_dataset(dataset, out_dir):
    """Write one CSV per view plus labels/mask CSVs; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for v, X in enumerate(dataset.views):
        p = os.path.join(out_dir, f"view{v}.csv")
        save_csv(p, X, "%.10g")
        paths[f"view{v}"] = p
    mp = os.path.join(out_dir, "mask.csv")
    save_csv(mp, dataset.mask, "%d")
    paths["mask"] = mp
    if dataset.labels is not None:
        lp = os.path.join(out_dir, "labels.csv")
        save_csv(lp, dataset.labels[:, None], "%d")
        paths["labels"] = lp
    return paths
