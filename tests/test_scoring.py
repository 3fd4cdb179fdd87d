import math
import re
import tracemalloc

import numpy as np
import pytest

from imvc import scoring
from imvc.data import MissingSpec, MultiViewDataset, generate_mask, make_synthetic
from imvc.model import QUERY_BLOCK
from imvc.scoring import (
    CORR_FLOOR,
    _fsum_rows,
    first_canonical_correlation,
    info_scores,
    max_view_distance,
    select_positions,
    view_correlation,
    view_distances,
)

from oracles import info_scores_per_position, pairwise_similarity, score_of


def random_incomplete(seed, n=20, V=3, dims=(3, 2, 4), rate=0.35):
    """Small incomplete dataset; mask built directly (the +-0.02 rate
    contract of generate_mask needs more cells than these have)."""
    rng = np.random.default_rng(seed)
    views = [rng.normal(size=(n, d)) for d in dims[:V]]
    mask = (rng.random((n, V)) >= rate).astype(int)
    for i in np.where(mask.sum(axis=1) == 0)[0]:
        mask[i, rng.integers(V)] = 1
    # make sure every view keeps at least 2 observations
    for v in range(V):
        short = 2 - int(mask[:, v].sum())
        if short > 0:
            off = np.where(mask[:, v] == 0)[0]
            mask[rng.choice(off, size=short, replace=False), v] = 1
    return MultiViewDataset(views=views, mask=mask)


def info_scores_oracle(dataset, sims, corr):
    """Naive scorer: enumerate the support set and its validity mask
    explicitly and loop over every (member, view) cell. All sums use
    exact (fsum) accumulation, so the traversal order cannot matter."""
    out = {}
    V = dataset.n_views
    mask = dataset.mask
    for i, v in dataset.missing_positions():
        members = [
            j
            for j in range(dataset.n_samples)
            if mask[j, v] == 1 and any(mask[i, u] and mask[j, u] for u in range(V))
        ]
        valid = {
            (j, u): bool(mask[i, u] and mask[j, u]) or u == v
            for j in members
            for u in range(V)
        }
        terms = []
        for j in members:
            for u in range(V):
                if not valid[(j, u)]:
                    continue
                if u == v:
                    # approximate sim in the missing view: corr-weighted
                    # average over co-observed views
                    shared = [uu for uu in range(V) if mask[i, uu] and mask[j, uu]]
                    num = math.fsum(sims[uu][i, j] * corr[uu, v] for uu in shared)
                    den = math.fsum(corr[uu, v] for uu in shared)
                    s = num / den
                else:
                    s = sims[u][i, j]
                terms.append(s * corr[u, v])
        out[(i, v)] = math.fsum(terms)
    return out


def random_corr(rng, V):
    corr = np.eye(V)
    for u in range(V):
        for v in range(u + 1, V):
            corr[u, v] = corr[v, u] = rng.uniform(0.05, 1.0)
    return corr


def dense_sims(ds):
    """The dense oracle similarity matrix of every view."""
    return [pairwise_similarity(ds, u) for u in range(ds.n_views)]


def assert_per_position_scores(ds, corr):
    """The streamed info_scores equals, bit for bit, the per-position
    reference on the dense oracle similarities (NaN where the reference
    has NaN); returns the scores."""
    with np.errstate(invalid="ignore", divide="ignore"):
        got = info_scores(ds, corr=corr)
        want = info_scores_per_position(ds, corr, dense_sims(ds))
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.scores, want.scores, equal_nan=True)
    return got.scores


def scale_instance():
    """The N=3000 instance of the memory tests: a 0.8/0.5/0.2 mask at
    eta=0.5, and a fixed correlation matrix."""
    n = 3000
    base = make_synthetic(n_samples=n, seed=0)
    mask = generate_mask(n, 3, MissingSpec(np.array([0.8, 0.5, 0.2]), 0.5, seed=1))
    corr = np.full((3, 3), 0.6)
    np.fill_diagonal(corr, 1.0)
    return MultiViewDataset(views=base.views, mask=mask), corr


def traced_peak_bytes(fn, *args, **kwargs):
    """tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unit_score(ds, i, v):
    """Info(i, v) with every correlation 1. When the observed points of
    each view coincide, every similarity is 1 too: each support member then
    adds 1 (its intra term) plus 1 per view it shares with sample i."""
    V = ds.n_views
    return score_of(info_scores(ds, corr=np.ones((V, V))), i, v)


class TestSupportSet:
    def test_single_missing_cell_everyone_qualifies(self):
        views = [np.zeros((6, 2)) for _ in range(2)]
        mask = np.ones((6, 2), dtype=int)
        mask[2, 1] = 0
        ds = MultiViewDataset(views=views, mask=mask)
        # the other 5 samples, each sharing view 0
        assert unit_score(ds, 2, 1) == 5 * 2

    def test_member_must_observe_target_view(self):
        mask = np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 0]])
        views = [np.zeros((4, 1))] * 3
        ds = MultiViewDataset(views=views, mask=mask)
        # sample 1 misses view 1 -> excluded even though it overlaps with 0;
        # sample 3 observes view 1 but shares nothing with 0 -> excluded;
        # sample 2 alone shares views 0 and 2
        assert unit_score(ds, 0, 1) == 1 + 2

    def test_no_overlap_excluded(self):
        # sample 1 observes only the target view v=1; sample 0 observes only view 0
        mask = np.array([[1, 0], [0, 1], [1, 1]])
        views = [np.zeros((3, 1))] * 2
        ds = MultiViewDataset(views=views, mask=mask)
        assert unit_score(ds, 0, 1) == 1 + 1  # sample 2 only

    def test_valid_mask_semantics(self):
        # samples 3 and 4 miss view 2, so they are no members; they only
        # set d_max of views 0 and 1
        mask = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 0, 0], [0, 1, 0]])
        nan = np.nan  # unobserved cells, which must never be read
        views = [np.array([[0.0], [1.0], [nan], [2.0], [nan]]),
                 np.array([[0.0], [nan], [1.0], [nan], [4.0]]),
                 np.zeros((5, 1))]
        ds = MultiViewDataset(views=views, mask=mask)
        # target (0, 2); members need view 2 and overlap with {0, 1}: 1 and 2.
        # Member 1 shares view 0 only: sim (1 - 1/2)^2 = 0.25.
        # Member 2 shares view 1 only: sim (1 - 1/4)^2 = 0.5625.
        # Each counted similarity enters as intra term and as cross term.
        assert unit_score(ds, 0, 2) == 2 * 0.25 + 2 * 0.5625


class TestPairwiseSimilarity:
    def test_equal_points_similarity_one(self):
        views = [np.array([[1.0, 2.0], [1.0, 2.0], [4.0, 6.0]])]
        ds = MultiViewDataset(views=views, mask=np.ones((3, 1)))
        sim = pairwise_similarity(ds, 0)
        assert sim[0, 1] == 1.0

    def test_max_distance_pair_zero(self):
        views = [np.array([[0.0], [1.0], [10.0]])]
        ds = MultiViewDataset(views=views, mask=np.ones((3, 1)))
        sim = pairwise_similarity(ds, 0)
        assert sim[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_three_point_values(self):
        # distances {1, 2, 2}: sims {(1-1/2)^2, 0, 0}
        views = [np.array([[0.0], [1.0], [2.0]])]
        ds = MultiViewDataset(views=views, mask=np.ones((3, 1)))
        sim = pairwise_similarity(ds, 0)
        assert sim[0, 1] == pytest.approx(0.25)
        assert sim[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert sim[1, 2] == pytest.approx(0.25)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 4))
        d1 = MultiViewDataset(views=[X], mask=np.ones((15, 1)))
        d2 = MultiViewDataset(views=[X * 37.5], mask=np.ones((15, 1)))
        np.testing.assert_allclose(
            pairwise_similarity(d1, 0), pairwise_similarity(d2, 0), atol=1e-12
        )

    def test_symmetry_and_range(self):
        ds = random_incomplete(3)
        sim = pairwise_similarity(ds, 0)
        np.testing.assert_allclose(sim, sim.T, atol=1e-12)
        assert (sim >= 0).all() and (sim <= 1.0 + 1e-12).all()

    def test_fewer_than_two_observed(self):
        mask = np.array([[1, 1], [0, 1], [0, 1]])
        ds = MultiViewDataset(views=[np.zeros((3, 1)), np.zeros((3, 1))], mask=mask)
        with pytest.raises(ValueError, match="view 0 needs at least 2 observed samples"):
            info_scores(ds, corr=np.eye(2))

    def test_blockwise_matches_direct(self, monkeypatch):
        ds = random_incomplete(4, n=50)
        obs = ds.observed(1)
        monkeypatch.setattr(scoring, "QUERY_BLOCK", 7)
        d_max = max_view_distance(ds, 1)
        dist = np.vstack([view_distances(ds, 1, obs[lo:lo + 7], obs)
                          for lo in range(0, obs.size, 7)])
        sim = np.zeros((50, 50))
        sim[np.ix_(obs, obs)] = (1.0 - dist / d_max) ** 2
        assert np.array_equal(sim, pairwise_similarity(ds, 1))


def sequential_distance(x, y):
    """sqrt(sum_k (x_k - y_k)^2), one Python float operation at a time."""
    acc = 0.0
    for a, b in zip(x.tolist(), y.tolist()):
        diff = a - b
        acc += diff * diff
    return math.sqrt(acc)


class TestViewDistances:
    @staticmethod
    def instance(seed, n=60, d=12):
        """Features of mixed magnitude, so sums of squares round."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        mask = np.ones((n, 2), dtype=int)
        mask[rng.random(n) < 0.3, 0] = 0
        return MultiViewDataset(views=[X, rng.normal(size=(n, 1))], mask=mask)

    @pytest.mark.parametrize("d", [1, 3, 12, 40])
    def test_block_invariant(self, d):
        ds = self.instance(d, d=d)
        obs = ds.observed(0)
        full = view_distances(ds, 0, obs, obs)
        rng = np.random.default_rng(d)
        for _ in range(20):
            ri = rng.choice(obs.size, size=int(rng.integers(1, obs.size)))
            ci = rng.choice(obs.size, size=int(rng.integers(1, obs.size)))
            got = view_distances(ds, 0, obs[ri], obs[ci])
            assert np.array_equal(got, full[np.ix_(ri, ci)])
        assert np.array_equal(view_distances(ds, 0, obs[3:4], obs), full[3:4])
        assert np.array_equal(view_distances(ds, 0, obs, obs[5:6]), full[:, 5:6])
        assert view_distances(ds, 0, obs[:0], obs).shape == (0, obs.size)
        assert view_distances(ds, 0, obs, obs[:0]).shape == (obs.size, 0)

    @pytest.mark.parametrize("d", [1, 3, 12, 40])
    def test_sequential_symmetric_and_zero_diagonal(self, d):
        ds = self.instance(10 + d, n=30, d=d)
        X = ds.views[0]
        full = view_distances(ds, 0, np.arange(30), np.arange(30))
        want = np.array([[sequential_distance(X[i], X[j]) for j in range(30)]
                         for i in range(30)])
        assert np.array_equal(full, want)
        assert np.array_equal(full, full.T)
        assert np.all(np.diag(full) == 0.0)

    def test_max_matches_dense(self, monkeypatch):
        for seed, d in enumerate((1, 3, 12, 40)):
            ds = self.instance(20 + seed, n=45, d=d)
            obs = ds.observed(0)
            dense = view_distances(ds, 0, obs, obs).max()
            for block in (1, 2, 5, QUERY_BLOCK):
                monkeypatch.setattr(scoring, "QUERY_BLOCK", block)
                assert max_view_distance(ds, 0) == dense


class TestCca:
    def test_identical_matrices(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(200, 4))
        assert first_canonical_correlation(H, H) >= 0.999

    def test_invertible_map_invariance(self):
        rng = np.random.default_rng(6)
        H = rng.normal(size=(300, 4))
        A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        assert first_canonical_correlation(H, H @ A) >= 0.999

    def test_independent_matrices_low(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            X = rng.normal(size=(500, 5))
            Y = rng.normal(size=(500, 5))
            assert first_canonical_correlation(X, Y) < 0.25

    def test_view_correlation_structure(self):
        ds = random_incomplete(7, n=60, rate=0.3)
        rng = np.random.default_rng(8)
        latents = [rng.normal(size=(60, 3)) for _ in range(3)]
        corr = view_correlation(latents, ds)
        np.testing.assert_allclose(corr, corr.T)
        np.testing.assert_array_equal(np.diag(corr), 1.0)
        off = corr[~np.eye(3, dtype=bool)]
        assert (off >= CORR_FLOOR).all() and (off <= 1.0).all()

    def test_few_coobserved_falls_back_to_floor(self):
        # views 0 and 1 share only 3 co-observed samples < d_z + 2
        mask = np.zeros((10, 2), dtype=int)
        mask[:6, 0] = 1  # view 0: samples 0..5
        mask[:3, 1] = 1  # view 1: samples 0..2 and 6..9
        mask[6:, 1] = 1
        views = [np.zeros((10, 2)), np.zeros((10, 2))]
        ds = MultiViewDataset(views=views, mask=mask)
        rng = np.random.default_rng(9)
        latents = [rng.normal(size=(10, 4)) for _ in range(2)]
        corr = view_correlation(latents, ds)
        assert corr[0, 1] == CORR_FLOOR


class TestMissingViewSimilarity:
    # sample 1 lies 1 from sample 0 in views 0 and 1, and sample 2 lies
    # d_max from it (2 and 4): sample 1's similarities to sample 0 are
    # (1 - 1/2)^2 and (1 - 1/4)^2, sample 2's are 0
    VIEWS = [np.array([[0.0], [1.0], [2.0]]), np.array([[0.0], [1.0], [4.0]]),
             np.zeros((3, 1))]
    SIM01 = (0.25, 0.5625)

    def corr(self):
        c = np.eye(3)
        c[0, 1] = c[1, 0] = 0.9
        c[0, 2] = c[2, 0] = 0.3
        c[1, 2] = c[2, 1] = 0.6
        return c

    def intra_term(self, mask, corr):
        """Member 1's intra term in Info(0, 2): the score less member 1's
        cross-view terms (member 2 has zero similarities)."""
        ds = MultiViewDataset(views=self.VIEWS, mask=mask)
        shared = np.where(ds.mask[0] & ds.mask[1])[0]
        cross = sum(self.SIM01[u] * corr[u, 2] for u in shared)
        return score_of(info_scores(ds, corr=corr), 0, 2) - cross

    def test_single_shared_view(self):
        mask = np.array([[1, 0, 0], [1, 1, 1], [1, 1, 1]])
        out = self.intra_term(mask, self.corr())
        assert out == pytest.approx(0.25)  # weights normalize away

    def test_equal_corr_unweighted_mean(self):
        mask = np.array([[1, 1, 0], [1, 1, 1], [1, 1, 1]])
        corr = np.eye(3)
        corr[0, 2] = corr[2, 0] = 0.5
        corr[1, 2] = corr[2, 1] = 0.5
        out = self.intra_term(mask, corr)
        assert out == pytest.approx((0.25 + 0.5625) / 2)

    def test_weighted_average(self):
        mask = np.array([[1, 1, 0], [1, 1, 1], [1, 1, 1]])
        corr = np.eye(3)
        corr[0, 2] = corr[2, 0] = 0.9
        corr[1, 2] = corr[2, 1] = 0.3
        out = self.intra_term(mask, corr)
        assert out == pytest.approx((0.25 * 0.9 + 0.5625 * 0.3) / 1.2)  # = 0.328125


class TestInfoScores:
    def test_empty_support_scores_zero(self):
        # sample 0 observes only view 0; the view-1 observers share nothing
        mask = np.array([[1, 0], [0, 1], [0, 1], [1, 0]])
        rng = np.random.default_rng(0)
        views = [rng.normal(size=(4, 1)), rng.normal(size=(4, 1))]
        ds = MultiViewDataset(views=views, mask=mask)
        table = info_scores(ds, corr=np.eye(2))
        assert score_of(table, 0, 1) == 0.0

    def test_two_sample_hand_trace(self):
        # one support sample, one shared view u != v:
        # intra = (s*c)/c = s, cross = s*c  ->  total s(1+c).
        # Sample 1 lies 1 from sample 0 in view 0, sample 2 (no member: it
        # misses view 1) sets d_max = 2, so s = (1 - 1/2)^2; sample 3 (no
        # member: it shares nothing) is view 1's second observer.
        mask = np.array([[1, 0], [1, 1], [1, 0], [0, 1]])
        views = [np.array([[0.0], [1.0], [2.0], [np.nan]]),
                 np.array([[np.nan], [0.0], [np.nan], [0.0]])]
        ds = MultiViewDataset(views=views, mask=mask)
        s, c = 0.25, 0.7
        corr = np.array([[1.0, c], [c, 1.0]])
        table = info_scores(ds, corr=corr)
        assert score_of(table, 0, 1) == pytest.approx(s * (1 + c))

    def test_upper_bound_all_ones(self):
        # sims -> 1 (all points coincide) and corr -> 1 gives m * V per
        # position
        n, V = 8, 3
        mask = np.ones((n, V), dtype=int)
        mask[0, 1] = 0
        views = [np.tile([[1.0]], (n, 1)) for _ in range(V)]
        ds = MultiViewDataset(views=views, mask=mask)
        table = info_scores(ds, corr=np.ones((V, V)))
        assert score_of(table, 0, 1) == (n - 1) * V

    def test_matches_triple_loop_oracle_exactly(self):
        for seed in range(50):
            ds = random_incomplete(
                seed + 10,
                n=int(np.random.default_rng(seed).integers(8, 31)),
                V=int(np.random.default_rng(seed + 1).integers(2, 5)),
                dims=(3, 2, 4, 2),
            )
            rng = np.random.default_rng(seed + 2)
            corr = np.eye(ds.n_views)
            for u in range(ds.n_views):
                for v in range(u + 1, ds.n_views):
                    corr[u, v] = corr[v, u] = rng.uniform(0.05, 1.0)
            table = info_scores(ds, corr=corr)
            expected = info_scores_oracle(ds, dense_sims(ds), corr)
            for (i, v), score in expected.items():
                assert score_of(table, i, v) == score, (seed, i, v)

    def test_bitwise_equal_to_per_position(self, monkeypatch):
        rng = np.random.default_rng(5)
        # random instances, V = 2-4
        for seed in range(30):
            V = 2 + seed % 3
            ds = random_incomplete(300 + seed, n=int(rng.integers(8, 41)), V=V,
                                   dims=(3, 2, 4, 2))
            assert_per_position_scores(ds, random_corr(rng, V))

        # a view with QUERY_BLOCK + 1 querying samples
        n = QUERY_BLOCK + 1 + 12
        mask = np.ones((n, 3), dtype=int)
        mask[:QUERY_BLOCK + 1, 1] = 0
        mask[rng.random(n) < 0.3, 2] = 0
        ds = MultiViewDataset([rng.normal(size=(n, 2)) for _ in range(3)], mask)
        scores = assert_per_position_scores(ds, random_corr(rng, 3))
        assert np.all(scores > 0)

        # 200 querying samples over several capped blocks of 1000 donors
        n = 1200
        mask = (rng.random((n, 4)) < 0.7).astype(int)
        mask[:, 3] = 0
        mask[200:, 3] = 1
        mask[:200, 0] = 1
        ds = MultiViewDataset([rng.normal(size=(n, 2)) for _ in range(4)], mask)
        assert QUERY_BLOCK * n // (4 * 1000) < 200
        assert_per_position_scores(ds, random_corr(rng, 4))

        # blocks down to a single querying sample
        ds = random_incomplete(77, n=40, V=3)
        corr = random_corr(rng, 3)
        for block in (1, 2, 5):
            monkeypatch.setattr(scoring, "QUERY_BLOCK", block)
            assert_per_position_scores(ds, corr)
        monkeypatch.undo()

        # the observers of view 1 see nothing else: no support for view 1
        mask = np.array([[1, 0, 0], [1, 0, 1], [0, 1, 0], [0, 1, 0], [0, 1, 0], [1, 0, 1]])
        ds = MultiViewDataset([rng.normal(size=(6, 2)) for _ in range(3)], mask)
        scores = assert_per_position_scores(ds, random_corr(rng, 3))
        view = np.array(ds.missing_positions())[:, 1]
        assert np.all(scores[view == 1] == 0.0) and np.any(scores > 0)

        # a zero correlation makes every denominator zero: 0/0 is NaN
        ds = random_incomplete(12, n=20, V=2)
        scores = assert_per_position_scores(ds, np.eye(2))
        assert np.isnan(scores).all()

    def test_streamed_equal_to_dense(self):
        # the streamed similarities at the edges of the dense oracle's
        # (1 - d / d_max)^2
        corr = random_corr(np.random.default_rng(8), 3)

        # the observed points of view 1 all coincide: d_max = 0, so every
        # similarity in that view is 1
        ds = random_incomplete(79, n=30, V=3)
        views = list(ds.views)
        views[1] = np.tile(views[1][:1], (30, 1))
        ds = MultiViewDataset(views, ds.mask)
        assert max_view_distance(ds, 1) == 0.0
        assert np.all(assert_per_position_scores(ds, corr) > 0)

        # a view with exactly two observers
        mask = ds.mask.copy()
        mask[:, 2] = 0
        mask[[4, 17], 2] = 1
        mask[mask.sum(axis=1) == 0, 0] = 1
        ds = MultiViewDataset(random_incomplete(80, n=30, V=3).views, mask)
        assert ds.observed(2).size == 2
        assert np.any(assert_per_position_scores(ds, corr) > 0)

    def test_memory_stays_below_quadratic(self):
        # dense N x N similarity matrices peaked at about 294 MB
        ds, corr = scale_instance()
        assert traced_peak_bytes(info_scores, ds, corr=corr) < 64 * 2**20

    def test_corr_must_be_v_by_v(self):
        ds = random_incomplete(3, V=3)
        wide = np.hstack([np.eye(3), np.full((3, 1), 0.5)])  # unit diagonal
        with pytest.raises(ValueError, match="correlation matrix must be 3 x 3"):
            info_scores(ds, corr=wide)
        with pytest.raises(ValueError, match="correlation matrix must be 3 x 3"):
            info_scores(ds, corr=np.eye(2))

    def test_monotone_in_support(self):
        # adding a support sample never decreases the score. In view 0,
        # samples 1 and 2 both lie 1 from sample 0 and d_max = 2 apart, so
        # each adds (1 - 1/2)^2 (1 + c) = 0.375 to Info(0, 1)
        mask = np.array([[1, 0], [1, 1], [1, 1], [0, 1]])
        views = [np.array([[1.0], [0.0], [2.0], [np.nan]]), np.zeros((4, 1))]
        ds_big = MultiViewDataset(views=views, mask=mask)
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        # hold view 0 and corr fixed; drop sample 2 from the support by
        # hiding its target view (sample 3 keeps view 1 two observers)
        mask_small = mask.copy()
        mask_small[2, 1] = 0
        ds_small = MultiViewDataset(views=views, mask=mask_small)
        small = score_of(info_scores(ds_small, corr=corr), 0, 1)
        big = score_of(info_scores(ds_big, corr=corr), 0, 1)
        assert small == 0.375 and big == 0.75


def same_float(a, b):
    """Bit-equal floats, with any NaN equal to any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def hard_rows(rng, w):
    """Rows of width w on which rounding is hard to get right."""
    rows = [np.zeros(w), np.full(w, -0.0)]
    if w == 0:
        return np.array(rows)
    mags = 10.0 ** rng.uniform(-300, 300, size=(6, w))
    rows += list(mags * rng.choice([-1.0, 1.0], size=(6, w)))
    rows += list(rng.normal(size=(4, w)))
    rows += list(rng.normal(size=(2, w)) * 5e-324)  # subnormals
    rows.append(rng.integers(-5, 6, size=w) * 5e-324)
    x = rng.normal(size=w) * 10.0 ** rng.integers(-20, 20, size=w)
    rows.append(np.concatenate([x[: w // 2], -x[: w // 2], x[w // 2:] * 1e-17])[:w])
    for head in ([1.0, 2.0**-53], [1.0, 2.0**-54, 2.0**-54], [1.0, 2.0**-53, 2.0**-110],
                 [1.0, -(2.0**-54), -(2.0**-54)], [2.0**53, 1.0, 1.0, -1.0],
                 [1e300, 1e-300, -1e300], [1.5, 2.0**-53 - 2.0**-97, 2.0**-10, 2.0**-10],
                 # at width 16 the remainders of these terms do not add up
                 # exactly, and their rounded total lands on a tie
                 [1.0] + [float.fromhex(x) for x in ("0x1.0000000000001p-47",
                                                     "0x1.0000000000001p-47",
                                                     "0x1.0400000000001p-47",
                                                     "0x1.f7ffffffffffcp-47")]):
        rows.append(np.array(head + [0.0] * w)[:w])
    # w copies of the largest float below a power of two over w: the
    # extraction's exact part then sits right at its bound
    for k in (0, 3, 4):
        big = np.nextafter(2.0**k / w, 0.0)
        rows += [np.full(w, -big), np.full(w, big)]
    return np.array(rows)


class TestFsumRows:
    def test_matches_fsum_row_by_row(self):
        rng = np.random.default_rng(8)
        for w in (0, 1, 2, 3, 4, 5, 7, 11, 16, 64, 1001):
            rows = hard_rows(rng, w)
            sums = _fsum_rows(rows)
            assert sums.shape == (len(rows),)
            for row, got in zip(rows.tolist(), sums.tolist()):
                assert same_float(got, math.fsum(row)), (w, row)

    def test_sums_the_last_axis_of_a_strided_view(self):
        # info_scores sums (member, view) terms through a transposed view
        A = np.random.default_rng(2).normal(size=(4, 3, 50)) * 1e3
        sums = _fsum_rows(A.transpose(0, 2, 1))
        assert sums.shape == (4, 50)
        for i in range(4):
            for j in range(50):
                assert same_float(sums[i, j], math.fsum(A[i, :, j].tolist()))

    def test_non_finite_rows_give_fsum_value_or_exception(self):
        inf, nan = math.inf, math.nan
        rows = [[inf, 1.0], [inf, -inf], [nan, 1.0], [1e308, 1e308],
                [inf, 1.0, 2.0, 3.0], [-inf, -inf, 1.0, 0.0], [inf, -inf, 1.0, 2.0],
                [nan, 1.0, 2.0, 3.0], [nan, inf, -inf, 1.0], [1e308, 1e308, -1e308, 1.0],
                [1e308, -1e308, 1e308, 1.0], [1e308, 1e308, 1e308, 1e308]]
        for row in rows:
            try:
                want = math.fsum(row)
            except (ValueError, OverflowError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    _fsum_rows(np.array([row]))
            else:
                assert same_float(_fsum_rows(np.array([row]))[0], want), row

    def test_only_doubtful_rows_fall_back(self, monkeypatch):
        rng = np.random.default_rng(4)
        doubtful = [
            [1.0, 2.0**-54, 2.0**-54, 0.0],  # exact tie: rounds to even
            [3.0, 2.0**-53, 2.0**-53, 0.0],
            [1.0, 2.0**-53, 2.0**-110, 0.0],  # just above a tie
            # error bound exactly half the gap: the certificate is strict
            [1.5, 2.0**-53 - 2.0**-97, 2.0**-10, 2.0**-10],
        ]
        certain = [
            [1.0, 2.0**-53, 0.0, 0.0],  # two terms: one IEEE add rounds the tie
            [1.0, 2.0**-53, 2.0**-80, 0.0],  # near a tie, but provably above it
            # a tie whose terms are all large enough for the remainders to
            # add up exactly: the rounded total is already right
            [1.0, 1.0, 1.0, 2.0**-47 + 2.0**-52],
        ] + rng.random((40, 4)).tolist()
        rows = np.array(doubtful + certain)
        want = [math.fsum(row) for row in rows.tolist()]
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda row: calls.append(row) or fsum(row))
        got = _fsum_rows(rows)
        assert calls == doubtful
        assert all(same_float(g, w) for g, w in zip(got.tolist(), want))


class TestSelect:
    def make_table(self, scores):
        ds_positions = [(i, 0) for i in range(len(scores))]
        from imvc.scoring import InfoTable

        return InfoTable(
            positions=np.asarray(ds_positions, dtype=np.int64),
            scores=np.asarray(scores, dtype=float),
            selected=np.zeros(len(scores), dtype=bool),
        )

    def test_rho_zero_selects_none(self):
        t = select_positions(self.make_table([5, 3, 3, 1]), 0.0)
        assert t.n_selected == 0

    def test_rho_one_selects_all(self):
        t = select_positions(self.make_table([5, 3, 3, 1]), 1.0)
        assert t.n_selected == 4

    def test_tie_break_by_position(self):
        # scores {5,3,3,1} at rho=0.5: keep 5 and the first tied 3
        t = select_positions(self.make_table([5, 3, 3, 1]), 0.5)
        assert t.selected.tolist() == [True, True, False, False]

    def test_count_rule(self):
        t = select_positions(self.make_table([1, 2, 3, 4, 5]), 0.5)
        assert t.n_selected == 3  # ceil(0.5 * 5)

    def test_nesting(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            scores = rng.uniform(size=int(rng.integers(1, 40)))
            table = self.make_table(scores)
            prev = set()
            for rho in np.linspace(0, 1, 7):
                cur = set(map(tuple, table.positions[select_positions(table, rho).selected].tolist()))
                assert prev <= cur
                prev = cur

    def test_empty_table(self):
        t = self.make_table([])
        out = select_positions(t, 0.7)
        assert out.n_missing == 0 and out.n_selected == 0


def test_end_to_end_scoring_on_synthetic():
    ds = make_synthetic(n_samples=80, n_clusters=3, view_dims=(5, 4, 3), seed=1)
    spec = MissingSpec(np.array([0.5, 0.3, 0.2]), target_rate=1 / 3, seed=2)
    mask = generate_mask(80, 3, spec)
    ds = MultiViewDataset(views=ds.views, mask=mask, labels=ds.labels, K=3)
    rng = np.random.default_rng(3)
    latents = [ds.views[v] @ rng.normal(size=(ds.dims[v], 3)) for v in range(3)]
    corr = view_correlation(latents, ds)
    table = info_scores(ds, corr=corr)
    assert table.n_missing == int((mask == 0).sum())
    assert (table.scores >= 0).all()
    sel = select_positions(table, 0.4)
    assert sel.n_selected == int(np.ceil(0.4 * table.n_missing))
