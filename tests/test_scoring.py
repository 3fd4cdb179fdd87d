import math

import numpy as np
import pytest

from imvc.data import MissingSpec, MultiViewDataset, generate_mask, make_synthetic
from imvc.scoring import (
    CORR_FLOOR,
    first_canonical_correlation,
    info_scores,
    pairwise_similarity,
    select_positions,
    view_correlation,
)

from oracles import score_of


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


def unit_score(ds, i, v, sims=None):
    """Info(i, v) with every similarity and correlation 1 unless given:
    each support member then adds 1 (its intra term) plus 1 per view it
    shares with sample i."""
    n, V = ds.mask.shape
    sims = sims if sims is not None else [np.ones((n, n)) for _ in range(V)]
    return score_of(info_scores(ds, corr=np.ones((V, V)), sims=sims), i, v)


class TestSupportSet:
    def test_single_missing_cell_everyone_qualifies(self):
        rng = np.random.default_rng(0)
        views = [rng.normal(size=(6, 2)) for _ in range(2)]
        mask = np.ones((6, 2), dtype=int)
        mask[2, 1] = 0
        ds = MultiViewDataset(views=views, mask=mask)
        # the other 5 samples, each sharing view 0
        assert unit_score(ds, 2, 1) == 5 * 2

    def test_member_must_observe_target_view(self):
        mask = np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1]])
        views = [np.zeros((3, 1))] * 3
        ds = MultiViewDataset(views=views, mask=mask)
        # sample 1 misses view 1 -> excluded even though it overlaps with 0;
        # sample 2 alone shares views 0 and 2
        assert unit_score(ds, 0, 1) == 1 + 2

    def test_no_overlap_excluded(self):
        # sample 1 observes only the target view v=1; sample 0 observes only view 0
        mask = np.array([[1, 0], [0, 1], [1, 1]])
        views = [np.zeros((3, 1))] * 2
        ds = MultiViewDataset(views=views, mask=mask)
        assert unit_score(ds, 0, 1) == 1 + 1  # sample 2 only

    def test_valid_mask_semantics(self):
        mask = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        views = [np.zeros((3, 1))] * 3
        ds = MultiViewDataset(views=views, mask=mask)
        # target (0, 2); members need view 2 and overlap with {0, 1}: 1 and 2
        sims = [np.zeros((3, 3)) for _ in range(3)]
        sims[0][0, 1] = 0.1  # member 1 shares view 0: counts
        sims[1][0, 1] = 0.2  # member 1 misses view 1: must not count
        sims[0][0, 2] = 0.4  # member 2 misses view 0: must not count
        sims[1][0, 2] = 0.8  # member 2 shares view 1: counts
        # each counted similarity enters as intra term and as cross term
        assert unit_score(ds, 0, 2, sims) == pytest.approx(2 * 0.1 + 2 * 0.8)


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
        with pytest.raises(ValueError):
            pairwise_similarity(ds, 0)

    def test_blockwise_matches_direct(self, monkeypatch):
        ds = random_incomplete(4, n=50)
        a = pairwise_similarity(ds, 1)
        monkeypatch.setattr("imvc.scoring.DIST_BLOCK", 7)
        b = pairwise_similarity(ds, 1)
        np.testing.assert_allclose(a, b, atol=1e-12)


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
    def corr(self):
        c = np.eye(3)
        c[0, 1] = c[1, 0] = 0.9
        c[0, 2] = c[2, 0] = 0.3
        c[1, 2] = c[2, 1] = 0.6
        return c

    def sims(self, val01=0.2, val02=0.6):
        s = [np.zeros((3, 3)) for _ in range(3)]
        s[0][0, 1] = s[0][1, 0] = val01
        s[1][0, 1] = s[1][1, 0] = val02
        return s

    def intra_term(self, ds, sims, corr):
        """Member 1's intra term in Info(0, 2): the score less member 1's
        cross-view terms (member 2 has zero similarities)."""
        shared = np.where(ds.mask[0] & ds.mask[1])[0]
        cross = sum(sims[u][0, 1] * corr[u, 2] for u in shared)
        return score_of(info_scores(ds, corr=corr, sims=sims), 0, 2) - cross

    def test_single_shared_view(self):
        mask = np.array([[1, 0, 0], [1, 1, 1], [1, 1, 1]])
        ds = MultiViewDataset(views=[np.zeros((3, 1))] * 3, mask=mask)
        out = self.intra_term(ds, self.sims(), self.corr())
        assert out == pytest.approx(0.2)  # weights normalize away

    def test_equal_corr_unweighted_mean(self):
        mask = np.array([[1, 1, 0], [1, 1, 1], [1, 1, 1]])
        ds = MultiViewDataset(views=[np.zeros((3, 1))] * 3, mask=mask)
        corr = np.eye(3)
        corr[0, 2] = corr[2, 0] = 0.5
        corr[1, 2] = corr[2, 1] = 0.5
        out = self.intra_term(ds, self.sims(0.2, 0.6), corr)
        assert out == pytest.approx(0.4)

    def test_weighted_average(self):
        mask = np.array([[1, 1, 0], [1, 1, 1], [1, 1, 1]])
        ds = MultiViewDataset(views=[np.zeros((3, 1))] * 3, mask=mask)
        corr = np.eye(3)
        corr[0, 2] = corr[2, 0] = 0.9
        corr[1, 2] = corr[2, 1] = 0.3
        out = self.intra_term(ds, self.sims(0.2, 0.6), corr)
        assert out == pytest.approx((0.2 * 0.9 + 0.6 * 0.3) / 1.2)  # = 0.3


class TestInfoScores:
    def test_empty_support_scores_zero(self):
        # sample 0 observes only view 0; the only view-1 observer shares nothing
        mask = np.array([[1, 0], [0, 1], [1, 0]])
        views = [np.zeros((3, 1)), np.zeros((3, 1))]
        ds = MultiViewDataset(views=views, mask=mask)
        rng = np.random.default_rng(0)
        sims = [np.abs(rng.normal(size=(3, 3))) for _ in range(2)]
        table = info_scores(ds, corr=np.eye(2), sims=sims)
        assert score_of(table, 0, 1) == 0.0

    def test_two_sample_hand_trace(self):
        # one support sample, one shared view u != v:
        # intra = (s*c)/c = s, cross = s*c  ->  total s(1+c)
        mask = np.array([[1, 0], [1, 1]])
        views = [np.array([[0.0], [1.0]]), np.array([[0.0], [0.0]])]
        ds = MultiViewDataset(views=views, mask=mask)
        s, c = 0.25, 0.7
        sims = [np.zeros((2, 2)), np.zeros((2, 2))]
        sims[0][0, 1] = sims[0][1, 0] = s
        corr = np.array([[1.0, c], [c, 1.0]])
        table = info_scores(ds, corr=corr, sims=sims)
        assert score_of(table, 0, 1) == pytest.approx(s * (1 + c))

    def test_upper_bound_all_ones(self):
        # sims -> 1 and corr -> 1 gives m * V per position
        n, V = 8, 3
        mask = np.ones((n, V), dtype=int)
        mask[0, 1] = 0
        views = [np.tile([[1.0]], (n, 1)) for _ in range(V)]
        ds = MultiViewDataset(views=views, mask=mask)
        sims = [np.ones((n, n)) for _ in range(V)]
        table = info_scores(ds, corr=np.ones((V, V)), sims=sims)
        assert score_of(table, 0, 1) == pytest.approx((n - 1) * V)

    def test_matches_triple_loop_oracle_exactly(self):
        for seed in range(50):
            ds = random_incomplete(
                seed + 10,
                n=int(np.random.default_rng(seed).integers(8, 31)),
                V=int(np.random.default_rng(seed + 1).integers(2, 5)),
                dims=(3, 2, 4, 2),
            )
            sims = [pairwise_similarity(ds, u) for u in range(ds.n_views)]
            rng = np.random.default_rng(seed + 2)
            corr = np.eye(ds.n_views)
            for u in range(ds.n_views):
                for v in range(u + 1, ds.n_views):
                    corr[u, v] = corr[v, u] = rng.uniform(0.05, 1.0)
            table = info_scores(ds, corr=corr, sims=sims)
            expected = info_scores_oracle(ds, sims, corr)
            for (i, v), score in expected.items():
                assert score_of(table, i, v) == score, (seed, i, v)

    def test_monotone_in_support(self):
        # adding a support sample never decreases the score
        mask = np.array([[1, 0], [1, 1], [1, 1]])
        views = [np.array([[0.0], [0.5], [2.0]]), np.zeros((3, 1))]
        ds_big = MultiViewDataset(views=views, mask=mask)
        sims_big = [pairwise_similarity(ds_big, u) for u in range(2)]
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        # hold sims/corr fixed; drop sample 2 from the support by hiding
        # its target view
        mask_small = mask.copy()
        mask_small[2, 1] = 0
        ds_small = MultiViewDataset(views=views, mask=mask_small)
        small = info_scores(ds_small, corr=corr, sims=sims_big)
        big = info_scores(ds_big, corr=corr, sims=sims_big)
        assert score_of(big, 0, 1) >= score_of(small, 0, 1)


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
