import itertools

import numpy as np
import pytest

from imvc import metrics
from imvc.data import MissingSpec, MultiViewDataset, generate_mask, make_synthetic, mask_patterns
from imvc.metrics import _k_nearest, _max_matching, accuracy, ari, nmi, plugin_impute
from imvc.model import _SQ_MAX, QUERY_BLOCK
from imvc.scoring import InfoTable, info_scores, pattern_blocks, select_positions, view_distances

from oracles import lexsort_nearest, plugin_impute_per_position
from test_scoring import scale_instance, traced_peak_bytes


# ---------------- independent oracles ----------------

def accuracy_bruteforce(pred, truth):
    """Max agreement over all permutations of the label alphabet."""
    K = max(pred.max(), truth.max()) + 1
    best = 0
    for perm in itertools.permutations(range(K)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, int((mapped == truth).sum()))
    return best / len(pred)


def ari_paircount(pred, truth):
    """ARI from explicit pair classification, integer arithmetic."""
    n = len(pred)
    n11 = n10 = n01 = n00 = 0
    for i in range(n):
        for j in range(i + 1, n):
            sp = pred[i] == pred[j]
            st = truth[i] == truth[j]
            if sp and st:
                n11 += 1
            elif sp:
                n10 += 1
            elif st:
                n01 += 1
            else:
                n00 += 1
    num = 2 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return num / den


class TestAccuracy:
    def test_identical(self):
        y = np.array([0, 1, 2, 1, 0])
        assert accuracy(y, y) == 1.0

    def test_permutation_invariance(self):
        truth = np.array([0, 1, 2, 1, 0, 2])
        pred = np.array([2, 0, 1, 0, 2, 1])  # fixed relabeling of truth
        assert accuracy(pred, truth) == 1.0

    def test_matches_factorial_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            K = int(rng.integers(1, 5))
            pred = rng.integers(0, K, size=n)
            truth = rng.integers(0, K, size=n)
            assert accuracy(pred, truth) == accuracy_bruteforce(pred, truth)

    def test_matches_scipy_assignment_oracle(self):
        # beyond brute-force reach: up to 12 x 12 tables, rectangular, with
        # ties (few distinct counts), all-zero rows and columns, 1 x n, n x 1
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(36)
        shapes = [(1, c) for c in range(1, 13)] + [(r, 1) for r in range(1, 13)]
        shapes += [tuple(rng.integers(1, 13, size=2)) for _ in range(3000)]
        for r, c in shapes:
            C = rng.integers(0, rng.choice([2, 3, 10, 1000]), size=(r, c))
            if rng.random() < 0.3:
                C[rng.random(r) < 0.3] = 0
            if rng.random() < 0.3:
                C[:, rng.random(c) < 0.3] = 0
            rows, cols = linear_sum_assignment(C, maximize=True)
            best = int(C[rows, cols].sum())
            assert _max_matching(C) == best
            if C.sum() == 0:
                continue
            p, t = np.nonzero(C)
            pred, truth = np.repeat(p, C[p, t]), np.repeat(t, C[p, t])
            perm = rng.permutation(pred.size)
            assert accuracy(pred[perm], truth[perm]) == best / C.sum()

    def test_rectangular_contingency(self):
        # fewer predicted clusters than true clusters
        pred = np.array([0, 0, 0, 1, 1, 1])
        truth = np.array([0, 0, 1, 1, 2, 2])
        assert accuracy(pred, truth) == pytest.approx(4 / 6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0, 1, 2]))

    def test_majority_constant_floor(self):
        # constant predictor on balanced truth scores exactly 1/K
        truth = np.repeat(np.arange(4), 25)
        pred = np.zeros(100, dtype=int)
        assert accuracy(pred, truth) == pytest.approx(1 / 4)


class TestNmi:
    def test_identical(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        assert nmi(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_constant_pred_convention(self):
        truth = np.array([0, 1, 0, 1])
        pred = np.zeros(4, dtype=int)
        assert nmi(pred, truth) == 0.0

    def test_independent_partitions_near_zero(self):
        rng = np.random.default_rng(1)
        n = 20000
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 4, size=n)
        assert nmi(pred, truth) < 0.05

    def test_symmetric_in_relabeling(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 3, size=50)
        truth = rng.integers(0, 3, size=50)
        relabeled = (pred + 1) % 3
        assert nmi(pred, truth) == pytest.approx(nmi(relabeled, truth), abs=1e-12)


class TestAri:
    def test_identical(self):
        y = np.array([0, 1, 1, 2, 0])
        assert ari(y, y) == 1.0

    def test_matches_paircount_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            K = int(rng.integers(1, 5))
            pred = rng.integers(0, K, size=n)
            truth = rng.integers(0, K, size=n)
            assert ari(pred, truth) == ari_paircount(pred, truth)

    def test_random_permutation_expectation(self):
        rng = np.random.default_rng(4)
        truth = np.repeat(np.arange(4), 50)
        vals = []
        for _ in range(200):
            vals.append(ari(rng.permutation(truth), truth))
        assert abs(np.mean(vals)) < 0.02


# ---------------- raw-space plug-in imputer ----------------

def table_for(dataset, select_all=True):
    positions = np.argwhere(dataset.mask == 0)
    m = len(positions)
    return InfoTable(
        positions=positions,
        scores=np.zeros(m),
        selected=np.full(m, select_all),
    )


def plugin_instance(seed, n=60, V=3, ties=False, long_view=False, nan_row=False, missing=0.4):
    """Random raw views under a random mask (each cell missing with
    probability ``missing``) with a random half of the missing positions
    selected.

    With ``ties`` every view's rows repeat three integer patterns, so many
    donors are exactly equidistant from a query. With ``long_view`` the
    first QUERY_BLOCK + 1 samples miss view 0 and observe view 1, and all of
    view 0's positions are selected, so it has more than one block of
    queries. With ``nan_row`` one observed view-1 row is NaN, so its
    distances are NaN. With ``missing=0.65`` and k=8, every seed has a
    query block that holds both queries with at least k usable donors and
    queries with fewer, so both paths of ``metrics._k_nearest`` run in one
    call.
    """
    rng = np.random.default_rng(seed)
    mask = (rng.random((n, V)) >= missing).astype(int)
    if long_view:
        mask[:QUERY_BLOCK + 1, :2] = (0, 1)
    mask[mask.sum(axis=1) == 0, 0] = 1
    views = [rng.normal(size=(n, v + 1)) for v in range(V)]
    if ties:
        views = [np.round(3 * X[rng.integers(0, 3, size=n)]) for X in views]
    if nan_row:
        views[1][np.where(mask[:, 1])[0][0]] = np.nan
    ds = MultiViewDataset(views=views, mask=mask)
    table = table_for(ds)
    table.selected[:] = rng.random(table.n_missing) < 0.5
    if long_view:
        table.selected[table.positions[:, 1] == 0] = True
    return ds, table


NAN, INF = np.nan, np.inf

# (key rows, tie) of hand-built donor rankings; tie is the donor index of
# each column, not in column order, as when several donor groups fill a
# block's columns. Each case is checked at every k from 1 to two past the
# column count.
NEAREST_CASES = {
    # the k-th value is shared by several donors on either side of it
    "ties-across-kth": ([[2.0, 1.0, 2.0, 0.0, 2.0, 1.0, 2.0],
                         [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                         [0.0, -0.0, 0.0, 3.0, -0.0, 0.0, 3.0]],
                        [4, 6, 0, 2, 5, 1, 3]),
    # NaN and +-inf keys, and rows with fewer finite keys than k
    "inf-nan-keys": ([[NAN, INF, 0.5, 0.2, NAN, 0.2],
                      [INF, NAN, INF, 0.1, -INF, INF],
                      [-INF, NAN, -INF, INF, 0.0, -INF],
                      [NAN, NAN, NAN, NAN, NAN, NAN],
                      [INF, INF, INF, INF, INF, INF]],
                     [7, 9, 11, 2, 3, 5]),
    "single-donor": ([[NAN], [0.0], [2.0], [INF], [-INF]], [4]),
}


@pytest.mark.parametrize("case", NEAREST_CASES)
def test_k_nearest_equals_full_sort(case):
    key, tie = map(np.array, NEAREST_CASES[case])
    for k in range(1, key.shape[1] + 3):
        np.testing.assert_array_equal(_k_nearest(key, k, tie), lexsort_nearest(key, k, tie),
                                      err_msg=f"k={k}")


class TestPluginImpute:
    def hand_dataset(self):
        # 5 samples, 2 views; sample 0 misses view 1
        v0 = np.array([[0.0], [0.1], [5.0], [5.1], [9.0]])
        v1 = np.array([[99.0], [10.0], [20.0], [30.0], [40.0]])
        mask = np.array([[1, 0], [1, 1], [1, 1], [1, 1], [1, 1]])
        return MultiViewDataset(views=[v0, v1], mask=mask)

    def test_k1_nearest_neighbor_value(self):
        ds = self.hand_dataset()
        out, flags = plugin_impute(ds, table_for(ds), k=1)
        # nearest donor in shared view 0 is sample 1 -> copies its view-1 row
        assert out.views[1][0, 0] == 10.0
        assert out.mask[0, 1] == 1 and flags[0, 1]

    def test_hand_computed_mean(self):
        ds = self.hand_dataset()
        out, _ = plugin_impute(ds, table_for(ds), k=2)
        # two nearest donors by view-0 distance: samples 1 (0.1) and 2 (5.0)
        assert out.views[1][0, 0] == pytest.approx((10.0 + 20.0) / 2)

    def test_identical_neighbors(self):
        v0 = np.array([[1.0], [1.0], [1.0]])
        v1 = np.array([[0.0], [7.0], [7.0]])
        mask = np.array([[1, 0], [1, 1], [1, 1]])
        ds = MultiViewDataset(views=[v0, v1], mask=mask)
        out, _ = plugin_impute(ds, table_for(ds), k=2)
        assert out.views[1][0, 0] == pytest.approx(7.0)

    def test_never_touches_observed_or_unselected(self):
        ds = self.hand_dataset()
        out, flags = plugin_impute(ds, table_for(ds, select_all=False), k=1)
        for a, b in zip(out.views, ds.views):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(out.mask, ds.mask)
        assert not flags.any()

    def test_original_value_ignored(self):
        # the stale cell content at a missing position must not matter
        ds = self.hand_dataset()
        ds.views[1][0, 0] = 1e12
        out, _ = plugin_impute(ds, table_for(ds), k=1)
        assert out.views[1][0, 0] == 10.0

    def test_fills_from_originals_not_other_fills(self):
        # two selected positions in the same view must both be computed
        # from the original observed donors
        v0 = np.array([[0.0], [0.2], [10.0], [10.2]])
        v1 = np.array([[0.0], [0.0], [5.0], [9.0]])
        mask = np.array([[1, 0], [1, 0], [1, 1], [1, 1]])
        ds = MultiViewDataset(views=[v0, v1], mask=mask)
        out, _ = plugin_impute(ds, table_for(ds), k=2)
        expected = (5.0 + 9.0) / 2
        assert out.views[1][0, 0] == pytest.approx(expected)
        assert out.views[1][1, 0] == pytest.approx(expected)

    def test_distances_add_in_view_order(self):
        # donors 1 and 2 lie 0.1/0.2/0.3 and 0.3/0.2/0.1 from sample 0 in
        # views 0-2: summed in view order donor 2 is one ulp nearer, summed
        # in reverse order donor 1 is
        views = [np.array([[0.0], [a], [b]]) for a, b in ((0.1, 0.3), (0.2, 0.2), (0.3, 0.1))]
        views.append(np.array([[0.0], [10.0], [20.0]]))
        ds = MultiViewDataset(views=views, mask=np.array([[1, 1, 1, 0]] + [[1, 1, 1, 1]] * 2))
        out, _ = plugin_impute(ds, table_for(ds), k=1)
        assert out.views[3][0, 0] == 20.0

    def test_zero_neighbors_rejected(self):
        # k=0 would average an empty donor slice into NaN fills
        ds = self.hand_dataset()
        with pytest.raises(ValueError, match="at least one neighbor"):
            plugin_impute(ds, table_for(ds), k=0)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", True])
    def test_non_integer_neighbors_rejected(self, k):
        # a float k used to fail with a TypeError from slicing
        ds = self.hand_dataset()
        with pytest.raises(ValueError, match=f"at least one neighbor.*got {k!r}$"):
            plugin_impute(ds, table_for(ds), k=k)

    def assert_per_position_fills(self, ds, table, k):
        out, flags = plugin_impute(ds, table, k=k)
        ref, ref_flags = plugin_impute_per_position(ds, table, k=k)
        for a, b in zip(out.views, ref.views):
            np.testing.assert_array_equal(a, b, err_msg=f"k={k}")
        np.testing.assert_array_equal(out.mask, ref.mask)
        np.testing.assert_array_equal(flags, ref_flags)
        return out

    @pytest.mark.parametrize("case,k", [
        (dict(), 3),
        (dict(ties=True), 5),
        (dict(), 100),
        (dict(V=4), 4),
        (dict(n=2 * QUERY_BLOCK, ties=True, long_view=True), 7),
        (dict(nan_row=True), 100),
        (dict(missing=0.65), 8),
    ], ids=["random", "exact-ties", "k-above-donors", "four-views", "two-query-blocks",
            "nan-distances", "few-usable-donors"])
    def test_bitwise_equal_to_per_position(self, case, k):
        for seed in range(8):
            self.assert_per_position_fills(*plugin_instance(seed, **case), k)

    def test_memory_stays_below_quadratic(self):
        # every view's (m, m) distance matrix, held for the whole call,
        # peaked at about 109 MB; a dense (block, donors) scatter of each
        # shared view's distances, with a count GEMM, at about 25 MB
        ds, corr = scale_instance()
        table = select_positions(info_scores(ds, corr=corr), 0.3)
        assert traced_peak_bytes(plugin_impute, ds, table, k=10) < 16 * 2**20

    def test_donor_groups_sharing_no_view(self):
        # view 2's queries 0 and 8 observe view 0 only. Donors 1 and 2
        # observe views 1 and 2, so share no view with them and never
        # donate; donors 3-7 observe views 0 and 2, at NaN (3, 7), inf (4,
        # its squares overflow) and finite (5, 6) distances from sample 0.
        # Sample 8's own row is NaN, so all its distances are NaN.
        v0 = np.array([[0.0], [0.0], [0.0], [NAN], [1e200], [0.5], [0.2], [NAN], [NAN]])
        v1 = np.zeros((9, 1))
        v2 = 10.0 * np.arange(9.0)[:, None]
        mask = np.array([[1, 0, 0]] + [[0, 1, 1]] * 2 + [[1, 0, 1]] * 5 + [[1, 0, 0]])
        ds = MultiViewDataset(views=[v0, v1, v2], mask=mask)
        table = table_for(ds)
        table.selected[:] = table.positions[:, 1] == 2
        nearest = {0: [6, 5, 4, 3, 7], 8: [3, 4, 5, 6, 7]}
        for k in range(1, 8):
            with np.errstate(over="ignore", invalid="ignore"):
                out = self.assert_per_position_fills(ds, table, k)
            for i, donors in nearest.items():
                assert out.views[2][i, 0] == v2[donors[:k], 0].mean()

    def test_fewer_donors_than_k(self):
        # view 2's queries of patterns {0}, {1} and {0, 1} have 3, 5 and 7
        # candidate donors among groups {0, 2} (2 donors), {1, 2} (4) and
        # {0, 1, 2} (1), so at most k they use different donor counts
        rng = np.random.default_rng(5)
        kinds = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
        mask = np.repeat(kinds, [3, 2, 2, 2, 4, 1], axis=0)[rng.permutation(14)]
        ds = MultiViewDataset(views=[rng.normal(size=(14, d)) for d in (2, 3, 2)], mask=mask)
        table = table_for(ds)
        table.selected[:] = table.positions[:, 1] == 2
        for k in range(1, 9):
            self.assert_per_position_fills(ds, table, k)

    def test_every_pattern_of_five_views(self, monkeypatch):
        # all 31 observation patterns of V = 5: many (query, donor) pattern
        # pairs share no view, e.g. {0} and {1}. The 12 extra samples
        # observing views 0 and 1 only are one query pattern of views 2-4
        # that spans several blocks.
        rng = np.random.default_rng(11)
        kinds = np.array([[p >> u & 1 for u in range(5)] for p in range(1, 32)])
        mask = np.vstack([kinds, np.tile([[1, 1, 0, 0, 0]], (12, 1)), kinds])
        n = mask.shape[0]
        ds = MultiViewDataset([rng.normal(size=(n, d)) for d in (3, 1, 2, 4, 2)], mask)
        table = table_for(ds)
        for block in (1, 2, 5, QUERY_BLOCK):
            monkeypatch.setattr(metrics, "QUERY_BLOCK", block)
            for k in (1, 4, 10):
                self.assert_per_position_fills(ds, table, k)

    @pytest.mark.parametrize("mask,select,message", [
        ([[1, 0], [1, 1], [1, 1]], [(1, 1)], r"\(1, 1\) is observed"),
        ([[1, 0], [1, 0], [1, 0]], [(0, 1)], r"no sample observes view 1"),
        ([[1, 0], [0, 1], [0, 1]], [(0, 1)], r"no donor shares an observed view with sample 0"),
        # view 3's only donor observes views 2 and 3, so its queries 0 and 1
        # (views 0 and 1 only) share no view with it: the error names 0, the
        # first in selection order, though np.unique sorts 1's pattern first
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 0]], [(0, 3), (1, 3), (3, 3)],
         r"no donor shares an observed view with sample 0$"),
    ], ids=["observed-position", "view-without-donor", "no-shared-view", "first-lonely-query"])
    def test_unfillable_selection_rejected(self, mask, select, message):
        n, V = np.shape(mask)
        ds = MultiViewDataset(views=[np.arange(float(n))[:, None]] * V, mask=np.array(mask))
        table = InfoTable(positions=np.array(select), scores=np.zeros(len(select)),
                          selected=np.ones(len(select), dtype=bool))
        with pytest.raises(ValueError, match=message):
            plugin_impute(ds, table)


class TestPluginScreen:
    """The GEMM screen of ``plugin_impute`` only chooses candidates: fills
    stay those of ranking every donor exactly. The small instances force
    the screen on by lowering ``metrics.SCREEN_MIN_PAIRS`` to 0."""

    @pytest.fixture
    def screened(self, monkeypatch):
        monkeypatch.setattr(metrics, "SCREEN_MIN_PAIRS", 0)

    @pytest.mark.parametrize("offsets,nearest", [
        ((0.56, 0.13, 0.78), 1), ((0.09, 0.27, 0.49), 1),
        ((0.65, 0.87, 0.17), 2), ((0.53, 0.57, 0.44), 2),
    ])
    def test_donors_one_ulp_apart(self, screened, offsets, nearest):
        # donors 1 and 2 lie at the offsets and at their reverse from
        # sample 0, near (3, 3, 3): summed in feature order their exact
        # keys differ by one ulp, while the GEMM estimates, some 20 ulps
        # off, rank them the other way round
        q = np.full(3, 3.0)
        X = np.array([q, q + offsets, q + offsets[::-1], q + 5.0])
        ds = MultiViewDataset([X, np.array([[0.0], [10.0], [20.0], [30.0]])],
                              np.array([[1, 0]] + [[1, 1]] * 3))
        d = view_distances(ds, 0, np.array([0]), np.array([1, 2]))[0]
        assert abs(d[1] - d[0]) == np.spacing(d[0]) and np.argmin(d) == nearest - 1
        out, _ = plugin_impute(ds, table_for(ds), k=1)
        assert out.views[1][0, 0] == 10.0 * nearest

    @staticmethod
    def assert_screen_changes_nothing(monkeypatch, ds, table, k):
        """Fills with every block screened equal those with none."""
        fills = []
        for threshold in (0, float("inf")):
            monkeypatch.setattr(metrics, "SCREEN_MIN_PAIRS", threshold)
            fills.append(plugin_impute(ds, table, k=k)[0].views)
        for a, b in zip(*fills):
            np.testing.assert_array_equal(a, b)
        return fills[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_large_common_offset(self, monkeypatch, seed):
        # every row sits within 1e-3 of 1e8: the GEMM estimates are off by
        # far more than the distances, the margin grows to match, and
        # every donor stays a candidate
        ds, table = plugin_instance(seed, n=120)
        rng = np.random.default_rng(seed)
        ds = MultiViewDataset([1e8 + 1e-3 * rng.normal(size=X.shape) for X in ds.views], ds.mask)
        self.assert_screen_changes_nothing(monkeypatch, ds, table, 5)

    def test_huge_row_ranks_every_donor(self, monkeypatch):
        # view 0's rows are 2^511 + 2^470 p for distinct integers p, so
        # their squared norms reach model._SQ_MAX: the screen declines and
        # every donor gets its exact key, |p_i - p_j| 2^470
        rng = np.random.default_rng(0)
        p = rng.permutation(16)
        X = 2.0**511 + 2.0**470 * p[:, None]
        assert ((X * X).sum(axis=1) >= _SQ_MAX).all()
        ds = MultiViewDataset([X, rng.normal(size=(16, 2))], np.array([[1, 0]] * 4 + [[1, 1]] * 12))
        out = self.assert_screen_changes_nothing(monkeypatch, ds, table_for(ds), 3)
        for i in range(4):
            nearest = 4 + np.lexsort((np.arange(12), abs(p[4:] - p[i])))[:3]
            assert out[1][i].tolist() == ds.views[1][nearest].mean(axis=0).tolist()

    @pytest.mark.parametrize("case,k", [
        (dict(), 3),
        (dict(ties=True), 5),
        (dict(), 100),
        (dict(V=4), 4),
        (dict(n=2 * QUERY_BLOCK, ties=True, long_view=True), 7),
        (dict(nan_row=True), 5),
        (dict(missing=0.65), 8),
    ], ids=["random", "exact-ties", "k-above-donors", "four-views", "two-query-blocks",
            "nan-distances", "few-usable-donors"])
    def test_screened_bitwise_equal_to_per_position(self, screened, case, k):
        for seed in range(8):
            TestPluginImpute().assert_per_position_fills(*plugin_instance(seed, **case), k)

    def test_exact_kernel_sees_few_pairs(self, monkeypatch):
        # the screen runs at its real threshold: the exact kernel gets
        # under 5 % of the (query, donor, shared view) triples that ranking
        # every donor exactly computes
        ds, _ = scale_instance()
        table = table_for(ds)
        patterns = mask_patterns(ds.mask.astype(bool))
        pos = table.positions
        dense = sum(qb.size * sum(members.size * S.size for members, S in pairs)
                    for v in range(ds.n_views)
                    for qb, pairs in pattern_blocks(patterns, v, pos[pos[:, 1] == v, 0], QUERY_BLOCK))
        seen = []

        def spy(dataset, u, rows, cols):
            out = view_distances(dataset, u, rows, cols)
            seen.append(out.size)
            return out

        monkeypatch.setattr(metrics, "view_distances", spy)
        plugin_impute(ds, table, k=10)
        assert 0 < sum(seen) < 0.05 * dense

    def test_realistic_size_equals_per_position(self):
        # make_synthetic(1000) under the 0.8/0.5/0.2 eta=0.5 mask, every
        # missing position selected, at the screen's real threshold
        base = make_synthetic(n_samples=1000, seed=0)
        mask = generate_mask(1000, 3, MissingSpec(np.array([0.8, 0.5, 0.2]), 0.5, seed=1))
        ds = MultiViewDataset(views=base.views, mask=mask)
        TestPluginImpute().assert_per_position_fills(ds, table_for(ds), 10)
