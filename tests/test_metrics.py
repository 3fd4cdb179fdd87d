import itertools

import numpy as np
import pytest

from imvc.data import MultiViewDataset
from imvc.metrics import accuracy, ari, nmi, plugin_impute
from imvc.model import QUERY_BLOCK
from imvc.scoring import InfoTable

from oracles import plugin_impute_per_position


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
    positions = dataset.missing_positions()
    m = len(positions)
    return InfoTable(
        positions=np.asarray(positions, dtype=np.int64).reshape(m, 2),
        scores=np.zeros(m),
        selected=np.full(m, select_all),
        ratio=1.0 if select_all else 0.0,
    )


def plugin_instance(seed, n=60, V=3, ties=False, long_view=False, nan_row=False):
    """Random raw views under a random mask with a random half of the
    missing positions selected.

    With ``ties`` every view's rows repeat three integer patterns, so many
    donors are exactly equidistant from a query. With ``long_view`` the
    first QUERY_BLOCK + 1 samples miss view 0 and observe view 1, and all of
    view 0's positions are selected, so it has more than one block of
    queries. With ``nan_row`` one observed view-1 row is NaN, so its
    distances are NaN.
    """
    rng = np.random.default_rng(seed)
    mask = (rng.random((n, V)) >= 0.4).astype(int)
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

    @pytest.mark.parametrize("case,k", [
        (dict(), 3),
        (dict(ties=True), 5),
        (dict(), 100),
        (dict(V=4), 4),
        (dict(n=2 * QUERY_BLOCK, ties=True, long_view=True), 7),
        (dict(nan_row=True), 100),
    ], ids=["random", "exact-ties", "k-above-donors", "four-views", "two-query-blocks",
            "nan-distances"])
    def test_bitwise_equal_to_per_position(self, case, k):
        for seed in range(8):
            ds, table = plugin_instance(seed, **case)
            out, flags = plugin_impute(ds, table, k=k)
            ref, ref_flags = plugin_impute_per_position(ds, table, k=k)
            for a, b in zip(out.views, ref.views):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(out.mask, ref.mask)
            np.testing.assert_array_equal(flags, ref_flags)

    @pytest.mark.parametrize("mask,select,message", [
        ([[1, 0], [1, 1], [1, 1]], (1, 1), r"\(1, 1\) is observed"),
        ([[1, 0], [1, 0], [1, 0]], (0, 1), r"no sample observes view 1"),
        ([[1, 0], [0, 1], [0, 1]], (0, 1), r"no donor shares an observed view with sample 0"),
    ], ids=["observed-position", "view-without-donor", "no-shared-view"])
    def test_unfillable_selection_rejected(self, mask, select, message):
        ds = MultiViewDataset(views=[np.arange(3.0)[:, None]] * 2, mask=np.array(mask))
        table = InfoTable(positions=np.array([select]), scores=np.zeros(1),
                          selected=np.ones(1, dtype=bool))
        with pytest.raises(ValueError, match=message):
            plugin_impute(ds, table)
