import itertools

import numpy as np
import pytest

from imvc.data import MultiViewDataset
from imvc.metrics import accuracy, ari, nmi, plugin_impute
from imvc.scoring import InfoTable


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

    def test_zero_neighbors_rejected(self):
        # k=0 would average an empty donor slice into NaN fills
        ds = self.hand_dataset()
        with pytest.raises(ValueError, match="at least one neighbor"):
            plugin_impute(ds, table_for(ds), k=0)
