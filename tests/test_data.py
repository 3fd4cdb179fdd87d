import os

import numpy as np
import pytest

from imvc import metrics, scoring
from imvc.cli import main
from imvc.data import (
    MissingSpec,
    MultiViewDataset,
    atomic_open,
    generate_mask,
    load_dataset,
    make_synthetic,
    mask_patterns,
    normalize,
    save_dataset,
)


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(x) for x in r) for r in rows) + "\n")


class TestLoad:
    def test_complete_two_views(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, [[1, 2], [3, 4], [5, 6]])
        write_csv(b, [[1], [2], [3]])
        ds = load_dataset([a, b])
        assert ds.n_samples == 3 and ds.n_views == 2
        assert (ds.mask == 1).all()

    def test_row_count_mismatch(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, [[1]] * 4)
        write_csv(b, [[1]] * 5)
        with pytest.raises(ValueError, match="row count mismatch"):
            load_dataset([a, b])

    def test_all_zero_mask_row(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        m = tmp_path / "m.csv"
        write_csv(a, [[1], [2], [3]])
        write_csv(b, [[1], [2], [3]])
        write_csv(m, [[1, 1], [1, 0], [0, 0]])
        with pytest.raises(ValueError, match="sample 2 has no observed view"):
            load_dataset([a, b], mask_path=m)

    def test_mask_value_outside_01(self, tmp_path):
        a = tmp_path / "a.csv"
        m = tmp_path / "m.csv"
        write_csv(a, [[1], [2]])
        write_csv(m, [[1], [2]])
        with pytest.raises(ValueError, match="0 or 1"):
            load_dataset([a], mask_path=m)

    def test_non_numeric_cell(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_dataset([a])

    @pytest.mark.parametrize("K", [0, -1])
    def test_cluster_count_below_one(self, K):
        with pytest.raises(ValueError, match=f"cluster count must be at least 1, got {K}"):
            MultiViewDataset(views=[np.zeros((3, 2))], mask=np.ones((3, 1)), K=K)

    def test_labels_give_K(self, tmp_path):
        a = tmp_path / "a.csv"
        y = tmp_path / "y.csv"
        write_csv(a, [[1], [2], [3], [4]])
        write_csv(y, [[0], [1], [2], [1]])
        ds = load_dataset([a], labels_path=y)
        assert ds.K == 3

    def test_roundtrip_with_save(self, tmp_path):
        ds = make_synthetic(n_samples=20, n_clusters=2, view_dims=(3, 2),
                            view_noise=(0.1, 0.1), seed=5)
        paths = save_dataset(ds, tmp_path)
        back = load_dataset([paths["view0"], paths["view1"]],
                            mask_path=paths["mask"], labels_path=paths["labels"])
        for X, Y in zip(ds.views, back.views):
            np.testing.assert_allclose(X, Y, atol=1e-9)
        np.testing.assert_array_equal(ds.labels, back.labels)

    def test_failed_save_keeps_previous_files(self, tmp_path, request):
        ds = make_synthetic(n_samples=20, n_clusters=2, view_dims=(3, 2), seed=5)
        paths = save_dataset(ds, tmp_path)
        before = {p: open(p).read() for p in paths.values()}
        request.getfixturevalue("failing_savetxt")
        other = make_synthetic(n_samples=20, n_clusters=2, view_dims=(3, 2), seed=6)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(other, tmp_path)
        assert {p: open(p).read() for p in paths.values()} == before
        assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in before)


class TestNormalize:
    def make(self, col, mask_col):
        views = [np.asarray(col, dtype=float).reshape(-1, 1)]
        mask = np.asarray(mask_col).reshape(-1, 1)
        return MultiViewDataset(views=views, mask=mask)

    def test_minmax_definition(self):
        ds = self.make([2, 4, 6], [1, 1, 1])
        out = normalize(ds)
        np.testing.assert_allclose(out.views[0].ravel(), [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        ds = self.make([5, 5, 5], [1, 1, 1])
        out = normalize(ds)
        np.testing.assert_array_equal(out.views[0], 0.0)

    def test_unobserved_rows_scaled_with_observed_stats(self):
        # observed [1,3]; unobserved value 3 scales to 1 and stays masked
        views = [np.array([[1.0], [3.0], [3.0]])]
        mask = np.array([[1, 1], [1, 1], [0, 1]])
        ds = MultiViewDataset(views=[views[0], np.zeros((3, 1))], mask=mask)
        out = normalize(ds)
        np.testing.assert_allclose(out.views[0].ravel(), [0.0, 1.0, 1.0])
        assert out.mask[2, 0] == 0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = MultiViewDataset(
            views=[rng.normal(size=(40, 5)), rng.normal(size=(40, 3)) * 100],
            mask=np.ones((40, 2)),
        )
        once = normalize(ds)
        twice = normalize(once)
        for a, b in zip(once.views, twice.views):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_no_leak_from_masked_rows(self):
        # a huge masked value must not affect the scaling of observed rows
        views = [np.array([[0.0], [1.0], [1e9]]), np.zeros((3, 1))]
        mask = np.array([[1, 1], [1, 1], [0, 1]])
        out = normalize(MultiViewDataset(views=views, mask=mask))
        np.testing.assert_allclose(out.views[0][:2].ravel(), [0.0, 1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_observed_cell_rejected(self, value):
        views = [np.zeros((4, 2)), np.arange(12.0).reshape(4, 3)]
        views[1][2, 1] = value
        mask = np.array([[1, 1], [1, 0], [1, 1], [0, 1]])
        with pytest.raises(ValueError, match=(
                rf"view 1: observed cell \(sample 2, column 1\) is {value}")):
            normalize(MultiViewDataset(views=views, mask=mask))

    def test_non_finite_unobserved_cells_ignored(self):
        rng = np.random.default_rng(3)
        views = [rng.normal(size=(6, 2)), rng.normal(size=(6, 3))]
        mask = np.array([[1, 1], [0, 1], [1, 0], [1, 1], [1, 0], [0, 1]])
        poisoned = [X.copy() for X in views]
        for v, X in enumerate(poisoned):
            X[mask[:, v] == 0] = (np.nan, np.inf)[v]
        finite = normalize(MultiViewDataset(views=views, mask=mask))
        out = normalize(MultiViewDataset(views=poisoned, mask=mask))
        for v, (a, b) in enumerate(zip(finite.views, out.views)):
            obs = mask[:, v] == 1
            np.testing.assert_array_equal(a[obs], b[obs])


class TestGenerateMask:
    def test_zero_rate_all_ones(self):
        spec = MissingSpec(np.zeros(3), target_rate=0.0, seed=1)
        mask = generate_mask(100, 3, spec)
        assert (mask == 1).all()

    def test_one_view_zero_rate_all_ones(self):
        spec = MissingSpec(np.array([0.3]), target_rate=0.0, seed=1)
        assert (generate_mask(10, 1, spec) == 1).all()

    def test_one_view_positive_rate_infeasible(self):
        spec = MissingSpec(np.array([0.3]), target_rate=0.1, seed=1)
        with pytest.raises(ValueError, match="infeasible with 1 views"):
            generate_mask(10, 1, spec)

    def test_one_view_zero_rate_cli(self, tmp_path):
        out = tmp_path / "mask.csv"
        assert main(["gen-mask", "--out", str(out), "--samples", "10",
                     "--probs", "0.3", "--rate", "0"]) == 0
        assert out.read_text().split() == ["1"] * 10

    @pytest.mark.parametrize("N", [0, -3])
    def test_no_samples_rejected(self, N, tmp_path):
        spec = MissingSpec(np.array([0.4, 0.2]), target_rate=0.3, seed=1)
        with pytest.raises(ValueError, match=f"at least 1 sample, got {N}"):
            generate_mask(N, 2, spec)
        # the CLI exits 1 and writes no empty mask
        out = tmp_path / "mask.csv"
        assert main(["gen-mask", "--out", str(out), "--samples", str(N),
                     "--probs", "0.4,0.2", "--rate", "0.3"]) == 1
        assert not out.exists()

    def test_unbalanced_rate_hits_target(self):
        # Monte-Carlo across seeds: realized rate within +-0.02 of 0.5
        for seed in range(5):
            spec = MissingSpec(np.array([0.8, 0.5, 0.2]), target_rate=0.5, seed=seed)
            mask = generate_mask(1000, 3, spec)
            rate = 1.0 - mask.mean()
            assert 0.48 <= rate <= 0.52
            assert (mask.sum(axis=1) >= 1).all()

    def test_infeasible_rate(self):
        spec = MissingSpec(np.array([0.6, 0.6]), target_rate=0.6, seed=0)
        with pytest.raises(ValueError, match="infeasible"):
            generate_mask(100, 2, spec)

    def test_deterministic(self):
        spec = MissingSpec(np.array([0.7, 0.4, 0.4]), target_rate=0.5, seed=9)
        m1 = generate_mask(500, 3, spec)
        m2 = generate_mask(500, 3, spec)
        np.testing.assert_array_equal(m1, m2)

    def test_per_view_marginals(self):
        probs = np.array([0.8, 0.5, 0.2])
        spec = MissingSpec(probs, target_rate=0.5, seed=3)
        mask = generate_mask(2000, 3, spec)
        per_view = 1.0 - mask.mean(axis=0)
        assert (np.abs(per_view - probs) <= 0.03).all()

    def test_rescales_probs_to_rate(self):
        # caller passes probs whose mean is not the target; op rescales
        spec = MissingSpec(np.array([0.2, 0.1, 0.1]), target_rate=0.4, seed=2)
        mask = generate_mask(1500, 3, spec)
        assert abs((1.0 - mask.mean()) - 0.4) <= 0.02


class TestSynthetic:
    def test_shapes_and_labels(self):
        ds = make_synthetic(n_samples=120, n_clusters=4, view_dims=(6, 5, 4), seed=0)
        assert ds.n_samples == 120 and ds.n_views == 3
        assert ds.dims == [6, 5, 4]
        assert ds.K == 4
        assert set(np.unique(ds.labels)) <= set(range(4))

    def test_deterministic(self):
        a = make_synthetic(n_samples=50, seed=12)
        b = make_synthetic(n_samples=50, seed=12)
        for X, Y in zip(a.views, b.views):
            np.testing.assert_array_equal(X, Y)


class TestAtomicOpen:
    def test_replaces_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_open(path) as fh:
            fh.write("new")
            assert path.read_text() == "old"
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_error_keeps_old_file_and_removes_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("half")
                raise RuntimeError
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]


def unique_patterns(mask):
    """``np.unique`` over the mask's rows: the reference of ``mask_patterns``."""
    kinds, inverse = np.unique(mask, axis=0, return_inverse=True)
    return kinds, inverse.ravel()


class TestMaskPatterns:
    @pytest.mark.parametrize("V,n,observed", [
        (1, 40, 0.5), (2, 1, 0.5), (3, 300, 0.6), (5, 200, 0.5), (8, 500, 0.9),
        (63, 50, 0.5), (64, 50, 0.5), (70, 120, 0.5), (70, 120, 0.97), (4, 60, 1.0),
    ])
    @pytest.mark.parametrize("dtype", [bool, np.int8])
    def test_equals_np_unique(self, V, n, observed, dtype):
        # observed = 1.0 gives a single pattern
        rng = np.random.default_rng(V * 1000 + n)
        mask = (rng.random((n, V)) < observed).astype(dtype)
        kinds, inverse = mask_patterns(mask)
        want_kinds, want_inverse = unique_patterns(mask)
        assert kinds.dtype == want_kinds.dtype and inverse.dtype == want_inverse.dtype
        np.testing.assert_array_equal(kinds, want_kinds)
        np.testing.assert_array_equal(inverse, want_inverse)

    @pytest.mark.parametrize("seed,V", [(0, 2), (1, 3), (2, 4), (3, 5)])
    def test_scores_and_fills_unchanged(self, monkeypatch, seed, V):
        # info_scores and plugin_impute give the same bytes with np.unique's
        # grouping as with the helper's
        rng = np.random.default_rng(seed)
        n = 90
        mask = (rng.random((n, V)) >= 0.4).astype(int)
        mask[mask.sum(axis=1) == 0, rng.integers(V)] = 1
        ds = MultiViewDataset([rng.normal(size=(n, v + 2)) for v in range(V)], mask)
        corr = np.full((V, V), 0.5) + 0.5 * np.eye(V)

        def run():
            table = scoring.select_positions(scoring.info_scores(ds, corr=corr), 0.5)
            filled, _ = metrics.plugin_impute(ds, table, k=3)
            return table.scores.tobytes(), [X.tobytes() for X in filled.views]

        got = run()
        monkeypatch.setattr(scoring, "mask_patterns", unique_patterns)
        monkeypatch.setattr(metrics, "mask_patterns", unique_patterns)
        assert run() == got
