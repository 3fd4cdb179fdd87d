import tracemalloc

import numpy as np
import pytest

from imvc.data import MissingSpec, MultiViewDataset, generate_mask, make_synthetic
from imvc.model import (
    QUERY_BLOCK,
    SIGMA_MIN,
    DmgmmModel,
    GaussianPosterior,
    MixturePrior,
    NonFiniteLossError,
    encode_all,
    aggregate_observed,
    check_trainable,
    encoder_pass,
    fuse,
    impute_all,
    loss_and_grads,
    responsibilities,
    scale_heads,
    scale_slope,
    w2_distance,
)

from oracles import (
    coherence_loss,
    fuse_with_imputation,
    impute_all_bruteforce,
    impute_distribution,
    kl_diag_gaussian,
    loss_and_grads_per_view,
    observed_views,
)


def rel_err(a, b):
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def small_dataset(seed, n=12, dims=(5, 4, 3), rate=0.3, binary_views=()):
    rng = np.random.default_rng(seed)
    views = []
    for v, d in enumerate(dims):
        X = rng.normal(size=(n, d))
        if v in binary_views:
            X = (X > 0).astype(float)
        views.append(X)
    mask = (rng.random((n, len(dims))) >= rate).astype(int)
    for i in np.where(mask.sum(axis=1) == 0)[0]:
        mask[i, rng.integers(len(dims))] = 1
    for v in range(len(dims)):
        if mask[:, v].sum() == 0:
            mask[rng.integers(n), v] = 1
    return MultiViewDataset(views=views, mask=mask)


def poe(experts):
    """``fuse`` over a list of single-sample posteriors, as one posterior:
    every expert sits on row 0 of a one-row batch."""
    zero = np.zeros((1, experts[0].mu.size))
    mu, var = fuse([([0], p.mu, 1.0 / p.var) for p in experts], (zero, zero))
    return GaussianPosterior(mu[0], var[0])


def row(post, i):
    return GaussianPosterior(post.mu[i], post.var[i])


def small_model(dataset, seed, d_z=3, K=3, hidden=(8, 6), binary_views=()):
    likelihoods = [
        "bernoulli" if v in binary_views else "gaussian"
        for v in range(dataset.n_views)
    ]
    model = DmgmmModel.build(
        dataset.dims, K=K, d_z=d_z, hidden=hidden, likelihoods=likelihoods, seed=seed
    )
    rng = np.random.default_rng(seed + 77)
    model.prior_mu[...] = rng.normal(size=model.prior_mu.shape)
    model.prior_rho[...] = rng.normal(scale=0.3, size=model.prior_rho.shape)
    model.pi_logits[...] = rng.normal(scale=0.3, size=model.pi_logits.shape)
    return model


class TestEncode:
    def test_zero_weights(self):
        ds = small_dataset(0)
        model = small_model(ds, 0)
        for w in model.encoders[0].weights:
            w[...] = 0.0
        for b in model.encoders[0].biases:
            b[...] = 0.0
        rows = ds.observed(0)
        p = encode_all(model, ds)[0]
        np.testing.assert_array_equal(p.mu[rows], 0.0)
        expected_sd = np.log(2.0) + SIGMA_MIN  # softplus(0) + floor
        np.testing.assert_allclose(p.var[rows], expected_sd**2)

    def test_identical_rows_identical_posteriors(self):
        ds = small_dataset(1)
        views = [X.copy() for X in ds.views]
        views[0][:] = views[0][:1]
        ds = MultiViewDataset(views=views, mask=ds.mask)
        model = small_model(ds, 1)
        rows = ds.observed(0)
        assert rows.size > 1
        p = encode_all(model, ds)[0]
        mu, var = p.mu[rows], p.var[rows]
        assert (mu == mu[0]).all() and (var == var[0]).all()

    def test_matches_independent_forward(self):
        ds = small_dataset(2)
        model = small_model(ds, 2)
        rows = ds.observed(1)
        p = encode_all(model, ds)[1]
        # straightforward re-evaluation
        h = ds.views[1][rows]
        net = model.encoders[1]
        for l in range(net.n_layers - 1):
            h = np.maximum(h @ net.weights[l] + net.biases[l], 0.0)
        a = h @ net.weights[-1] + net.biases[-1]
        d = model.d_z
        mu = a[:, :d]
        sd = np.log1p(np.exp(-np.abs(a[:, d:]))) + np.maximum(a[:, d:], 0) + SIGMA_MIN
        np.testing.assert_allclose(p.mu[rows], mu, atol=1e-12)
        np.testing.assert_allclose(p.var[rows], sd**2, atol=1e-12)


class TestScaleHeads:
    """``scale_heads(a, k)`` passes the first k columns through and makes
    the rest softplus(a) + SIGMA_MIN; ``scale_slope`` is its derivative."""

    @staticmethod
    def outputs(seed, shape=(7, 6)):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape) * 10.0
        a[0] = [-1e6, -800.0, -50.0, 0.0, 800.0, 1e6][: shape[1]]
        return a

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_means_pass_through(self, k):
        a = self.outputs(40)
        before = a.copy()
        out = scale_heads(a, k)
        assert out[:, :k].tobytes() == a[:, :k].tobytes()
        assert np.array_equal(a, before)  # the network output is only read

    def test_scale_floor(self):
        a = np.array([[-1e6, -800.0, -50.0, -1e-12], [0.0, 1e-12, 30.0, 1e6]])
        out = scale_heads(a, 0)
        assert np.isfinite(out).all() and (out >= SIGMA_MIN).all()
        assert (out[0, :3] == SIGMA_MIN).all()
        assert out[1, 3] == 1e6 + SIGMA_MIN

    def test_full_width_is_copy(self):
        a = self.outputs(41)
        out = scale_heads(a, a.shape[1])
        assert out.tobytes() == a.tobytes() and not np.shares_memory(out, a)
        da = self.outputs(42)
        before = da.copy()
        scale_slope(a, a.shape[1], da)
        assert da.tobytes() == before.tobytes()

    @pytest.mark.parametrize("k", [0, 2, 6])
    def test_slope_matches_central_differences(self, k):
        rng = np.random.default_rng(43)
        a = rng.uniform(-4.0, 4.0, size=(5, 6))
        w = rng.standard_normal(a.shape)  # the loss is sum(w * scale_heads(a, k))
        da = w.copy()
        scale_slope(a, k, da)
        h = 1e-6
        numeric = np.zeros_like(a)
        for idx in np.ndindex(a.shape):
            old = a[idx]
            a[idx] = old + h
            lp = (w * scale_heads(a, k)).sum()
            a[idx] = old - h
            lm = (w * scale_heads(a, k)).sum()
            a[idx] = old
            numeric[idx] = (lp - lm) / (2.0 * h)
        np.testing.assert_allclose(da, numeric, rtol=1e-6, atol=1e-8)


class TestPoe:
    def test_single_expert_unchanged(self):
        p = GaussianPosterior(np.array([1.0, -2.0]), np.array([0.5, 2.0]))
        out = poe([p])
        np.testing.assert_allclose(out.mu, p.mu, rtol=1e-15)
        np.testing.assert_allclose(out.var, p.var, rtol=1e-15)

    def test_equal_precision_average(self):
        a = GaussianPosterior(np.array([0.0]), np.array([1.0]))
        b = GaussianPosterior(np.array([2.0]), np.array([1.0]))
        out = poe([a, b])
        assert out.mu[0] == pytest.approx(1.0)
        assert out.var[0] == pytest.approx(0.5)

    def test_hand_computed_two_experts(self):
        a = GaussianPosterior(np.array([0.0]), np.array([1.0]))
        b = GaussianPosterior(np.array([3.0]), np.array([4.0]))
        out = poe([a, b])
        assert out.mu[0] == pytest.approx(0.6)
        assert out.var[0] == pytest.approx(0.8)

    def test_precision_additivity_and_mean_bracketing(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            k = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            mus = rng.normal(size=(k, d)) * 3
            vars_ = rng.uniform(1e-4, 100.0, size=(k, d))
            experts = [GaussianPosterior(m, v) for m, v in zip(mus, vars_)]
            out = poe(experts)
            np.testing.assert_allclose(
                1.0 / out.var, (1.0 / vars_).sum(axis=0), rtol=1e-12
            )
            expected_mu = (mus / vars_).sum(axis=0) / (1.0 / vars_).sum(axis=0)
            np.testing.assert_allclose(out.mu, expected_mu, rtol=1e-12, atol=1e-12)
            assert (out.mu >= mus.min(axis=0) - 1e-12).all()
            assert (out.mu <= mus.max(axis=0) + 1e-12).all()


class TestW2:
    def test_identity(self):
        p = GaussianPosterior(np.array([1.0, 2.0]), np.array([0.3, 0.4]))
        assert w2_distance(p, p) == 0.0

    def test_reduces_to_euclidean(self):
        a = GaussianPosterior(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        b = GaussianPosterior(np.array([3.0, 4.0]), np.array([1.0, 1.0]))
        assert w2_distance(a, b) == pytest.approx(5.0)

    def test_hand_computed(self):
        a = GaussianPosterior(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        b = GaussianPosterior(np.array([0.0, 0.0]), np.array([4.0, 1.0]))
        assert w2_distance(a, b) == pytest.approx(np.sqrt(2.0))

    def test_metric_properties(self):
        rng = np.random.default_rng(4)
        n = 10_000
        mus = rng.normal(size=(3, n, 4))
        sds = rng.uniform(0.05, 3.0, size=(3, n, 4))
        p = [GaussianPosterior(mus[i], sds[i] ** 2) for i in range(3)]
        dab = w2_distance(p[0], p[1])
        dba = w2_distance(p[1], p[0])
        dac = w2_distance(p[0], p[2])
        dcb = w2_distance(p[2], p[1])
        assert (dab >= 0).all()
        np.testing.assert_allclose(dab, dba, atol=1e-9)
        assert (dab <= dac + dcb + 1e-9).all()

    def test_batched_broadcast(self):
        one = GaussianPosterior(np.zeros(3), np.ones(3))
        many = GaussianPosterior(np.ones((5, 3)), np.ones((5, 3)))
        assert w2_distance(one, many).shape == (5,)


class TestResponsibilities:
    def test_single_component(self):
        prior = MixturePrior(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        np.testing.assert_allclose(responsibilities(prior, np.zeros(2)), [1.0])

    def test_midpoint_symmetry(self):
        prior = MixturePrior(
            np.array([0.5, 0.5]),
            np.array([[-1.0, 0.0], [1.0, 0.0]]),
            np.ones((2, 2)),
        )
        g = responsibilities(prior, np.zeros(2))
        np.testing.assert_allclose(g, [0.5, 0.5], atol=1e-12)

    def test_prior_only_when_likelihoods_equal(self):
        prior = MixturePrior(
            np.array([0.3, 0.7]),
            np.zeros((2, 2)),
            np.ones((2, 2)),
        )
        g = responsibilities(prior, np.array([5.0, -3.0]))
        np.testing.assert_allclose(g, [0.3, 0.7], atol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(5)
        prior = MixturePrior(
            np.full(4, 0.25),
            rng.normal(size=(4, 3)),
            rng.uniform(0.1, 2.0, size=(4, 3)),
        )
        z = rng.normal(size=(50, 3)) * 10
        g = responsibilities(prior, z)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)
        # responsibilities only see density ratios; a huge z still normalizes
        far = responsibilities(prior, z + 1e3)
        np.testing.assert_allclose(far.sum(axis=1), 1.0, atol=1e-12)


class TestImpute:
    def make_posts(self, mus, vars_):
        return GaussianPosterior(np.asarray(mus, float), np.asarray(vars_, float))

    def test_k1_copies_nearest(self):
        mask = np.array([[1, 0], [1, 1], [1, 1]])
        ds = MultiViewDataset(views=[np.zeros((3, 1)), np.zeros((3, 1))], mask=mask)
        agg = self.make_posts([[0.0], [0.1], [5.0]], [[1.0], [1.0], [1.0]])
        view1 = self.make_posts([[0.0], [2.5], [7.0]], [[1.0], [0.4], [0.9]])
        posts = [agg, view1]
        out = impute_distribution(ds, None, agg, posts, 0, 1, k=1)
        assert out.mu[0] == 2.5 and out.var[0] == 0.4

    def test_consensus_neighbors(self):
        mask = np.array([[1, 0], [1, 1], [1, 1]])
        ds = MultiViewDataset(views=[np.zeros((3, 1)), np.zeros((3, 1))], mask=mask)
        agg = self.make_posts([[0.0], [1.0], [-1.0]], np.ones((3, 1)))
        view1 = self.make_posts([[9.9], [3.0], [3.0]], [[1.0], [0.7], [0.7]])
        out = impute_distribution(ds, None, agg, [agg, view1], 0, 1, k=2)
        assert out.mu[0] == pytest.approx(3.0)
        assert out.var[0] == pytest.approx(0.7)

    def test_equidistant_pair_hand_computed(self):
        mask = np.array([[1, 0], [1, 1], [1, 1]])
        ds = MultiViewDataset(views=[np.zeros((3, 1)), np.zeros((3, 1))], mask=mask)
        agg = self.make_posts([[0.0], [1.0], [-1.0]], np.ones((3, 1)))
        view1 = self.make_posts([[0.0], [-1.0], [1.0]], [[1.0], [1.0], [1.0]])
        out = impute_distribution(ds, None, agg, [agg, view1], 0, 1, k=2)
        # weights 0.5/0.5; mean 0; var = avg var (1) + weighted mean spread (1)
        assert out.mu[0] == pytest.approx(0.0)
        assert out.var[0] == pytest.approx(2.0)

    def test_k_reduced_to_available(self):
        mask = np.array([[1, 0], [1, 1]])
        ds = MultiViewDataset(views=[np.zeros((2, 1)), np.zeros((2, 1))], mask=mask)
        agg = self.make_posts([[0.0], [1.0]], np.ones((2, 1)))
        view1 = self.make_posts([[0.0], [4.0]], [[1.0], [2.0]])
        out = impute_distribution(ds, None, agg, [agg, view1], 0, 1, k=25)
        assert out.mu[0] == 4.0

    def test_no_donor_raises(self):
        mask = np.array([[1, 0], [1, 0]])
        ds = MultiViewDataset(views=[np.zeros((2, 1)), np.zeros((2, 1))], mask=mask)
        agg = self.make_posts([[0.0], [1.0]], np.ones((2, 1)))
        with pytest.raises(ValueError, match="no sample observes"):
            impute_distribution(ds, None, agg, [agg, agg], 0, 1)

    def test_variance_dominates_min_neighbor(self):
        rng = np.random.default_rng(6)
        n = 20
        mask = np.ones((n, 2), dtype=int)
        mask[0, 1] = 0
        ds = MultiViewDataset(views=[np.zeros((n, 1)), np.zeros((n, 1))], mask=mask)
        agg = self.make_posts(rng.normal(size=(n, 1)), rng.uniform(0.1, 1, (n, 1)))
        view1 = self.make_posts(rng.normal(size=(n, 1)), rng.uniform(0.2, 2, (n, 1)))
        out = impute_distribution(ds, None, agg, [agg, view1], 0, 1, k=5)
        assert (out.var >= view1.var[1:].min() - 1e-12).all()


def selected_table(ds, every=1):
    """InfoTable over every missing position, every ``every``-th selected."""
    from imvc.scoring import InfoTable

    positions = np.argwhere(ds.mask == 0)
    selected = np.zeros(len(positions), dtype=bool)
    selected[::every] = True
    return InfoTable(positions=positions, scores=np.zeros(len(positions)),
                     selected=selected)


def knn_instance(seed, n=60, d=3, offset=0.0, tie_ulps=None, one_donor_view=False,
                 clones=0, constant=False):
    """Random view posteriors under a random 3-view mask, every missing
    position selected.

    With ``tie_ulps`` set, samples [m, 2m) mirror samples [0, m): both
    observe views 0 and 1 with equal variances, and the mirror swaps their
    means. Fusion adds the two experts commutatively, so each pair's fused
    posteriors are equal (``tie_ulps=0``) or one ulp apart (``tie_ulps=1``,
    the mirror's view-0 means nudged up) while their view-0 and view-1
    posteriors differ: a wrong pick among tied donors changes the output.
    With ``clones`` set, groups of that many samples share their view-0 and
    view-1 posteriors and observe both; a view-2 variance of 1e12 lets
    their view-2 means move the fused means only in the last bits, so every
    group is a cluster of near-tied view-2 donors with different experts.
    ``offset`` shifts every mean. ``one_donor_view`` leaves view 2 with a
    single donor. ``constant`` gives every view posterior the same mean and
    variance, so every donor ties with every other.
    """
    rng = np.random.default_rng(seed)
    mask = (rng.random((n, 3)) >= 0.4).astype(int)
    mu = rng.normal(size=(3, n, d)) + offset
    var = rng.uniform(0.1, 2.0, size=(3, n, d))
    if tie_ulps is not None:
        m = n // 3
        a, b = slice(0, m), slice(m, 2 * m)
        mask[a, :2] = 1
        mask[b] = mask[a]
        var[1, a] = var[0, a]
        var[:, b] = var[:, a]
        mu[0, b], mu[1, b], mu[2, b] = mu[1, a], mu[0, a], mu[2, a]
        if tie_ulps:
            mu[0, b] = np.nextafter(mu[0, b], np.inf)
    if clones:
        first = np.arange(n) // clones * clones
        mu[:2], var[:2] = mu[:2, first], var[:2, first]
        var[2] = 1e12
        mask[:, :2] = 1
    if constant:
        mu[:], var[:] = mu[0, 0], var[0, 0]
    if one_donor_view:
        mask[:, 2] = 0
        mask[n - 1, 2] = 1
    mask[mask.sum(axis=1) == 0, 0] = 1
    ds = MultiViewDataset(views=[np.zeros((n, 1))] * 3, mask=mask)
    posts = [GaussianPosterior(mu[v], var[v]) for v in range(3)]
    return ds, posts, selected_table(ds)


def assert_matches_bruteforce(ds, table, posts, k):
    """``impute_all`` equals the dense oracle bit for bit (NaN equal to
    NaN); returns its precision sums."""
    prec, num = impute_all(ds, table, posts, k=k)
    ref_prec, ref_num = impute_all_bruteforce(ds, table, posts, k=k)
    np.testing.assert_array_equal(prec, ref_prec)
    np.testing.assert_array_equal(num, ref_num)
    return prec


class TestImputeAll:
    @staticmethod
    def instance():
        # view 2 has 4 donors; samples 0, 1 and 9 miss views 1 and 2
        mask = np.array([
            [1, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 1, 1],
            [1, 1, 1], [1, 0, 1], [0, 1, 1], [1, 1, 0], [1, 0, 0],
        ])
        rng = np.random.default_rng(60)
        views = [rng.normal(size=(10, d)) for d in (5, 4, 3)]
        ds = MultiViewDataset(views=views, mask=mask)
        return ds, encode_all(small_model(ds, 60), ds)

    @pytest.mark.parametrize("k", [2, 5])
    def test_matches_per_position_oracle(self, k):
        # k=5 exceeds the 4 donors of view 2
        ds, posts = self.instance()
        table = selected_table(ds)
        agg = aggregate_observed(posts, ds.mask)
        prec = np.zeros_like(agg.mu)
        num = np.zeros_like(agg.mu)
        for i, v in table.positions.tolist():
            post = impute_distribution(ds, table, agg, posts, i, v, k=k)
            prec[i] += 1.0 / post.var
            num[i] += post.mu / post.var
        got_prec, got_num = impute_all(ds, table, posts, k=k)
        assert (np.bincount(table.positions[:, 0]) == 2).any()
        np.testing.assert_allclose(got_prec, prec, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got_num, num, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case,k", [
        (dict(tie_ulps=0), 3),
        (dict(tie_ulps=1), 3),
        (dict(offset=1e3), 5),
        (dict(offset=1e3, tie_ulps=1), 4),
        (dict(clones=8), 3),
        (dict(), 100),
        (dict(one_donor_view=True), 3),
        (dict(constant=True, d=40), 3),
    ], ids=["exact-ties", "near-ties", "offset", "offset-near-ties", "near-tie-groups",
            "k-above-donors", "one-donor-view", "all-tied-chunked"])
    def test_bitwise_equal_to_bruteforce(self, case, k):
        for seed in range(8):
            ds, posts, table = knn_instance(seed, **case)
            assert_matches_bruteforce(ds, table, posts, k=k)

    def test_independent_of_partition_tail_order(self, monkeypatch):
        # argpartition promises no order past kth; reversing that tail must
        # not change which donors are re-ranked
        real = np.argpartition

        def reversed_tail(a, kth, axis=-1):
            idx = real(a, kth, axis=axis)
            return np.concatenate([idx[:, :kth + 1], idx[:, :kth:-1]], axis=1)

        monkeypatch.setattr(np, "argpartition", reversed_tail)
        for seed in range(4):
            ds, posts, table = knn_instance(seed, clones=8)
            assert_matches_bruteforce(ds, table, posts, k=3)

    def test_non_finite_mean_matches_bruteforce(self, monkeypatch):
        # a NaN mean turns the GEMM pre-filter off for its block; one-row
        # blocks give the NaN sample's own query a block to itself
        monkeypatch.setattr("imvc.model.QUERY_BLOCK", 1)
        ds, posts, table = knn_instance(0)
        i = int(np.where((ds.mask[:, 0] == 1) & (ds.mask.sum(axis=1) < 3))[0][0])
        posts[0].mu[i] = np.nan
        prec = assert_matches_bruteforce(ds, table, posts, k=3)
        assert np.isnan(prec[i]).all() and np.isfinite(np.delete(prec, i, axis=0)).all()

    def test_ties_are_real(self):
        # the tie instances fuse each mirror pair to equal posteriors, yet
        # the pair's view-0 experts differ
        ds, posts, _ = knn_instance(0, n=60, tie_ulps=0)
        agg = aggregate_observed(posts, ds.mask)
        a, b = slice(0, 20), slice(20, 40)
        np.testing.assert_array_equal(agg.mu[a], agg.mu[b])
        np.testing.assert_array_equal(agg.var[a], agg.var[b])
        assert (posts[0].mu[a] != posts[0].mu[b]).all()

    def test_bitwise_equal_across_block_boundary(self):
        # the last third (past the mirror pairs) is view 0's QUERY_BLOCK + 1
        # querying samples: a full block, then a block of one row
        m = QUERY_BLOCK + 1
        ds, posts, _ = knn_instance(3, n=3 * m, tie_ulps=0)
        mask = ds.mask.copy()
        mask[2 * m:, 0] = 0
        mask[2 * m:, 1:] = 1
        ds = MultiViewDataset(views=ds.views, mask=mask)
        table = selected_table(ds)
        queries = np.unique(table.positions[table.positions[:, 1] == 0, 0])
        assert queries.size == QUERY_BLOCK + 1
        assert_matches_bruteforce(ds, table, posts, k=3)

    @staticmethod
    def peak_bytes_at_3000(constant):
        """tracemalloc peak of one ``impute_all`` call at N=3000, every
        missing position selected, d_z=8; ``constant`` makes every
        posterior equal, so every donor ties."""
        n = 3000
        base = make_synthetic(n_samples=n, seed=0)
        mask = generate_mask(n, 3, MissingSpec(np.array([0.8, 0.5, 0.2]), 0.5, seed=1))
        ds = MultiViewDataset(views=base.views, mask=mask)
        if constant:
            posts = [GaussianPosterior(np.zeros((n, 8)), np.ones((n, 8)))] * 3
        else:
            posts = encode_all(small_model(ds, 0, d_z=8), ds)
        table = selected_table(ds)
        tracemalloc.start()
        try:
            impute_all(ds, table, posts, k=10)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_stays_below_quadratic(self):
        # the dense (queries x donors x d_z) distance tensors peaked at
        # about 472 MB
        assert self.peak_bytes_at_3000(constant=False) < 64 * 2**20

    def test_memory_stays_below_quadratic_when_all_donors_tie(self):
        # ties make every donor a re-rank candidate; re-ranking whole
        # blocks gathered (block, donors, d_z) arrays, about 120 MB
        assert self.peak_bytes_at_3000(constant=True) < 64 * 2**20

    def test_unselected_rows_zero(self):
        ds, posts = self.instance()
        table = selected_table(ds, every=2)
        prec, num = impute_all(ds, table, posts, k=3)
        hit = np.zeros(ds.n_samples, dtype=bool)
        hit[table.positions[table.selected, 0]] = True
        assert (prec[hit] > 0).all()
        assert (prec[~hit] == 0).all() and (num[~hit] == 0).all()

    def test_nothing_selected_all_zero(self):
        ds, posts = self.instance()
        table = selected_table(ds)
        table.selected[:] = False
        prec, num = impute_all(ds, table, posts)
        assert prec.shape == (ds.n_samples, posts[0].mu.shape[1])
        assert not prec.any() and not num.any()

    @pytest.mark.parametrize("k", [0, 2.5])
    def test_neighbor_count_rejected(self, k):
        # k=0 used to fail with a zero-size reduction, and 2.5 was
        # truncated to 2
        ds, posts = self.instance()
        with pytest.raises(ValueError, match=f"at least one neighbor.*got {k!r}$"):
            impute_all(ds, selected_table(ds), posts, k=k)

    def test_observed_selection_rejected(self):
        ds, posts = self.instance()
        table = selected_table(ds)
        table.positions[0] = (4, 0)  # sample 4 observes every view
        with pytest.raises(ValueError, match=r"\(4, 0\) is observed"):
            impute_all(ds, table, posts)

    def test_dense_fusion_matches_per_sample_fusion(self):
        ds, posts = self.instance()
        table = selected_table(ds)
        fused = aggregate_observed(posts, ds.mask, impute_all(ds, table, posts, k=3))
        for i in range(ds.n_samples):
            ref = fuse_with_imputation(ds, table, i, posts, k=3)
            np.testing.assert_allclose(fused.mu[i], ref.mu, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(fused.var[i], ref.var, rtol=1e-12, atol=1e-12)


class TestFuse:
    def test_fully_observed_equals_plain_poe(self):
        ds = small_dataset(7, rate=0.0)
        model = small_model(ds, 7)
        posts = encode_all(model, ds)
        fused = aggregate_observed(posts, ds.mask)
        plain = poe([row(p, 0) for p in posts])
        np.testing.assert_array_equal(fused.mu[0], plain.mu)
        np.testing.assert_array_equal(fused.var[0], plain.var)

    def test_no_selection_equals_observed_poe(self):
        ds = small_dataset(8, rate=0.4)
        model = small_model(ds, 8)
        posts = encode_all(model, ds)
        i = int(np.where(ds.mask.sum(axis=1) < ds.n_views)[0][0])
        fused = aggregate_observed(posts, ds.mask)
        plain = poe([row(posts[v], i) for v in observed_views(ds, i)])
        np.testing.assert_array_equal(fused.mu[i], plain.mu)

    def test_observed_plus_imputed_matches_hand_poe(self):
        mask = np.array([[1, 0], [1, 1], [1, 1]])
        ds = MultiViewDataset(views=[np.zeros((3, 1)), np.zeros((3, 1))], mask=mask)
        agg = GaussianPosterior(np.array([[0.0], [1.0], [-1.0]]), np.ones((3, 1)))
        view1 = GaussianPosterior(np.array([[0.0], [2.0], [2.0]]), np.full((3, 1), 0.5))
        imputed = impute_distribution(ds, None, agg, [agg, view1], 0, 1, k=2)
        two = poe([row(agg, 0), imputed])
        expected_prec = 1.0 / agg.var[0] + 1.0 / imputed.var
        np.testing.assert_allclose(1.0 / two.var, expected_prec, rtol=1e-12)


class TestCoherence:
    def test_identical_views_zero(self):
        p = GaussianPosterior(np.array([1.0, 2.0]), np.array([0.5, 0.7]))
        assert coherence_loss(p, [p, p]) == pytest.approx(0.0, abs=1e-15)

    def test_single_view_self_kl_zero(self):
        p = GaussianPosterior(np.array([0.3]), np.array([0.9]))
        assert coherence_loss(poe([p]), [p]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_gaussian_kl(self):
        agg = GaussianPosterior(np.array([0.0]), np.array([0.5]))
        view = GaussianPosterior(np.array([1.0]), np.array([1.0]))
        expected = 0.5 * (np.log(1.0 / 0.5) + 0.5 / 1.0 + 1.0 - 1.0)
        assert coherence_loss(agg, [view]) == pytest.approx(expected)
        assert kl_diag_gaussian(agg, view) == pytest.approx(expected)

    @pytest.mark.parametrize("with_imputations", [False, True])
    def test_loss_term_matches_per_sample_oracle(self, with_imputations):
        # the coherence term of the loss is the batch mean of the per-sample
        # KL(fused || view) averaged over each sample's observed views
        for seed in range(5):
            ds, model, eps, imput = make_loss_instance(
                70 + seed, with_imputations=with_imputations
            )
            terms, _ = loss_and_grads(model, ds, np.arange(ds.n_samples), eps,
                                      alpha=5.0, imputations=imput)
            posts = encode_all(model, ds)
            table = selected_table(ds) if with_imputations else None
            per_sample = [
                coherence_loss(fuse_with_imputation(ds, table, i, posts, k=3),
                               [row(posts[v], i) for v in observed_views(ds, i)])
                for i in range(ds.n_samples)
            ]
            assert terms.coherence == pytest.approx(np.mean(per_sample), rel=1e-12)


# ---------------- finite differences through the full loss ----------------


def _net_margin(net, X):
    """Smallest |pre-activation| across hidden ReLU layers."""
    m = np.inf
    h = X
    for l in range(net.n_layers - 1):
        a = h @ net.weights[l] + net.biases[l]
        if a.size:
            m = min(m, float(np.abs(a).min()))
        h = np.maximum(a, 0.0)
    return m


def hidden_kink_margin(model, ds, eps, imputations=None):
    """Distance of every hidden ReLU pre-activation from its kink, along
    the exact forward path of the loss. Central differences are only a
    valid oracle when this margin comfortably exceeds the step size."""
    m = np.inf
    for v in range(model.n_views):
        rows = ds.observed(v)
        if rows.size:
            m = min(m, _net_margin(model.encoders[v], ds.views[v][rows]))
    posts = encode_all(model, ds)
    agg = aggregate_observed(posts, ds.mask, imputations)
    z = agg.mu + agg.sd * eps
    for v in range(model.n_views):
        rows = ds.observed(v)
        if rows.size:
            m = min(m, _net_margin(model.decoders[v], z[rows]))
    return m


def make_loss_instance(seed, binary_views=(), with_imputations=False, margin=1e-3):
    """Random (dataset, model, noise) clear of ReLU kinks; bumps the seed
    until the margin holds so the finite-difference oracle is valid."""
    for bump in range(200):
        s = seed + 1000 * bump
        ds = small_dataset(s, binary_views=binary_views)
        model = small_model(ds, s, binary_views=binary_views)
        rng = np.random.default_rng(s + 999)
        eps = rng.standard_normal((ds.n_samples, model.d_z))
        imput = None
        if with_imputations:
            imput = impute_all(ds, selected_table(ds), encode_all(model, ds), k=3)
        if hidden_kink_margin(model, ds, eps, imput) > margin:
            return ds, model, eps, imput
    raise AssertionError("no kink-free instance found")


def fd_check_loss(seed, binary_views=(), alpha=0.0, with_imputations=False, h=1e-5,
                  batch=None):
    """Worst relative error of the analytic gradients against central
    differences, on ``batch`` (sample indices; default every sample)."""
    ds, model, eps, imput = make_loss_instance(
        seed, binary_views=binary_views, with_imputations=with_imputations
    )
    batch = np.arange(ds.n_samples) if batch is None else np.asarray(batch)
    eps = eps[batch]

    def loss():
        terms, _ = loss_and_grads(model, ds, batch, eps, alpha=alpha, imputations=imput)
        return terms.total

    terms, grads = loss_and_grads(model, ds, batch, eps, alpha=alpha, imputations=imput)
    worst = 0.0
    for p, g in zip(model.parameters(), grads):
        flat, gf = p.ravel(), g.ravel()
        for j in range(flat.size):
            old = flat[j]
            flat[j] = old + h
            lp = loss()
            flat[j] = old - h
            lm = loss()
            flat[j] = old
            worst = max(worst, rel_err((lp - lm) / (2 * h), gf[j]))
    return worst


class TestLossGradients:
    def test_gaussian_decoder_gradcheck(self):
        assert fd_check_loss(31) <= 1e-4

    def test_bernoulli_decoder_gradcheck(self):
        assert fd_check_loss(32, binary_views=(1,)) <= 1e-4

    def test_with_coherence_gradcheck(self):
        assert fd_check_loss(33, alpha=2.5) <= 1e-4

    def test_with_imputations_gradcheck(self):
        # imputed experts are constants; gradients must still match
        assert fd_check_loss(34, alpha=5.0, with_imputations=True) <= 1e-4

    def test_minibatch_with_imputations_gradcheck(self):
        # a strict, unordered sub-batch picks its rows of the dense experts
        batch = [9, 2, 5, 0, 11, 6, 3]
        assert fd_check_loss(34, alpha=5.0, with_imputations=True, batch=batch) <= 1e-4

    def test_view_without_rows_gradcheck(self):
        # no sample of this sub-batch observes view 0: its expert has no rows
        # (each sample gets an imputed view-0 expert instead), and its two
        # networks get exactly zero gradients
        ds, model, eps, imput = make_loss_instance(35, with_imputations=True)
        batch = np.flatnonzero(ds.mask[:, 0] == 0)
        assert batch.size > 1 and ds.mask[batch, 1:].any(axis=0).all()
        _, grads = loss_and_grads(model, ds, batch, eps[batch], alpha=5.0,
                                  imputations=imput)
        n_enc = sum(len(net.parameters()) for net in model.encoders)
        enc0 = grads[:len(model.encoders[0].parameters())]
        dec0 = grads[n_enc:n_enc + len(model.decoders[0].parameters())]
        for g in enc0 + dec0:
            np.testing.assert_array_equal(g, 0.0)
        assert fd_check_loss(35, alpha=5.0, with_imputations=True, batch=batch) <= 1e-4

    def test_subbatches_recombine_to_full_batch(self):
        # every term is a per-sample mean, so sub-batch losses and gradients
        # weighted by size give the full-batch ones; wrong imputed rows would not
        ds, model, eps, imput = make_loss_instance(34, with_imputations=True)
        n = ds.n_samples
        full, g_full = loss_and_grads(model, ds, np.arange(n), eps, alpha=5.0,
                                      imputations=imput)
        order = np.random.default_rng(0).permutation(n)
        total = 0.0
        g_sum = [np.zeros_like(g) for g in g_full]
        for idx in (order[:5], order[5:]):
            t, g = loss_and_grads(model, ds, idx, eps[idx], alpha=5.0, imputations=imput)
            total += t.total * idx.size / n
            for acc, gi in zip(g_sum, g):
                acc += gi * idx.size / n
        assert total == pytest.approx(full.total, rel=1e-12)
        for a, b in zip(g_sum, g_full):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_degenerate_mixture_is_vanilla_vae(self):
        # K=1 standard-normal prior: categorical KL vanishes and the
        # gaussian KL term is the plain VAE KL(q || N(0, I))
        ds = small_dataset(35, rate=0.0)
        model = small_model(ds, 35, K=1)
        model.pi_logits[...] = 0.0
        model.prior_mu[...] = 0.0
        model.set_prior(MixturePrior(np.array([1.0]), np.zeros((1, model.d_z)),
                                     np.ones((1, model.d_z))))
        rng = np.random.default_rng(36)
        eps = rng.standard_normal((ds.n_samples, model.d_z))
        terms, _ = loss_and_grads(model, ds, np.arange(ds.n_samples), eps)
        assert terms.kl_cat == pytest.approx(0.0, abs=1e-12)
        posts = encode_all(model, ds)
        agg = aggregate_observed(posts, ds.mask)
        std = GaussianPosterior(np.zeros_like(agg.mu), np.ones_like(agg.var))
        expected = float(kl_diag_gaussian(agg, std).mean())
        assert terms.kl_gauss == pytest.approx(expected, rel=1e-10)

    def test_gamma_equal_pi_zero_categorical_kl(self):
        # with identical components, responsibilities equal the prior
        ds = small_dataset(37, rate=0.0)
        model = small_model(ds, 37, K=3)
        model.pi_logits[...] = np.log(np.array([0.2, 0.3, 0.5]))
        model.prior_mu[...] = 0.0
        model.prior_rho[...] = model.prior_rho[0, 0]
        rng = np.random.default_rng(38)
        eps = rng.standard_normal((ds.n_samples, model.d_z))
        terms, _ = loss_and_grads(model, ds, np.arange(ds.n_samples), eps)
        assert terms.kl_cat == pytest.approx(0.0, abs=1e-10)

    def test_alpha_zero_is_elbo(self):
        ds = small_dataset(39)
        model = small_model(ds, 39)
        rng = np.random.default_rng(40)
        eps = rng.standard_normal((ds.n_samples, model.d_z))
        terms, _ = loss_and_grads(model, ds, np.arange(ds.n_samples), eps, alpha=0.0)
        assert terms.total == terms.elbo

    def test_linear_combination(self):
        ds = small_dataset(41)
        model = small_model(ds, 41)
        rng = np.random.default_rng(42)
        eps = rng.standard_normal((ds.n_samples, model.d_z))
        t0, _ = loss_and_grads(model, ds, np.arange(ds.n_samples), eps, alpha=0.0)
        t5, _ = loss_and_grads(model, ds, np.arange(ds.n_samples), eps, alpha=5.0)
        assert t5.total == pytest.approx(t0.elbo + 5.0 * t5.coherence, rel=1e-12)
        assert t5.coherence == pytest.approx(t0.coherence, rel=1e-12)

    def test_nonfinite_reported_with_term(self):
        ds = small_dataset(43)
        model = small_model(ds, 43)
        model.encoders[0].weights[0][...] = np.inf
        rng = np.random.default_rng(44)
        eps = rng.standard_normal((ds.n_samples, model.d_z))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLossError):
            loss_and_grads(model, ds, np.arange(ds.n_samples), eps)


def loss_bits(terms, grads):
    """Every loss term and gradient as bytes, so -0.0 differs from +0.0."""
    return [np.array(list(terms.as_dict().values())).tobytes()] + [g.tobytes() for g in grads]


def pass_bits(encoded):
    return ([encoded.rows.tobytes(), encoded.a_out.tobytes(), encoded.out.tobytes(),
             [(sl.start, sl.stop) for sl in encoded.slices]]
            + [[a.tobytes() for a in ins] for ins in encoded.inputs])


def disable_encoders(monkeypatch, model):
    """Make every encoder run raise."""
    for net in model.encoders:
        monkeypatch.setattr(net, "forward", None)


class TestEncoderPass:
    """An ``encoder_pass`` handed to ``loss_and_grads`` or ``encode_all``
    replaces their own encoder runs bit for bit and is only read, so a
    retried epoch can read it again."""

    @pytest.mark.parametrize("alpha", [0.0, 5.0])
    @pytest.mark.parametrize("with_imputations", [False, True], ids=["observed", "imputed"])
    @pytest.mark.parametrize("batch_kind", ["full", "no-view-0-rows"])
    def test_loss_reads_pass_bit_for_bit(self, monkeypatch, alpha, with_imputations,
                                         batch_kind):
        ds, model, eps, imput = make_loss_instance(35, with_imputations=with_imputations)
        batch = np.arange(ds.n_samples)
        if batch_kind != "full":  # no sample of this batch observes view 0
            batch = np.flatnonzero(ds.mask[:, 0] == 0)
            assert batch.size > 1
        eps = eps[batch]
        want = loss_bits(*loss_and_grads(model, ds, batch, eps, alpha=alpha,
                                         imputations=imput))
        encoded = encoder_pass(model, ds, batch)
        before = pass_bits(encoded)
        disable_encoders(monkeypatch, model)  # the loss must not encode again
        for _ in range(2):
            got = loss_and_grads(model, ds, batch, eps, alpha=alpha, imputations=imput,
                                 encoded=encoded)
            assert loss_bits(*got) == want
        assert pass_bits(encoded) == before

    def test_encode_all_reads_pass(self, monkeypatch):
        ds = small_dataset(61, n=30)
        model = small_model(ds, 61)
        want = encode_all(model, ds)
        encoded = encoder_pass(model, ds, np.arange(ds.n_samples))
        before = pass_bits(encoded)
        disable_encoders(monkeypatch, model)
        got = encode_all(model, ds, encoded)
        for a, b in zip(got, want):
            assert a.mu.tobytes() == b.mu.tobytes() and a.var.tobytes() == b.var.tobytes()
        assert pass_bits(encoded) == before


def stacked_instance(seed, n_views, binary, batch_kind):
    """A random model, dataset, batch and noise for comparing the stacked
    loss with ``loss_and_grads_per_view``; with ``binary`` the last view is
    Bernoulli. Bumps the seed until a batch of ``batch_kind`` exists."""
    binary_views = (n_views - 1,) if binary else ()
    for bump in range(100):
        s = seed + 1000 * bump
        ds = small_dataset(s, n=15, dims=(5, 4, 3)[:n_views], rate=0.35,
                           binary_views=binary_views)
        rng = np.random.default_rng(s + 5)
        n = ds.n_samples
        if batch_kind == "full":
            batch = np.arange(n)
        elif batch_kind == "one-row":
            batch = rng.integers(n, size=1)
        elif batch_kind == "shuffled":
            batch = rng.permutation(n)[:n // 2]
        else:  # no row of the batch observes view 0
            batch = rng.permutation(np.flatnonzero(ds.mask[:, 0] == 0))
        if batch.size:
            model = small_model(ds, s, binary_views=binary_views)
            eps = rng.standard_normal((batch.size, model.d_z))
            return ds, model, batch, eps
    raise AssertionError(f"no {batch_kind} batch found")


class TestStackedLoss:
    """``loss_and_grads`` over the stacked expert array gives the per-view
    reference's terms and gradients byte for byte, signs of zero included."""

    @pytest.mark.parametrize("n_views,batch_kind", [
        (n_views, kind) for n_views in (1, 2, 3)
        for kind in ("full", "one-row", "shuffled", "no-view-0-rows")
        if n_views > 1 or kind != "no-view-0-rows"])
    @pytest.mark.parametrize("alpha", [0.0, 5.0])
    @pytest.mark.parametrize("with_imputations", [False, True], ids=["observed", "imputed"])
    def test_matches_per_view_reference(self, n_views, batch_kind, alpha, with_imputations):
        for seed in range(6):
            ds, model, batch, eps = stacked_instance(
                100 + seed, n_views, binary=seed % 2 == 1, batch_kind=batch_kind)
            imput = None
            if with_imputations:
                imput = impute_all(ds, selected_table(ds, every=2), encode_all(model, ds), k=3)
            want = loss_bits(*loss_and_grads_per_view(model, ds, batch, eps, alpha=alpha,
                                                      imputations=imput))
            got = loss_bits(*loss_and_grads(model, ds, batch, eps, alpha=alpha,
                                            imputations=imput))
            assert got == want


class TestCheckTrainable:
    """``check_trainable`` names the first non-finite entry in
    ``parameters()`` order, however many arrays hold one, and a prior
    weight that has underflowed to 0, which ``loss_and_grads`` rejects
    too."""

    @pytest.mark.parametrize("poison,first", [
        # {parameter index: [(flat index, value), ...]}
        ({3: [(2, np.nan)], 10: [(0, np.inf)]}, np.nan),
        ({0: [(5, -np.inf), (7, np.nan)], 1: [(0, np.nan)], 20: [(1, np.nan)]}, -np.inf),
        ({-2: [(1, np.inf)], -1: [(0, np.nan)], 6: [(3, -np.inf)]}, -np.inf),
        ({-2: [(1, np.inf)], -1: [(0, np.nan)]}, np.inf),
    ], ids=["nan-then-inf", "inf-first-in-array", "net-before-mixture", "mixture-means"])
    def test_first_nonfinite_in_parameter_order(self, poison, first):
        ds = small_dataset(62)
        model = small_model(ds, 62)
        check_trainable(model)  # a finite model passes
        params = model.parameters()
        for i, cells in poison.items():
            for j, value in cells:
                params[i].flat[j] = value
        with pytest.raises(NonFiniteLossError) as info:
            check_trainable(model)
        assert info.value.term == "parameters"
        assert np.array_equal(info.value.value, first, equal_nan=True)

    def test_underflowing_prior_weight(self):
        ds = small_dataset(63)
        model = small_model(ds, 63)
        model.pi_logits[0] += 1e4  # the other prior weights underflow to 0
        with pytest.raises(NonFiniteLossError) as info:
            check_trainable(model)
        assert info.value.term == "log_pi" and info.value.value == -np.inf
        # the loss names the same term before it takes a log (no warning)
        eps = np.zeros((ds.n_samples, model.d_z))
        with pytest.raises(NonFiniteLossError) as info:
            loss_and_grads(model, ds, np.arange(ds.n_samples), eps)
        assert info.value.term == "log_pi" and info.value.value == -np.inf


def test_build_checks_likelihoods_and_sizes_decoders():
    ds = small_dataset(52, binary_views=(0, 2))
    model = small_model(ds, 52, K=4, binary_views=(0, 2))
    assert model.likelihoods == ["bernoulli", "gaussian", "bernoulli"]
    # a Bernoulli decoder emits d_v logits, a Gaussian one [mean | sigma]
    assert [dec.layer_dims[-1] for dec in model.decoders] == [5, 8, 3]
    with pytest.raises(ValueError, match=r"^unknown likelihood 'poisson'$"):
        DmgmmModel.build(ds.dims, 4, likelihoods=["gaussian", "poisson", "gaussian"])


def test_failed_load_params_writes_nothing():
    ds = small_dataset(53)
    model = small_model(ds, 53)
    before = model.copy_params()
    saved = [p + 1.0 for p in before]
    saved[-1] = saved[-1][:, :-1]
    with pytest.raises(ValueError, match=rf"^parameters\[{len(saved) - 1}\] has shape"):
        model.load_params(saved)
    for a, b in zip(before, model.parameters()):
        assert np.array_equal(a, b)


def test_wrong_parameter_count_writes_nothing():
    ds = small_dataset(53)
    model = small_model(ds, 53)
    before = model.copy_params()
    saved = [p + 1.0 for p in before]
    with pytest.raises(ValueError, match=rf"^{len(saved) - 1} parameter arrays given, "
                                         rf"expected {len(saved)}$"):
        model.load_params(saved[:-1])
    for a, b in zip(before, model.parameters()):
        assert np.array_equal(a, b)
