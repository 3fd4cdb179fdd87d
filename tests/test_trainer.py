import numpy as np
import pytest

from imvc import model as M
from imvc import trainer
from imvc.data import MissingSpec, MultiViewDataset, generate_mask, make_synthetic, normalize
from imvc.model import VAR_MIN, DmgmmModel
from imvc.trainer import TrainConfig, fit, init_prior, kmeans_pp, pretrain
from oracles import AdamPerArray, loss_and_grads_per_view, pretrain_reference


def masked_synthetic(seed=0, n=80, rate=0.3, probs=(0.5, 0.3, 0.1)):
    ds = make_synthetic(n_samples=n, n_clusters=3, view_dims=(5, 4, 3), seed=seed)
    spec = MissingSpec(np.array(probs), target_rate=rate, seed=seed + 1)
    mask = generate_mask(n, 3, spec)
    return normalize(MultiViewDataset(views=ds.views, mask=mask, labels=ds.labels, K=3))


def quick_config(seed=0, **kw):
    base = dict(
        pretrain_epochs=15,
        train_epochs=12,
        pretrain_lr=3e-3,
        train_lr=3e-3,
        alpha=2.0,
        selection_ratio=0.5,
        n_neighbors=5,
        d_z=4,
        hidden=(16, 8),
        seed=seed,
        log_every=5,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "bad", [dict(log_every=0), dict(batch_size=-1), dict(d_z=0),
                dict(train_lr=0.0), dict(pretrain_lr=-1e-3), dict(hidden=(16, 0)), dict(alpha=np.nan), dict(alpha=np.inf),
                dict(train_lr=np.inf), dict(pretrain_lr=np.inf), dict(train_lr=np.nan),
                dict(n_neighbors=0), dict(n_neighbors=2.5), dict(seed=-1)],
        ids=["log_every", "batch_size", "d_z", "train_lr",
             "pretrain_lr", "hidden", "alpha_nan", "alpha_inf", "train_lr_inf",
             "pretrain_lr_inf", "train_lr_nan", "n_neighbors", "n_neighbors_float", "seed"],
    )
    def test_out_of_range_rejected(self, bad):
        # the message names the field
        with pytest.raises(ValueError, match=next(iter(bad))):
            quick_config(**bad)


class TestKmeans:
    def test_blob_recovery(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(60, 2)) * 0.2 + np.array([0.0, 0.0])
        b = rng.normal(size=(60, 2)) * 0.2 + np.array([5.0, 5.0])
        X = np.vstack([a, b])
        centers, assign = kmeans_pp(X, 2, seed=1)
        order = np.argsort(centers[:, 0])
        np.testing.assert_allclose(centers[order[0]], [0, 0], atol=0.1)
        np.testing.assert_allclose(centers[order[1]], [5, 5], atol=0.1)
        assert len(np.unique(assign)) == 2

    def test_more_clusters_than_points(self):
        with pytest.raises(ValueError):
            kmeans_pp(np.zeros((3, 2)), 5, seed=0)

    def test_no_clusters(self):
        with pytest.raises(ValueError, match="cannot place 0 clusters"):
            kmeans_pp(np.zeros((3, 2)), 0, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3))
        c1, a1 = kmeans_pp(X, 4, seed=7)
        c2, a2 = kmeans_pp(X, 4, seed=7)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)


class TestInitPrior:
    def test_blob_centroids(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(80, 3)) * 0.15 + np.array([0, 0, 0])
        b = rng.normal(size=(80, 3)) * 0.15 + np.array([3, 3, 3])
        prior = init_prior(np.vstack([a, b]), 2, seed=3)
        order = np.argsort(prior.mu[:, 0])
        np.testing.assert_allclose(prior.mu[order[0]], [0, 0, 0], atol=0.1)
        np.testing.assert_allclose(prior.mu[order[1]], [3, 3, 3], atol=0.1)
        np.testing.assert_allclose(prior.pi, [0.5, 0.5], atol=0.05)
        assert (prior.var >= VAR_MIN).all()

    def test_single_cluster_global_mean(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        prior = init_prior(X, 1, seed=0)
        np.testing.assert_allclose(prior.mu[0], X.mean(axis=0), atol=1e-9)
        np.testing.assert_array_equal(prior.pi, [1.0])

    def test_pi_floor(self):
        # a lone far-away point: weight floored at 1/(10K), then one
        # renormalization, so the guaranteed bound is floor/(1 + K*floor)
        X = np.vstack([np.zeros((99, 2)), [[50.0, 50.0]]])
        prior = init_prior(X, 2, seed=1)
        floor = 1.0 / 20
        assert prior.pi.min() >= floor / (1 + 2 * floor) - 1e-12
        assert prior.pi.sum() == pytest.approx(1.0)


class TestPretrain:
    def test_zero_epochs_valid(self):
        ds = masked_synthetic(4)
        model = DmgmmModel.build(ds.dims, 3, d_z=4, hidden=(16, 8),
                                 likelihoods=["gaussian"] * 3, seed=0)
        latents, losses = pretrain(model, ds, quick_config(pretrain_epochs=0))
        assert losses == []
        assert all(H.shape == (80, 4) for H in latents)

    def test_loss_trend_non_increasing(self):
        ds = masked_synthetic(5)
        model = DmgmmModel.build(ds.dims, 3, d_z=4, hidden=(16, 8),
                                 likelihoods=["gaussian"] * 3, seed=1)
        _, losses = pretrain(model, ds, quick_config(pretrain_epochs=60))
        best = np.minimum.accumulate(losses)
        # best-so-far must improve substantially and the tail must not
        # regress above the early phase
        assert best[-1] < 0.5 * best[0]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_single_view_plain_autoencoder(self):
        rng = np.random.default_rng(6)
        ds = MultiViewDataset(views=[rng.random(size=(40, 6))], mask=np.ones((40, 1)))
        model = DmgmmModel.build(ds.dims, 2, d_z=3, hidden=(12,),
                                 likelihoods=["gaussian"], seed=2)
        latents, losses = pretrain(model, ds, quick_config(pretrain_epochs=40))
        assert losses[-1] < losses[0]
        assert latents[0].shape == (40, 3)


def unobserved_third_view(n=60):
    """A labelled 3-view set whose view 2 no sample observes."""
    ds = make_synthetic(n_samples=n, n_clusters=3, view_dims=(5, 4, 3), seed=3)
    mask = np.ones((n, 3), dtype=np.int8)
    mask[:, 2] = 0
    return MultiViewDataset(views=ds.views, mask=mask, labels=ds.labels, K=3)


class TestUnobservedView:
    def no_training(self, *args, **kwargs):
        raise AssertionError("training started")

    def test_fit_rejects_before_training(self, monkeypatch):
        monkeypatch.setattr(trainer, "Adam", self.no_training)
        with pytest.raises(ValueError, match="^view 2 has no observed samples$"):
            fit(unobserved_third_view(), quick_config())

    def test_pretrain_rejects_before_training(self, monkeypatch):
        ds = unobserved_third_view()
        model = DmgmmModel.build(ds.dims, 3, d_z=4, hidden=(16, 8), seed=0)
        monkeypatch.setattr(trainer, "Adam", self.no_training)
        with pytest.raises(ValueError, match="^view 2 has no observed samples$"):
            pretrain(model, ds, quick_config())

    def test_normalize_rejects(self):
        with pytest.raises(ValueError, match="^view 2 has no observed samples$"):
            normalize(unobserved_third_view())


@pytest.mark.parametrize("likelihoods", [["gaussian"], ["gaussian"] * 4])
def test_likelihood_count_rejected_before_training(monkeypatch, likelihoods):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(trainer, "pretrain", no_training)
    cfg = quick_config(likelihoods=likelihoods)
    with pytest.raises(ValueError, match=f"^{len(likelihoods)} likelihoods given for 3 views$"):
        trainer.build_pretrained(masked_synthetic(), cfg, 3)


class TestPretrainEqualsReference:
    """``pretrain`` reads the plain network outputs, without the scale
    heads; its latents, losses and every trained parameter equal those of
    the reference with heads bit for bit."""

    @pytest.mark.parametrize(
        "likelihoods, epochs",
        [(["gaussian"] * 3, 25), (["gaussian", "bernoulli", "bernoulli"], 25),
         (["gaussian"] * 3, 0)],
        ids=["gaussian", "mixed-bernoulli", "zero-epochs"],
    )
    def test_bitwise_equal(self, likelihoods, epochs):
        ds = masked_synthetic(8)
        config = quick_config(pretrain_epochs=epochs)
        models = [DmgmmModel.build(ds.dims, 3, d_z=4, hidden=(16, 8),
                                   likelihoods=likelihoods, seed=4) for _ in range(2)]
        latents, losses = pretrain(models[0], ds, config)
        ref_latents, ref_losses = pretrain_reference(models[1], ds, config)
        assert len(losses) == epochs
        assert losses == ref_losses
        for H, R in zip(latents, ref_latents):
            assert np.array_equal(H, R)
        for p, r in zip(models[0].parameters(), models[1].parameters()):
            assert np.array_equal(p, r)


class TestFit:
    @staticmethod
    def check_determinism(batch_size):
        ds = masked_synthetic(7)
        r1 = fit(ds, quick_config(seed=11, batch_size=batch_size))
        r2 = fit(ds, quick_config(seed=11, batch_size=batch_size))
        np.testing.assert_array_equal(r1.assignments, r2.assignments)
        np.testing.assert_array_equal(r1.gamma, r2.gamma)
        assert r1.history[-1]["total"] == r2.history[-1]["total"]

    def test_determinism(self):
        self.check_determinism(batch_size=0)

    def test_determinism_minibatch(self):
        self.check_determinism(batch_size=7)

    def test_gate_closed_rho_zero_equals_imputation_free(self):
        ds = masked_synthetic(8)
        for seed in range(3):
            gated = fit(ds, quick_config(seed=seed, selection_ratio=0.0))
            free = fit(ds, quick_config(seed=seed), selective_imputation=False)
            np.testing.assert_array_equal(gated.assignments, free.assignments)
            np.testing.assert_array_equal(gated.gamma, free.gamma)

    def test_complete_data_any_rho_no_imputation(self):
        ds = normalize(make_synthetic(n_samples=60, n_clusters=3,
                                      view_dims=(5, 4, 3), seed=9))
        gated = fit(ds, quick_config(seed=1, selection_ratio=0.8))
        free = fit(ds, quick_config(seed=1), selective_imputation=False)
        assert gated.table.n_missing == 0
        np.testing.assert_array_equal(gated.assignments, free.assignments)

    def test_scores_frozen_and_result_shape(self):
        ds = masked_synthetic(10)
        res = fit(ds, quick_config(seed=2))
        assert res.table.n_missing == int((ds.mask == 0).sum())
        assert res.assignments.shape == (ds.n_samples,)
        assert set(np.unique(res.assignments)) <= set(range(3))
        assert res.gamma.shape == (ds.n_samples, 3)
        np.testing.assert_allclose(res.gamma.sum(axis=1), 1.0, atol=1e-9)
        # history carries every loss term and periodic metrics
        assert {"recon", "kl_gauss", "kl_cat", "coherence", "total"} <= set(res.history[0])
        assert "acc" in res.history[0]

    @pytest.mark.parametrize("ratio", [0.0, 0.5])
    def test_gamma_recomputed_from_model(self, ratio):
        # the final responsibilities read only the trained model, the
        # frozen selection and the data
        ds = masked_synthetic(12)
        config = quick_config(seed=4, selection_ratio=ratio)
        res = fit(ds, config)
        posts = M.encode_all(res.model, ds)
        imput = None
        if res.table.n_selected:
            imput = M.impute_all(ds, res.table, posts, k=config.n_neighbors)
        assert (imput is None) == (ratio == 0.0)
        agg = M.aggregate_observed(posts, ds.mask, imput)
        gamma = M.responsibilities(res.model.prior, agg.mu)
        assert np.array_equal(gamma, res.gamma)
        assert np.array_equal(gamma.argmax(axis=1), res.assignments)

    def test_prior_stays_valid(self):
        ds = masked_synthetic(11)
        res = fit(ds, quick_config(seed=3, train_epochs=25))
        prior = res.model.prior
        assert prior.pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert (prior.pi > 0).all()
        assert (prior.var >= VAR_MIN).all()

    def test_poisoned_masked_cells_stay_isolated(self):
        # masked feature cells set to NaN: training must stay finite
        ds = masked_synthetic(12)
        for v in range(ds.n_views):
            X = ds.views[v].copy()
            X[ds.mask[:, v] == 0] = np.nan
            ds.views[v] = X
        for seed in range(3):
            res = fit(ds, quick_config(seed=seed))
            assert np.isfinite(res.history[-1]["total"])
            assert np.isfinite(res.gamma).all()

    def test_missing_K_raises(self):
        ds = masked_synthetic(13)
        ds = MultiViewDataset(views=ds.views, mask=ds.mask)  # drop labels/K
        with pytest.raises(ValueError, match="cluster count"):
            fit(ds, quick_config())

    def test_more_clusters_than_samples_raises_before_pretraining(self, monkeypatch):
        ds = masked_synthetic(13, n=20)
        ds = MultiViewDataset(views=ds.views, mask=ds.mask, K=21)

        def no_training(*args, **kw):
            raise AssertionError("training started")

        monkeypatch.setattr(trainer, "pretrain", no_training)
        with pytest.raises(ValueError, match="cannot place 21 clusters on 20 samples"):
            fit(ds, quick_config())

    def test_bernoulli_range_validated(self):
        ds = masked_synthetic(14)
        views = [X.copy() for X in ds.views]
        views[0][0, 0] = 7.5  # outside [0, 1]
        bad = MultiViewDataset(views=views, mask=ds.mask, labels=ds.labels, K=3)
        cfg = quick_config(likelihoods=["bernoulli", "gaussian", "gaussian"])
        with pytest.raises(ValueError, match="Bernoulli"):
            fit(bad, cfg)

    def test_separable_data_gets_clustered(self):
        # sanity: on easy blobs the pipeline finds real structure
        ds = masked_synthetic(15, n=150, rate=0.2, probs=(0.3, 0.2, 0.1))
        res = fit(ds, quick_config(seed=4, train_epochs=40, pretrain_epochs=40))
        from imvc.metrics import accuracy

        assert accuracy(res.assignments, ds.labels) > 0.6


class TestFlatAdamBitIdentity:
    """``fit`` with the flat-buffer Adam equals ``fit`` with the per-array
    reference optimiser, bit for bit, through pretraining and training."""

    @staticmethod
    def check_equal(monkeypatch, ds, config, before_fit=lambda: None):
        before_fit()
        flat = fit(ds, config)
        with monkeypatch.context() as mp:
            mp.setattr(trainer, "Adam", AdamPerArray)
            before_fit()
            ref = fit(ds, config)
        assert np.array_equal(flat.gamma, ref.gamma)
        assert flat.history == ref.history
        assert flat.pretrain_losses == ref.pretrain_losses

    def test_full_batch(self, monkeypatch):
        self.check_equal(monkeypatch, masked_synthetic(7), quick_config(seed=11))

    def test_minibatch(self, monkeypatch):
        ds = masked_synthetic(17, n=200)
        self.check_equal(monkeypatch, ds, quick_config(seed=12, batch_size=16,
                                                       train_epochs=3))

    def test_lr_halving_retry(self, monkeypatch):
        # 5 batches per epoch; the second step of the second epoch fails
        # once, so the epoch restarts from the snapshot (load_params +
        # load_state_dict) at half the learning rate
        real = M.loss_and_grads
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == 7:
                raise M.NonFiniteLossError("reconstruction", float("nan"))
            return real(*args, **kwargs)

        monkeypatch.setattr(M, "loss_and_grads", flaky)
        self.check_equal(monkeypatch, masked_synthetic(18),
                         quick_config(seed=13, batch_size=16, train_epochs=3),
                         before_fit=calls.clear)
        assert len(calls) == 3 * 5 + 2


def nan_weight(model):
    model.encoders[0].weights[0][0, 0] = np.nan


def spread_pi_logits(model):
    model.pi_logits[0] += 1e4  # the other prior weights underflow to 0


class TestDivergence:
    """A training step that leaves an unusable state is undone and retried
    at half the learning rate; the fourth failure ends the fit."""

    @pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
    @pytest.mark.parametrize("poison", [nan_weight, spread_pi_logits])
    def test_diverging_step_retried_then_raises(self, monkeypatch, labelled, poison):
        real_build, real_step = trainer.build_pretrained, trainer.Adam.step
        trained = []  # the model, once pretraining is over
        starts = []  # (lr, every parameter finite) at each training step

        def build_pretrained(*args, **kwargs):
            out = real_build(*args, **kwargs)
            trained.append(out[0])
            return out

        def step(self, grads):
            if trained:
                starts.append((self.lr, all(np.isfinite(p).all() for p in self.params)))
            real_step(self, grads)
            if trained:
                poison(trained[0])

        monkeypatch.setattr(trainer, "build_pretrained", build_pretrained)
        monkeypatch.setattr(trainer.Adam, "step", step)
        ds = masked_synthetic(19)
        if not labelled:
            ds = MultiViewDataset(views=ds.views, mask=ds.mask, K=3)
        config = quick_config(seed=14)
        with pytest.raises(trainer.TrainingDiverged) as info:
            fit(ds, config)
        assert info.value.epoch == 0
        assert not np.isfinite(info.value.__cause__.value)  # the offending value
        # three retries, each from the finite snapshot at half the lr
        lr = config.train_lr
        assert starts == [(lr, True), (lr / 2, True), (lr / 4, True), (lr / 8, True)]


def test_minibatch_prior_underflow_retried(monkeypatch):
    # a mid-epoch step that underflows a prior weight makes the next batch's
    # loss non-finite, so the epoch is retried at half the learning rate
    # (it used to raise ValueError from building a validated prior)
    real_build, real_step = trainer.build_pretrained, trainer.Adam.step
    trained = []
    lrs = []

    def build_pretrained(*args, **kwargs):
        out = real_build(*args, **kwargs)
        trained.append(out[0])
        return out

    def step(self, grads):
        real_step(self, grads)
        if trained:
            lrs.append(self.lr)
            if len(lrs) == 2:
                spread_pi_logits(trained[0])

    monkeypatch.setattr(trainer, "build_pretrained", build_pretrained)
    monkeypatch.setattr(trainer.Adam, "step", step)
    config = quick_config(seed=14, batch_size=16, train_epochs=2)
    res = fit(masked_synthetic(19), config)
    lr = config.train_lr
    assert lrs == [lr, lr] + [lr / 2] * 10  # 5 batches per epoch
    assert len(res.history) == config.train_epochs


class TestOneImputationPerState:
    """``impute_all`` runs once per parameter state: before the first epoch
    and after each epoch. The next epoch's loss, the logged eval, the final
    assignments and a retried epoch all read that one result."""

    @pytest.mark.parametrize("poisoned_step", [None, 3], ids=["clean", "retried"])
    def test_calls(self, monkeypatch, poisoned_step):
        real_build, real_step, real_impute = (
            trainer.build_pretrained, trainer.Adam.step, M.impute_all)
        trained = []  # the model, once pretraining is over
        lrs = []  # the learning rate of each training step
        calls = []

        def build_pretrained(*args, **kwargs):
            out = real_build(*args, **kwargs)
            trained.append(out[0])
            return out

        def step(self, grads):
            real_step(self, grads)
            if trained:
                lrs.append(self.lr)
                if len(lrs) == poisoned_step:
                    nan_weight(trained[0])

        def impute_all(*args, **kwargs):
            calls.append(None)
            return real_impute(*args, **kwargs)

        monkeypatch.setattr(trainer, "build_pretrained", build_pretrained)
        monkeypatch.setattr(trainer.Adam, "step", step)
        monkeypatch.setattr(M, "impute_all", impute_all)
        config = quick_config(seed=14, log_every=1)
        res = fit(masked_synthetic(19), config)
        assert all("acc" in entry for entry in res.history)  # every epoch logged
        lr = config.train_lr
        if poisoned_step is None:
            assert lrs == [lr] * config.train_epochs
        else:  # the poisoned step's epoch was retried at half the lr
            assert lrs[:poisoned_step + 1] == [lr] * poisoned_step + [lr / 2]
            assert len(lrs) == config.train_epochs + 1
        assert len(calls) == config.train_epochs + 1


class TestOneEncoderPassPerState:
    """A full-batch fit runs each encoder once per parameter state, before
    the first epoch and after each epoch, and its losses read that pass; a
    retried epoch reads the restored state's pass. Mini-batches encode
    their own rows in every loss."""

    @staticmethod
    def counted_fit(monkeypatch, config, poisoned_step=None):
        real_build, real_step, real_loss = (
            trainer.build_pretrained, trainer.Adam.step, M.loss_and_grads)
        trained = []  # the model, once pretraining is over
        in_loss = []
        runs = {"outside": [], "loss": []}  # encoder index of each forward pass
        steps = []

        def build_pretrained(*args, **kwargs):
            out = real_build(*args, **kwargs)
            model = out[0]
            trained.append(model)
            for v, net in enumerate(model.encoders):
                def forward(X, v=v, real=net.forward):
                    runs["loss" if in_loss else "outside"].append(v)
                    return real(X)
                monkeypatch.setattr(net, "forward", forward)
            return out

        def loss_and_grads(*args, **kwargs):
            in_loss.append(None)
            try:
                return real_loss(*args, **kwargs)
            finally:
                in_loss.pop()

        def step(self, grads):
            real_step(self, grads)
            if trained:
                steps.append(self.lr)
                if len(steps) == poisoned_step:
                    nan_weight(trained[0])

        monkeypatch.setattr(trainer, "build_pretrained", build_pretrained)
        monkeypatch.setattr(trainer.Adam, "step", step)
        monkeypatch.setattr(M, "loss_and_grads", loss_and_grads)
        res = fit(masked_synthetic(19), config)
        return res, runs, steps

    @pytest.mark.parametrize("poisoned_step", [None, 3], ids=["clean", "retried"])
    def test_full_batch(self, monkeypatch, poisoned_step):
        config = quick_config(seed=14)
        res, runs, steps = self.counted_fit(monkeypatch, config, poisoned_step)
        expected = config.train_epochs if poisoned_step is None else config.train_epochs + 1
        assert len(steps) == expected
        assert runs["loss"] == []
        for v in range(3):
            assert runs["outside"].count(v) == config.train_epochs + 1
        assert len(res.history) == config.train_epochs

    def test_minibatch(self, monkeypatch):
        config = quick_config(seed=12, batch_size=16, train_epochs=3)
        _, runs, steps = self.counted_fit(monkeypatch, config)
        assert len(steps) == config.train_epochs * 5  # 80 samples, batches of 16
        for v in range(3):
            assert runs["loss"].count(v) == len(steps)
            assert runs["outside"].count(v) == config.train_epochs + 1


def fit_bits(res):
    return ([res.gamma.tobytes(), repr(res.history)]
            + [p.tobytes() for p in res.model.parameters()])


def test_minibatch_fit_matches_per_view_loss(monkeypatch):
    # the stacked loss trains exactly as the per-view reference does
    config = quick_config(seed=5, batch_size=5, train_epochs=2)
    ds = masked_synthetic(23)
    want = fit_bits(fit(ds, config))
    monkeypatch.setattr(M, "loss_and_grads", loss_and_grads_per_view)
    res = fit(ds, config)
    assert res.table.n_selected > 0
    assert fit_bits(res) == want


class TestEpochHistory:
    """Each epoch logs the size-weighted mean of its batches' loss terms."""

    @staticmethod
    def recorded_fit(monkeypatch, ds, config):
        real = M.loss_and_grads
        batches = []

        def recording(model, dataset, batch_idx, *args, **kwargs):
            terms, grads = real(model, dataset, batch_idx, *args, **kwargs)
            batches.append((len(batch_idx), terms.as_dict()))
            return terms, grads

        with monkeypatch.context() as mp:
            mp.setattr(M, "loss_and_grads", recording)
            res = fit(ds, config)
        return res, batches

    def test_minibatch_logs_weighted_mean(self, monkeypatch):
        ds = masked_synthetic(17, n=200)
        config = quick_config(seed=12, batch_size=16, train_epochs=3)
        res, batches = self.recorded_fit(monkeypatch, ds, config)
        per_epoch = -(-ds.n_samples // 16)
        assert len(batches) == config.train_epochs * per_epoch
        assert [b for b, _ in batches[:per_epoch]] == [16] * 12 + [8]
        for epoch, entry in enumerate(res.history):
            chunk = batches[epoch * per_epoch:(epoch + 1) * per_epoch]
            for key in ("recon", "kl_gauss", "kl_cat", "coherence", "total"):
                want = sum(size / ds.n_samples * terms[key] for size, terms in chunk)
                assert entry[key] == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert entry["total"] != chunk[-1][1]["total"]  # not the last batch's
        # logging does not touch training
        assert np.array_equal(res.gamma, fit(ds, config).gamma)

    def test_full_batch_logs_its_terms_unchanged(self, monkeypatch):
        ds = masked_synthetic(7)
        res, batches = self.recorded_fit(monkeypatch, ds, quick_config(seed=11))
        assert len(batches) == len(res.history)
        for entry, (size, terms) in zip(res.history, batches):
            assert size == ds.n_samples
            assert {k: entry[k] for k in terms} == terms
