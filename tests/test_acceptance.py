"""Acceptance suite.

One test per criterion; each prints a PASS line with its measured
numbers when it succeeds (run with -s to see them). The empirical
criteria (5, 6, 9) run on the bundled synthetic dataset under the
unbalanced eta=0.5 mask committed in data/toy/.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from imvc.data import MultiViewDataset, load_dataset, normalize
from imvc.metrics import accuracy, ari, nmi, plugin_impute
from imvc.model import GaussianPosterior, fuse, loss_and_grads, w2_distance
from imvc.scoring import info_scores, select_positions
from imvc.trainer import TrainConfig, fit, pretrain, calibrate_heads
from imvc import model as M
from imvc import scoring

from oracles import score_of
from test_metrics import accuracy_bruteforce, ari_paircount
from test_model import make_loss_instance, rel_err
from test_scoring import dense_sims, info_scores_oracle, random_incomplete

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY = os.path.join(ROOT, "data", "toy")

# training settings for the bundled dataset (mirrors data/toy/toy.ini)
TOY_TRAIN = dict(
    pretrain_epochs=300,
    train_epochs=200,
    pretrain_lr=1e-3,
    train_lr=1e-3,
    alpha=5.0,
    n_neighbors=10,
    d_z=8,
    hidden=(64, 32),
    log_every=1000,
)
N_SEEDS = 10


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def toy_dataset():
    ds = load_dataset(
        [os.path.join(TOY, f"view{v}.csv") for v in range(3)],
        mask_path=os.path.join(TOY, "mask_eta05.csv"),
        labels_path=os.path.join(TOY, "labels.csv"),
        K=4,
    )
    return normalize(ds)


@pytest.fixture(scope="module")
def ratio_sweep(toy_dataset):
    """Median ACC per selection ratio over N_SEEDS training seeds
    (shared by criteria 5 and 6); also records the wall time."""
    t0 = time.time()
    medians = {}
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        accs = []
        for seed in range(N_SEEDS):
            res = fit(toy_dataset, TrainConfig(selection_ratio=rho, seed=seed, **TOY_TRAIN))
            accs.append(accuracy(res.assignments, toy_dataset.labels))
        medians[rho] = float(np.median(accs))
    return medians, time.time() - t0


class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        t0 = time.time()
        worst = 0.0
        h = 1e-5
        cases = [("gaussian", ()), ("bernoulli", (1,))] * 10
        for n, (kind, binary_views) in enumerate(cases[:20]):
            ds, model, eps, imput = make_loss_instance(
                5000 + 13 * n, binary_views=binary_views,
                with_imputations=(n % 5 == 0),
            )
            batch = np.arange(ds.n_samples)
            terms, grads = loss_and_grads(
                model, ds, batch, eps, alpha=5.0, imputations=imput
            )

            def loss():
                t, _ = loss_and_grads(model, ds, batch, eps, alpha=5.0,
                                      imputations=imput)
                return t.total

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
            assert worst <= 1e-4, f"instance {n}: rel err {worst:.2e}"
        elapsed = time.time() - t0
        assert elapsed < 120, f"gradient check took {elapsed:.0f}s"
        report(1, f"20 instances, max rel err {worst:.2e}, {elapsed:.0f}s")


class TestCriterion2Poe:
    def test_poe_exactness(self):
        rng = np.random.default_rng(2024)
        worst_prec = 0.0
        worst_mu = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            d = int(rng.integers(1, 6))
            mus = rng.normal(size=(k, d)) * 5
            vars_ = rng.uniform(1e-4, 50.0, size=(k, d))
            out_mu, out_var = fuse(list(mus), list(1.0 / vars_))
            prec = (1.0 / vars_).sum(axis=0)
            worst_prec = max(
                worst_prec, float(np.abs(1.0 / out_var - prec).max() / prec.max())
            )
            mu = (mus / vars_).sum(axis=0) / prec
            scale = np.maximum(np.abs(mu), 1.0)
            worst_mu = max(worst_mu, float((np.abs(out_mu - mu) / scale).max()))
        assert worst_prec <= 1e-12 and worst_mu <= 1e-12
        report(2, f"1000 expert sets, rel errs {worst_prec:.1e}/{worst_mu:.1e}")


class TestCriterion3Oracles:
    def test_info_score_oracle(self):
        rng = np.random.default_rng(33)
        checked = 0
        for case in range(50):
            n = int(rng.integers(8, 31))
            V = int(rng.integers(2, 5))
            ds = random_incomplete(7000 + case, n=n, V=V, dims=(3, 2, 4, 2))
            corr = np.eye(V)
            for u in range(V):
                for v in range(u + 1, V):
                    corr[u, v] = corr[v, u] = rng.uniform(0.05, 1.0)
            table = info_scores(ds, corr=corr)
            expected = info_scores_oracle(ds, dense_sims(ds), corr)
            for (i, v), score in expected.items():
                assert score_of(table, i, v) == score
                checked += 1
        report(3, f"info_score exact on 50 instances ({checked} positions)")

    def test_accuracy_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            K = int(rng.integers(1, 5))
            pred = rng.integers(0, K, size=n)
            truth = rng.integers(0, K, size=n)
            assert accuracy(pred, truth) == accuracy_bruteforce(pred, truth)
        report(3, "accuracy equals the K!-permutation oracle on 100 instances")

    def test_ari_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            K = int(rng.integers(1, 5))
            pred = rng.integers(0, K, size=n)
            truth = rng.integers(0, K, size=n)
            assert ari(pred, truth) == ari_paircount(pred, truth)
        report(3, "ari equals the pair-counting oracle on 100 instances")


class TestCriterion4W2Metric:
    def test_w2_metric_properties(self):
        rng = np.random.default_rng(44)
        n = 10_000
        mus = rng.normal(size=(3, n, 5)) * 3
        sds = rng.uniform(0.02, 4.0, size=(3, n, 5))
        a, b, c = (GaussianPosterior(mus[i], sds[i] ** 2) for i in range(3))
        dab, dba = w2_distance(a, b), w2_distance(b, a)
        dac, dcb = w2_distance(a, c), w2_distance(c, b)
        assert (dab >= 0).all()
        assert np.abs(dab - dba).max() <= 1e-9
        violation = float((dab - (dac + dcb)).max())
        assert violation <= 1e-9
        zero = w2_distance(a, a)
        assert np.abs(zero).max() <= 1e-9
        report(4, f"10000 triples, worst triangle violation {violation:.2e}")


@pytest.mark.slow
class TestCriterion5RatioShape:
    def test_interior_ratio_is_best(self, ratio_sweep):
        medians, elapsed = ratio_sweep
        interior = max(medians[0.25], medians[0.5], medians[0.75])
        assert interior > medians[0.0], medians
        assert interior > medians[1.0], medians
        assert elapsed < 1800, f"sweep took {elapsed:.0f}s"
        report(
            5,
            "median ACC by ratio "
            + ", ".join(f"{r:g}:{m:.3f}" for r, m in sorted(medians.items()))
            + f"; {elapsed:.0f}s",
        )


@pytest.mark.slow
class TestCriterion6Degradation:
    def test_moderate_ratio_beats_imputation_free(self, ratio_sweep):
        medians, _ = ratio_sweep
        gain = medians[0.5] - medians[0.0]
        assert gain >= 0.03, medians
        report(6, f"ACC gain at ratio 0.5 over 0: {gain * 100:.1f} points")


class TestCriterion7GateClosed:
    def test_rho_zero_bitwise_identical(self):
        rng = np.random.default_rng(77)
        views = [rng.normal(size=(80, d)) for d in (6, 5, 4)]
        mask = (rng.random((80, 3)) >= 0.35).astype(int)
        for i in np.where(mask.sum(axis=1) == 0)[0]:
            mask[i, rng.integers(3)] = 1
        labels = rng.integers(0, 3, size=80)
        ds = normalize(MultiViewDataset(views=views, mask=mask, labels=labels, K=3))
        cfg = dict(pretrain_epochs=30, train_epochs=20, d_z=4, hidden=(16, 8),
                   alpha=5.0, log_every=1000)
        for seed in range(5):
            gated = fit(ds, TrainConfig(selection_ratio=0.0, seed=seed, **cfg))
            free = fit(ds, TrainConfig(seed=seed, **cfg), selective_imputation=False)
            np.testing.assert_array_equal(gated.assignments, free.assignments)
            np.testing.assert_array_equal(gated.gamma, free.gamma)
        # complete data: any ratio is a no-op
        complete = normalize(
            MultiViewDataset(views=views, mask=np.ones((80, 3)), labels=labels, K=3)
        )
        gated = fit(complete, TrainConfig(selection_ratio=0.9, seed=0, **cfg))
        free = fit(complete, TrainConfig(seed=0, **cfg), selective_imputation=False)
        np.testing.assert_array_equal(gated.assignments, free.assignments)
        report(7, "bitwise-identical assignments for 5 seeds + complete data")


class TestCriterion8SelectionAndDeterminism:
    def test_selection_nests(self):
        rng = np.random.default_rng(88)
        for case in range(20):
            ds = random_incomplete(8800 + case, n=int(rng.integers(10, 30)))
            corr = np.eye(ds.n_views)
            corr[corr == 0] = 0.5
            table = info_scores(ds, corr=corr)
            prev = set()
            for rho in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
                sel = select_positions(table, rho)
                cur = {
                    tuple(p)
                    for p, s in zip(sel.positions.tolist(), sel.selected)
                    if s
                }
                assert prev <= cur
                prev = cur
        report(8, "selected sets nest over 20 instances")

    def test_equal_seeds_equal_result_json(self, toy_dataset, tmp_path):
        from imvc.cli import main

        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            f"""
[data]
views = {TOY}/view0.csv, {TOY}/view1.csv, {TOY}/view2.csv
mask = {TOY}/mask_eta05.csv
labels = {TOY}/labels.csv
clusters = 4

[train]
pretrain_epochs = 30
epochs = 20
latent_dim = 4
hidden = 16, 8
seed = 3

[output]
dir = {tmp_path}/r1
"""
        )
        payloads = []
        for name in ("r1", "r2"):
            rc = main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / name)])
            assert rc == 0
            p = json.loads((tmp_path / name / "result.json").read_text())
            del p["config"]
            p["config_hash"] = ""
            payloads.append(json.dumps(p, sort_keys=True))
        assert payloads[0] == payloads[1]
        report(8, "equal seeds give identical result JSONs")


@pytest.mark.slow
class TestCriterion9Plugin:
    def test_selected_plugin_beats_extremes(self, toy_dataset):
        ds = toy_dataset
        tc = TrainConfig(selection_ratio=0.0, seed=0, **TOY_TRAIN)
        model = M.DmgmmModel.build(
            ds.dims, ds.K, d_z=tc.d_z, hidden=tc.hidden,
            likelihoods=["gaussian"] * ds.n_views, seed=tc.seed,
        )
        latents, _ = pretrain(model, ds, tc)
        calibrate_heads(model, ds, latents)
        corr = scoring.view_correlation(latents, ds)
        table = info_scores(ds, corr=corr)
        medians = {}
        for name, ratio in (("none", 0.0), ("selected", 0.3), ("all", 1.0)):
            filled, _ = plugin_impute(ds, select_positions(table, ratio), k=10)
            accs = [
                accuracy(
                    fit(
                        filled,
                        TrainConfig(selection_ratio=0.0, seed=s, **TOY_TRAIN),
                        selective_imputation=False,
                    ).assignments,
                    ds.labels,
                )
                for s in range(N_SEEDS)
            ]
            medians[name] = float(np.median(accs))
        assert medians["selected"] >= medians["none"], medians
        assert medians["selected"] >= medians["all"], medians
        report(
            9,
            f"median ACC none={medians['none']:.3f} "
            f"selected@0.3={medians['selected']:.3f} all={medians['all']:.3f}",
        )


class TestCriterion10MaskedIsolation:
    def test_nan_poisoned_training_is_finite(self):
        rng = np.random.default_rng(1010)
        views = [rng.normal(size=(70, d)) for d in (6, 5, 4)]
        mask = (rng.random((70, 3)) >= 0.4).astype(int)
        for i in np.where(mask.sum(axis=1) == 0)[0]:
            mask[i, rng.integers(3)] = 1
        labels = rng.integers(0, 3, size=70)
        ds = normalize(MultiViewDataset(views=views, mask=mask, labels=labels, K=3))
        for v in range(3):
            X = ds.views[v]
            X[ds.mask[:, v] == 0] = np.nan
        cfg = dict(pretrain_epochs=25, train_epochs=20, d_z=4, hidden=(16, 8),
                   alpha=5.0, selection_ratio=0.6, log_every=1000)
        for seed in range(3):
            res = fit(ds, TrainConfig(seed=seed, **cfg))
            assert np.isfinite(res.history[-1]["total"])
            assert np.isfinite(res.gamma).all()
            assert res.table.n_selected > 0  # imputation path really ran
        report(10, "NaN-poisoned masked cells never reach the model (3 seeds)")
