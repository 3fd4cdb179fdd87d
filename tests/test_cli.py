import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import imvc.cli
import imvc.trainer
from imvc.cli import config_hash, main, read_config, train_config
from imvc.svg import grouped_bar_chart, line_chart
from imvc.trainer import TrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small dataset + config file shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "d"
    assert main([
        "gen-data", "--out-dir", str(data), "--samples", "60", "--clusters", "3",
        "--dims", "5,4", "--noise", "0.3,0.5", "--seed", "1",
    ]) == 0
    assert main([
        "gen-mask", "--out", str(data / "mask.csv"), "--samples", "60",
        "--probs", "0.4,0.2", "--rate", "0.3", "--seed", "2",
    ]) == 0
    cfg = root / "cfg.ini"
    cfg.write_text(
        f"""
[data]
views = {data}/view0.csv, {data}/view1.csv
mask = {data}/mask.csv
labels = {data}/labels.csv

[train]
pretrain_epochs = 20
epochs = 15
latent_dim = 3
hidden = 12, 8
seed = 0

[sweep]
rates = 0.3
ratios = 0, 0.5, 1
runs = 2
mask_probs = 0.4, 0.2

[plugin]
runs = 2

[output]
dir = {root}/out
"""
    )
    return root, cfg


def read_rows(path):
    import csv

    with open(path) as fh:
        body = [l for l in fh if not l.startswith("#")]
    return list(csv.DictReader(body))


class TestConfig:
    def test_defaults_and_overrides(self, workspace):
        root, cfg = workspace
        c = read_config(str(cfg), ["train.epochs=99", "output.dir=elsewhere"])
        assert c["train"]["epochs"] == "99"
        assert c["output"]["dir"] == "elsewhere"
        assert c["train"]["alpha"] == "5.0"  # untouched default

    def test_unknown_key_rejected(self, workspace):
        root, cfg = workspace
        with pytest.raises(ValueError, match="unknown config key"):
            read_config(str(cfg), ["train.bogus=1"])

    def test_hash_stable_and_sensitive(self, workspace):
        root, cfg = workspace
        a = config_hash(read_config(str(cfg), []))
        b = config_hash(read_config(str(cfg), []))
        c = config_hash(read_config(str(cfg), ["train.seed=5"]))
        assert a == b and a != c

    def test_ini_defaults_equal_train_config_defaults(self):
        assert train_config(read_config(None, [])) == TrainConfig()


class TestScore:
    def test_complete_dataset_empty_body(self, tmp_path):
        np.savetxt(tmp_path / "v.csv", np.random.default_rng(0).random((12, 3)),
                   delimiter=",")
        rc = main([
            "score", "--views", str(tmp_path / "v.csv"), "--clusters", "2",
            "--out-dir", str(tmp_path / "out"),
            "--set", "train.pretrain_epochs=2", "--set", "train.latent_dim=2",
            "--set", "train.hidden=4",
        ])
        assert rc == 0
        assert read_rows(tmp_path / "out" / "scores.csv") == []

    def test_rows_match_missing_positions(self, workspace):
        root, cfg = workspace
        assert main(["score", "--config", str(cfg)]) == 0
        rows = read_rows(root / "out" / "scores.csv")
        mask = np.loadtxt(root / "d" / "mask.csv", delimiter=",")
        assert len(rows) == int((mask == 0).sum())
        n_sel = sum(int(r["selected"]) for r in rows)
        import math

        assert n_sel == math.ceil(0.5 * len(rows))

    def test_deterministic_output(self, workspace, tmp_path):
        root, cfg = workspace
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["score", "--config", str(cfg), "--out-dir", str(out)]) == 0
        text_a = (a / "scores.csv").read_text()
        text_b = (b / "scores.csv").read_text()
        # output directory is part of the embedded config; compare bodies
        body = lambda t: [l for l in t.splitlines() if not l.startswith("#")]
        assert body(text_a) == body(text_b)


class TestFit:
    def test_result_json_contents(self, workspace, tmp_path):
        root, cfg = workspace
        assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert os.listdir(tmp_path) == ["result.json"]
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["seed"] == 0
        assert payload["config_hash"] == config_hash(payload["config"])
        assert len(payload["epochs"]) == 15
        assert {"acc", "nmi", "ari"} <= set(payload["metrics"])
        assert len(payload["assignments"]) == 60

    def test_identical_seeds_identical_json(self, workspace, tmp_path):
        root, cfg = workspace
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 0
            payload = json.loads((out / "result.json").read_text())
            del payload["config"]  # embeds the output dir
            payload["config_hash"] = ""
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_failed_write_keeps_previous_result(self, workspace, tmp_path,
                                                failing_json_dump):
        root, cfg = workspace
        (tmp_path / "result.json").write_text("previous")
        assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert (tmp_path / "result.json").read_text() == "previous"
        assert os.listdir(tmp_path) == ["result.json"]


class TestSweep:
    def test_rows_and_aggregates(self, workspace):
        root, cfg = workspace
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = read_rows(root / "out" / "sweep.csv")
        runs = [r for r in rows if r["kind"] == "run"]
        means = [r for r in rows if r["kind"] == "mean"]
        stds = [r for r in rows if r["kind"] == "std"]
        assert len(runs) == 3 * 2  # ratios x runs
        assert len(means) == 3 and len(stds) == 3
        for m in means:
            cell = [float(r["acc"]) for r in runs if (r["eta"], r["rho"]) == (m["eta"], m["rho"])]
            assert float(m["acc"]) == pytest.approx(np.mean(cell), abs=1e-6)

    def test_resume_is_noop(self, workspace):
        root, cfg = workspace
        before = (root / "out" / "sweep.csv").read_text()
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert (root / "out" / "sweep.csv").read_text() == before

    def test_resume_with_other_worker_count_is_noop(self, workspace, tmp_path):
        # sweep.workers only changes how cells run, so it is not part of the hash
        root, cfg = workspace
        args = ["sweep", "--config", str(cfg), "--out-dir", str(tmp_path),
                "--set", "sweep.ratios=0", "--set", "sweep.runs=1"]
        assert main(args) == 0
        before = (tmp_path / "sweep.csv").read_text()
        assert main([*args, "--set", "sweep.workers=2"]) == 0
        after = (tmp_path / "sweep.csv").read_text()
        body = lambda t: [l for l in t.splitlines() if not l.startswith("# config=")]
        assert body(after) == body(before)

    @pytest.mark.slow
    def test_fresh_parallel_sweep_equals_serial(self, tmp_path, monkeypatch):
        # spawned workers with BLAS pinned to one thread compute every cell
        # as the serial loop does
        monkeypatch.chdir(ROOT)
        body = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert main([
                "sweep", "--config", "data/toy/toy.ini", "--out-dir", str(out),
                "--set", "train.pretrain_epochs=10", "--set", "train.epochs=4",
                "--set", "sweep.ratios=0, 0.5", "--set", "sweep.runs=2",
                "--set", f"sweep.workers={workers}",
            ]) == 0
            body[workers] = [l for l in (out / "sweep.csv").read_text().splitlines()
                             if not l.startswith("# config=")]
        assert body[2] == body[1]
        assert len([l for l in body[1] if l.startswith("run,")]) == 4

    def test_pool_workers_pin_blas_and_restore_env(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        names = imvc.cli.BLAS_THREAD_VARS
        with imvc.cli._sweep_pool(2) as pool:
            seen = list(pool.map(os.getenv, names))
            # a forked worker would inherit the numpy that this process loaded
            fresh = pool.submit(eval, "'numpy' not in __import__('sys').modules")
            assert fresh.result()
        assert seen == ["1"] * len(names)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "OMP_NUM_THREADS" not in os.environ
        assert "MKL_NUM_THREADS" not in os.environ

    def test_interrupted_sweep_keeps_finished_cells(self, workspace, tmp_path,
                                                    monkeypatch):
        root, cfg = workspace
        args = ["sweep", "--config", str(cfg), "--out-dir", str(tmp_path),
                "--set", "sweep.ratios=0, 1", "--set", "sweep.runs=1"]
        real_fit = imvc.cli.fit
        calls = []
        fail_on = 2  # the second cell's fit raises

        def fit(dataset, config, **kw):
            calls.append(config.selection_ratio)
            if fail_on == len(calls):
                raise RuntimeError("interrupted")
            return real_fit(dataset, config, **kw)

        monkeypatch.setattr(imvc.cli, "fit", fit)
        assert main(args) == 2
        runs = [r for r in read_rows(tmp_path / "sweep.csv") if r["kind"] == "run"]
        assert [(r["rho"], r["seed"]) for r in runs] == [("0", "0")]
        assert not (tmp_path / "sweep.csv.tmp").exists()
        calls.clear()
        fail_on = None
        assert main(args) == 0
        assert calls == [1.0]
        runs = [r for r in read_rows(tmp_path / "sweep.csv") if r["kind"] == "run"]
        assert [r["rho"] for r in runs] == ["0", "1"]

    def test_repeated_grid_value_fits_once(self, workspace, tmp_path, monkeypatch):
        root, cfg = workspace
        calls = []

        def counting_fit(ds, tc):
            calls.append((tc.selection_ratio, tc.seed))
            return imvc.trainer.fit(ds, tc)

        monkeypatch.setattr(imvc.cli, "fit", counting_fit)
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path),
                     "--set", "sweep.ratios=0.5, 0.50", "--set", "sweep.runs=1",
                     "--set", "sweep.workers=1"]) == 0
        assert calls == [(0.5, 0)]
        runs = [r for r in read_rows(tmp_path / "sweep.csv") if r["kind"] == "run"]
        assert [(r["rho"], r["seed"]) for r in runs] == [("0.5", "0")]

    def test_hash_mismatch_rejected(self, workspace):
        root, cfg = workspace
        rc = main(["sweep", "--config", str(cfg), "--set", "sweep.runs=3"])
        assert rc == 1

    def test_svg_labels_equal_csv(self, workspace):
        root, cfg = workspace
        rows = read_rows(root / "out" / "sweep.csv")
        means = {r["rho"]: f'{float(r["acc"]):.3f}' for r in rows if r["kind"] == "mean"}
        line = (root / "out" / "acc_vs_ratio.svg").read_text()
        labels = set(re.findall(r'font-size="11">([0-9.]+)</text>', line))
        assert set(means.values()) <= labels
        bar = (root / "out" / "acc_vs_rate.svg").read_text()
        labels_bar = set(re.findall(r'font-size="11">([0-9.]+)</text>', bar))
        assert set(means.values()) <= labels_bar

    def test_empty_axis_rejected(self, workspace):
        root, cfg = workspace
        rc = main(["sweep", "--config", str(cfg), "--set", "sweep.rates=",
                   "--out-dir", str(root / "out2")])
        assert rc == 1


class TestPlugin:
    def test_variants_present_and_gate_bitwise(self, workspace):
        root, cfg = workspace
        assert main(["plugin", "--config", str(cfg)]) == 0
        rows = read_rows(root / "out" / "plugin.csv")
        variants = {r["variant"] for r in rows}
        assert {"no-impute", "impute-selected@0.3", "impute-all"} <= variants
        # ratio 0 variant must equal the no-impute rows bitwise
        none = {r["seed"]: r for r in rows if r["variant"] == "no-impute"}
        assert len(none) == 2
        # run again with plugin.ratio=0: selected variant becomes no-impute clone
        out2 = root / "out_plugin0"
        assert main(["plugin", "--config", str(cfg), "--out-dir", str(out2),
                     "--set", "plugin.ratio=0"]) == 0
        rows2 = read_rows(out2 / "plugin.csv")
        sel = {r["seed"]: r for r in rows2 if r["variant"].startswith("impute-selected")}
        none2 = {r["seed"]: r for r in rows2 if r["variant"] == "no-impute"}
        for seed in none2:
            if seed == "":
                continue
            for m in ("acc", "nmi", "ari"):
                assert sel[seed][m] == none2[seed][m]

    def test_ratio_one_equals_impute_all(self, workspace):
        root, cfg = workspace
        out = root / "out_plugin1"
        assert main(["plugin", "--config", str(cfg), "--out-dir", str(out),
                     "--set", "plugin.ratio=1"]) == 0
        rows = read_rows(out / "plugin.csv")
        sel = {r["seed"]: r for r in rows if r["variant"].startswith("impute-selected")}
        alls = {r["seed"]: r for r in rows if r["variant"] == "impute-all"}
        for seed, row in alls.items():
            if seed == "":
                continue
            for m in ("acc", "nmi", "ari"):
                assert sel[seed][m] == row[m]


class TestExitCodes:
    def test_missing_view_file(self, tmp_path):
        assert main(["score", "--views", str(tmp_path / "nope.csv")]) == 1

    def test_missing_config(self):
        assert main(["fit", "--config", "no-such.ini"]) == 1

    @pytest.mark.parametrize("command,setting", [
        ("fit", "train.log_every=0"),
        ("fit", "train.batch_size=-1"),
        ("fit", "train.latent_dim=0"),
        ("fit", "train.lr=-1"),
        ("fit", "train.hidden=0"),
        ("fit", "train.alpha=nan"),
        ("fit", "train.lr=inf"),
        ("fit", "train.pretrain_lr=inf"),
        ("plugin", "plugin.neighbors=0"),
        ("plugin", "plugin.runs=0"),
        ("plugin", "plugin.ratio=1.5"),
        ("fit", "train.seed=-1"),
        ("sweep", "sweep.workers=0"),
        ("sweep", "sweep.workers=-2"),
    ])
    def test_out_of_range_setting_rejected_before_training(
        self, workspace, tmp_path, monkeypatch, command, setting
    ):
        root, cfg = workspace

        def no_training(*args, **kw):
            raise AssertionError("training started")

        monkeypatch.setattr(imvc.cli, "build_scored", no_training)
        monkeypatch.setattr(imvc.cli, "fit", no_training)
        rc = main([command, "--config", str(cfg), "--out-dir", str(tmp_path),
                   "--set", setting])
        assert rc == 1

    def test_removed_checkpoint_key_rejected(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        rc = main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path),
                   "--set", "train.checkpoint_every=1"])
        assert rc == 1
        assert "unknown config key train.checkpoint_every" in capsys.readouterr().err

    def test_zero_clusters_exits_1_before_training(self, workspace, tmp_path,
                                                   monkeypatch, capsys):
        root, cfg = workspace

        def no_training(*args, **kw):
            raise AssertionError("training started")

        monkeypatch.setattr(imvc.cli, "build_scored", no_training)
        monkeypatch.setattr(imvc.cli, "fit", no_training)
        rc = main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path),
                   "--set", "data.labels=", "--clusters", "0"])
        assert rc == 1
        assert "cluster count must be at least 1, got 0" in capsys.readouterr().err

    def test_more_clusters_than_samples_exits_1_before_training(self, tmp_path,
                                                                monkeypatch, capsys):
        data = tmp_path / "d"
        assert main(["gen-data", "--out-dir", str(data), "--samples", "30",
                     "--clusters", "2", "--dims", "3,2", "--seed", "1"]) == 0
        calls = []
        pretrain = imvc.trainer.pretrain

        def counted(*args, **kw):
            calls.append(1)
            return pretrain(*args, **kw)

        monkeypatch.setattr(imvc.trainer, "pretrain", counted)
        rc = main(["fit", "--views", f"{data}/view0.csv,{data}/view1.csv",
                   "--clusters", "50", "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "cannot place 50 clusters on 30 samples" in capsys.readouterr().err
        assert calls == []

    def test_non_finite_observed_cell_exits_1(self, tmp_path, capsys):
        data = tmp_path / "d"
        assert main(["gen-data", "--out-dir", str(data), "--samples", "30",
                     "--clusters", "2", "--dims", "3,2", "--seed", "1"]) == 0
        X = np.loadtxt(data / "view1.csv", delimiter=",")
        X[4, 1] = np.nan
        np.savetxt(data / "view1.csv", X, delimiter=",")
        rc = main(["score", "--views", f"{data}/view0.csv,{data}/view1.csv",
                   "--clusters", "2", "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "view 1: observed cell (sample 4, column 1) is nan" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_unobserved_view_exits_1(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "d"
        assert main(["gen-data", "--out-dir", str(data), "--samples", "60",
                     "--clusters", "3", "--dims", "5,4,3", "--seed", "1"]) == 0
        mask = np.ones((60, 3), dtype=np.int64)
        mask[:, 2] = 0
        np.savetxt(data / "mask.csv", mask, delimiter=",", fmt="%d")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[data]\n"
            f"views = {data}/view0.csv, {data}/view1.csv, {data}/view2.csv\n"
            f"mask = {data}/mask.csv\nlabels = {data}/labels.csv\n"
        )

        def no_training(*args, **kw):
            raise AssertionError("training started")

        monkeypatch.setattr(imvc.cli, "build_scored", no_training)
        monkeypatch.setattr(imvc.cli, "fit", no_training)
        rc = main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "view 2 has no observed samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "fit"])
    @pytest.mark.parametrize("likelihoods", ["gaussian", "gaussian, gaussian, bernoulli"])
    def test_likelihood_count_mismatch_exits_1(
        self, workspace, tmp_path, monkeypatch, capsys, command, likelihoods
    ):
        root, cfg = workspace

        def no_training(*args, **kw):
            raise AssertionError("training started")

        monkeypatch.setattr(imvc.trainer, "pretrain", no_training)
        rc = main([command, "--config", str(cfg), "--out-dir", str(tmp_path),
                   "--set", f"train.likelihoods={likelihoods}"])
        assert rc == 1
        assert "likelihoods given for 2 views" in capsys.readouterr().err

    def test_diverging_fit_exits_2(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        with np.errstate(all="ignore"):
            rc = main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path),
                       "--set", "train.lr=1e300"])
        assert rc == 2
        assert "TrainingDiverged" in capsys.readouterr().err

    def test_failed_gen_mask_keeps_previous_file(self, tmp_path, request, capsys):
        out = tmp_path / "mask.csv"
        args = ["gen-mask", "--out", str(out), "--samples", "30",
                "--probs", "0.4,0.2", "--rate", "0.3"]
        assert main([*args, "--seed", "1"]) == 0
        before = out.read_text()
        request.getfixturevalue("failing_savetxt")
        assert main([*args, "--seed", "2"]) == 2
        assert "disk full" in capsys.readouterr().err
        assert out.read_text() == before
        assert os.listdir(tmp_path) == ["mask.csv"]

    def test_bad_subcommand_usage(self, capsys):
        assert main(["gen-mask", "--out", "x.csv"]) == 1
        capsys.readouterr()

    def test_console_entry_point(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "imvc.cli", "--help"],
            capture_output=True, text=True, env=src_env,
        )
        assert proc.returncode == 0
        for name in ("score", "fit", "sweep", "plugin", "gen-data", "gen-mask"):
            assert name in proc.stdout

    @pytest.mark.parametrize("args,code", [(["--help"], 0), (["--no-such-flag"], 1),
                                           (["fit", "--no-such-flag"], 1)],
                             ids=["help", "bad-flag", "bad-subcommand-flag"])
    def test_python_m_imvc(self, src_env, args, code):
        # the package itself runs the command line, with no install
        proc = subprocess.run([sys.executable, "-m", "imvc", *args],
                              capture_output=True, text=True, env=src_env)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.startswith("usage: imvc") if code == 0 else "error:" in proc.stderr


def test_import_loads_no_scipy(src_env):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, imvc, imvc.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSvgHelpers:
    def test_line_chart_label_format(self):
        out = line_chart([0.0, 0.5, 1.0], {"a": [0.1, 0.23456, 0.9]})
        assert "0.235" in out and out.startswith("<svg")
        assert "</svg>" in out

    def test_bar_chart_escaping(self):
        out = grouped_bar_chart(["x<1"], {"s&t": [0.5]}, title="a<b")
        assert "x&lt;1" in out and "s&amp;t" in out and "a&lt;b" in out

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            line_chart([], {})
        with pytest.raises(ValueError):
            grouped_bar_chart([], {})
