"""Experiment front-end.

Subcommands: score, fit, sweep, plugin, gen-data, gen-mask. Settings come
from an INI config file plus flag overrides (flags win); every output file
embeds the resolved configuration and its hash, and sweep cells already
present in the output CSV are skipped, so interrupted sweeps resume
idempotently. Exit codes: 0 success, 1 validation error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext

import numpy as np

from . import scoring, svg
from .data import (
    MissingSpec,
    MultiViewDataset,
    atomic_open,
    generate_mask,
    load_dataset,
    make_synthetic,
    normalize,
    save_csv,
    save_dataset,
)
from .metrics import plugin_impute
from .trainer import TrainConfig, build_scored, fit, label_metrics


DEFAULTS = {
    "data": {"views": "", "mask": "", "labels": "", "clusters": ""},
    "train": {
        "pretrain_epochs": "200",
        "epochs": "300",
        "batch_size": "0",
        "pretrain_lr": "1e-3",
        "lr": "1e-3",
        "alpha": "5.0",
        "selection_ratio": "0.5",
        "neighbors": "10",
        "latent_dim": "10",
        "hidden": "256, 64",
        "likelihoods": "",
        "seed": "0",
        "log_every": "10",
    },
    "sweep": {
        "rates": "",
        "ratios": "",
        "alphas": "",
        "runs": "1",
        "mask_probs": "",
        "mask_seed": "7",
        "workers": "1",
    },
    "plugin": {"ratio": "0.3", "neighbors": "10", "runs": "1"},
    "output": {"dir": "runs"},
}


class CliError(ValueError):
    """Configuration or input problem; maps to exit code 1."""


def read_config(path, overrides):
    """INI file -> nested dict of strings, with section.key overrides."""
    cfg = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
    if path:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        read = parser.read(path)
        if not read:
            raise CliError(f"config file not found: {path}")
        for sec in parser.sections():
            if sec not in cfg:
                raise CliError(f"unknown config section [{sec}]")
            for key, val in parser.items(sec):
                if key not in cfg[sec]:
                    raise CliError(f"unknown config key {sec}.{key}")
                cfg[sec][key] = val.strip()
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise CliError(f"override must look like section.key=value: {item!r}")
        target, val = item.split("=", 1)
        sec, key = target.split(".", 1)
        if sec not in cfg or key not in cfg[sec]:
            raise CliError(f"unknown config key {sec}.{key}")
        cfg[sec][key] = val.strip()
    return cfg


# keys that change how or where a run executes, not what it computes
EXECUTION_KEYS = (("sweep", "workers"), ("output", "dir"))


def config_hash(cfg):
    """Hash of the settings that affect results (execution-only keys left out)."""
    kept = {
        sec: {k: v for k, v in vals.items() if (sec, k) not in EXECUTION_KEYS}
        for sec, vals in cfg.items()
    }
    return hashlib.sha256(
        json.dumps(kept, sort_keys=True).encode()
    ).hexdigest()[:12]


def _floats(text):
    return [float(x) for x in text.replace(",", " ").split()]


def _ints(text):
    return [int(x) for x in text.replace(",", " ").split()]


def _strings(text):
    return [x for x in text.replace(",", " ").split()]


def train_config(cfg, **kw):
    t = cfg["train"]
    base = dict(
        pretrain_epochs=int(t["pretrain_epochs"]),
        train_epochs=int(t["epochs"]),
        batch_size=int(t["batch_size"]),
        pretrain_lr=float(t["pretrain_lr"]),
        train_lr=float(t["lr"]),
        alpha=float(t["alpha"]),
        selection_ratio=float(t["selection_ratio"]),
        n_neighbors=int(t["neighbors"]),
        d_z=int(t["latent_dim"]),
        hidden=tuple(_ints(t["hidden"])),
        likelihoods=_strings(t["likelihoods"]) or None,
        seed=int(t["seed"]),
        log_every=int(t["log_every"]),
    )
    base.update(kw)
    try:
        return TrainConfig(**base)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def load_from_config(cfg):
    d = cfg["data"]
    views = _strings(d["views"])
    if not views:
        raise CliError("no view files configured ([data] views or --views)")
    ds = load_dataset(
        views,
        mask_path=d["mask"] or None,
        labels_path=d["labels"] or None,
        K=int(d["clusters"]) if d["clusters"] else None,
    )
    return normalize(ds)


def _write_csv(path, cfg, fieldnames, rows):
    """Write the CSV atomically (``data.atomic_open``)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with atomic_open(path, newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n"
                 f"# config={json.dumps(cfg, sort_keys=True)}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _read_csv(path):
    """Returns (hash or None, rows) from a previously written CSV."""
    if not os.path.exists(path):
        return None, []
    found = None
    with open(path) as fh:
        body = []
        for line in fh:
            if line.startswith("# config_hash="):
                found = line.strip().split("=", 1)[1]
            elif not line.startswith("#"):
                body.append(line)
        rows = list(csv.DictReader(body))
    return found, rows


# ---------------------------------------------------------------- score


def cmd_score(cfg):
    ds = load_from_config(cfg)
    tc = train_config(cfg)
    K = ds.K if ds.K is not None else 2
    _, table, _ = build_scored(ds, tc, K)
    table = scoring.select_positions(table, tc.selection_ratio)
    out = os.path.join(cfg["output"]["dir"], "scores.csv")
    rows = [
        {
            "sample_index": int(i),
            "view_index": int(v),
            "info_score": f"{s:.12g}",
            "selected": int(sel),
        }
        for (i, v), s, sel in zip(
            table.positions.tolist(), table.scores, table.selected
        )
    ]
    _write_csv(out, cfg, ["sample_index", "view_index", "info_score", "selected"], rows)
    print(f"wrote {out} ({len(rows)} missing positions, {table.n_selected} selected)")
    return 0


# ---------------------------------------------------------------- fit


def _result_payload(cfg, res, labels):
    payload = {
        "config": cfg,
        "config_hash": config_hash(cfg),
        "seed": int(cfg["train"]["seed"]),
        "epochs": [
            {k: (float(v) if isinstance(v, float) else v) for k, v in h.items()}
            for h in res.history
        ],
        "n_missing": int(res.table.n_missing) if res.table is not None else 0,
        "n_selected": int(res.table.n_selected) if res.table is not None else 0,
        "assignments": res.assignments.tolist(),
    }
    if labels is not None:
        payload["metrics"] = label_metrics(res.assignments, labels)
    return payload


def cmd_fit(cfg):
    ds = load_from_config(cfg)
    tc = train_config(cfg)
    out_dir = cfg["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)
    res = fit(ds, tc)
    result_path = os.path.join(out_dir, "result.json")
    payload = _result_payload(cfg, res, ds.labels)
    with atomic_open(result_path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    msg = f"wrote {result_path}"
    if "metrics" in payload:
        msg += " (" + ", ".join(f"{m}={x:.3f}" for m, x in payload["metrics"].items()) + ")"
    print(msg)
    return 0


# ---------------------------------------------------------------- sweep


def _metric_cells(assignments, labels):
    return {m: f"{x:.6f}" for m, x in label_metrics(assignments, labels).items()}


def _sweep_cell(args):
    """One (eta, rho, alpha, seed) training run; top-level for pickling."""
    views, mask, labels, K, tc, eta = args
    ds = MultiViewDataset(
        views=[v.copy() for v in views], mask=mask, labels=labels, K=K
    )
    res = fit(ds, tc)
    return {
        "kind": "run",
        "eta": f"{eta:g}",
        "rho": f"{tc.selection_ratio:g}",
        "alpha": f"{tc.alpha:g}",
        "seed": str(tc.seed),
        **_metric_cells(res.assignments, labels),
    }


SWEEP_FIELDS = ["kind", "eta", "rho", "alpha", "seed", "acc", "nmi", "ari"]


def _write_sweep(out, cfg, rows):
    """Sort the run rows in place, write them with per-cell mean/std rows,
    and return those aggregate rows."""
    rows.sort(key=lambda r: (float(r["eta"]), float(r["rho"]), float(r["alpha"]), int(r["seed"])))
    aggregates = []
    cells = {}
    for r in rows:
        cells.setdefault((r["eta"], r["rho"], r["alpha"]), []).append(r)
    for (eta, rho, alpha), cell in sorted(
        cells.items(), key=lambda kv: tuple(map(float, kv[0]))
    ):
        for kind, fn in (("mean", np.mean), ("std", np.std)):
            aggregates.append(
                {
                    "kind": kind,
                    "eta": eta,
                    "rho": rho,
                    "alpha": alpha,
                    "seed": "",
                    **{
                        m: f"{fn([float(r[m]) for r in cell]):.6f}"
                        for m in ("acc", "nmi", "ari")
                    },
                }
            )
    _write_csv(out, cfg, SWEEP_FIELDS, rows + aggregates)
    return aggregates


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _sweep_pool(workers):
    """A pool of fresh (spawned) worker processes with BLAS at one thread.

    numpy reads the thread-count variables once, when it is imported, so
    they are set in this process's environment for as long as the pool may
    start workers (it starts them on demand) and restored afterwards.
    """
    saved = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            yield pool
    finally:
        for k, value in saved.items():
            if value is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = value


def cmd_sweep(cfg):
    sw = cfg["sweep"]
    rates = _floats(sw["rates"])
    ratios = _floats(sw["ratios"])
    alphas = _floats(sw["alphas"]) or [float(cfg["train"]["alpha"])]
    runs = int(sw["runs"])
    workers = int(sw["workers"])
    if not rates or not ratios or runs < 1 or workers < 1:
        raise CliError("sweep needs non-empty rates, ratios, runs >= 1 and workers >= 1")
    ds = load_from_config(cfg)
    if ds.labels is None:
        raise CliError("sweep needs labels to report metrics")
    probs = _floats(sw["mask_probs"]) or [0.5] * ds.n_views
    if len(probs) != ds.n_views:
        raise CliError(f"mask_probs needs {ds.n_views} entries")
    mask_seed = int(sw["mask_seed"])

    out = os.path.join(cfg["output"]["dir"], "sweep.csv")
    want_hash = config_hash(cfg)
    have_hash, existing = _read_csv(out)
    if existing and have_hash != want_hash:
        raise CliError(
            f"{out} was produced by config {have_hash}, current is {want_hash}; "
            "move it away or use a fresh output dir"
        )
    done = {
        (r["eta"], r["rho"], r["alpha"], r["seed"])
        for r in existing
        if r["kind"] == "run"
    }
    rows = [r for r in existing if r["kind"] == "run"]

    tc_base = train_config(cfg)
    jobs = []
    for eta in rates:
        mask = generate_mask(
            ds.n_samples, ds.n_views,
            MissingSpec(np.array(probs), target_rate=eta, seed=mask_seed),
        )
        for rho in ratios:
            for alpha in alphas:
                for seed in range(runs):
                    key = (f"{eta:g}", f"{rho:g}", f"{alpha:g}", str(seed))
                    # done grows with every queued cell, so a grid value given twice runs once
                    if key in done:
                        continue
                    done.add(key)
                    tc = dataclasses.replace(
                        tc_base, selection_ratio=rho, alpha=alpha, seed=seed
                    )
                    jobs.append((ds.views, mask, ds.labels, ds.K, tc, eta))
    # every finished cell is persisted at once, in job order, so an
    # interrupted sweep resumes from the last finished cell
    parallel = workers > 1
    with _sweep_pool(workers) if parallel else nullcontext() as pool:
        for row in (pool.map if parallel else map)(_sweep_cell, jobs):
            rows.append(row)
            _write_sweep(out, cfg, rows)
    aggregates = _write_sweep(out, cfg, rows)

    means = {
        (r["eta"], r["rho"], r["alpha"]): float(r["acc"])
        for r in aggregates
        if r["kind"] == "mean"
    }
    alpha0 = f"{alphas[0]:g}"
    bar = svg.grouped_bar_chart(
        [f"{e:g}" for e in rates],
        {
            f"ratio {r:g}": [means.get((f"{e:g}", f"{r:g}", alpha0)) for e in rates]
            for r in ratios
        },
        title="Accuracy vs missing rate",
        x_label="missing rate",
        y_label="ACC",
        meta=f"config_hash={want_hash}",
    )
    line = svg.line_chart(
        ratios,
        {
            f"rate {e:g}": [means.get((f"{e:g}", f"{r:g}", alpha0)) for r in ratios]
            for e in rates
        },
        title="Accuracy vs selection ratio",
        x_label="selection ratio",
        y_label="ACC",
        meta=f"config_hash={want_hash}",
    )
    bar_path = os.path.join(cfg["output"]["dir"], "acc_vs_rate.svg")
    line_path = os.path.join(cfg["output"]["dir"], "acc_vs_ratio.svg")
    with atomic_open(bar_path) as fh:
        fh.write(bar)
    with atomic_open(line_path) as fh:
        fh.write(line)
    print(f"wrote {out} ({len(rows)} runs), {bar_path}, {line_path}")
    return 0


# ---------------------------------------------------------------- plugin


PLUGIN_FIELDS = ["variant", "ratio", "seed", "acc", "nmi", "ari"]


def cmd_plugin(cfg):
    ratio = float(cfg["plugin"]["ratio"])
    k = int(cfg["plugin"]["neighbors"])
    runs = int(cfg["plugin"]["runs"])
    if k < 1 or runs < 1 or not 0.0 <= ratio <= 1.0:
        raise CliError("plugin needs neighbors >= 1, runs >= 1 and ratio in [0, 1]")
    ds = load_from_config(cfg)
    if ds.labels is None:
        raise CliError("plugin study needs labels to report metrics")
    tc = train_config(cfg)

    _, table, _ = build_scored(ds, tc, ds.K)

    rows = []
    for variant, r in (("no-impute", 0.0), (f"impute-selected@{ratio:g}", ratio),
                       ("impute-all", 1.0)):
        filled, _ = plugin_impute(ds, scoring.select_positions(table, r), k=k)
        for seed in range(runs):
            res = fit(
                filled,
                train_config(cfg, seed=seed, selection_ratio=0.0),
                selective_imputation=False,
            )
            rows.append({"variant": variant, "ratio": f"{r:g}", "seed": str(seed),
                         **_metric_cells(res.assignments, ds.labels)})
    for variant in dict.fromkeys(r["variant"] for r in rows):
        cell = [r for r in rows if r["variant"] == variant]
        rows_mean = {
            m: f"{np.mean([float(r[m]) for r in cell]):.6f}"
            for m in ("acc", "nmi", "ari")
        }
        rows.append(
            {"variant": f"{variant}:mean", "ratio": cell[0]["ratio"], "seed": "",
             **rows_mean}
        )
    out = os.path.join(cfg["output"]["dir"], "plugin.csv")
    _write_csv(out, cfg, PLUGIN_FIELDS, rows)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------- data gen


def cmd_gen_data(args):
    ds = make_synthetic(
        n_samples=args.samples,
        n_clusters=args.clusters,
        view_dims=tuple(_ints(args.dims)),
        latent_dim=args.latent_dim,
        separation=args.separation,
        view_noise=tuple(_floats(args.noise)),
        seed=args.seed,
    )
    paths = save_dataset(ds, args.out_dir)
    print("wrote " + ", ".join(sorted(paths.values())))
    return 0


def cmd_gen_mask(args):
    spec = MissingSpec(
        per_view_missing_prob=np.array(_floats(args.probs)),
        target_rate=args.rate,
        seed=args.seed,
    )
    mask = generate_mask(args.samples, len(spec.per_view_missing_prob), spec)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    save_csv(args.out, mask, "%d")
    print(f"wrote {args.out} (realized missing rate {1 - mask.mean():.4f})")
    return 0


# ---------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; bad usage is a validation error here
        self.print_usage(sys.stderr)
        raise CliError(message)


def build_parser():
    p = _Parser(prog="imvc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override a config entry (repeatable; wins over the file)")
        sp.add_argument("--views", help="comma-separated view CSVs")
        sp.add_argument("--mask", help="mask CSV")
        sp.add_argument("--labels", help="labels CSV")
        sp.add_argument("--clusters", type=int, help="number of clusters")
        sp.add_argument("--out-dir", help="output directory")
        sp.add_argument("--seed", type=int, help="training seed")

    for name, help_text in (
        ("score", "score every missing position and write scores.csv"),
        ("fit", "train on one dataset and write result.json"),
        ("sweep", "grid over missing rates / selection ratios / alphas"),
        ("plugin", "raw-space neighbor-mean imputation study"),
    ):
        common(sub.add_parser(name, help=help_text))

    g = sub.add_parser("gen-data", help="generate the synthetic benchmark CSVs")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--samples", type=int, default=600)
    g.add_argument("--clusters", type=int, default=4)
    g.add_argument("--dims", default="12,10,8")
    g.add_argument("--latent-dim", type=int, default=4)
    g.add_argument("--separation", type=float, default=4.0)
    g.add_argument("--noise", default="0.3,0.5,1.8")
    g.add_argument("--seed", type=int, default=0)

    m = sub.add_parser("gen-mask", help="generate an observation mask CSV")
    m.add_argument("--out", required=True)
    m.add_argument("--samples", type=int, required=True)
    m.add_argument("--probs", required=True, help="per-view missing probabilities")
    m.add_argument("--rate", type=float, required=True)
    m.add_argument("--seed", type=int, default=0)
    return p


def _apply_flags(cfg, args):
    if getattr(args, "views", None):
        cfg["data"]["views"] = args.views
    if getattr(args, "mask", None):
        cfg["data"]["mask"] = args.mask
    if getattr(args, "labels", None):
        cfg["data"]["labels"] = args.labels
    if getattr(args, "clusters", None) is not None:
        cfg["data"]["clusters"] = str(args.clusters)
    if getattr(args, "out_dir", None):
        cfg["output"]["dir"] = args.out_dir
    if getattr(args, "seed", None) is not None:
        cfg["train"]["seed"] = str(args.seed)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen-data":
            return cmd_gen_data(args)
        if args.command == "gen-mask":
            return cmd_gen_mask(args)
        cfg = read_config(args.config, args.set)
        _apply_flags(cfg, args)
        handler = {
            "score": cmd_score,
            "fit": cmd_fit,
            "sweep": cmd_sweep,
            "plugin": cmd_plugin,
        }[args.command]
        return handler(cfg)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
