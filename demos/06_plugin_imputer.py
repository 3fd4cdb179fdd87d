"""Use the informativeness gate in front of a plain raw-space imputer.

The scores are model-agnostic: here they gate a simple cross-view
neighbor-mean imputer that fills raw feature cells, and the downstream
clustering runs imputation-free on the filled data. Filling only the
well-supported positions beats both extremes; because this imputer has no
uncertainty handling, the comfortable ratio is lower than for the
distribution-level path.
"""

import os

import numpy as np

from imvc import (
    TrainConfig,
    accuracy,
    fit,
    load_dataset,
    normalize,
    plugin_impute,
    select_positions,
)
from imvc.trainer import build_scored

TOY = os.path.join(os.path.dirname(__file__), "..", "data", "toy")

ds = normalize(load_dataset(
    [os.path.join(TOY, f"view{v}.csv") for v in range(3)],
    mask_path=os.path.join(TOY, "mask_eta05.csv"),
    labels_path=os.path.join(TOY, "labels.csv"),
    K=4,
))

cfg = TrainConfig(pretrain_epochs=150, train_epochs=100, d_z=8, hidden=(64, 32),
                  alpha=5.0, seed=0, log_every=1000)
_, table, _ = build_scored(ds, cfg, ds.K)

seeds = [0, 1, 2]
print("variant              filled  median-ACC  per-seed")
for name, ratio in (("no imputation", 0.0), ("selected @ 0.3", 0.3),
                    ("impute everything", 1.0)):
    filled, flags = plugin_impute(ds, select_positions(table, ratio), k=10)
    accs = []
    for seed in seeds:
        c = TrainConfig(pretrain_epochs=150, train_epochs=100, d_z=8,
                        hidden=(64, 32), alpha=5.0, selection_ratio=0.0,
                        seed=seed, log_every=1000)
        r = fit(filled, c, selective_imputation=False)
        accs.append(accuracy(r.assignments, ds.labels))
    print(f"{name:20s} {int(flags.sum()):6d}  {np.median(accs):10.3f}  {np.round(accs, 3)}")
