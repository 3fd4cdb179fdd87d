"""Score every missing position before imputing anything.

A missing position is worth imputing only if enough observed evidence
backs it: close neighbors that observe the target view, and observed
views that correlate with it. The score is training-free (it only needs
the pretrained latents for the view-correlation estimate), computed once,
and a top-fraction threshold picks the positions to impute.
"""

import numpy as np

from imvc import (
    MissingSpec,
    MultiViewDataset,
    generate_mask,
    info_scores,
    make_synthetic,
    normalize,
    select_positions,
    view_correlation,
)
from imvc.trainer import TrainConfig, build_pretrained

ds = make_synthetic(seed=0)
mask = generate_mask(600, 3, MissingSpec(np.array([0.8, 0.5, 0.2]), 0.5, seed=7))
ds = normalize(MultiViewDataset(views=ds.views, mask=mask, labels=ds.labels, K=4))

# a short reconstruction-only pretrain gives the latents for the
# view-correlation (CCA) estimate
cfg = TrainConfig(pretrain_epochs=150, train_epochs=1, d_z=8, hidden=(64, 32), seed=0)
_, latents, _ = build_pretrained(ds, cfg, ds.K)

corr = view_correlation(latents, ds)
print("view correlation matrix (first canonical correlations):")
print(corr.round(3))

table = info_scores(ds, corr=corr)
print(f"\n{table.n_missing} missing positions scored")
for v in range(3):
    sel = table.positions[:, 1] == v
    s = table.scores[sel]
    print(f"  view {v}: {sel.sum():4d} positions, "
          f"score median {np.median(s):8.1f}, min {s.min():7.1f}, max {s.max():7.1f}")
print("(the heavily missing view has smaller support sets, hence lower scores)")

table = select_positions(table, 0.5)
print(f"\nselection at ratio 0.5: {table.n_selected} positions, "
      f"lowest selected score {table.scores[table.selected].min():.2f}")
by_view = np.bincount(table.positions[table.selected][:, 1], minlength=3)
print(f"selected per view: {by_view}")
