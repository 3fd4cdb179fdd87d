"""How much should be imputed? Sweep the selection ratio.

Under heavy unbalanced missingness, imputing nothing wastes recoverable
structure while imputing everything injects noise from poorly supported
positions; a moderate ratio sits in between. Three seeds and short
training keep this demo quick; the acceptance suite runs the full
ten-seed protocol, and `imvc sweep --config data/toy/toy.ini` writes the
CSV + SVG version.

Usage: python demos/05_selection_ratio_sweep.py [OUT_SVG]
The chart goes to OUT_SVG, by default ratio_sweep.svg in the system's
temporary directory.
"""

import os
import sys
import tempfile

import numpy as np

from imvc import TrainConfig, accuracy, fit, load_dataset, normalize
from imvc.svg import line_chart

TOY = os.path.join(os.path.dirname(__file__), "..", "data", "toy")

ds = normalize(load_dataset(
    [os.path.join(TOY, f"view{v}.csv") for v in range(3)],
    mask_path=os.path.join(TOY, "mask_eta05.csv"),
    labels_path=os.path.join(TOY, "labels.csv"),
    K=4,
))

ratios = [0.0, 0.25, 0.5, 0.75, 1.0]
seeds = [0, 1, 2]
medians = []
print("ratio  median-ACC  per-seed")
for rho in ratios:
    accs = []
    for seed in seeds:
        cfg = TrainConfig(
            pretrain_epochs=150, train_epochs=100, d_z=8, hidden=(64, 32),
            alpha=5.0, selection_ratio=rho, n_neighbors=10, seed=seed,
            log_every=1000,
        )
        accs.append(accuracy(fit(ds, cfg).assignments, ds.labels))
    medians.append(float(np.median(accs)))
    print(f"{rho:5.2f}  {medians[-1]:10.3f}  {np.round(accs, 3)}")

out = sys.argv[1] if len(sys.argv) > 1 else os.path.join(tempfile.gettempdir(),
                                                          "ratio_sweep.svg")
with open(out, "w") as fh:
    fh.write(line_chart(ratios, {"median ACC": medians},
                        title="Accuracy vs selection ratio",
                        x_label="selection ratio", y_label="ACC"))
print(f"\nwrote {out}")
