"""Product-of-experts fusion and distribution-level imputation mechanics.

Per-view encoders emit diagonal Gaussian posteriors; fusing multiplies
the densities (precisions add, means are precision-weighted). A missing
view's posterior can be estimated from latent-space neighbors, and the
spread of the neighbors' means is added to its variance, so dubious
imputations arrive with honest uncertainty and get down-weighted by the
same fusion rule.
"""

import numpy as np

from imvc import (
    GaussianPosterior,
    InfoTable,
    MultiViewDataset,
    aggregate_observed,
    fuse,
    impute_all,
    w2_distance,
)

# --- fusion: agreement sharpens, disagreement stays honest -------------
a = GaussianPosterior(mu=np.array([0.0, 0.0]), var=np.array([1.0, 1.0]))
b = GaussianPosterior(mu=np.array([1.0, 0.0]), var=np.array([1.0, 4.0]))
# fuse takes each expert as (rows, mu, prec) on the rows of a batch that
# observe it, and starts from summed imputed experts (none here)
zero = np.zeros((1, 2))
mu, var = fuse([([0], a.mu, 1 / a.var), ([0], b.mu, 1 / b.var)], (zero, zero))
mu, var = mu[0], var[0]
print("expert A: mu", a.mu, "var", a.var)
print("expert B: mu", b.mu, "var", b.var)
print("fused   : mu", mu.round(3), "var", var.round(3))
print("precision additivity:", np.allclose(1 / var, 1 / a.var + 1 / b.var))

# --- 2-Wasserstein distance between posteriors -------------------------
print("\nW2(A, B) =", round(float(w2_distance(a, b)), 4))
print("W2 sees variance differences even at equal means:",
      round(float(w2_distance(a, GaussianPosterior(a.mu, 4 * a.var))), 4))

# --- imputing a missing view from latent neighbors ---------------------
# sample 0 misses view 1; samples 1..4 observe both views and are the
# donors. Neighbors are ranked by W2 between the fused posteriors of the
# observed views.
mask = np.array([[1, 0], [1, 1], [1, 1], [1, 1], [1, 1]])
ds = MultiViewDataset(views=[np.zeros((5, 1)), np.zeros((5, 1))], mask=mask)
posts = [
    GaussianPosterior(mu=np.array([[0.0], [0.2], [-0.1], [3.0], [3.2]]),
                      var=np.full((5, 1), 0.25)),
    # row 0 is a placeholder: sample 0 does not observe view 1
    GaussianPosterior(mu=np.array([[0.0], [1.0], [1.2], [9.0], [9.5]]),
                      var=np.full((5, 1), 0.3)),
]
table = InfoTable(positions=np.array([[0, 1]]), scores=np.zeros(1),
                  selected=np.array([True]))
observed_only = aggregate_observed(posts, mask)
print(f"\nsample 0 from its observed view: mu={observed_only.mu[0].round(3)} "
      f"var={observed_only.var[0].round(3)}")
for k in (2, 4):
    imputed = impute_all(ds, table, posts, k=k)  # summed (precision, precision*mean)
    prec, num = imputed[0][0], imputed[1][0]
    fused = aggregate_observed(posts, mask, imputed)
    print(f"k={k}: imputed view-1 posterior for sample 0: "
          f"mu={(num / prec).round(3)} var={(1 / prec).round(3)}; "
          f"fused with it: mu={fused.mu[0].round(3)} var={fused.var[0].round(3)}")
print("with k=4 the far neighbors disagree, so the epistemic term inflates "
      "the variance and fusion trusts this expert less")
