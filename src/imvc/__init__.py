"""Incomplete multi-view clustering with informativeness-gated selective
imputation.

The package fuses per-view Gaussian posteriors with a product of experts,
scores every missing position for how much observed evidence supports
imputing it, imputes only the well-supported ones at the distribution
level, and clusters with a Gaussian-mixture latent prior.
"""

from .data import (
    MissingSpec,
    MultiViewDataset,
    generate_mask,
    load_dataset,
    make_synthetic,
    normalize,
    save_dataset,
)
from .metrics import accuracy, ari, nmi, plugin_impute
from .model import (
    DmgmmModel,
    GaussianPosterior,
    MixturePrior,
    NonFiniteLossError,
    aggregate_observed,
    fuse,
    impute_all,
    loss_and_grads,
    responsibilities,
    w2_distance,
)
from .scoring import (
    InfoTable,
    info_scores,
    select_positions,
    view_correlation,
)
from .trainer import FitResult, TrainConfig, TrainingDiverged, fit, init_prior, pretrain

__version__ = "0.1.0"
