"""Khatri-Rao structured random projections and sketching benchmarks."""

from .distributions import EntryDistribution, SeedSpec, very_sparse_family
from .linalg import khatri_rao, qr_factor
from .maps import ConventionalRp, TensorRandomProjection, TrpEnsemble, build_map
from .stats import (
    CosineRmse,
    DistortionReport,
    cosine_similarity_rmse,
    exact_variance,
    pairwise_distance_ratio,
    squared_norm_samples,
    theoretical_variance,
)
from .sketch import (
    LowRank,
    RankDeficiencyWarning,
    low_rank_approx,
    relative_error,
    tucker_synthetic,
)
from .data import IdxFormatError, gen_synthetic, load_mnist
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    read_csv,
    run_experiment,
    write_csv,
)

__all__ = [
    "ConfigError",
    "ConventionalRp",
    "CosineRmse",
    "DistortionReport",
    "EntryDistribution",
    "ExperimentConfig",
    "ExperimentRecord",
    "IdxFormatError",
    "LowRank",
    "RankDeficiencyWarning",
    "SeedSpec",
    "TensorRandomProjection",
    "TrpEnsemble",
    "build_map",
    "cosine_similarity_rmse",
    "exact_variance",
    "gen_synthetic",
    "khatri_rao",
    "load_mnist",
    "low_rank_approx",
    "pairwise_distance_ratio",
    "qr_factor",
    "read_csv",
    "relative_error",
    "run_experiment",
    "squared_norm_samples",
    "theoretical_variance",
    "tucker_synthetic",
    "very_sparse_family",
    "write_csv",
]

__version__ = "0.1.0"
