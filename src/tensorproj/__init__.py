"""Khatri-Rao structured random projections and sketching benchmarks."""

from .distributions import (
    EntryDistribution,
    SeedSpec,
    per_factor,
    very_sparse_family,
)
from .linalg import QrFactor, khatri_rao, qr_factor
from .maps import (
    ConventionalRp,
    TensorRandomProjection,
    TrpEnsemble,
    build_conventional,
    build_ensemble,
    build_map,
    build_trp,
)
from .stats import (
    CosineRmse,
    DistortionReport,
    IsometryStats,
    cosine_similarity_rmse,
    exact_variance,
    isometry_stats,
    pair_distances,
    pairwise_distance_ratio,
    polarization_check,
    squared_norm_samples,
    theoretical_variance,
)
from .sketch import (
    LowRank,
    RankDeficiencyWarning,
    averaged_low_rank_approx,
    low_rank_approx,
    multi_mode_product,
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
    "IsometryStats",
    "LowRank",
    "QrFactor",
    "RankDeficiencyWarning",
    "SeedSpec",
    "TensorRandomProjection",
    "TrpEnsemble",
    "averaged_low_rank_approx",
    "build_conventional",
    "build_ensemble",
    "build_map",
    "build_trp",
    "cosine_similarity_rmse",
    "exact_variance",
    "gen_synthetic",
    "isometry_stats",
    "khatri_rao",
    "load_mnist",
    "low_rank_approx",
    "multi_mode_product",
    "pair_distances",
    "pairwise_distance_ratio",
    "per_factor",
    "polarization_check",
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
