"""Randomized low-rank approximation driven by structured projections.

The range-finder recipe: sketch ``Z = X @ Omega`` (here, apply the projection
map to each row of ``X``), orthonormalize ``Q = qr(Z)``, and return the
projected approximation ``Q Q^T X``.  Averaging the approximations of the T
replicates of a :class:`~tensorproj.maps.TrpEnsemble` trades a factor T of
work for a variance reduction that matches the ensemble's own.

Synthetic targets come from a random Tucker model: an order-N core with
uniform entries, orthonormal arm matrices, and white noise calibrated to 1%
of the signal energy per entry.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .distributions import SeedSpec
from .linalg import qr_factor
from .maps import TrpEnsemble
from .stats import Projection

NOISE_ENERGY_FRACTION = 0.01


class RankDeficiencyWarning(UserWarning):
    """The sketch had fewer independent directions than requested."""


def low_rank_approx(x: np.ndarray, omega: Projection) -> np.ndarray:
    """Rank-<=k approximation Q Q^T X from one sketch Z = omega(rows of X).

    A rank-deficient sketch is not an error: the computation proceeds with
    the directions that exist and a :class:`RankDeficiencyWarning` reports
    the effective rank.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("low_rank_approx expects a matrix")
    z = np.asarray(omega(x), dtype=float)
    if z.shape[0] != x.shape[0]:
        raise ValueError("sketch must keep one row per input row")
    if z.shape[1] > x.shape[0]:
        raise ValueError(
            f"sketch size {z.shape[1]} exceeds row count {x.shape[0]}"
        )
    q, _, rank = qr_factor(z)
    if rank < z.shape[1]:
        warnings.warn(
            f"sketch has effective rank {rank} < {z.shape[1]}",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return q @ (q.T @ x)


def averaged_low_rank_approx(x: np.ndarray, ensemble: TrpEnsemble) -> np.ndarray:
    """Mean of the sketched approximations of the ensemble's T replicates.

    A plain 1/T average of :func:`low_rank_approx` with each replicate;
    ``build_ensemble`` draws replicate t from the seed's child stream t, so
    all factor matrices across replicates are independent.
    """
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for omega in ensemble.replicates:
        acc += low_rank_approx(x, omega)
    return acc / ensemble.T


def multi_mode_product(core: np.ndarray, arms: Sequence[np.ndarray]) -> np.ndarray:
    """Multiply ``core`` by one matrix per mode (mode-n products)."""
    if core.ndim != len(arms):
        raise ValueError(f"core has {core.ndim} modes but {len(arms)} arms given")
    out = np.asarray(core, dtype=float)
    for axis, arm in enumerate(arms):
        out = np.moveaxis(np.tensordot(arm, out, axes=(1, axis)), 0, axis)
    return out


def tucker_synthetic(
    side: int,
    order: int,
    core_rank: int,
    seed: SeedSpec,
    noise_fraction: float = NOISE_ENERGY_FRACTION,
) -> np.ndarray:
    """Noisy random Tucker tensor of shape ``(side,) * order``.

    Core entries are Uniform[0, 1), arms are orthonormal ``side x core_rank``
    bases of Gaussian draws, and i.i.d. Gaussian noise is added with scale
    ``sqrt(noise_fraction * ||signal||_F^2 / side**order)`` so the noise
    carries about ``noise_fraction`` of the signal energy (1% by default).
    ``noise_fraction=0`` gives the exact low-rank signal; the core and arms
    only consume their own child streams, so the noiseless tensor is the
    same one the noisy draw perturbs.
    """
    if side < 1:
        raise ValueError(f"side must be positive, got {side}")
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if not 1 <= core_rank <= side:
        raise ValueError(
            f"core rank must lie in 1..{side} (the side length), got {core_rank}"
        )
    if noise_fraction < 0.0:
        raise ValueError(f"noise fraction must be non-negative, got {noise_fraction}")
    core = seed.child(0).generator().random((core_rank,) * order)
    arms = []
    for n in range(order):
        g = seed.child(1 + n).generator().standard_normal((side, core_rank))
        arms.append(qr_factor(g).q)
    signal = multi_mode_product(core, arms)
    scale = math.sqrt(
        noise_fraction * float(np.sum(signal**2)) / side**order
    )
    if scale == 0.0:
        return signal
    noise = seed.child(1 + order).generator().standard_normal(signal.shape)
    return signal + scale * noise


def relative_error(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Frobenius-norm relative error ||X - Xhat||_F / ||X||_F."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    denom = float(np.linalg.norm(x))
    if denom == 0.0:
        raise ValueError("relative error undefined for a zero reference")
    return float(np.linalg.norm(x - x_hat)) / denom
