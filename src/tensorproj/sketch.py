"""Randomized low-rank approximation driven by structured projections.

The range-finder recipe: sketch ``Z = X @ Omega`` (here, apply the projection
map to each row of ``X``), orthonormalize ``Q = qr(Z)``, and return the
projected approximation ``Q Q^T X`` in factored form, ``LowRank(Q, Q^T X)``;
``.dense()`` forms the m x n matrix when it is wanted.  :func:`low_rank_approx`
takes any map; for a :class:`~tensorproj.maps.TrpEnsemble` it averages the T
replicates' approximations, trading a factor T of work for the ensemble's
variance reduction.  The T sketches come from one kernel pass over X on the
replicates' factors side by side, one QR per k-column block; the mean stays
factored too, and its T bases are projected with one ``Q^T X`` over all Tk
columns.  So an ensemble sketch reads X twice, as one sketch does.
:func:`relative_error` scores a factored approximation from ``||X||^2``,
``Q^T X`` and the small Gram terms ``Q^T Q`` and ``B``, with no m x n
product.  Each sketch forms ``Q^T X`` once: an approximation returned by a
builder and scored against the same X object it was built from (which must
not be modified in place since) reuses the product its builder formed.  The
reuse is private to what the builders return; any other X, and any
``LowRank`` built by hand or with ``dataclasses.replace``, is scored with a
fresh ``Q^T X``.

Synthetic targets come from a random Tucker model: an order-N core with
uniform entries, orthonormal arm matrices, and white noise calibrated to 1%
of the signal energy per entry.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distributions import SeedSpec
from .linalg import _as_real, _check_finite, _check_real, _check_sizes, qr_factor
from .maps import TrpEnsemble, _replicate_images
from .stats import Projection, _project

NOISE_ENERGY_FRACTION = 0.01

# A factored squared error below this fraction of ||X||^2 (a relative error
# under 1%) has lost digits to cancellation; it is recomputed densely.
FACTORED_ERROR_FLOOR = 1e-4


class RankDeficiencyWarning(UserWarning):
    """The sketch had fewer independent directions than requested."""


@dataclass(frozen=True, eq=False)
class LowRank:
    """The m x n matrix ``q @ b``, kept as its m x r and r x n factors.

    A builder also attaches, privately, the X it projected (a reference,
    never a copy) and that X's ``Q^T X``, so that :func:`relative_error`
    handed that same X object forms no second ``Q^T X``.  A ``LowRank``
    built by hand or with ``dataclasses.replace`` has no such pair and is
    scored from its own factors.
    """

    q: np.ndarray
    b: np.ndarray
    _projected: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )

    def dense(self) -> np.ndarray:
        return self.q @ self.b


def _built(q: np.ndarray, b: np.ndarray, x: np.ndarray, qtx: np.ndarray) -> LowRank:
    """``LowRank(q, b)`` that remembers ``qtx`` as the ``Q^T X`` of this very ``x``."""
    approx = LowRank(q, b)
    object.__setattr__(approx, "_projected", (x, qtx))
    return approx


def _as_matrix(x: np.ndarray) -> np.ndarray:
    # asanyarray keeps a float matrix, subclasses included, as the same
    # object, which relative_error recognises as an approximation's source.
    x = _as_real(x, np.asanyarray)
    if x.ndim != 2:
        raise ValueError(f"X must be a matrix, got shape {x.shape}")
    return x


def _range_basis(z: np.ndarray, blocks: int, stacklevel: int) -> list[np.ndarray]:
    """Orthonormal bases of a sketch Z's ``blocks`` equal column blocks, one QR each.

    Each rank-deficient block warns, ``stacklevel`` frames up.
    """
    if z.shape[1] // blocks > z.shape[0]:
        raise ValueError(f"sketch size {z.shape[1] // blocks} exceeds row count {z.shape[0]}")
    bases = []
    for block in np.split(z, blocks, axis=1):
        q, _, rank = qr_factor(block)
        if rank < block.shape[1]:
            warnings.warn(
                f"sketch has effective rank {rank} < {block.shape[1]}",
                RankDeficiencyWarning,
                stacklevel=stacklevel,
            )
        bases.append(q)
    return bases


def low_rank_approx(x: np.ndarray, omega: Projection) -> LowRank:
    """Rank-<=k approximation ``LowRank(Q, Q^T X)`` from one sketch Z = omega(rows of X).

    A :class:`~tensorproj.maps.TrpEnsemble` gets the mean of its T replicates'
    approximations (:func:`averaged_low_rank_approx`); ``ensemble.apply``
    gets the one k-column sketch of the summed map.  A rank-deficient sketch
    is not an error: the computation proceeds with the directions that exist
    and a :class:`RankDeficiencyWarning` reports the effective rank.
    """
    if isinstance(omega, TrpEnsemble):
        return averaged_low_rank_approx(x, omega)
    x = _as_matrix(x)
    (q,) = _range_basis(_project(omega, x), 1, stacklevel=3)
    qtx = q.T @ x
    return _built(q, qtx, x, qtx)


def averaged_low_rank_approx(x: np.ndarray, ensemble: TrpEnsemble) -> LowRank:
    """:func:`low_rank_approx`'s ensemble step: the mean over the T replicates.

    A plain 1/T average of :func:`low_rank_approx` with each replicate, kept
    factored: the T bases side by side (m x Tk) times the T coefficient
    blocks stacked and divided by T.  All T sketches come from one kernel
    pass over X (``maps._replicate_images``); each k-column block gets its
    own QR (and its own :class:`RankDeficiencyWarning`), and the
    coefficients of all T come from one ``Q^T X`` over the Tk columns.
    ``build_map("trp_t", ...)`` draws replicate t from the seed's child
    stream t, so all factor matrices across replicates are independent.
    """
    x = _as_matrix(x)
    q = np.hstack(_range_basis(_replicate_images(ensemble, x), ensemble.T, stacklevel=4))
    qtx = q.T @ x
    return _built(q, qtx / ensemble.T, x, qtx)


def _multi_mode_product(core: np.ndarray, arms: Sequence[np.ndarray]) -> np.ndarray:
    """Multiply ``core`` by one matrix per mode (mode-n products)."""
    out = _as_real(core)
    arms = [_as_real(arm) for arm in arms]
    if out.ndim != len(arms):
        raise ValueError(f"core has {out.ndim} modes but {len(arms)} arms given")
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
    The core, the arms in mode order and then the noise draw from the
    seed's one stream.  ``noise_fraction=0`` gives the exact low-rank
    signal; the noise draws last, so the noiseless tensor is the same one
    the noisy draw perturbs.
    """
    _check_sizes(side=side, order=order)
    if isinstance(core_rank, (int, np.integer)) and not 1 <= core_rank <= side:
        raise ValueError(
            f"core rank must lie in 1..{side} (the side length), got {core_rank}"
        )
    _check_sizes(core_rank=core_rank)
    _check_real("noise fraction", noise_fraction)
    if not 0.0 <= noise_fraction < math.inf:
        raise ValueError(
            f"noise fraction must be finite and non-negative, got {noise_fraction}"
        )
    rng = seed.generator()
    core = rng.random((core_rank,) * order)
    arms = [qr_factor(rng.standard_normal((side, core_rank))).q for _ in range(order)]
    signal = _multi_mode_product(core, arms)
    scale = math.sqrt(
        noise_fraction * float(np.sum(signal**2)) / side**order
    )
    if scale == 0.0:
        return signal
    noise = rng.standard_normal(signal.shape)
    # In place, with no signal-sized temporaries; IEEE addition commutes, so
    # this is bitwise ``signal + scale * noise``.
    noise *= scale
    noise += signal
    return noise


def relative_error(x: np.ndarray, x_hat: np.ndarray | LowRank) -> float:
    """Frobenius-norm relative error ||X - Xhat||_F / ||X||_F.

    For a factored ``x_hat = LowRank(Q, B)`` the squared error is
    ``||X||^2 - 2 <Q^T X, B> + <(Q^T Q) B, B>``: one ``Q^T X`` and r x r
    Gram terms, no m x n product, and any ``B`` (not only ``Q^T X``).  When
    ``x_hat`` came from a builder and ``x`` is the very object it projected,
    the builder's ``Q^T X`` is reused instead of formed again; this assumes
    ``x`` was not modified in place since the build.  Any other ``x``, equal
    copies included, and any ``LowRank`` built by hand or with
    ``dataclasses.replace`` get a fresh ``Q^T X``.  When the squared error
    falls below ``FACTORED_ERROR_FLOOR * ||X||^2`` the subtraction has
    cancelled too many digits and the dense residual is used instead.  A
    finite X whose ``||X||^2`` overflows is scored as X and Xhat divided
    by the power of two at ``max |X|``, which is exact, with a fresh
    ``Q^T X``.
    """
    x = _as_real(x, np.asanyarray)
    # ||X||^2 is finite exactly when no entry is NaN or infinite, barring
    # overflow; only a sum that is not finite needs the entrywise test.
    with np.errstate(over="ignore"):
        norm_sq = float(np.vdot(x, x))
    if not math.isfinite(norm_sq):
        _check_finite(x)
    if isinstance(x_hat, LowRank):
        q, b = (_check_finite(_as_real(f)) for f in (x_hat.q, x_hat.b))
        shapes_match = (
            x.ndim == q.ndim == b.ndim == 2
            and q.shape[0] == x.shape[0]
            and b.shape == (q.shape[1], x.shape[1])
        )
        got = f"{q.shape} @ {b.shape}"
    else:
        x_hat = _check_finite(_as_real(x_hat))
        shapes_match = x.shape == x_hat.shape
        got = str(x_hat.shape)
    if not shapes_match:
        raise ValueError(f"shape mismatch: {x.shape} vs {got}")
    if norm_sq == 0.0:
        raise ValueError("relative error undefined for a zero reference")
    if norm_sq == math.inf:
        # A finite X whose ||X||^2 overflows: the error of X and Xhat both
        # divided by the power of two at max |X|, an exact scaling.
        e = int(np.frexp(np.max(np.abs(x)))[1])
        scaled = LowRank(q, np.ldexp(b, -e)) if isinstance(x_hat, LowRank) else np.ldexp(x_hat, -e)
        return relative_error(np.ldexp(x, -e), scaled)
    if isinstance(x_hat, LowRank):
        source, qtx = x_hat._projected or (None, None)
        err_sq = (
            norm_sq
            - 2.0 * float(np.vdot(qtx if source is x else q.T @ x, b))
            + float(np.vdot((q.T @ q) @ b, b))
        )
        if err_sq >= FACTORED_ERROR_FLOOR * norm_sq:
            return math.sqrt(err_sq / norm_sq)
        x_hat = q @ b
    return float(np.linalg.norm(x - x_hat)) / math.sqrt(norm_sq)
