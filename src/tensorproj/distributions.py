"""Entry distributions for projection matrices and splittable seeding.

All supported distributions have mean zero and unit variance, so a factor
matrix never needs a distribution-dependent scale; only the fourth moment
differs and that is what drives the variance of squared projected norms.

Seeds are hierarchical: a :class:`SeedSpec` is a base seed plus a path of
child indices, and deriving a child appends one index.  Distinct paths give
statistically independent streams.  Determinism is per implementation, not a
cross-language bit-exactness promise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import _check_real, _check_sizes

GAUSSIAN_FOURTH_MOMENT = 3.0


@dataclass(frozen=True)
class EntryDistribution:
    """Distribution of a single matrix entry.

    ``kind`` is ``"gaussian"`` (standard normal) or ``"sparse_sign"``, which
    takes the values ``-1/sqrt(delta)``, ``0``, ``+1/sqrt(delta)`` with
    probabilities ``delta/2``, ``1 - delta``, ``delta/2``.  For Gaussian
    entries ``delta`` is fixed at 1 (the entry is never zero).
    """

    kind: str
    delta: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "sparse_sign"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        _check_real("delta", self.delta)
        if self.kind == "gaussian" and self.delta != 1.0:
            raise ValueError("gaussian entries have no sparsity parameter")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")

    @classmethod
    def gaussian(cls) -> "EntryDistribution":
        return cls("gaussian")

    @classmethod
    def sparse_sign(cls, delta: float) -> "EntryDistribution":
        return cls("sparse_sign", delta)

    @classmethod
    def very_sparse(cls, dim: int) -> "EntryDistribution":
        """Sparse-sign entries at the very sparse rate ``1/sqrt(dim)``."""
        _check_sizes(dim=dim)
        return cls("sparse_sign", 1.0 / math.sqrt(dim))

    def fourth_moment(self) -> float:
        """E[a^4] for a single entry; equals 3 for Gaussian, 1/delta otherwise."""
        if self.kind == "gaussian":
            return GAUSSIAN_FOURTH_MOMENT
        return 1.0 / self.delta


def _unchecked(cls: type, **fields: object):
    """A ``cls`` instance with ``fields``, without ``__post_init__``'s checks.

    For the frozen dataclasses whose fields a caller has just made and
    knows to be valid: a builder's fresh factor draws, a checked child seed.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class SeedSpec:
    """Base seed plus a path of child indices naming one random stream."""

    base_seed: int
    path: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for i in (self.base_seed, *self.path):
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                raise ValueError(
                    "base_seed and path entries must be integers, "
                    f"got base_seed={self.base_seed!r}, path={self.path!r}"
                )
        if not 0 <= self.base_seed < 2**64:
            raise ValueError("base_seed must fit in an unsigned 64-bit integer")
        if min(self.path, default=0) < 0:
            raise ValueError("path indices must be non-negative")

    def child(self, index: int) -> "SeedSpec":
        """The stream with ``index`` appended; only ``index`` needs a check."""
        path = self.path + (index,)
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)) or index < 0:
            return SeedSpec(self.base_seed, path)  # refused, with the constructor's message
        return _unchecked(SeedSpec, base_seed=self.base_seed, path=path)

    def generator(self) -> np.random.Generator:
        """A fresh generator for this stream; equal specs give equal streams."""
        seq = np.random.SeedSequence(self.base_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def _sample_array(
    dist: EntryDistribution, shape: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    if dist.kind == "gaussian":
        return rng.standard_normal(shape)
    u = rng.random(shape)
    half = dist.delta / 2.0
    # +1, -1 or +0.0 from the two comparisons of u, then one scale, all in
    # u's own buffer: only the boolean masks are extra.
    low = u < half
    np.copyto(u, u >= 1.0 - half)
    u -= low
    u *= 1.0 / math.sqrt(dist.delta)
    return u


def _per_factor(
    dist: EntryDistribution | Sequence[EntryDistribution], order: int
) -> tuple[EntryDistribution, ...]:
    """One law broadcast, or an iterable of laws read once, as ``order`` laws.

    Anything else, such as a kind's name, is refused as given before any draw."""
    if isinstance(dist, EntryDistribution):
        return (dist,) * order
    try:
        dists = tuple(dist)
    except TypeError:
        dists = (dist,)
    if not all(isinstance(d, EntryDistribution) for d in dists):
        raise ValueError(f"dist must be an EntryDistribution or one per factor, got {dist!r}")
    if len(dists) != order:
        raise ValueError(f"got {len(dists)} distributions for {order} factors")
    return dists


def very_sparse_family(dims: Sequence[int]) -> tuple[EntryDistribution, ...]:
    """Per-mode very sparse distributions; the product of the per-mode rates
    ``1/sqrt(d_i)`` makes the overall map sparsity ``1/sqrt(prod(d_i))``."""
    return tuple(EntryDistribution.very_sparse(d) for d in dims)
