"""Random projection maps with Khatri-Rao structure.

A tensor random projection (TRP) for input dimensions ``(d_1, ..., d_N)``
keeps one factor matrix ``A_i`` of shape ``(d_i, k)`` per mode and acts on a
vector ``x`` of length ``d = prod(d_i)`` as

    f(x) = (A_1 (.) A_2 (.) ... (.) A_N)^T x / sqrt(k)

where ``(.)`` is the column-wise Khatri-Rao product.  The full ``d x k``
matrix is never formed.  :meth:`TensorRandomProjection.apply` forms only the
``(d / d_1) x k`` Khatri-Rao block ``A_2 (.) ... (.) A_N`` of the trailing
factors, multiplies the batch of ``n`` inputs, reshaped to
``(n, d_1, d / d_1)``, by it in one GEMM of ``n * d * k`` multiply-adds, and
reduces the ``n x d_1 x k`` intermediate against ``A_1``; the Monte-Carlo
sampler in :mod:`tensorproj.stats` runs the same kernel on a stack of maps.
Storage drops from ``k * d`` for a dense map to ``k * sum(d_i)``.

``TrpEnsemble`` averages T independent TRPs with a ``1/sqrt(T)`` scale so the
map stays an expected isometry while the fourth-moment part of the squared
norm variance shrinks by ``1/T``.  ``ConventionalRp``, the unstructured
dense baseline, is the one-factor TRP with a dense ``apply``.

Maps are built one at a time, by kind: :func:`build_map` returns the one
map of a kind drawn from a seed, and a replicated run builds map i from the
seed's child stream i.  One random object draws from one stream: a TRP draws
its factors in mode order from its seed's generator, the layout of a
one-trial block of :func:`tensorproj.stats.squared_norm_samples`, so a
one-factor TRP is bitwise the dense map of the same seed.  An ensemble
draws replicate t from the seed's child stream t.  The builders construct
maps from their own fresh draws without re-checking them; the constructors
check every field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .distributions import EntryDistribution, SeedSpec, _per_factor, _sample_array, _unchecked
from .linalg import _as_real, _check_finite, _check_shape, khatri_rao

# Ceiling on d * k when materializing an explicit projection matrix.
MATERIALIZE_CAP = 10_000_000

MAP_KINDS = ("rp", "trp", "trp_t")


def _as_batch(x: np.ndarray, d: int) -> tuple[np.ndarray, bool]:
    """The one input check of every map: a finite real vector or ``(n, d)`` batch."""
    x = _as_real(x)
    if x.ndim not in (1, 2):
        raise ValueError(
            f"map expects a vector or an (n, {d}) batch, got shape {x.shape}"
        )
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != d:
        raise ValueError(f"input has {x.shape[1]} entries, map expects {d}")
    return _check_finite(x), single


def _contract(xs: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Unscaled ``xs @ (A_1 (.) ... (.) A_N)`` for a batch ``xs`` of shape (n, d).

    Factors of shape ``(d_i, k)`` give ``(n, k)``.  Factors of shape
    ``(m, d_i, k)`` hold m maps and give ``(m, n, k)``, map by map.
    """
    head = factors[0]
    if len(factors) == 1:
        return xs @ head
    tail = reduce(khatri_rao, factors[1:])
    t = xs.reshape(xs.shape[0], head.shape[-2], tail.shape[-2]) @ tail[..., None, :, :]
    del tail  # free the (m, d / d_1, k) block before the reduction allocates
    return np.einsum("...nij,...ij->...nj", t, head)


@dataclass(frozen=True, eq=False)
class TensorRandomProjection:
    """Khatri-Rao structured projection from ``prod(dims)`` down to ``k``."""

    factors: tuple[np.ndarray, ...]
    dists: tuple[EntryDistribution, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a projection needs at least one factor")
        if len(self.factors) != len(self.dists):
            raise ValueError("one entry distribution per factor is required")
        # Builders skip these checks: their fresh draws are finite float64.
        factors = tuple(_check_finite(_as_real(f)) for f in self.factors)
        for f in factors:
            if f.ndim != 2:
                raise ValueError(f"each factor must be a (d_i, k) matrix, got shape {f.shape}")
            if f.shape[1] != factors[0].shape[1]:
                raise ValueError("factors must share the same column count")
        object.__setattr__(self, "factors", factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def k(self) -> int:
        return self.factors[0].shape[1]

    @property
    def d(self) -> int:
        return math.prod(self.dims)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Project ``x`` (a vector of length d, or a batch of shape (n, d)).

        Costs one GEMM of ``n * d * k`` multiply-adds, plus forming the
        ``(d / d_1) x k`` Khatri-Rao block of the trailing factors and an
        ``n x d_1 x k`` intermediate (see the module docstring).  When every
        factor is sparse-sign the same contraction runs on the sign pattern
        of the factors and a single scale ``prod(1/sqrt(delta_i)) / sqrt(k)``
        is applied at the end.
        """
        xs, single = _as_batch(x, self.d)
        if all(dist.kind == "sparse_sign" for dist in self.dists):
            y = self._apply_sparse(xs)
        else:
            y = _contract(xs, self.factors) / math.sqrt(self.k)
        return y[0] if single else y

    __call__ = apply

    def _apply_sparse(self, xs: np.ndarray) -> np.ndarray:
        signs = [np.sign(f) for f in self.factors]
        scale = math.prod(1.0 / math.sqrt(d.delta) for d in self.dists)
        return _contract(xs, signs) * (scale / math.sqrt(self.k))

    def materialize(self) -> np.ndarray:
        """Explicit ``d x k`` Khatri-Rao product of the factors, unscaled.

        Intended as a test oracle and for small sketches; refuses to allocate
        more than ``MATERIALIZE_CAP`` entries.
        """
        if self.d * self.k > MATERIALIZE_CAP:
            raise ValueError(
                f"materializing {self.d} x {self.k} exceeds the cap of "
                f"{MATERIALIZE_CAP} entries"
            )
        return reduce(khatri_rao, self.factors)

    def storage_count(self) -> int:
        """Stored scalars: k * sum(d_i)."""
        return self.k * sum(self.dims)

    def expected_sparsity(self) -> float:
        """Expected fraction of nonzero entries of the materialized map.

        Product of the per-factor nonzero probabilities; Gaussian factors
        contribute 1 (they are never zero).
        """
        return math.prod(d.delta for d in self.dists)


@dataclass(frozen=True, eq=False)
class TrpEnsemble:
    """Average of T independent TRPs, scaled by 1/sqrt(T)."""

    replicates: tuple[TensorRandomProjection, ...]

    def __post_init__(self) -> None:
        if not self.replicates:
            raise ValueError("an ensemble needs at least one replicate")
        dims = self.replicates[0].dims
        k = self.replicates[0].k
        for rep in self.replicates[1:]:
            if rep.dims != dims or rep.k != k:
                raise ValueError("replicates must share dims and k")

    @property
    def T(self) -> int:
        return len(self.replicates)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.replicates[0].dims

    @property
    def k(self) -> int:
        return self.replicates[0].k

    @property
    def d(self) -> int:
        return self.replicates[0].d

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = self.replicates[0].apply(x)
        for rep in self.replicates[1:]:
            out = out + rep.apply(x)
        return out / math.sqrt(self.T)

    __call__ = apply

    def storage_count(self) -> int:
        return sum(rep.storage_count() for rep in self.replicates)


class ConventionalRp(TensorRandomProjection):
    """Dense unstructured random projection: the one-factor TRP, ``d x k``.

    Shape, storage, sparsity and :meth:`materialize` are the TRP's; only
    ``apply`` is its own, a plain ``x @ matrix / sqrt(k)`` for every entry
    distribution (the sign-pattern kernel rounds differently).
    """

    @property
    def matrix(self) -> np.ndarray:
        return self.factors[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        xs, single = _as_batch(x, self.d)
        y = (xs @ self.matrix) / math.sqrt(self.k)
        return y[0] if single else y

    __call__ = apply


def build_trp(
    dims: Sequence[int],
    k: int,
    dist: EntryDistribution | Sequence[EntryDistribution],
    seed: SeedSpec,
) -> TensorRandomProjection:
    """Sample a TRP; its factors draw, in mode order, from the seed's one stream."""
    dims = _check_shape(dims, k)
    dists = _per_factor(dist, len(dims))
    rng = seed.generator()
    factors = tuple(_sample_array(dists[i], (dims[i], k), rng) for i in range(len(dims)))
    return _unchecked(TensorRandomProjection, factors=factors, dists=dists)


def build_ensemble(
    dims: Sequence[int],
    k: int,
    dist: EntryDistribution | Sequence[EntryDistribution],
    T: int,
    seed: SeedSpec,
) -> TrpEnsemble:
    """Sample T independent TRPs; replicate ``t`` uses the seed's child ``t``.

    Replicates never share factors; they share the distributions, resolved once.
    """
    dims = _check_shape(dims, k, T)
    dists = _per_factor(dist, len(dims))
    reps = tuple(build_trp(dims, k, dists, seed.child(t)) for t in range(T))
    return TrpEnsemble(reps)


def build_conventional(
    d: int, k: int, dist: EntryDistribution, seed: SeedSpec
) -> ConventionalRp:
    _check_shape((d,), k)
    matrix = _sample_array(dist, (d, k), seed.generator())
    return _unchecked(ConventionalRp, factors=(matrix,), dists=(dist,))


def build_map(
    kind: str,
    dims: Sequence[int],
    k: int,
    dist: EntryDistribution | Sequence[EntryDistribution],
    T: int,
    seed: SeedSpec,
) -> TensorRandomProjection | TrpEnsemble | ConventionalRp:
    """The one map of ``kind`` drawn from ``seed``.

    Kinds are ``"rp"`` (dense on the flattened input of ``prod(dims)``
    entries), ``"trp"`` and ``"trp_t"`` (ensemble of T replicates); T
    applies only to ``"trp_t"``.  Replicated runs build map i from the
    seed's child stream i.
    """
    if kind == "rp":
        if not isinstance(dist, EntryDistribution):
            raise ValueError("a dense projection takes a single distribution")
        return build_conventional(math.prod(_check_shape(dims, k)), k, dist, seed)
    if kind == "trp":
        return build_trp(dims, k, dist, seed)
    if kind == "trp_t":
        return build_ensemble(dims, k, dist, T, seed)
    raise ValueError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
