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
reduces the ``n x d_1 x k`` intermediate against ``A_1``.  Rows are
independent, so the batch walks in blocks of rows whose intermediate stays
within ``_KERNEL_SCRATCH`` entries (2 MB), with the output of one block.
Every map, and the Monte-Carlo sampler in :mod:`tensorproj.stats` on a
stack of maps, runs this one kernel on the stored factors, so a map
applies as it materializes.  Storage drops from ``k * d`` for a dense map
to ``k * sum(d_i)``.

An ``apply`` runs the kernel once and has two outcomes: a finite image, or
a ``ValueError`` for an input with NaN or infinite entries or a finite
input whose image overflows (see :func:`_apply_checked`).

``TrpEnsemble`` averages T independent TRPs with a ``1/sqrt(T)`` scale so the
map stays an expected isometry while the fourth-moment part of the squared
norm variance shrinks by ``1/T``; its ``apply`` refuses a sum of replicate
images that overflows.  T replicates of k columns are also one TRP of T k
columns, their factors side by side: :func:`_replicate_images` gives every
replicate's image from one kernel pass, so an ensemble sketch reads its
input once.  ``ConventionalRp``, the unstructured dense baseline, is the
one-factor TRP, whose kernel is one plain GEMM.

:func:`build_map` is the one map builder: it checks a map's kind and sizes
once and hands the draw to its kind's step.  A TRP draws its factors in
mode order from its seed's one stream, the layout of a one-trial block of
:func:`tensorproj.stats.squared_norm_samples`, so a one-factor TRP is
bitwise the dense map of the same seed; an ensemble draws replicate t from
child stream t.  The steps skip the constructors' checks of fresh draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .distributions import EntryDistribution, SeedSpec, _per_factor, _sample_array, _unchecked
from .linalg import _all_finite, _as_real, _check_finite, _check_shape, khatri_rao

# Ceiling on d * k when materializing an explicit projection matrix.
MATERIALIZE_CAP = 10_000_000

MAP_KINDS = ("rp", "trp", "trp_t")


def _as_batch(x: np.ndarray, d: int) -> tuple[np.ndarray, bool]:
    """The shape check of every map's input: a real vector or ``(n, d)`` batch.

    Its entries are checked from the kernel's output (:func:`_apply_checked`).
    """
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
    return x, single


# Float64 entries (2 MB) of the ``(rows, d_1, k)`` intermediate that one row
# block of :func:`_contract` may hold; a batch walks in blocks of rows.
_KERNEL_SCRATCH = 2**18


def _contract(xs: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Unscaled ``xs @ (A_1 (.) ... (.) A_N)`` for a batch ``xs`` of shape (n, d).

    Factors of shape ``(d_i, k)`` give ``(n, k)``.  Factors of shape
    ``(m, d_i, k)`` hold m maps and give ``(m, n, k)``, map by map.  Rows
    are independent in the GEMM and in the reduction against ``A_1``, so
    the batch walks in blocks of rows whose ``(m, rows, d_1, k)``
    intermediate holds at most ``_KERNEL_SCRATCH`` entries (one row at
    least), with bitwise the output of one block.
    """
    head = factors[0]
    if len(factors) == 1:
        return xs @ head
    tail = reduce(khatri_rao, factors[1:])
    n, d_1 = xs.shape[0], head.shape[-2]
    rows = max(1, _KERNEL_SCRATCH // head.size)
    out = np.empty(head.shape[:-2] + (n, head.shape[-1]))
    for s in range(0, n, rows):
        # A temporary intermediate, freed before the next block allocates its own.
        np.einsum(
            "...nij,...ij->...nj",
            xs[s : s + rows].reshape(-1, d_1, tail.shape[-2]) @ tail[..., None, :, :],
            head,
            out=out[..., s : s + rows, :],
        )
    return out


def _apply_checked(xs: np.ndarray, factors: Sequence[np.ndarray], k: int) -> np.ndarray:
    """``_contract(xs, factors) / sqrt(k)``: a finite image, or a ``ValueError``.

    ``k`` is the column count of one map: the factors' own, or that of
    each replicate whose factors sit side by side (:func:`_replicate_images`).
    The finiteness check rides on the output: a NaN or infinite
    entry of ``xs`` makes its whole output row NaN or infinite, even where it
    meets only zero factor entries (``0 * inf`` is NaN), so a finite output
    sum proves the input finite.  The kernel runs once, silenced.  Only an
    output that is not finite entrywise rescans ``xs``; if ``xs`` is finite,
    its image overflowed and is refused as such.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = _contract(xs, factors) / math.sqrt(k)
    if _all_finite(y):
        return y
    _check_finite(xs)
    raise ValueError("the image of this input overflows float64")


@dataclass(frozen=True, eq=False)
class TensorRandomProjection:
    """Khatri-Rao structured projection from ``prod(dims)`` down to ``k``."""

    factors: tuple[np.ndarray, ...]
    dists: tuple[EntryDistribution, ...]

    def __post_init__(self) -> None:
        if isinstance(self.factors, np.ndarray):
            raise ValueError(
                f"factors must be a sequence of (d_i, k) matrices, got one array of shape "
                f"{self.factors.shape}"
            )
        factors, dists = tuple(self.factors), tuple(self.dists)
        if not factors:
            raise ValueError("a projection needs at least one factor")
        if len(factors) != len(dists):
            raise ValueError("one entry distribution per factor is required")
        for dist in dists:
            if not isinstance(dist, EntryDistribution):
                raise ValueError(f"each dist must be an EntryDistribution, got {dist!r}")
        # Builders skip these checks: their fresh draws are finite float64.
        factors = tuple(_check_finite(_as_real(f)) for f in factors)
        for f in factors:
            if f.ndim != 2:
                raise ValueError(f"each factor must be a (d_i, k) matrix, got shape {f.shape}")
            if f.shape[1] != factors[0].shape[1]:
                raise ValueError("factors must share the same column count")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "dists", dists)

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

        Runs the one kernel of every map once, ``n * d * k`` multiply-adds
        (see the module docstring), and returns a finite image or raises
        ``ValueError``: for NaN or infinite entries of ``x``, or for an
        image that overflows.
        """
        xs, single = _as_batch(x, self.d)
        if all(dist.kind == "sparse_sign" for dist in self.dists):
            y = self._apply_sparse(xs)
        else:
            y = _apply_checked(xs, self.factors, self.k)
        return y[0] if single else y

    __call__ = apply

    def _apply_sparse(self, xs: np.ndarray) -> np.ndarray:
        # The same kernel: only the seam where the benchmark counts
        # all-sparse-sign applies.  ROADMAP item 1(a) retires it and its branch.
        return _apply_checked(xs, self.factors, self.k)

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

        Product of the nonzero probabilities of the ``dists`` labels;
        Gaussian factors contribute 1 (they are never zero).  It reads the
        labels, not the stored factors' zeros: a hand-built map's labels
        are taken as given.
        """
        return math.prod(d.delta for d in self.dists)


@dataclass(frozen=True, eq=False)
class TrpEnsemble:
    """Average of T independent TRPs, scaled by 1/sqrt(T)."""

    replicates: tuple[TensorRandomProjection, ...]

    def __post_init__(self) -> None:
        replicates = tuple(self.replicates)
        if not replicates:
            raise ValueError("an ensemble needs at least one replicate")
        for rep in replicates:
            if not isinstance(rep, TensorRandomProjection):
                raise ValueError(f"each replicate must be a TensorRandomProjection, got {rep!r}")
        dims = replicates[0].dims
        k = replicates[0].k
        for rep in replicates[1:]:
            if rep.dims != dims or rep.k != k:
                raise ValueError("replicates must share dims and k")
        object.__setattr__(self, "replicates", replicates)

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
        """``sum_t replicates[t].apply(x) / sqrt(T)``: a finite image, or a ``ValueError``.

        Each replicate applies on its own (ROADMAP item 7 moves this onto
        :func:`_replicate_images`' one pass); the sum runs silenced, and a
        sum that overflows is refused like an image that overflows.
        """
        out = self.replicates[0].apply(x)
        with np.errstate(over="ignore", invalid="ignore"):
            for rep in self.replicates[1:]:
                out = out + rep.apply(x)
        if not _all_finite(out):
            raise ValueError("the image of this input overflows float64")
        return out / math.sqrt(self.T)

    __call__ = apply

    def storage_count(self) -> int:
        return sum(rep.storage_count() for rep in self.replicates)


def _replicate_images(ensemble: TrpEnsemble, x: np.ndarray) -> np.ndarray:
    """Every replicate's image of ``x`` from one kernel pass, side by side.

    A TRP is a column-wise Khatri-Rao product, so T replicates of k columns
    are one TRP of T k columns whose mode-i factor holds theirs side by
    side, ``(d_i, T k)``.  Column block t of the ``(n, T k)`` result is
    ``ensemble.replicates[t].apply(x)`` up to rounding (bitwise at T = 1),
    each scaled by ``1/sqrt(k)``; the batch is read once, and the image is
    finite or refused as by ``apply``.
    """
    xs, single = _as_batch(x, ensemble.d)
    factors = [np.hstack(f) for f in zip(*(rep.factors for rep in ensemble.replicates))]
    y = _apply_checked(xs, factors, ensemble.k)
    return y[0] if single else y


class ConventionalRp(TensorRandomProjection):
    """Dense unstructured random projection: the one-factor TRP, ``d x k``.

    Everything is the TRP's: ``apply`` runs the one kernel, on one factor
    ``x @ matrix / sqrt(k)``, and is a method of its own only so that the
    benchmark counts dense applies apart.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.factors) != 1:
            raise ValueError(f"a dense projection has one factor, got {len(self.factors)}")

    @property
    def matrix(self) -> np.ndarray:
        return self.factors[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        xs, single = _as_batch(x, self.d)
        y = _apply_checked(xs, self.factors, self.k)
        return y[0] if single else y

    __call__ = apply


def build_trp(
    dims: tuple[int, ...],
    k: int,
    dist: EntryDistribution | Sequence[EntryDistribution],
    seed: SeedSpec,
) -> TensorRandomProjection:
    """:func:`build_map`'s ``"trp"`` draw: factors in mode order from one stream."""
    dists = _per_factor(dist, len(dims))
    rng = seed.generator()
    factors = tuple(_sample_array(dists[i], (dims[i], k), rng) for i in range(len(dims)))
    return _unchecked(TensorRandomProjection, factors=factors, dists=dists)


def build_ensemble(
    dims: tuple[int, ...],
    k: int,
    dist: EntryDistribution | Sequence[EntryDistribution],
    T: int,
    seed: SeedSpec,
) -> TrpEnsemble:
    """:func:`build_map`'s ``"trp_t"`` draw: replicate t is :func:`build_trp` on child t.

    Replicates never share factors; they share the distributions, resolved once.
    """
    dists = _per_factor(dist, len(dims))
    reps = tuple(build_trp(dims, k, dists, seed.child(t)) for t in range(T))
    return _unchecked(TrpEnsemble, replicates=reps)


def build_conventional(
    d: int, k: int, dist: EntryDistribution, seed: SeedSpec
) -> ConventionalRp:
    """:func:`build_map`'s ``"rp"`` draw: one ``(d, k)`` factor."""
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
    """The one map of ``kind`` drawn from ``seed``, its sizes checked once.

    Kinds are ``"rp"`` (dense on the flattened input of ``prod(dims)``
    entries, one law), ``"trp"`` and ``"trp_t"`` (ensemble of T replicates);
    T is checked for every kind but shapes only ``"trp_t"``.  Replicated
    runs build map i from the seed's child stream i.
    """
    if kind not in MAP_KINDS:
        raise ValueError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
    dims = _check_shape(dims, k, T)
    if kind == "rp":
        if not isinstance(dist, EntryDistribution):
            raise ValueError(
                f"a dense projection takes a single distribution (an EntryDistribution), got {dist!r}"
            )
        return build_conventional(math.prod(dims), k, dist, seed)
    if kind == "trp":
        return build_trp(dims, k, dist, seed)
    return build_ensemble(dims, k, dist, T, seed)
