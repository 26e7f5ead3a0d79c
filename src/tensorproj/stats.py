"""Distortion theory and Monte-Carlo estimators for projection maps.

For a rank-one-structured projection with N factor matrices of i.i.d.
unit-variance entries whose fourth moments are ``m_1, ..., m_N``, averaged
over T independent replicates and scaled to be an expected isometry, the
squared norm of the image of a fixed ``x`` satisfies

    E ||f(x)||^2   = ||x||^2
    Var ||f(x)||^2 = (E z^4 - 3 ||x||_2^4) / (T*k)  +  2/k * ||x||_2^4,

where ``z`` is one unscaled output coordinate, the inner product of ``x``
with a Khatri-Rao column.  Distinct entries of that column reuse the same
factor entries, so

    E z^4 = sum_{p,q,r,s} x_p x_q x_r x_s prod_n mu_n,
    mu_n  = d_pq d_rs + d_pr d_qs + d_ps d_qr + (m_n - 3) d_pqrs

on the mode-n indices of p, q, r, s.  ``exact_variance`` evaluates this
through per-mode Gram matrices of ``x``.  The paper's closed form
``theoretical_variance`` keeps only what the expansion gives for x on a
single coordinate, ``E z^4 = 3 ||x||_2^4 + (prod(m_i) - 3) ||x||_4^4``:

    Var ||f(x)||^2 ~ (prod(m_i) - 3) / (T*k) * ||x||_4^4  +  2/k * ||x||_2^4.

Both formulas take ``fourth_moments`` as an iterable of one real moment per
factor, never a scalar.  For one dense Gaussian factor (``[3.0]``) the first
term vanishes and the variance is exactly ``2/k * ||x||_2^4``.  The closed
form is exact whenever N = 1, and for any N when x is supported on a single
coordinate.  For N >= 2 and spread-out x it drops the fourth-order cross
terms that grow with the per-mode row and column energies of x.  With every
``m_i >= 3`` (Gaussian, and sparse-sign entries with delta <= 1/3) it is
then a lower bound on the exact variance, strict for dense x; lighter-tailed
entries such as Rademacher signs (m = 1) can put the exact variance below it.

``squared_norm_samples`` draws the law of building and applying maps one
by one, but in blocks of trials, which makes million-trial grids
affordable: block b draws its maps from the seed's child stream b and
contracts them at once with the maps' own kernel (``maps._contract``).  A
block's size depends only on the shape (its scratch stays near
``_BLOCK_SCRATCH`` entries), so it is part of the stream definition.

The distance and cosine estimators take the points and an iterable of
maps, compute the points' own pair distances or cosines once, hold one map
at a time and return one value per map; reductions across maps are the
caller's.  Distances go through one chunked pair-gather kernel,
:func:`_pair_distances`, whose memory is a fixed budget of ``_PAIR_CHUNK``
difference entries, not a block per point.

Like a map's ``apply``, every function here returns finite values or
raises ``ValueError``: a finite input whose variance, squared norms, pair
distances or norms overflow float64 is refused with a message that says so.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from .distributions import EntryDistribution, SeedSpec, _per_factor, _sample_array
from .linalg import _all_finite, _as_real, _check_finite, _check_real, _check_shape, _check_sizes
from .maps import _contract

Projection = Callable[[np.ndarray], np.ndarray]
_MAX_EXACT_ORDER = 10  # exact_variance's 4^N loop takes 4x longer per order


@dataclass(frozen=True)
class DistortionReport:
    """Per map: the mean and std of its ratios, and its ``(maps, kept pairs)`` ratios."""

    avg_ratio: np.ndarray
    std_ratio: np.ndarray
    ratios: np.ndarray
    skipped_pairs: int


@dataclass(frozen=True)
class CosineRmse:
    per_rep: np.ndarray
    skipped_pairs: int


def _check_input(x: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """``x`` as a flat finite float vector, which must hold ``prod(dims)`` entries."""
    x = _as_real(x).ravel()
    if x.size != math.prod(dims):
        raise ValueError(f"x has {x.size} entries, dims {dims} need {math.prod(dims)}")
    return _check_finite(x)


def _check_moments(fourth_moments: Iterable[float]) -> list[float]:
    """``fourth_moments`` as floats: any iterable, read once, of one real moment per factor."""
    try:
        moments = tuple(fourth_moments)
    except TypeError:
        raise ValueError(f"fourth moments need one per factor, got {fourth_moments!r}") from None
    _check_real("fourth moments", moments)
    moments = [float(m) for m in moments]
    if not moments:
        raise ValueError("need at least one factor fourth moment")
    if not all(math.isfinite(m) for m in moments):
        raise ValueError(f"fourth moments must be finite, got {moments}")
    if any(m < 1.0 for m in moments):
        # E[a^4] >= (E[a^2])^2 = 1 for any unit-variance entry distribution.
        raise ValueError(f"fourth moments below 1 are impossible: {moments}")
    return moments


def _refuse_overflow(formula: Callable[..., float]) -> Callable[..., float]:
    """``formula`` run silenced, refusing a variance that overflows float64.

    Its inputs are checked finite, so a value that is not finite, or an
    ``OverflowError`` from a float power, can only come from an overflow.
    """

    @functools.wraps(formula)
    def checked(*args, **kwargs) -> float:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                value = formula(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError("the variance of this x overflows float64")
        return value

    return checked


@_refuse_overflow
def theoretical_variance(
    x: np.ndarray,
    fourth_moments: Iterable[float],
    k: int,
    T: int = 1,
) -> float:
    """The paper's closed-form Var ||f(x)||^2 for given per-factor fourth moments.

    Exact for a single factor and for x on a single coordinate axis.  For
    several factors and spread-out x, :func:`exact_variance` gives the true
    variance; with every fourth moment at least 3 this closed form is its
    lower bound (see the module docstring).
    """
    moments = _check_moments(fourth_moments)
    x = _check_finite(_as_real(x).ravel())
    if not x.size:
        raise ValueError("x must not be empty")
    _check_sizes(k=k, T=T)
    norm4_4 = float(np.sum(x**4))
    norm2_4 = float(np.sum(x**2)) ** 2
    return (math.prod(moments) - 3.0) / (T * k) * norm4_4 + 2.0 / k * norm2_4


def _tied_sum(
    xt: np.ndarray, pairs: Sequence[tuple[int, ...]], diag: tuple[int, ...]
) -> float:
    """sum x_p x_q x_r x_s with, per mode, the index ties of one ``mu_n`` term.

    Modes in ``pairs[0]`` tie p=q and r=s, ``pairs[1]`` p=r and q=s,
    ``pairs[2]`` p=s and q=r; modes in ``diag`` tie all four.  Contracting
    the first group gives the Gram matrix of that unfolding of x (one per
    diagonal index), and the sum is its inner product with a transpose of
    itself.  The three pairings are interchangeable, so callers put the
    largest group first to keep the Gram matrix small.
    """
    nd, na, nb, nc = (math.prod(xt.shape[n] for n in g) for g in (diag, *pairs))
    y = xt.transpose(diag + pairs[0] + pairs[1] + pairs[2]).reshape(nd, na, nb * nc)
    gram = np.matmul(y.transpose(0, 2, 1), y).reshape(nd, nb, nc, nb, nc)
    return float(np.sum(gram * gram.transpose(0, 1, 4, 3, 2)))


@_refuse_overflow
def exact_variance(
    x: np.ndarray,
    dims: Sequence[int],
    fourth_moments: Iterable[float],
    k: int,
    T: int = 1,
) -> float:
    """Exact Var ||f(x)||^2 for a Khatri-Rao map on ``dims``.

    Expands ``E z^4`` from the module docstring over the 4^N per-mode
    choices of ``mu_n`` terms, so orders past ``_MAX_EXACT_ORDER`` are
    refused before it starts, and evaluates each through :func:`_tied_sum`;
    choices that differ only by relabeling the three pairings share one
    contraction.  Equals :func:`theoretical_variance` for one factor and
    for x on one coordinate axis; with every fourth moment at least 3 it is
    at least as large otherwise.
    """
    moments = _check_moments(fourth_moments)
    dims = _check_shape(dims, k, T)
    if len(moments) != len(dims):
        raise ValueError(f"got {len(moments)} fourth moments for {len(dims)} factors")
    if len(dims) > _MAX_EXACT_ORDER:
        raise ValueError(f"exact variance takes order at most {_MAX_EXACT_ORDER}, got {len(dims)}")
    x = _check_input(x, dims)
    xt = x.reshape(dims)
    weights: dict[tuple, float] = {}
    for choice in product(range(4), repeat=len(dims)):
        groups = [tuple(n for n, c in enumerate(choice) if c == g) for g in range(4)]
        weight = math.prod(moments[n] - 3.0 for n in groups[3])
        if weight == 0.0:
            continue
        pairs = tuple(
            sorted(groups[:3], key=lambda g: (-math.prod(dims[n] for n in g), g))
        )
        key = (pairs, groups[3])
        weights[key] = weights.get(key, 0.0) + weight
    ez4 = sum(w * _tied_sum(xt, pairs, diag) for (pairs, diag), w in weights.items())
    norm2_4 = float(x @ x) ** 2
    return (ez4 - 3.0 * norm2_4) / (T * k) + 2.0 / k * norm2_4


# Float64 entries (4 MB) of drawn factors and kernel scratch that one block
# of trials may hold, unless one trial alone needs more; see
# :func:`_trial_scratch`.  It fixes the block size and so the sampler's
# stream: changing it changes the values.
_BLOCK_SCRATCH = 2**19


def _head_mode(dims: Sequence[int]) -> int:
    """The mode :func:`_contract_all` puts at the kernel's head.

    The first mode that needs the fewest entries, ``d_h`` plus the
    ``d / d_h`` tail at order >= 3; at order >= 3 that is a largest mode.
    """
    d = math.prod(dims) if len(dims) > 2 else 0  # an order-2 tail is a factor
    return min(range(len(dims)), key=lambda i: dims[i] + d // dims[i])


def _trial_scratch(dims: Sequence[int], k: int, T: int) -> int:
    """Entries one trial holds in a block, ``T k (sum(dims) + d_h + t + 1)``.

    For the ``m = T`` maps of one trial: the drawn ``(m, d_i, k)`` factors,
    then the kernel's ``(m, d_h, k)`` head product at order >= 2 (``d_h = 0``
    at order 1, where the kernel forms none), the ``(m, t, k)`` tail block
    with ``t = d / d_h`` at order >= 3 (``t = 0`` below), and the ``(m, k)``
    result.
    """
    h = _head_mode(dims)
    head = dims[h] if len(dims) > 1 else 0
    tail = math.prod(dims) // dims[h] if len(dims) > 2 else 0
    return T * k * (sum(dims) + head + tail + 1)


def _contract_all(x: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Unscaled ``z[m] = x @ (F_1[m] (.) ... (.) F_N[m])`` for factors ``(m, d_n, k)``.

    Kept apart so that ``perfbench/tracing.py`` times it as ``stats.contract``.
    The kernel allocates ``(m, d_h, k)`` for the head mode ``h`` that
    :func:`_head_mode` picks and, at order >= 3, the ``(m, d / d_h, k)`` tail
    block; :func:`squared_norm_samples` calls it once per block of trials,
    so :func:`_trial_scratch` counts that scratch with the factors.  Its
    batch is the one row x, a single row block of the kernel.
    """
    dims = [f.shape[1] for f in factors]
    h = _head_mode(dims)
    x = np.moveaxis(x.reshape(dims), h, 0).reshape(1, -1)
    return _contract(x, [factors[h], *factors[:h], *factors[h + 1 :]])[:, 0, :]


def squared_norm_samples(
    dims: Sequence[int],
    k: int,
    dist: EntryDistribution | Sequence[EntryDistribution],
    x: np.ndarray,
    trials: int,
    seed: SeedSpec,
    T: int = 1,
) -> np.ndarray:
    """``trials`` draws of ||f(x)||^2 under independent T-replicate maps.

    The law of ``build_map("trp_t", ...)`` and ``apply`` in a loop.  A block
    holds ``max(1, _BLOCK_SCRATCH // _trial_scratch(dims, k, T))`` trials.
    Block b draws each mode's ``(n T, d_i, k)`` factors, in mode order, from
    the seed's child stream b, and is contracted in one kernel call.  So
    runs that share j whole blocks share their draws, while a partial last
    block draws other values than the same trials inside a whole block.
    With T = 1, a one-trial run draws the factors of ``build_map("trp",
    ...)`` on ``seed.child(0)``.  Like ``apply``, it returns finite values
    or raises ``ValueError``, also for a finite ``x`` whose squares overflow.
    """
    dims = _check_shape(dims, k, T)
    dists = _per_factor(dist, len(dims))
    x = _check_input(x, dims)
    _check_sizes(trials=trials)
    block = max(1, _BLOCK_SCRATCH // _trial_scratch(dims, k, T))
    out = np.empty(trials)
    with np.errstate(over="ignore", invalid="ignore"):
        for b, start in enumerate(range(0, trials, block)):
            n = min(block, trials - start)
            rng = seed.child(b).generator()
            factors = [_sample_array(dists[i], (n * T, dims[i], k), rng) for i in range(len(dims))]
            s = _contract_all(x, factors).reshape(n, T, k).sum(axis=1)
            w = out[start : start + n]
            np.einsum("ij,ij->i", s, s, out=w)
            w /= T * k
    if not _all_finite(out):
        raise ValueError("the squared norms of this x overflow float64")
    return out


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = _as_real(points)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need a 2-D array with at least two point rows")
    return _check_finite(pts)


def _project(project: Projection, pts: np.ndarray) -> np.ndarray:
    """``project(pts)``, the one check of a map's image: real, finite, one row per point."""
    out = _as_real(project(pts))
    if out.ndim != 2 or len(out) != len(pts):
        raise ValueError(f"map must return one row per point, got {out.shape} for {len(pts)}")
    if not np.isfinite(out).all():
        raise ValueError("map returned NaN or infinite entries")
    return out


# Float64 entries (256 KB) of each row gather in one chunk of
# :func:`_pair_distances`: one chunk for every README-size map image.
_PAIR_CHUNK = 2**15


def _pair_distances(rows: np.ndarray, pairs: tuple) -> np.ndarray:
    """Distances between the row pairs ``pairs`` of already checked ``rows``.

    ``pairs`` is an ``(i, j)`` pair of index arrays.  Each chunk of pairs
    gathers ``rows[j]``, subtracts the gathered ``rows[i]`` in place,
    squares and sums along the row, so its scratch is two gathers of at
    most ``_PAIR_CHUNK`` entries (of one pair when a row alone is wider).
    Per pair this is the arithmetic of ``np.linalg.norm(rows[j] - rows[i],
    axis=1)``, bit for bit, without its copies: a distance run calls it
    once for the points and once per map.  A distance that overflows comes
    back as inf, silently; the callers refuse it.
    """
    i, j = pairs
    out = np.empty(len(i))
    step = max(1, _PAIR_CHUNK // rows.shape[1])
    with np.errstate(over="ignore"):
        for s in range(0, len(i), step):
            diff = rows[j[s : s + step]]
            diff -= rows[i[s : s + step]]
            np.square(diff, out=diff).sum(axis=1, out=out[s : s + step])
    return np.sqrt(out, out=out)


def pairwise_distance_ratio(points: np.ndarray, maps: Iterable[Projection]) -> DistortionReport:
    """Distance distortion ||f(x_i) - f(x_j)|| / ||x_i - x_j|| of each map of ``maps``.

    The ratios run over unordered pairs i < j, which gives the same mean as
    ordered pairs since the ratio is symmetric; each map's mean and standard
    deviation come from its own ratio vector.  The pair indices and the
    points' distances are computed once, and the maps applied one at a time,
    so a generator that builds each on demand holds one map at once; each
    map image then costs :func:`_pair_distances` over the kept pairs, in
    chunks of a fixed entry budget.  Each map must accept a batch of row
    vectors.  Exact duplicate points give an undefined ratio; such pairs are
    skipped and counted over all maps.  An empty ``maps`` is an error.
    """
    pts = _as_points(points)
    i, j = np.triu_indices(len(pts), k=1)
    original = _pair_distances(pts, (i, j))
    if not _all_finite(original):
        raise ValueError("the pair distances of these points overflow float64")
    keep = original != 0.0
    if not keep.any():
        raise ValueError("all point pairs are exact duplicates")
    kept, pairs = original[keep], (i[keep], j[keep])
    ratios, avg, std = [], [], []
    # map() drops each map before the next is drawn, unlike a loop variable.
    for proj in map(lambda f: _project(f, pts), maps):
        r = _pair_distances(proj, pairs)
        if not _all_finite(r):
            raise ValueError("the pair distances of a map's image overflow float64")
        r /= kept
        ratios.append(r)
        avg.append(float(r.mean()))
        std.append(float(r.std(ddof=1)) if r.size > 1 else 0.0)
    if not ratios:
        raise ValueError("pairwise distance ratio needs at least one map")
    skipped = (original.size - kept.size) * len(ratios)
    return DistortionReport(np.array(avg), np.array(std), np.array(ratios), skipped)


def _pair_cosines(rows: np.ndarray, iu: tuple, of: str) -> tuple[np.ndarray, np.ndarray]:
    """Cosines of the row pairs ``iu``, and which pairs have two nonzero rows.

    Row norms that overflow are refused with a ``ValueError`` naming ``of``.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    if not _all_finite(norms):
        raise ValueError(f"the norms of {of} overflow float64")
    nonzero = norms != 0.0
    unit = rows / np.where(nonzero, norms, 1.0)[:, None]
    return (unit @ unit.T)[iu], (nonzero[:, None] & nonzero[None, :])[iu]


def cosine_similarity_rmse(points: np.ndarray, maps: Iterable[Projection]) -> CosineRmse:
    """RMSE between projected and original pairwise cosine similarities.

    Each map of ``maps``, in order, gives the root-mean-square error over
    all point pairs, in ``per_rep``.  The points' cosines are computed once
    and the maps applied one at a time, so a generator that builds each on
    demand holds one map at once.  A zero-norm input point, an empty
    ``maps`` and a map image with NaN or inf entries are errors.  A pair
    with a point the map sends to zero has no projected cosine; such pairs
    are skipped and counted over all maps.  A map that leaves no pair (a
    sparse map can be the zero map) has no RMSE: its ``per_rep`` entry is
    NaN.
    """
    pts = _as_points(points)
    iu = np.triu_indices(pts.shape[0], k=1)
    true_cos, defined = _pair_cosines(pts, iu, "these points")
    if not defined.all():
        raise ValueError("cosine similarity undefined for zero-norm points")
    rmse = []
    skipped = 0
    # map() drops each map before the next is drawn, unlike a loop variable.
    for proj in map(lambda f: _project(f, pts), maps):
        est_cos, keep = _pair_cosines(proj, iu, "a map's image")
        skipped += keep.size - int(keep.sum())
        err = est_cos[keep] - true_cos[keep]
        rmse.append(math.sqrt(float(np.mean(err**2))) if err.size else math.nan)
    if not rmse:
        raise ValueError("cosine similarity RMSE needs at least one map")
    return CosineRmse(np.array(rmse), skipped)

