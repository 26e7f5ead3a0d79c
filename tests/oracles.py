"""Oracles for the tests: Kronecker vectors, 1-based multi-index/linear
bijections, mode-n unfolding, a per-map Monte-Carlo loop and a linearity
check.

The index oracles spell out the index convention of :mod:`tensorproj.linalg`
(last mode fastest, numpy's C order) directly, so the tests can check the
library's kernels against them.  :func:`per_map_sq_norms` applies whole
maps one at a time, the independent counterpart of the blocked sampler
:func:`tensorproj.stats.squared_norm_samples`.  :func:`polarization_check`
checks a map through the polarization identity, which any linear map
satisfies.
"""

import math
from typing import Callable, Iterable, Sequence

import numpy as np


def kron_vec(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product v_1 (x) v_2 (x) ... (x) v_N of 1-D arrays.

    The first vector varies slowest, consistent with
    :func:`multi_index_to_linear`.
    """
    if len(vectors) == 0:
        raise ValueError("kron_vec needs at least one vector")
    out = np.asarray(vectors[0], dtype=float).ravel()
    for v in vectors[1:]:
        out = np.kron(out, np.asarray(v, dtype=float).ravel())
    return out


def multi_index_to_linear(index: Sequence[int], dims: Sequence[int]) -> int:
    """Map a 1-based multi-index to its 1-based linear position."""
    if len(index) != len(dims):
        raise ValueError(f"index length {len(index)} != order {len(dims)}")
    pos = 0
    for r, d in zip(index, dims):
        if not 1 <= r <= d:
            raise IndexError(f"index component {r} out of range 1..{d}")
        pos = pos * d + (r - 1)
    return pos + 1


def linear_to_multi_index(position: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`multi_index_to_linear` (both ends 1-based)."""
    total = math.prod(dims)
    if not 1 <= position <= total:
        raise IndexError(f"linear position {position} out of range 1..{total}")
    rem = position - 1
    out = []
    for d in reversed(dims):
        rem, r = divmod(rem, d)
        out.append(r + 1)
    return tuple(reversed(out))


def mode_n_unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Unfold a tensor along ``mode`` (1-based) into a ``d_mode x rest`` matrix.

    Row ``i`` collects all entries whose mode-``mode`` index equals ``i``;
    columns are ordered by the multi-index of the remaining modes in
    ascending mode order (last remaining mode fastest).
    """
    tensor = np.asarray(tensor, dtype=float)
    if not 1 <= mode <= tensor.ndim:
        raise IndexError(f"mode {mode} out of range 1..{tensor.ndim}")
    moved = np.moveaxis(tensor, mode - 1, 0)
    return moved.reshape(tensor.shape[mode - 1], -1)


def per_map_sq_norms(
    maps: Iterable[Callable[[np.ndarray], np.ndarray]], x: np.ndarray
) -> np.ndarray:
    """||f(x)||^2 for each map f of ``maps``, one map and one apply at a time.

    Built maps share only the law with the vectorized sampler, not its
    stream, so agreement with it is statistical.
    """
    x = np.asarray(x, dtype=float).ravel()
    return np.array([float(y @ y) for y in (f(x) for f in maps)])


def polarization_check(
    project: Callable[[np.ndarray], np.ndarray], x: np.ndarray, y: np.ndarray
) -> float:
    """Defect of the polarization identity under the projection.

    Returns |4 <f(x), f(y)> - (||f(x+y)||^2 - ||f(x-y)||^2)|, which is zero in
    exact arithmetic for any linear map and stays at rounding level for a
    correct implementation.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    fx = project(x)
    fy = project(y)
    fsum = project(x + y)
    fdiff = project(x - y)
    lhs = 4.0 * float(fx @ fy)
    rhs = float(fsum @ fsum) - float(fdiff @ fdiff)
    return abs(lhs - rhs)
