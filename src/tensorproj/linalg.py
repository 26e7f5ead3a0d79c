"""Dense linear algebra helpers and the package-wide index convention.

Everything here operates on plain numpy arrays (row-major).  An order-N
tensor with dimensions ``(d_1, ..., d_N)`` is identified with a vector of
length ``prod(d_i)`` by letting the *last* mode vary fastest: the 1-based
multi-index ``(r_1, ..., r_N)`` sits at linear position

    1 + sum_n (r_n - 1) * s_n,   s_n = prod_{m > n} d_m.

This is exactly numpy's C ordering, so ``x.reshape(dims)`` and
``tensor.ravel()`` follow it.  Kronecker products (``np.kron``, first factor
slowest), the rows of :func:`khatri_rao` and mode unfoldings (the mode moved
to the front, then a C-order reshape) all follow this one convention; mixing
conventions is the classic source of silent transposition bugs in tensor
code, so keep it in one place.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# A column of M is treated as numerically zero (rank-deficient) when the
# corresponding |R[i, i]| falls below this multiple of ||M||_F.
RANK_TOL = 1e-12


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of two matrices with equal column count.

    For ``a`` of shape ``(I, K)`` and ``b`` of shape ``(J, K)`` the result has
    shape ``(I*J, K)`` and entries ``out[(i-1)*J + (j-1), c] = a[i-1, c] * b[j-1, c]``
    (1-based row indices), i.e. column ``c`` is ``kron(a[:, c], b[:, c])``.
    Leading axes broadcast: stacks ``(..., I, K)`` and ``(..., J, K)`` give
    ``(..., I*J, K)``, one product per leading index.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("khatri_rao expects two matrices or stacks of matrices")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"column count mismatch: {a.shape[-1]} != {b.shape[-1]}"
        )
    out = a[..., :, None, :] * b[..., None, :, :]
    return out.reshape(out.shape[:-3] + (a.shape[-2] * b.shape[-2], a.shape[-1]))


class QrFactor(NamedTuple):
    q: np.ndarray
    r: np.ndarray
    effective_rank: int


def qr_factor(mat: np.ndarray) -> QrFactor:
    """Reduced Householder QR plus an effective-rank estimate.

    ``effective_rank`` counts diagonal entries of R with magnitude at least
    ``RANK_TOL * ||mat||_F``.  Rank deficiency is reported, never raised;
    callers decide what a short basis means for them.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError("qr_factor expects a matrix")
    m, k = mat.shape
    if m < k:
        raise ValueError(f"need at least as many rows as columns, got {m} x {k}")
    q, r = np.linalg.qr(mat, mode="reduced")
    scale = np.linalg.norm(mat)
    if scale == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(np.abs(np.diag(r)) >= RANK_TOL * scale))
    return QrFactor(q, r, rank)
