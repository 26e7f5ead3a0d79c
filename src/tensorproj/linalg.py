"""Input checks, dense linear algebra helpers and the package-wide index convention.

Every module sits on this one, so it owns the input policy: arrays are real
(:func:`_as_real`) and finite (:func:`_check_finite`), and sizes positive
integers (:func:`_check_sizes`, through :func:`_check_shape` for dims, k and
T), and float parameters real numbers (:func:`_check_real`).  Callers add
only their own shapes and ranges.  A map calls :func:`_check_finite`
on its input only when its kernel's output is not finite (see
:mod:`tensorproj.maps`), so finite input is read once.

Everything else here operates on plain numpy arrays (row-major).  An order-N
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

import numbers
from typing import NamedTuple, Sequence

import numpy as np

# A column of M is treated as numerically zero (rank-deficient) when the
# corresponding |R[i, i]| falls below this multiple of ||M||_F.
RANK_TOL = 1e-12


def _check_sizes(**sizes: object) -> None:
    """The one check of every size argument, in keyword order; the message names it.

    Each value, or each entry of a tuple value (which must not be empty), is
    a positive ``int`` or ``np.integer``.  Like
    :class:`~tensorproj.distributions.SeedSpec`, a float is refused, not
    truncated, and so is a ``bool``.
    """
    for name, value in sizes.items():
        many = isinstance(value, tuple)
        values = value if many else (value,)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
            raise ValueError(f"{name} must be {'integers' if many else 'an integer'}, got {value!r}")
        if not values or min(values) < 1:
            raise ValueError(f"{name} must {'be positive' if values else 'not be empty'}, got {value}")


def _check_real(name: str, value: object) -> None:
    """The one check of every float parameter; the message names it.

    ``value``, or each entry of a tuple ``value``, is a ``numbers.Real``
    (numpy's real scalars included) and not a ``bool``: a string, ``None``,
    a complex number or a list is refused before any arithmetic meets it.
    """
    many = isinstance(value, tuple)
    values = value if many else (value,)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
        raise ValueError(f"{name} must be {'real numbers' if many else 'a real number'}, got {value!r}")


def _check_shape(dims: Sequence[int], k: int, T: int = 1) -> tuple[int, ...]:
    """The one shape check of every builder and sampler; returns ``dims`` as ints."""
    dims = tuple(dims)
    _check_sizes(dims=dims, k=k, T=T)
    return tuple(int(d) for d in dims)


def _check_finite(x: np.ndarray) -> np.ndarray:
    """``x`` itself, which must hold no NaN or infinite entry.

    A finite sum rules both out without an ``x``-sized temporary; only a sum
    that is not finite, NaN and inf or an overflow, needs the entrywise test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = x.sum()
    if not np.isfinite(total) and not np.isfinite(x).all():
        raise ValueError("input holds NaN or infinite entries")
    return x


def _as_real(x, asarray=np.asarray) -> np.ndarray:
    """``asarray(x)`` as floats: the real-input check of every converter.

    numpy's own cast only warns when it drops an imaginary part.  A float64
    array comes back as itself, so ``np.asanyarray`` keeps the object.
    """
    x = asarray(x)
    if np.iscomplexobj(x):
        raise ValueError("input is complex; projections take real input")
    return x.astype(float, copy=False)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of two matrices with equal column count.

    For ``a`` of shape ``(I, K)`` and ``b`` of shape ``(J, K)`` the result has
    shape ``(I*J, K)`` and entries ``out[(i-1)*J + (j-1), c] = a[i-1, c] * b[j-1, c]``
    (1-based row indices), i.e. column ``c`` is ``kron(a[:, c], b[:, c])``.
    Leading axes broadcast: stacks ``(..., I, K)`` and ``(..., J, K)`` give
    ``(..., I*J, K)``, one product per leading index.
    """
    a = _as_real(a)
    b = _as_real(b)
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
    callers decide what a short basis means for them.  NaN or infinite
    entries are refused: they would make the rank meaningless.
    """
    mat = _as_real(mat)
    if mat.ndim != 2:
        raise ValueError("qr_factor expects a matrix")
    _check_finite(mat)
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
