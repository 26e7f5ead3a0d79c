"""Input data for the benchmarks: IDX image files and synthetic Gaussians.

The IDX image format (as used by the classic handwritten-digit set) is
big-endian: a 4-byte magic 0x00000803, then image count, row count and
column count as unsigned 32-bit integers, then one unsigned byte per pixel,
row-major.  Only the first ``n`` requested images are ever read or held in
memory.
"""

from __future__ import annotations

import struct

import numpy as np

from .distributions import SeedSpec
from .linalg import _check_sizes

IDX_IMAGE_MAGIC = 0x00000803
IMAGE_SIDE = 28
IMAGE_PIXELS = IMAGE_SIDE * IMAGE_SIDE


class IdxFormatError(ValueError):
    """The file is not a valid IDX image file; the message says where."""


def load_mnist(path: str, n: int) -> np.ndarray:
    """First ``n`` images as unit-norm rows of length 784.

    Pixels are scaled to [0, 1] and each flattened image is normalized to
    unit Euclidean length.  No mean-centering is applied: the benchmark
    geometry (distances, cosines) is defined on the raw nonnegative vectors.
    """
    _check_sizes(n=n)
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise IdxFormatError(
                f"{path}: truncated header, file ends at byte {len(header)}"
            )
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(
                f"{path}: bad magic 0x{magic:08x} at byte 0, "
                f"expected 0x{IDX_IMAGE_MAGIC:08x}"
            )
        if rows != IMAGE_SIDE or cols != IMAGE_SIDE:
            raise IdxFormatError(
                f"{path}: image shape {rows}x{cols} at byte 8, expected "
                f"{IMAGE_SIDE}x{IMAGE_SIDE}"
            )
        if n > count:
            raise ValueError(f"requested {n} images but the file holds {count}")
        buf = f.read(n * IMAGE_PIXELS)
    if len(buf) < n * IMAGE_PIXELS:
        raise IdxFormatError(
            f"{path}: truncated pixel data, file ends at byte {16 + len(buf)}"
        )
    images = np.frombuffer(buf, dtype=np.uint8).reshape(n, IMAGE_PIXELS)
    vectors = images.astype(float) / 255.0
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0.0):
        blank = int(np.nonzero(norms == 0.0)[0][0])
        raise ValueError(f"image {blank} is entirely blank; cannot normalize")
    return vectors / norms[:, None]


def gen_synthetic(d: int, n: int, seed: SeedSpec) -> np.ndarray:
    """``n`` i.i.d. standard normal vectors of length ``d``, one per row."""
    _check_sizes(d=d, n=n)
    return seed.generator().standard_normal((n, d))
