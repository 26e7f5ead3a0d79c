import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tensorproj.data import IdxFormatError, gen_synthetic, load_mnist
from tensorproj.distributions import SeedSpec


def test_load_valid_file(write_idx):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 784), dtype=np.uint8)
    images[:, 0] = 200  # guard against an all-zero row
    path = write_idx(images=images)
    vecs = load_mnist(path, 3)
    assert vecs.shape == (3, 784)
    assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)
    want = images[0].astype(float) / 255.0
    assert_allclose(vecs[0], want / np.linalg.norm(want), atol=1e-12)


def test_rejects_label_file_magic(write_idx):
    path = write_idx(count=3, magic=0x00000801)
    with pytest.raises(IdxFormatError, match="bad magic 0x00000801 at byte 0"):
        load_mnist(path, 1)


def test_idx_error_is_a_value_error(write_idx):
    path = write_idx(count=1, magic=0xDEADBEEF)
    with pytest.raises(ValueError):
        load_mnist(path, 1)


def test_truncated_header(write_idx):
    path = write_idx(count=2, truncate_at=10)
    with pytest.raises(IdxFormatError, match="file ends at byte 10"):
        load_mnist(path, 1)


def test_truncated_pixels(write_idx):
    # header promises 2 images, payload holds 1.5
    path = write_idx(count=2, truncate_at=16 + 784 + 392)
    with pytest.raises(IdxFormatError, match="truncated pixel data"):
        load_mnist(path, 2)


def test_wrong_image_shape(write_idx):
    path = write_idx(count=2, rows=27)
    with pytest.raises(IdxFormatError, match="27x28 at byte 8"):
        load_mnist(path, 1)


def test_requesting_more_than_the_file_holds(write_idx):
    path = write_idx(count=4)
    with pytest.raises(ValueError, match="requested 9 images but the file holds 4"):
        load_mnist(path, 9)


def test_n_must_be_positive(write_idx):
    path = write_idx(count=2)
    with pytest.raises(ValueError, match="n must be positive"):
        load_mnist(path, 0)


def test_blank_image_rejected(write_idx):
    images = np.full((3, 784), 7, dtype=np.uint8)
    images[1] = 0
    path = write_idx(images=images)
    assert load_mnist(path, 1).shape == (1, 784)
    with pytest.raises(ValueError, match="image 1 is entirely blank"):
        load_mnist(path, 2)


def test_reads_only_the_requested_prefix(write_idx):
    # count field says 5 but only 2 images of pixels exist on disk; asking
    # for 2 must succeed because nothing past byte 16 + 2*784 is read
    images = np.ones((2, 784), dtype=np.uint8)
    path = write_idx(images=images, count=5)
    assert load_mnist(path, 2).shape == (2, 784)
    with pytest.raises(IdxFormatError):
        load_mnist(path, 3)


def test_gen_synthetic_deterministic():
    a = gen_synthetic(40, 10, SeedSpec(1))
    b = gen_synthetic(40, 10, SeedSpec(1))
    assert_array_equal(a, b)
    assert not np.array_equal(a, gen_synthetic(40, 10, SeedSpec(2)))


def test_gen_synthetic_shape_and_scale():
    pts = gen_synthetic(2500, 400, SeedSpec(3))
    assert pts.shape == (400, 2500)
    assert float(pts.var()) == pytest.approx(1.0, rel=0.01)
    assert float(pts.mean()) == pytest.approx(0.0, abs=0.01)


def test_gen_synthetic_validation():
    with pytest.raises(ValueError, match="d must be positive"):
        gen_synthetic(0, 5, SeedSpec(0))
    with pytest.raises(ValueError, match="n must be positive"):
        gen_synthetic(5, 0, SeedSpec(0))
