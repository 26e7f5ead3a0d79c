import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose, assert_array_equal

from oracles import kron_vec, linear_to_multi_index, mode_n_unfold, multi_index_to_linear
from tensorproj.linalg import khatri_rao, qr_factor

small_dims = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)


def random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols))


# ---------------------------------------------------------------- khatri_rao


def test_khatri_rao_zero_row_annihilates_block():
    a = np.array([[1.0], [0.0]])
    b = np.array([[1.0], [1.0]])
    assert_array_equal(khatri_rao(a, b), [[1.0], [1.0], [0.0], [0.0]])


def test_khatri_rao_two_by_two():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    out = khatri_rao(a, b)
    assert_array_equal(out[:, 0], [5.0, 7.0, 15.0, 21.0])
    assert_array_equal(out[:, 1], [12.0, 16.0, 24.0, 32.0])


def test_khatri_rao_ones_row_is_identity():
    rng = np.random.default_rng(0)
    b = random_matrix(rng, 4, 3)
    assert_array_equal(khatri_rao(np.ones((1, 3)), b), b)


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError, match="column count mismatch"):
        khatri_rao(np.ones((2, 3)), np.ones((2, 2)))


def test_khatri_rao_rejects_vectors():
    with pytest.raises(ValueError):
        khatri_rao(np.ones(3), np.ones((3, 1)))


@given(
    i=st.integers(1, 5),
    j=st.integers(1, 5),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_khatri_rao_columns_are_kron(i, j, k, seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, i, k)
    b = random_matrix(rng, j, k)
    out = khatri_rao(a, b)
    assert out.shape == (i * j, k)
    for c in range(k):
        assert_array_equal(out[:, c], kron_vec([a[:, c], b[:, c]]))
    # Stacks of matrices: one product per leading index, and a single
    # matrix broadcasts against a stack.
    sa = rng.standard_normal((2, 3, i, k))
    sb = rng.standard_normal((3, j, k))
    stacked = khatri_rao(sa, sb)
    assert stacked.shape == (2, 3, i * j, k)
    for p in range(2):
        for q in range(3):
            assert_array_equal(stacked[p, q], khatri_rao(sa[p, q], sb[q]))
    assert_array_equal(khatri_rao(sb, b), [khatri_rao(m, b) for m in sb])


@given(
    i=st.integers(1, 4),
    j=st.integers(1, 4),
    l=st.integers(1, 4),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_khatri_rao_associative(i, j, l, k, seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, i, k)
    b = random_matrix(rng, j, k)
    c = random_matrix(rng, l, k)
    assert_allclose(
        khatri_rao(khatri_rao(a, b), c),
        khatri_rao(a, khatri_rao(b, c)),
        rtol=0,
        atol=1e-12,
    )


# ------------------------------------------------------------------ kron_vec


def test_kron_vec_hand_expansion():
    assert_array_equal(kron_vec([[1.0, 1.0], [1.0, -1.0]]), [1.0, -1.0, 1.0, -1.0])


def test_kron_vec_single_vector():
    v = np.array([3.0, -1.0, 2.0])
    assert_array_equal(kron_vec([v]), v)


def test_kron_vec_zero_vector_annihilates():
    out = kron_vec([np.array([1.0, 2.0]), np.zeros(3), np.array([4.0])])
    assert_array_equal(out, np.zeros(6))


def test_kron_vec_empty_list():
    with pytest.raises(ValueError, match="at least one"):
        kron_vec([])


@given(dims=small_dims, seed=st.integers(0, 2**32 - 1))
def test_kron_vec_entry_matches_index_formula(dims, seed):
    rng = np.random.default_rng(seed)
    vectors = [rng.standard_normal(d) for d in dims]
    out = kron_vec(vectors)
    for pos in range(1, math.prod(dims) + 1):
        index = linear_to_multi_index(pos, dims)
        expected = math.prod(v[r - 1] for v, r in zip(vectors, index))
        assert out[pos - 1] == pytest.approx(expected, abs=1e-15)


# ------------------------------------------------------------- index mapping


def test_multi_index_examples():
    assert multi_index_to_linear((1, 1, 1), (2, 3, 4)) == 1
    assert multi_index_to_linear((2, 3, 4), (2, 3, 4)) == 24
    assert multi_index_to_linear((1, 2), (2, 3)) == 2


def test_multi_index_matches_numpy_c_order():
    dims = (3, 4, 2)
    for flat in range(math.prod(dims)):
        index = np.unravel_index(flat, dims)
        one_based = tuple(r + 1 for r in index)
        assert multi_index_to_linear(one_based, dims) == flat + 1


def test_multi_index_out_of_range():
    with pytest.raises(IndexError, match="out of range"):
        multi_index_to_linear((3, 1), (2, 3))
    with pytest.raises(IndexError):
        multi_index_to_linear((0, 1), (2, 3))


def test_multi_index_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        multi_index_to_linear((1, 1), (2, 3, 4))


def test_linear_index_out_of_range():
    with pytest.raises(IndexError):
        linear_to_multi_index(0, (2, 3))
    with pytest.raises(IndexError):
        linear_to_multi_index(7, (2, 3))


@given(dims=small_dims)
def test_index_round_trip_is_exhaustive_bijection(dims):
    total = math.prod(dims)
    seen = set()
    for pos in range(1, total + 1):
        index = linear_to_multi_index(pos, dims)
        assert all(1 <= r <= d for r, d in zip(index, dims))
        assert multi_index_to_linear(index, dims) == pos
        seen.add(index)
    assert len(seen) == total


# -------------------------------------------------------------- mode unfold


def test_mode_1_unfold_of_matrix_is_identity():
    rng = np.random.default_rng(1)
    mat = random_matrix(rng, 3, 5)
    assert_array_equal(mode_n_unfold(mat, 1), mat)


def test_mode_unfold_against_index_enumeration():
    dims = (2, 3, 4)
    tensor = np.arange(24.0).reshape(dims)
    out = mode_n_unfold(tensor, 2)
    assert out.shape == (3, 8)
    # Columns run over the remaining modes (1, 3) with mode 3 fastest.
    for r1 in range(2):
        for r2 in range(3):
            for r3 in range(4):
                assert out[r2, r1 * 4 + r3] == tensor[r1, r2, r3]


def test_mode_unfold_constant_tensor():
    out = mode_n_unfold(np.full((2, 3, 2), 7.0), 3)
    assert out.shape == (2, 6)
    assert np.all(out == 7.0)


def test_mode_unfold_bad_mode():
    with pytest.raises(IndexError, match="mode"):
        mode_n_unfold(np.zeros((2, 2)), 3)
    with pytest.raises(IndexError):
        mode_n_unfold(np.zeros((2, 2)), 0)


@given(dims=small_dims, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_mode_unfold_preserves_frobenius_norm(dims, seed, data):
    mode = data.draw(st.integers(1, len(dims)))
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal(dims)
    out = mode_n_unfold(tensor, mode)
    assert out.shape[0] == dims[mode - 1]
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(tensor.ravel()))


# ------------------------------------------------------------------------ QR


def test_qr_single_column():
    q, r, rank = qr_factor(np.array([[3.0], [4.0]]))
    assert rank == 1
    assert_allclose(np.abs(q), [[0.6], [0.8]], atol=1e-14)
    assert_allclose(q * r[0, 0], [[3.0], [4.0]], atol=1e-14)


@settings(max_examples=30)
@given(m=st.integers(2, 12), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_qr_orthonormal_and_reconstructs(m, k, seed):
    if m < k:
        m, k = k, m
        if m == k:
            m += 1
    rng = np.random.default_rng(seed)
    mat = random_matrix(rng, m, k)
    q, r, rank = qr_factor(mat)
    assert q.shape == (m, k)
    assert rank == k
    assert np.max(np.abs(q.T @ q - np.eye(k))) <= 1e-10
    assert np.linalg.norm(q @ r - mat) <= 1e-10 * np.linalg.norm(mat)


def test_qr_already_orthonormal_input():
    q0 = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 3)))[0]
    q = qr_factor(q0).q
    assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-12
    # Same span: projecting q0 onto range(q) changes nothing.
    assert_allclose(q @ (q.T @ q0), q0, atol=1e-12)


def test_qr_duplicate_column_reports_deficiency():
    rng = np.random.default_rng(4)
    col = rng.standard_normal((5, 1))
    _, _, rank = qr_factor(np.hstack([col, col]))
    assert rank == 1


def test_qr_zero_matrix_rank_zero():
    assert qr_factor(np.zeros((4, 2))).effective_rank == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_qr_non_finite_rejected(bad):
    mat = np.ones((4, 2))
    mat[1, 0] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        qr_factor(mat)


def test_qr_wide_matrix_rejected():
    with pytest.raises(ValueError, match="rows"):
        qr_factor(np.ones((2, 3)))


def test_qr_vector_rejected():
    with pytest.raises(ValueError):
        qr_factor(np.ones(4))
