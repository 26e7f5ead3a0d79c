import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose, assert_array_equal

from oracles import kron_vec, linear_to_multi_index
from tensorproj.distributions import EntryDistribution, SeedSpec, very_sparse_family
from tensorproj.linalg import _check_finite, khatri_rao, qr_factor
from tensorproj.maps import (
    MATERIALIZE_CAP,
    ConventionalRp,
    TensorRandomProjection,
    build_conventional,
    build_ensemble,
    build_map,
    build_trp,
)
from tensorproj.sketch import (
    LowRank,
    _multi_mode_product,
    averaged_low_rank_approx,
    low_rank_approx,
    relative_error,
)
from tensorproj.stats import (
    cosine_similarity_rmse,
    exact_variance,
    pairwise_distance_ratio,
    squared_norm_samples,
    theoretical_variance,
)

GAUSS = EntryDistribution.gaussian()
SPARSE = EntryDistribution.sparse_sign(1 / 3)

map_shapes = st.tuples(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def test_hand_worked_two_by_two():
    a1 = np.array([[1.0], [1.0]])
    a2 = np.array([[1.0], [-1.0]])
    trp = TensorRandomProjection((a1, a2), (GAUSS, GAUSS))
    y = trp.apply(np.array([1.0, 2.0, 3.0, 4.0]))
    assert_allclose(y, [-2.0], atol=1e-14)


@pytest.mark.parametrize("dims", [(4, 5), (3, 4, 5), (2, 3, 4, 5)])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("dist", [GAUSS, SPARSE], ids=["gaussian", "sparse"])
def test_apply_matches_materialized_oracle(dims, k, dist):
    trp = build_trp(dims, k, dist, SeedSpec(42).child(len(dims)))
    rng = np.random.default_rng(7)
    dense = trp.materialize()
    for _ in range(5):
        x = rng.standard_normal(trp.d)
        want = dense.T @ x / math.sqrt(k)
        got = trp.apply(x)
        assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1e-30)


KERNEL_DIMS = [(12,), (4, 5), (3, 4, 5), (2, 3, 4, 5)]
KERNEL_DISTS = {
    "gaussian": lambda dims: GAUSS,
    "sparse": lambda dims: SPARSE,
    "very_sparse": very_sparse_family,
}


def _assert_matches_oracle(trp, xs):
    want = xs @ trp.materialize() / math.sqrt(trp.k)
    got = trp.apply(xs)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("dims", KERNEL_DIMS, ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("dist", KERNEL_DISTS.values(), ids=KERNEL_DISTS.keys())
@pytest.mark.parametrize("n", [0, 1, 7])
def test_kernel_matches_materialized_oracle(dims, dist, n):
    trp = build_trp(dims, 6, dist(dims), SeedSpec(21).child(len(dims)))
    _assert_matches_oracle(trp, np.random.default_rng(n).standard_normal((n, trp.d)))


@pytest.mark.parametrize("dims", KERNEL_DIMS, ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("dist", KERNEL_DISTS.values(), ids=KERNEL_DISTS.keys())
def test_kernel_with_an_all_zero_factor_column(dims, dist):
    trp = build_trp(dims, 5, dist(dims), SeedSpec(22))
    factors = [f.copy() for f in trp.factors]
    factors[-1][:, 2] = 0.0
    zeroed = TensorRandomProjection(tuple(factors), trp.dists)
    xs = np.random.default_rng(3).standard_normal((7, trp.d))
    _assert_matches_oracle(zeroed, xs)
    assert_array_equal(zeroed.apply(xs)[:, 2], 0.0)


def test_sparse_and_dense_paths_agree():
    # The same factor values run through the sign-pattern route when the
    # distributions say sparse_sign, and through the plain contraction when
    # they do not; both must compute the same map.
    cases = [
        ((6, 7), (SPARSE, EntryDistribution.sparse_sign(0.5))),
        ((5, 6, 7), very_sparse_family((5, 6, 7))),
    ]
    for dims, dists in cases:
        trp = build_trp(dims, 4, dists, SeedSpec(3))
        relabeled = TensorRandomProjection(trp.factors, (GAUSS,) * len(dims))
        xs = np.random.default_rng(8).standard_normal((9, trp.d))
        assert_allclose(trp.apply(xs), relabeled.apply(xs), atol=1e-12)


def test_zero_input_gives_zero_output():
    trp = build_trp((3, 4), 5, GAUSS, SeedSpec(1))
    assert_array_equal(trp.apply(np.zeros(12)), np.zeros(5))


@settings(max_examples=30)
@given(shape=map_shapes)
def test_linearity(shape):
    dims, k, seed = shape
    trp = build_trp(dims, k, GAUSS, SeedSpec(seed))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(trp.d)
    y = rng.standard_normal(trp.d)
    a, b = rng.standard_normal(2)
    left = trp.apply(a * x + b * y)
    right = a * trp.apply(x) + b * trp.apply(y)
    scale = max(np.linalg.norm(left), np.linalg.norm(right), 1e-30)
    assert np.linalg.norm(left - right) <= 1e-12 * scale


@settings(max_examples=60)
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    k=st.integers(1, 3),
    rows=st.sampled_from([0, 1, 5]),
    dist=st.sampled_from([GAUSS, SPARSE]),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_matches_materialized_matrix_on_shape_edges(dims, k, rows, dist, seed):
    # Size-1 modes, orders 1-4, k = 1 and batches of 0, 1 and n rows all go
    # through the one kernel; each must equal the explicit Khatri-Rao matrix.
    trp = build_trp(dims, k, dist, SeedSpec(seed))
    xs = np.random.default_rng(seed).standard_normal((rows, trp.d))
    got = trp.apply(xs)
    want = xs @ trp.materialize() / math.sqrt(k)
    assert got.shape == want.shape == (rows, k)
    assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)


def test_batch_apply_matches_rows():
    trp = build_trp((4, 3), 6, SPARSE, SeedSpec(5))
    xs = np.random.default_rng(6).standard_normal((8, 12))
    batch = trp.apply(xs)
    assert batch.shape == (8, 6)
    for i in range(8):
        assert_allclose(batch[i], trp.apply(xs[i]), atol=1e-13)


def test_apply_rejects_wrong_length():
    trp = build_trp((3, 4), 2, GAUSS, SeedSpec(0))
    with pytest.raises(ValueError, match="map expects 12"):
        trp.apply(np.zeros(11))
    with pytest.raises(ValueError):
        trp.apply(np.zeros((2, 3, 4)))


# Every map kind on d = 12, k = 3, behind the one input check.
BOUNDARY_MAPS = {
    "trp": lambda: build_trp((3, 4), 3, GAUSS, SeedSpec(30)),
    "trp-sparse": lambda: build_trp((3, 4), 3, SPARSE, SeedSpec(30)),
    "ensemble": lambda: build_ensemble((3, 4), 3, GAUSS, 2, SeedSpec(31)),
    "rp": lambda: build_conventional(12, 3, GAUSS, SeedSpec(32)),
}


@pytest.mark.parametrize("make", BOUNDARY_MAPS.values(), ids=BOUNDARY_MAPS.keys())
def test_three_dimensional_input_names_its_shape(make):
    want = r"vector or an \(n, 12\) batch, got shape \(2, 3, 4\)"
    with pytest.raises(ValueError, match=want):
        make().apply(np.zeros((2, 3, 4)))


@pytest.mark.parametrize("make", BOUNDARY_MAPS.values(), ids=BOUNDARY_MAPS.keys())
def test_empty_batch_gives_empty_output(make):
    y = make().apply(np.zeros((0, 12)))
    assert y.shape == (0, 3)


@pytest.mark.parametrize("make", BOUNDARY_MAPS.values(), ids=BOUNDARY_MAPS.keys())
def test_complex_input_is_rejected(make):
    x = np.ones(12) + 1j * np.arange(12)
    with pytest.raises(ValueError, match="complex"):
        make().apply(x)
    with pytest.raises(ValueError, match="complex"):
        make().apply(np.ones((2, 12), dtype=complex))


_XC = np.ones(12) + 1j * np.arange(12)  # a complex vector on dims (3, 4)
_PC = np.arange(24.0).reshape(6, 4) + 1j  # six complex points
_MC = np.ones((6, 12), dtype=complex)  # a complex 6 x 12 matrix
_M = np.arange(72.0).reshape(6, 12) % 7 + 1.0
COMPLEX_CALLS = {
    "squared_norm_samples": lambda: squared_norm_samples((3, 4), 2, GAUSS, _XC, 3, SeedSpec(0)),
    "theoretical_variance": lambda: theoretical_variance(_XC, 3.0, 2),
    "exact_variance": lambda: exact_variance(_XC, (3, 4), 3.0, 2),
    "pairwise_distance_ratio": lambda: pairwise_distance_ratio(_PC, [lambda x: x]),
    "cosine_similarity_rmse": lambda: cosine_similarity_rmse(_PC, [lambda x: x]),
    "cosine_similarity_rmse-map-output": lambda: cosine_similarity_rmse(
        _PC.real, [lambda x: x * 1j]
    ),
    "low_rank_approx": lambda: low_rank_approx(_MC, BOUNDARY_MAPS["trp"]()),
    "low_rank_approx-sketch": lambda: low_rank_approx(_M, lambda x: x[:, :2] * 1j),
    "averaged_low_rank_approx": lambda: averaged_low_rank_approx(_MC, BOUNDARY_MAPS["ensemble"]()),
    "relative_error": lambda: relative_error(_MC, _M),
    "relative_error-dense-approx": lambda: relative_error(_M, _MC),
    "relative_error-factored-approx": lambda: relative_error(
        _M, LowRank(np.ones((6, 1), dtype=complex), np.ones((1, 12)))
    ),
    "multi_mode_product": lambda: _multi_mode_product(np.ones((2, 2)) * 1j, [np.eye(2)] * 2),
    "multi_mode_product-arm": lambda: _multi_mode_product(
        np.ones((2, 2)), [np.eye(2), np.eye(2) * 1j]
    ),
    "khatri_rao": lambda: khatri_rao(np.ones((2, 1)) * 1j + 1, np.ones((2, 1))),
    "qr_factor": lambda: qr_factor(_MC.T),
}


@pytest.mark.parametrize("call", COMPLEX_CALLS.values(), ids=COMPLEX_CALLS.keys())
def test_complex_input_is_rejected_by_every_entry_point(call):
    # numpy's own conversion would only warn and drop the imaginary part.
    with pytest.raises(ValueError, match="complex"):
        call()


BAD_FACTORS = {
    # Each used to build: the first map returned complex output, the second
    # NaN, and the third raised a bare IndexError.
    "complex": (np.ones((2, 2)) * 1j, "complex"),
    "nan": (np.array([[1.0, math.nan], [0.0, 1.0]]), "NaN or infinite"),
    "one-dimensional": (np.ones(2), r"\(d_i, k\) matrix, got shape \(2,\)"),
}


@pytest.mark.parametrize("factor,match", BAD_FACTORS.values(), ids=BAD_FACTORS.keys())
@pytest.mark.parametrize("cls", [TensorRandomProjection, ConventionalRp], ids=["trp", "rp"])
def test_hand_built_map_rejects_a_bad_factor(cls, factor, match):
    with pytest.raises(ValueError, match=match):
        cls((factor,), (GAUSS,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", BOUNDARY_MAPS.values(), ids=BOUNDARY_MAPS.keys())
def test_non_finite_input_is_rejected(make, bad):
    x = np.ones(12)
    x[5] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        make().apply(x)
    with pytest.raises(ValueError, match="NaN or infinite"):
        make().apply(np.vstack([np.ones(12), x]))


def test_finite_input_whose_sum_overflows_is_accepted():
    x = np.full((3, 4), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _check_finite(x) is x
    x[1, 2] = -math.inf
    with pytest.raises(ValueError, match="NaN or infinite"):
        _check_finite(x)


# ------------------------------------------------------------------ ensemble


def test_ensemble_of_one_equals_its_replicate():
    ens = build_ensemble((3, 3), 4, GAUSS, 1, SeedSpec(2))
    x = np.random.default_rng(0).standard_normal(9)
    assert_array_equal(ens.apply(x), ens.replicates[0].apply(x))


def test_ensemble_decomposition():
    ens = build_ensemble((4, 2), 3, GAUSS, 5, SeedSpec(3))
    x = np.random.default_rng(1).standard_normal(8)
    manual = sum(rep.apply(x) for rep in ens.replicates) / math.sqrt(5)
    assert_allclose(ens.apply(x), manual, atol=1e-12)


def test_ensemble_replicates_are_independent_draws():
    ens = build_ensemble((5, 5), 2, GAUSS, 3, SeedSpec(4))
    assert not np.array_equal(ens.replicates[0].factors[0], ens.replicates[1].factors[0])


def test_ensemble_reads_an_iterator_of_distributions_once():
    # Every replicate used to re-read the iterator, so replicate 1 found it
    # empty: "got 0 distributions for 2 factors".
    want = build_ensemble((2, 2), 3, (GAUSS, SPARSE), 2, SeedSpec(5))
    got = build_ensemble((2, 2), 3, iter([GAUSS, SPARSE]), 2, SeedSpec(5))
    for rep, ref in zip(got.replicates, want.replicates, strict=True):
        assert rep.dists == ref.dists == (GAUSS, SPARSE)
        for a, b in zip(rep.factors, ref.factors, strict=True):
            assert_array_equal(a, b)


def test_ensemble_requires_matching_replicates():
    from tensorproj.maps import TrpEnsemble

    a = build_trp((2, 3), 2, GAUSS, SeedSpec(0))
    b = build_trp((3, 2), 2, GAUSS, SeedSpec(0))
    with pytest.raises(ValueError, match="share dims and k"):
        TrpEnsemble((a, b))
    with pytest.raises(ValueError, match="at least one replicate"):
        TrpEnsemble(())


# --------------------------------------------------------------- materialize


def test_materialize_single_factor_is_the_factor():
    trp = build_trp((6,), 3, GAUSS, SeedSpec(5))
    assert_array_equal(trp.materialize(), trp.factors[0])


def test_materialize_columns_are_kron_of_factor_columns():
    trp = build_trp((3, 4, 5), 2, GAUSS, SeedSpec(6))
    dense = trp.materialize()
    assert dense.shape == (60, 2)
    for j in range(2):
        col = kron_vec([f[:, j] for f in trp.factors])
        assert_array_equal(dense[:, j], col)


def test_materialize_entry_formula():
    trp = build_trp((2, 3, 2), 3, SPARSE, SeedSpec(7))
    dense = trp.materialize()
    for pos in (1, 5, 12):
        index = linear_to_multi_index(pos, trp.dims)
        for j in range(3):
            want = math.prod(f[r - 1, j] for f, r in zip(trp.factors, index))
            assert dense[pos - 1, j] == pytest.approx(want, abs=1e-15)


def test_materialize_cap():
    # 4000 * 2501 > MATERIALIZE_CAP, though the factors hold only 6501 entries.
    big = build_trp((4000, 2501), 1, GAUSS, SeedSpec(8))
    assert big.d * big.k > MATERIALIZE_CAP
    with pytest.raises(ValueError, match="cap"):
        big.materialize()
    assert build_trp((20, 20), 10, GAUSS, SeedSpec(8)).materialize().shape == (400, 10)


# ------------------------------------------------------- storage and nnz


def test_storage_counts():
    trp = build_trp((200, 200), 10, GAUSS, SeedSpec(9))
    assert trp.storage_count() == 4000
    flat = build_trp((400,), 10, GAUSS, SeedSpec(9))
    assert flat.storage_count() == 4000
    rp = build_conventional(400, 10, GAUSS, SeedSpec(9))
    assert rp.storage_count() == 4000


def test_ensemble_storage_is_sum_of_replicates():
    ens = build_ensemble((200, 200), 10, GAUSS, 5, SeedSpec(10))
    assert ens.storage_count() == 5 * 4000


@given(
    dims=st.lists(st.integers(2, 6), min_size=2, max_size=4),
    k=st.integers(1, 4),
)
def test_structured_storage_beats_dense(dims, k):
    # (2, 2) is the one boundary point where the factored and dense counts
    # tie: a*b - (a+b) = (a-1)(b-1) - 1.
    trp = build_trp(dims, k, GAUSS, SeedSpec(0))
    rp = build_conventional(math.prod(dims), k, GAUSS, SeedSpec(0))
    if tuple(dims) == (2, 2):
        assert trp.storage_count() == rp.storage_count()
    else:
        assert trp.storage_count() < rp.storage_count()


def test_expected_sparsity():
    assert build_trp((5, 5), 2, SPARSE, SeedSpec(0)).expected_sparsity() == pytest.approx(1 / 9)
    assert build_trp((5,), 2, SPARSE, SeedSpec(0)).expected_sparsity() == pytest.approx(1 / 3)
    vs = build_trp((50, 50), 2, very_sparse_family((50, 50)), SeedSpec(0))
    assert vs.expected_sparsity() == pytest.approx(1 / 50)
    assert build_trp((4, 4), 2, GAUSS, SeedSpec(0)).expected_sparsity() == 1.0
    assert build_conventional(9, 2, SPARSE, SeedSpec(0)).expected_sparsity() == pytest.approx(1 / 3)


def test_materialized_nnz_fraction_tracks_expected_sparsity():
    # Pinned seed: the nonzero pattern of a Khatri-Rao product is a tensor
    # product of the factor patterns, so its count fluctuates more than an
    # i.i.d. Bernoulli fill would; specific draws can land outside the
    # 3-sigma binomial band.
    trp = build_trp((6, 5), 7, SPARSE, SeedSpec(10))
    dense = trp.materialize()
    frac = np.count_nonzero(dense) / dense.size
    p = trp.expected_sparsity()
    assert abs(frac - p) <= 3 * math.sqrt(p * (1 - p) / dense.size)


# ------------------------------------------------------------------ builders


def test_build_trp_deterministic():
    a = build_trp((3, 4), 2, GAUSS, SeedSpec(11))
    b = build_trp((3, 4), 2, GAUSS, SeedSpec(11))
    for fa, fb in zip(a.factors, b.factors):
        assert_array_equal(fa, fb)


def test_build_trp_factor_streams_differ():
    trp = build_trp((4, 4), 3, GAUSS, SeedSpec(12))
    assert not np.array_equal(trp.factors[0], trp.factors[1])


def test_build_trp_validation():
    with pytest.raises(ValueError, match="dims"):
        build_trp((), 2, GAUSS, SeedSpec(0))
    with pytest.raises(ValueError, match="dims"):
        build_trp((3, 0), 2, GAUSS, SeedSpec(0))
    with pytest.raises(ValueError, match="k"):
        build_trp((3, 3), 0, GAUSS, SeedSpec(0))


# Every builder and sampler runs the one shape check, so each rejects a zero
# or float dim, k and T (where it takes dims or T) with the same message.
SHAPE_CHECKED = {
    "build_trp": ("dims", "k"),
    "build_ensemble": ("dims", "k", "T"),
    "build_conventional": ("dims", "k"),
    "build_map-rp": ("dims", "k"),
    "squared_norm_samples": ("dims", "k", "T"),
    "exact_variance": ("dims", "k", "T"),
    "theoretical_variance": ("k", "T"),
}
BAD_SHAPES = {
    "dims": (((0,), 2, 1), "dims must be positive, got (0,)"),
    "k": (((2, 3), 0, 1), "k must be positive, got 0"),
    "T": (((2, 3), 2, 0), "T must be positive, got 0"),
    "dims=2.5": (((2.5,), 2, 1), "dims must be integers, got (2.5,)"),
    "k=2.5": (((2, 3), 2.5, 1), "k must be an integer, got 2.5"),
    "T=2.5": (((2, 3), 2, 2.5), "T must be an integer, got 2.5"),
    "k=True": (((2, 3), True, 1), "k must be an integer, got True"),
    "T=True": (((2, 3), 2, True), "T must be an integer, got True"),
}


def _call_shape_checked(name, dims, k, T):
    x = np.ones(int(math.prod(dims)))
    calls = {
        "build_trp": lambda: build_trp(dims, k, GAUSS, SeedSpec(0)),
        "build_ensemble": lambda: build_ensemble(dims, k, GAUSS, T, SeedSpec(0)),
        "build_conventional": lambda: build_conventional(
            math.prod(dims), k, GAUSS, SeedSpec(0)
        ),
        "build_map-rp": lambda: build_map("rp", dims, k, GAUSS, T, SeedSpec(0)),
        "squared_norm_samples": lambda: squared_norm_samples(
            dims, k, GAUSS, x, 4, SeedSpec(0), T=T
        ),
        "exact_variance": lambda: exact_variance(x, dims, 3.0, k, T),
        "theoretical_variance": lambda: theoretical_variance(x, 3.0, k, T),
    }
    calls[name]()


@pytest.mark.parametrize(
    "name,bad",
    [
        (name, bad)
        for name, checks in SHAPE_CHECKED.items()
        for bad in BAD_SHAPES
        if bad.split("=")[0] in checks
    ],
)
def test_one_shape_check_for_every_builder_and_sampler(name, bad):
    (dims, k, T), message = BAD_SHAPES[bad]
    with pytest.raises(ValueError) as err:
        _call_shape_checked(name, dims, k, T)
    assert str(err.value) == message


def test_a_bool_dim_is_not_a_size():
    # True used to pass as 1: build_trp((True, 3), ...) built dims (1, 3).
    with pytest.raises(ValueError, match=r"^dims must be integers, got \(True, 3\)$"):
        build_trp((True, 3), 2, GAUSS, SeedSpec(0))


def test_shape_check_takes_numpy_integers_and_each_dense_dim():
    dims = (np.int64(2), np.int64(3))
    assert build_trp(dims, np.int64(2), GAUSS, SeedSpec(0)).dims == (2, 3)
    # Two negative dims have a positive product; the dense map checks each.
    with pytest.raises(ValueError, match="dims must be positive"):
        build_map("rp", (-2, -3), 2, GAUSS, 1, SeedSpec(0))


def test_conventional_rp_applies_scaled_matrix():
    rp = build_conventional(10, 4, GAUSS, SeedSpec(13))
    x = np.random.default_rng(2).standard_normal(10)
    assert_allclose(rp.apply(x), rp.matrix.T @ x / 2.0, atol=1e-14)
    with pytest.raises(ValueError):
        build_conventional(0, 4, GAUSS, SeedSpec(0))


@pytest.mark.parametrize("dist", [GAUSS, SPARSE], ids=["gaussian", "sparse"])
def test_conventional_rp_is_a_one_factor_trp(dist):
    rp = build_conventional(30, 6, dist, SeedSpec(16))
    assert isinstance(rp, TensorRandomProjection)
    assert rp.factors == (rp.matrix,) and rp.dists == (dist,)
    assert rp.dims == (30,) and (rp.d, rp.k) == (30, 6)
    assert rp.storage_count() == 30 * 6
    assert rp.expected_sparsity() == dist.delta
    assert_array_equal(rp.materialize(), rp.matrix)
    # Its own dense apply, bitwise, not the TRP's sign-pattern kernel.
    x = np.random.default_rng(3).standard_normal((20, 30))
    assert_array_equal(rp.apply(x), (x @ rp.matrix) / math.sqrt(6))
    assert_array_equal(rp(x[0]), (x[:1] @ rp.matrix)[0] / math.sqrt(6))


def test_build_map_kinds():
    fac = lambda i: build_map("trp", (3, 3), 2, GAUSS, 1, SeedSpec(14).child(i))
    assert isinstance(fac(0), TensorRandomProjection)
    assert_array_equal(fac(1).factors[0], fac(1).factors[0])
    assert not np.array_equal(fac(0).factors[0], fac(1).factors[0])
    rp = build_map("rp", (3, 3), 2, GAUSS, 1, SeedSpec(14).child(0))
    assert isinstance(rp, ConventionalRp)
    assert rp.d == 9
    ens = build_map("trp_t", (3, 3), 2, GAUSS, 4, SeedSpec(14).child(0))
    assert ens.T == 4


def test_build_map_is_its_kind_builder_on_the_same_seed():
    seed = SeedSpec(15).child(2)
    dense = build_map("rp", (3, 4), 5, SPARSE, 7, seed)
    assert_array_equal(dense.matrix, build_conventional(12, 5, SPARSE, seed).matrix)
    trp = build_map("trp", (3, 4), 5, SPARSE, 7, seed)
    for got, want in zip(trp.factors, build_trp((3, 4), 5, SPARSE, seed).factors):
        assert_array_equal(got, want)
    ens = build_map("trp_t", (3, 4), 5, SPARSE, 2, seed)
    for got, want in zip(ens.replicates, build_ensemble((3, 4), 5, SPARSE, 2, seed).replicates):
        for a, b in zip(got.factors, want.factors):
            assert_array_equal(a, b)


@pytest.mark.parametrize("dist", [GAUSS, SPARSE, EntryDistribution.very_sparse(30)],
                         ids=["gaussian", "sparse", "very_sparse"])
def test_one_factor_trp_is_the_dense_map_of_the_same_seed(dist):
    # A TRP draws its factors in mode order from its seed's one stream, so
    # its one factor is the dense map's matrix, bit for bit.
    x = np.random.default_rng(16).standard_normal((4, 30))
    for i in range(20):
        seed = SeedSpec(16).child(i)
        trp, rp = build_trp((30,), 6, dist, seed), build_conventional(30, 6, dist, seed)
        assert_array_equal(trp.factors[0], rp.matrix)
        if dist is GAUSS:  # the sign-pattern kernel rounds differently
            assert_array_equal(trp(x), rp(x))


def test_build_map_rejects_bad_requests():
    with pytest.raises(ValueError, match="single distribution"):
        build_map("rp", (3, 3), 2, (GAUSS, GAUSS), 1, SeedSpec(0))
    with pytest.raises(ValueError, match="unknown map kind"):
        build_map("dct", (3, 3), 2, GAUSS, 1, SeedSpec(0))


def test_factor_column_count_must_agree():
    with pytest.raises(ValueError, match="column count"):
        TensorRandomProjection(
            (np.ones((2, 3)), np.ones((2, 2))), (GAUSS, GAUSS)
        )
