import math
import re
import tracemalloc
import warnings
from contextlib import nullcontext

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose, assert_array_equal

from oracles import kron_vec, linear_to_multi_index
from tensorproj import maps
from tensorproj.distributions import EntryDistribution, SeedSpec, _sample_array, very_sparse_family
from tensorproj.experiments import ExperimentConfig, run_experiment
from tensorproj.linalg import _check_finite, _check_shape, khatri_rao, qr_factor
from tensorproj.maps import (
    MAP_KINDS,
    MATERIALIZE_CAP,
    ConventionalRp,
    TensorRandomProjection,
    TrpEnsemble,
    _contract,
    build_map,
)
from tensorproj.sketch import (
    LowRank,
    _multi_mode_product,
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
    trp = build_map("trp", dims, k, dist, 1, SeedSpec(42).child(len(dims)))
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
    trp = build_map("trp", dims, 6, dist(dims), 1, SeedSpec(21).child(len(dims)))
    _assert_matches_oracle(trp, np.random.default_rng(n).standard_normal((n, trp.d)))


@pytest.mark.parametrize("dims", KERNEL_DIMS, ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("dist", KERNEL_DISTS.values(), ids=KERNEL_DISTS.keys())
def test_kernel_with_an_all_zero_factor_column(dims, dist):
    trp = build_map("trp", dims, 5, dist(dims), 1, SeedSpec(22))
    factors = [f.copy() for f in trp.factors]
    factors[-1][:, 2] = 0.0
    zeroed = TensorRandomProjection(tuple(factors), trp.dists)
    xs = np.random.default_rng(3).standard_normal((7, trp.d))
    _assert_matches_oracle(zeroed, xs)
    assert_array_equal(zeroed.apply(xs)[:, 2], 0.0)


def test_sparse_and_dense_paths_agree():
    # The same factor values, labelled sparse_sign or Gaussian, run the one
    # kernel on the stored factors: the label never changes the arithmetic.
    cases = [
        ((6, 7), (SPARSE, EntryDistribution.sparse_sign(0.5))),
        ((5, 6, 7), very_sparse_family((5, 6, 7))),
    ]
    for dims, dists in cases:
        trp = build_map("trp", dims, 4, dists, 1, SeedSpec(3))
        relabeled = TensorRandomProjection(trp.factors, (GAUSS,) * len(dims))
        xs = np.random.default_rng(8).standard_normal((9, trp.d))
        assert_array_equal(trp.apply(xs), relabeled.apply(xs))


def test_a_hand_built_sparse_map_applies_as_it_materializes():
    # The factor is not +-1/sqrt(delta); the map is still its stored factor.
    # A kernel that read only the factors' signs and the law gave 0.0 here.
    trp = TensorRandomProjection((np.array([[0.3], [-2.0]]),), (SPARSE,))
    x = np.ones(2)
    assert_array_equal(trp.apply(x), x @ trp.materialize() / math.sqrt(trp.k))
    assert_allclose(trp.apply(x), [-1.7], rtol=1e-15)


def test_a_dist_that_is_not_an_entry_distribution_is_refused():
    with pytest.raises(ValueError, match="each dist must be an EntryDistribution, got 'gaussian'"):
        TensorRandomProjection((np.ones((2, 3)),), ("gaussian",))


def test_zero_input_gives_zero_output():
    trp = build_map("trp", (3, 4), 5, GAUSS, 1, SeedSpec(1))
    assert_array_equal(trp.apply(np.zeros(12)), np.zeros(5))


@settings(max_examples=30)
@given(shape=map_shapes)
def test_linearity(shape):
    dims, k, seed = shape
    trp = build_map("trp", dims, k, GAUSS, 1, SeedSpec(seed))
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
    trp = build_map("trp", dims, k, dist, 1, SeedSpec(seed))
    xs = np.random.default_rng(seed).standard_normal((rows, trp.d))
    got = trp.apply(xs)
    want = xs @ trp.materialize() / math.sqrt(k)
    assert got.shape == want.shape == (rows, k)
    assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)


def test_batch_apply_matches_rows():
    trp = build_map("trp", (4, 3), 6, SPARSE, 1, SeedSpec(5))
    xs = np.random.default_rng(6).standard_normal((8, 12))
    batch = trp.apply(xs)
    assert batch.shape == (8, 6)
    for i in range(8):
        assert_allclose(batch[i], trp.apply(xs[i]), atol=1e-13)


def test_apply_rejects_wrong_length():
    trp = build_map("trp", (3, 4), 2, GAUSS, 1, SeedSpec(0))
    with pytest.raises(ValueError, match="map expects 12"):
        trp.apply(np.zeros(11))
    with pytest.raises(ValueError):
        trp.apply(np.zeros((2, 3, 4)))


# Every map kind on d = 12, k = 3, behind the one input check.
BOUNDARY_MAPS = {
    "trp": lambda: build_map("trp", (3, 4), 3, GAUSS, 1, SeedSpec(30)),
    "trp-sparse": lambda: build_map("trp", (3, 4), 3, SPARSE, 1, SeedSpec(30)),
    "ensemble": lambda: build_map("trp_t", (3, 4), 3, GAUSS, 2, SeedSpec(31)),
    "rp": lambda: build_map("rp", (12,), 3, GAUSS, 1, SeedSpec(32)),
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
    "theoretical_variance": lambda: theoretical_variance(_XC, [3.0], 2),
    "exact_variance": lambda: exact_variance(_XC, (3, 4), [3.0, 3.0], 2),
    "pairwise_distance_ratio": lambda: pairwise_distance_ratio(_PC, [lambda x: x]),
    "cosine_similarity_rmse": lambda: cosine_similarity_rmse(_PC, [lambda x: x]),
    "cosine_similarity_rmse-map-output": lambda: cosine_similarity_rmse(
        _PC.real, [lambda x: x * 1j]
    ),
    "low_rank_approx": lambda: low_rank_approx(_MC, BOUNDARY_MAPS["trp"]()),
    "low_rank_approx-sketch": lambda: low_rank_approx(_M, lambda x: x[:, :2] * 1j),
    "averaged_low_rank_approx": lambda: low_rank_approx(_MC, BOUNDARY_MAPS["ensemble"]()),
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


def _gauss(seed: int, shape: tuple[int, ...], zero_row: int | None = None) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal(shape)
    if zero_row is not None:
        a[zero_row] = 0.0
    return a


# Maps on d = 12, k = 3 whose materialized row 5 is zero: input entry 5
# reaches no output through a nonzero weight.
DEAD_ENTRY_MAPS = {
    # Entry 5 = 4 * 1 + 1 meets the zero row 1 of the trailing factor in the GEMM.
    "trailing-zero-row": lambda: TensorRandomProjection(
        (_gauss(50, (3, 3)), _gauss(51, (4, 3), zero_row=1)), (GAUSS, GAUSS)
    ),
    # Entries 4..7 meet the zero row 1 of the head factor in the reduction,
    # through the sparse-sign seam.
    "sparse-zero-column": lambda: TensorRandomProjection(
        tuple(np.sign(_gauss(52, shape, zero_row=row)) * math.sqrt(3)
              for shape, row in (((3, 3), 1), ((4, 3), None))),
        (SPARSE, SPARSE),
    ),
    "dense-zero-row": lambda: ConventionalRp((_gauss(53, (12, 3), zero_row=5),), (GAUSS,)),
    "ensemble-of-both": lambda: TrpEnsemble(
        [DEAD_ENTRY_MAPS["trailing-zero-row"](), DEAD_ENTRY_MAPS["sparse-zero-column"]()]
    ),
}


@pytest.mark.parametrize("make", DEAD_ENTRY_MAPS.values(), ids=DEAD_ENTRY_MAPS.keys())
def test_dead_entry_maps_meet_only_zeros(make):
    m = make()
    for rep in getattr(m, "replicates", (m,)):
        assert not rep.materialize()[5].any()


# The check reads the kernel's output: 0 * inf and 0 * NaN are NaN, so a bad
# entry spoils its output row even where it meets only zeros, and the NaNs
# that the kernel makes of it warn nothing.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [*BOUNDARY_MAPS.values(), *DEAD_ENTRY_MAPS.values()],
    ids=[*BOUNDARY_MAPS, *DEAD_ENTRY_MAPS],
)
def test_non_finite_input_is_rejected(make, bad):
    x = np.ones(12)
    x[5] = bad
    with pytest.raises(ValueError, match="input holds NaN or infinite entries"):
        make().apply(x)
    with pytest.raises(ValueError, match="input holds NaN or infinite entries"):
        make().apply(np.vstack([np.ones(12), x]))


def test_finite_input_whose_sum_overflows_is_accepted():
    x = np.full((3, 4), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _check_finite(x) is x
    x[1, 2] = -math.inf
    with pytest.raises(ValueError, match="NaN or infinite"):
        _check_finite(x)


def test_finite_input_gets_no_validation_only_pass(monkeypatch):
    # Each apply used to rescan its whole input before the kernel read it:
    # one call per replicate apply, five per trp_t sketch.
    built = [
        build_map("trp", (6, 5), 3, GAUSS, 1, SeedSpec(40)),
        build_map("trp", (6, 5), 3, SPARSE, 1, SeedSpec(41)),
        build_map("rp", (6, 5), 3, GAUSS, 1, SeedSpec(42)),
        build_map("trp_t", (6, 5), 3, GAUSS, 5, SeedSpec(43)),
    ]
    x = np.random.default_rng(9).standard_normal((8, 30))
    calls = []

    def counted(a):
        calls.append(a.shape)
        return _check_finite(a)

    monkeypatch.setattr(maps, "_check_finite", counted)
    for m in built:
        m.apply(x[0])
        m.apply(x)
    low_rank_approx(x, built[0])
    low_rank_approx(x, built[3])
    assert calls == []


@pytest.mark.filterwarnings("error")
def test_finite_input_that_overflows_the_kernel_is_refused():
    # Column 0 overflows to inf, column 1 meets inf - inf: this image used to
    # be returned as [inf, nan] with a re-run kernel's overflow warning.
    head = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    m = TensorRandomProjection((head, np.ones((2, 2))), (GAUSS, GAUSS))
    before = np.geterr()
    with pytest.raises(ValueError, match="overflow"):
        m.apply(np.full(6, 1e308))
    assert np.geterr() == before


# A NaN or infinite entry next to finite entries that overflow the kernel.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["trp", "rp"])
def test_non_finite_input_that_also_overflows_is_refused_without_a_warning(kind, bad):
    # The kernel used to warn "overflow encountered in matmul" first, and a
    # caller that turns warnings into errors got that, not the message.
    m = build_map(kind, (3, 4), 3, GAUSS, 1, SeedSpec(0))
    x = np.full(12, 1e308)
    x[0] = bad
    with pytest.raises(ValueError, match="input holds NaN or infinite entries"):
        m.apply(x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["trp", "rp"])
def test_finite_input_that_overflows_a_built_map_is_refused_without_a_warning(kind):
    m = build_map(kind, (3, 4), 3, GAUSS, 1, SeedSpec(0))
    with pytest.raises(ValueError, match="overflow"):
        m.apply(np.full(12, 1e308))


OVERFLOW_MAPS = {
    "trp": lambda: build_map("trp", (3, 4), 3, GAUSS, 1, SeedSpec(0)),
    "rp": lambda: build_map("rp", (3, 4), 3, GAUSS, 1, SeedSpec(0)),
    "hand-built": lambda: TensorRandomProjection((np.eye(3), np.ones((4, 3))), (GAUSS, GAUSS)),
}


def _sum_overflow_batch(m):
    # Rows of +-2**1020 e_1: power-of-two scaling is exact, so the image's
    # entries stay finite while their sum passes 2**1024.
    e1 = np.zeros(12)
    e1[0] = 1.0
    row_sum = float(m.apply(e1).sum())
    n = math.ceil(32 / abs(row_sum))
    return np.tile(math.copysign(2.0**1020, row_sum) * e1, (n, 1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", OVERFLOW_MAPS.values(), ids=OVERFLOW_MAPS.keys())
def test_finite_image_whose_sum_overflows_is_returned_as_is(make):
    m = make()
    x = _sum_overflow_batch(m)
    y = m.apply(x)
    with np.errstate(over="ignore"):
        assert not np.isfinite(y.sum())
    assert np.isfinite(y).all()
    kernel = _contract(x, m.factors) / math.sqrt(3)
    assert y.tobytes() == kernel.tobytes()


def test_apply_runs_the_kernel_once(monkeypatch):
    # A finite input whose image overflowed used to re-run the kernel to warn.
    calls = []

    def counted(xs, factors):
        calls.append(xs.shape)
        return _contract(xs, factors)

    nan_input = np.ones(12)
    nan_input[3] = math.nan
    built = [(m, _sum_overflow_batch(m)) for m in (make() for make in OVERFLOW_MAPS.values())]
    monkeypatch.setattr(maps, "_contract", counted)
    for m, sum_overflow in built:
        for x, refused in [
            (np.ones(12), None),
            (sum_overflow, None),
            (np.full(12, 1e308), "overflow"),
            (nan_input, "input holds NaN or infinite entries"),
        ]:
            calls.clear()
            with pytest.raises(ValueError, match=refused) if refused else nullcontext():
                m.apply(x)
            assert len(calls) == 1


# ---------------------------------------------------------------- row blocks

ROW_BLOCK_MAPS = {
    f"{kind}-{'x'.join(map(str, dims))}-{name}": (kind, dims, dist)
    for kind, dims in [("rp", (12,)), ("trp", (12,)), ("trp", (4, 3)), ("trp", (2, 3, 2)),
                       ("trp", (2, 3, 2, 1)), ("trp_t", (2, 3, 2))]
    for name, dist in [("gaussian", GAUSS), ("sparse", SPARSE)]
}


@pytest.mark.parametrize("kind, dims, dist", ROW_BLOCK_MAPS.values(), ids=ROW_BLOCK_MAPS.keys())
def test_row_blocks_are_bitwise_one_block(monkeypatch, kind, dims, dist):
    # Budgets of 1 to 37 entries walk the 23-row batch of every map of order
    # 2 or more in blocks of 1 to 4 rows; the output is that of one block,
    # byte for byte.
    m = build_map(kind, dims, 4, dist, 3, SeedSpec(50))
    xs = np.random.default_rng(51).standard_normal((23, 12))
    monkeypatch.setattr(maps, "_KERNEL_SCRATCH", 2**40)
    want = m.apply(xs)
    for budget in (1, 7, 8, 13, 37):
        monkeypatch.setattr(maps, "_KERNEL_SCRATCH", budget)
        assert m.apply(xs).tobytes() == want.tobytes()
        assert m.apply(np.zeros((0, 12))).shape == (0, 4)


def test_row_blocks_of_a_stack_of_maps_are_bitwise_one_block(monkeypatch):
    factors = [np.random.default_rng(i).standard_normal((3, d, 5)) for i, d in enumerate((4, 3, 2))]
    xs = np.random.default_rng(52).standard_normal((9, 24))
    want = _contract(xs, factors)
    monkeypatch.setattr(maps, "_KERNEL_SCRATCH", 1)
    assert want.shape == (3, 9, 5)
    assert _contract(xs, factors).tobytes() == want.tobytes()


def test_a_batch_peaks_within_one_row_block_budget():
    # One block's (rows, d_1, k) intermediate would hold 4.3 budgets here;
    # row blocks keep the peak under one budget plus the (n, k) output.
    m = build_map("trp", (90, 4), 25, GAUSS, 1, SeedSpec(53))
    xs = np.random.default_rng(54).standard_normal((500, m.d))
    assert xs.shape[0] * 90 * 25 >= 4 * maps._KERNEL_SCRATCH
    tracemalloc.start()
    try:
        y = m.apply(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * maps._KERNEL_SCRATCH + y.nbytes


# ------------------------------------------------------------------ ensemble


def test_ensemble_of_one_equals_its_replicate():
    ens = build_map("trp_t", (3, 3), 4, GAUSS, 1, SeedSpec(2))
    x = np.random.default_rng(0).standard_normal(9)
    assert_array_equal(ens.apply(x), ens.replicates[0].apply(x))


def test_ensemble_decomposition():
    ens = build_map("trp_t", (4, 2), 3, GAUSS, 5, SeedSpec(3))
    x = np.random.default_rng(1).standard_normal(8)
    manual = sum(rep.apply(x) for rep in ens.replicates) / math.sqrt(5)
    assert_allclose(ens.apply(x), manual, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_an_ensemble_refuses_a_replicate_sum_that_overflows():
    # Two hand-built one-factor TRPs on the identity, each image x / sqrt(2):
    # their sum used to return [inf, 0.] with "overflow encountered in add".
    rep = TensorRandomProjection((np.eye(2),), (GAUSS,))
    ens = TrpEnsemble((rep, rep))
    before = np.geterr()
    with pytest.raises(ValueError, match="overflow"):
        ens.apply(np.array([1.5e308, 0.0]))
    assert np.geterr() == before
    with pytest.raises(ValueError, match="input holds NaN or infinite entries"):
        ens.apply(np.array([math.nan, 0.0]))
    assert_array_equal(ens.apply(np.array([1e307, 0.0])), [2e307 / math.sqrt(2) / math.sqrt(2), 0.0])


@pytest.mark.parametrize("T", [1, 4])
def test_replicate_images_are_the_replicates_side_by_side(monkeypatch, T):
    ens = build_map("trp_t", (4, 3, 2), 5, SPARSE, T, SeedSpec(55))
    xs = np.random.default_rng(56).standard_normal((7, 24))
    calls = []

    def counted(xs, factors):
        calls.append(xs.shape)
        return _contract(xs, factors)

    monkeypatch.setattr(maps, "_contract", counted)
    z = maps._replicate_images(ens, xs)
    assert calls == [(7, 24)]  # every replicate from one kernel pass
    want = np.hstack([rep.apply(xs) for rep in ens.replicates])
    if T == 1:
        assert z.tobytes() == want.tobytes()
    assert_allclose(z, want, rtol=1e-13, atol=1e-13)
    assert_array_equal(maps._replicate_images(ens, xs[0]), z[0])


@pytest.mark.filterwarnings("error")
def test_replicate_images_follow_the_rule_of_apply():
    rep = TensorRandomProjection((np.ones((2, 2)),), (GAUSS,))
    ens = TrpEnsemble((rep, rep))
    with pytest.raises(ValueError, match="overflow"):
        maps._replicate_images(ens, np.full((3, 2), 1e308))
    with pytest.raises(ValueError, match="input holds NaN or infinite entries"):
        maps._replicate_images(ens, np.array([[math.inf, 0.0]]))


def test_ensemble_replicates_are_independent_draws():
    ens = build_map("trp_t", (5, 5), 2, GAUSS, 3, SeedSpec(4))
    assert not np.array_equal(ens.replicates[0].factors[0], ens.replicates[1].factors[0])


def test_ensemble_reads_an_iterator_of_distributions_once():
    # Every replicate used to re-read the iterator, so replicate 1 found it
    # empty: "got 0 distributions for 2 factors".
    want = build_map("trp_t", (2, 2), 3, (GAUSS, SPARSE), 2, SeedSpec(5))
    got = build_map("trp_t", (2, 2), 3, iter([GAUSS, SPARSE]), 2, SeedSpec(5))
    for rep, ref in zip(got.replicates, want.replicates, strict=True):
        assert rep.dists == ref.dists == (GAUSS, SPARSE)
        for a, b in zip(rep.factors, ref.factors, strict=True):
            assert_array_equal(a, b)


def test_ensemble_requires_matching_replicates():
    a = build_map("trp", (2, 3), 2, GAUSS, 1, SeedSpec(0))
    b = build_map("trp", (3, 2), 2, GAUSS, 1, SeedSpec(0))
    with pytest.raises(ValueError, match="share dims and k"):
        TrpEnsemble((a, b))
    with pytest.raises(ValueError, match="at least one replicate"):
        TrpEnsemble(())


@pytest.mark.parametrize("cls", [TensorRandomProjection, ConventionalRp])
def test_factors_are_a_sequence_not_one_array(cls):
    # One (3, 2) array used to fail on numpy's ambiguous truth value.
    with pytest.raises(ValueError, match=r"got one array of shape \(3, 2\)"):
        cls(np.ones((3, 2)), (GAUSS,))


def test_constructors_take_any_iterable_and_store_tuples():
    # A generator used to fail with a bare TypeError ("object of type
    # 'generator' has no len()", "'generator' object is not subscriptable"),
    # and a list of dists was stored as a list.
    factors = (np.ones((3, 2)), np.arange(4.0).reshape(2, 2))
    trp = TensorRandomProjection((f for f in factors), (d for d in (GAUSS, SPARSE)))
    assert type(trp.factors) is tuple and trp.dims == (3, 2)
    assert trp.dists == (GAUSS, SPARSE)
    assert type(TensorRandomProjection(list(factors), [GAUSS, SPARSE]).dists) is tuple
    reps = [build_map("trp", (2, 3), 2, GAUSS, 1, SeedSpec(s)) for s in range(3)]
    ens = TrpEnsemble(rep for rep in reps)
    assert ens.replicates == tuple(reps) and ens.T == 3


def test_an_ensemble_refuses_replicates_that_are_not_maps():
    with pytest.raises(ValueError, match="each replicate must be a TensorRandomProjection, got 1"):
        TrpEnsemble((1, 2))


# --------------------------------------------------------------- materialize


def test_materialize_single_factor_is_the_factor():
    trp = build_map("trp", (6,), 3, GAUSS, 1, SeedSpec(5))
    assert_array_equal(trp.materialize(), trp.factors[0])


def test_materialize_columns_are_kron_of_factor_columns():
    trp = build_map("trp", (3, 4, 5), 2, GAUSS, 1, SeedSpec(6))
    dense = trp.materialize()
    assert dense.shape == (60, 2)
    for j in range(2):
        col = kron_vec([f[:, j] for f in trp.factors])
        assert_array_equal(dense[:, j], col)


def test_materialize_entry_formula():
    trp = build_map("trp", (2, 3, 2), 3, SPARSE, 1, SeedSpec(7))
    dense = trp.materialize()
    for pos in (1, 5, 12):
        index = linear_to_multi_index(pos, trp.dims)
        for j in range(3):
            want = math.prod(f[r - 1, j] for f, r in zip(trp.factors, index))
            assert dense[pos - 1, j] == pytest.approx(want, abs=1e-15)


def test_materialize_cap():
    # 4000 * 2501 > MATERIALIZE_CAP, though the factors hold only 6501 entries.
    big = build_map("trp", (4000, 2501), 1, GAUSS, 1, SeedSpec(8))
    assert big.d * big.k > MATERIALIZE_CAP
    with pytest.raises(ValueError, match="cap"):
        big.materialize()
    assert build_map("trp", (20, 20), 10, GAUSS, 1, SeedSpec(8)).materialize().shape == (400, 10)


# ------------------------------------------------------- storage and nnz


def test_storage_counts():
    trp = build_map("trp", (200, 200), 10, GAUSS, 1, SeedSpec(9))
    assert trp.storage_count() == 4000
    flat = build_map("trp", (400,), 10, GAUSS, 1, SeedSpec(9))
    assert flat.storage_count() == 4000
    rp = build_map("rp", (400,), 10, GAUSS, 1, SeedSpec(9))
    assert rp.storage_count() == 4000


def test_ensemble_storage_is_sum_of_replicates():
    ens = build_map("trp_t", (200, 200), 10, GAUSS, 5, SeedSpec(10))
    assert ens.storage_count() == 5 * 4000


@given(
    dims=st.lists(st.integers(2, 6), min_size=2, max_size=4),
    k=st.integers(1, 4),
)
def test_structured_storage_beats_dense(dims, k):
    # (2, 2) is the one boundary point where the factored and dense counts
    # tie: a*b - (a+b) = (a-1)(b-1) - 1.
    trp = build_map("trp", dims, k, GAUSS, 1, SeedSpec(0))
    rp = build_map("rp", dims, k, GAUSS, 1, SeedSpec(0))
    if tuple(dims) == (2, 2):
        assert trp.storage_count() == rp.storage_count()
    else:
        assert trp.storage_count() < rp.storage_count()


def test_expected_sparsity():
    def sparsity(kind, dims, dist):
        return build_map(kind, dims, 2, dist, 1, SeedSpec(0)).expected_sparsity()

    assert sparsity("trp", (5, 5), SPARSE) == pytest.approx(1 / 9)
    assert sparsity("trp", (5,), SPARSE) == pytest.approx(1 / 3)
    assert sparsity("trp", (50, 50), very_sparse_family((50, 50))) == pytest.approx(1 / 50)
    assert sparsity("trp", (4, 4), GAUSS) == 1.0
    assert sparsity("rp", (9,), SPARSE) == pytest.approx(1 / 3)


def test_materialized_nnz_fraction_tracks_expected_sparsity():
    # Pinned seed: the nonzero pattern of a Khatri-Rao product is a tensor
    # product of the factor patterns, so its count fluctuates more than an
    # i.i.d. Bernoulli fill would; specific draws can land outside the
    # 3-sigma binomial band.
    trp = build_map("trp", (6, 5), 7, SPARSE, 1, SeedSpec(10))
    dense = trp.materialize()
    frac = np.count_nonzero(dense) / dense.size
    p = trp.expected_sparsity()
    assert abs(frac - p) <= 3 * math.sqrt(p * (1 - p) / dense.size)


# ------------------------------------------------------------------ builders


def test_build_trp_deterministic():
    a = build_map("trp", (3, 4), 2, GAUSS, 1, SeedSpec(11))
    b = build_map("trp", (3, 4), 2, GAUSS, 1, SeedSpec(11))
    for fa, fb in zip(a.factors, b.factors):
        assert_array_equal(fa, fb)


def test_build_trp_factor_streams_differ():
    trp = build_map("trp", (4, 4), 3, GAUSS, 1, SeedSpec(12))
    assert not np.array_equal(trp.factors[0], trp.factors[1])


def test_build_map_checks_each_maps_sizes_once(monkeypatch):
    # The per-kind draws used to check again: a dense map's (d,) and k, and
    # each of an ensemble's T replicates its dims and k.
    calls = []

    def counted(*args):
        calls.append(args)
        return _check_shape(*args)

    monkeypatch.setattr(maps, "_check_shape", counted)
    for kind in MAP_KINDS:
        calls.clear()
        build_map(kind, (3, 4), 2, GAUSS, 5, SeedSpec(0))
        assert calls == [((3, 4), 2, 5)], kind


def test_build_trp_validation():
    with pytest.raises(ValueError, match="dims"):
        build_map("trp", (), 2, GAUSS, 1, SeedSpec(0))
    with pytest.raises(ValueError, match="dims"):
        build_map("trp", (3, 0), 2, GAUSS, 1, SeedSpec(0))
    with pytest.raises(ValueError, match="k"):
        build_map("trp", (3, 3), 0, GAUSS, 1, SeedSpec(0))


# The map builder, for every kind, and every sampler run the one shape check,
# so each rejects a zero or float dim, k and T (where it takes dims or T) with
# the same message, and an empty dims (where it keeps dims as given) as empty.
# The builder's rows keep the names of its per-kind draw steps, so their test
# ids hold: each one calls build_map.  A run's config checks its k values
# with the same size check.
SHAPE_CHECKED = {
    "build_trp": ("dims", "k", "T", "empty dims"),
    "build_ensemble": ("dims", "k", "T", "empty dims"),
    "build_conventional": ("dims", "k", "T"),
    "build_map-rp": ("dims", "k", "T", "empty dims"),
    "squared_norm_samples": ("dims", "k", "T", "empty dims"),
    "exact_variance": ("dims", "k", "T"),
    "theoretical_variance": ("k", "T"),
    "ExperimentConfig": ("empty k values",),
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
    "empty dims": (((), 2, 1), "dims must not be empty, got ()"),
    "empty k values": (((2, 3), (), 1), "k values must not be empty, got ()"),
}


def _call_shape_checked(name, dims, k, T):
    x = np.ones(int(math.prod(dims)))
    calls = {
        "build_trp": lambda: build_map("trp", dims, k, GAUSS, T, SeedSpec(0)),
        "build_ensemble": lambda: build_map("trp_t", dims, k, GAUSS, T, SeedSpec(0)),
        # The dense map on the one flattened mode, and below on dims as given.
        "build_conventional": lambda: build_map(
            "rp", (math.prod(dims),), k, GAUSS, T, SeedSpec(0)
        ),
        "build_map-rp": lambda: build_map("rp", dims, k, GAUSS, T, SeedSpec(0)),
        "squared_norm_samples": lambda: squared_norm_samples(
            dims, k, GAUSS, x, 4, SeedSpec(0), T=T
        ),
        "exact_variance": lambda: exact_variance(x, dims, [3.0] * len(dims), k, T),
        "theoretical_variance": lambda: theoretical_variance(x, [3.0], k, T),
        "ExperimentConfig": lambda: run_experiment(
            ExperimentConfig("variance", ("trp",), "gaussian", dims, k, T, 2, 1, 0)
        ),
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
    # True used to pass as 1: a trp on dims (True, 3) was built on dims (1, 3).
    with pytest.raises(ValueError, match=r"^dims must be integers, got \(True, 3\)$"):
        build_map("trp", (True, 3), 2, GAUSS, 1, SeedSpec(0))


def test_shape_check_takes_numpy_integers_and_each_dense_dim():
    dims = (np.int64(2), np.int64(3))
    assert build_map("trp", dims, np.int64(2), GAUSS, np.int64(1), SeedSpec(0)).dims == (2, 3)
    # Two negative dims have a positive product; the dense map checks each.
    with pytest.raises(ValueError, match="dims must be positive"):
        build_map("rp", (-2, -3), 2, GAUSS, 1, SeedSpec(0))


def test_conventional_rp_applies_scaled_matrix():
    rp = build_map("rp", (10,), 4, GAUSS, 1, SeedSpec(13))
    x = np.random.default_rng(2).standard_normal(10)
    assert_allclose(rp.apply(x), rp.matrix.T @ x / 2.0, atol=1e-14)
    with pytest.raises(ValueError, match=r"^dims must be positive, got \(0,\)$"):
        build_map("rp", (0,), 4, GAUSS, 1, SeedSpec(0))


@pytest.mark.parametrize("dist", [GAUSS, SPARSE], ids=["gaussian", "sparse"])
def test_conventional_rp_is_a_one_factor_trp(dist):
    rp = build_map("rp", (30,), 6, dist, 1, SeedSpec(16))
    assert isinstance(rp, TensorRandomProjection)
    assert rp.factors == (rp.matrix,) and rp.dists == (dist,)
    assert rp.dims == (30,) and (rp.d, rp.k) == (30, 6)
    assert rp.storage_count() == 30 * 6
    assert rp.expected_sparsity() == dist.delta
    assert_array_equal(rp.materialize(), rp.matrix)
    # The one kernel on one factor is a plain GEMM, and a TRP on the same
    # factor runs it too, whatever the law.
    x = np.random.default_rng(3).standard_normal((20, 30))
    assert_array_equal(rp.apply(x), (x @ rp.matrix) / math.sqrt(6))
    assert_array_equal(rp(x[0]), (x[:1] @ rp.matrix)[0] / math.sqrt(6))
    assert_array_equal(TensorRandomProjection(rp.factors, rp.dists).apply(x), rp.apply(x))


def test_a_dense_map_has_exactly_one_factor():
    # Two factors used to build a map with d = d_1 d_2 whose matrix was A_1.
    with pytest.raises(ValueError, match="a dense projection has one factor, got 2"):
        ConventionalRp((np.ones((2, 3)), np.ones((4, 3))), (GAUSS, GAUSS))


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


def _drawn_factors(shapes, seed):
    """The factors a map of these shapes draws from ``seed``: in order, one stream."""
    rng = seed.generator()
    return [_sample_array(SPARSE, shape, rng) for shape in shapes]


def test_build_map_is_its_kind_builder_on_the_same_seed():
    # Each kind's draw is its stream layout: the dense map one (d, k) draw,
    # a TRP its factors in mode order, an ensemble replicate t a TRP on
    # child t.  T shapes only the ensemble.
    seed = SeedSpec(15).child(2)
    dense = build_map("rp", (3, 4), 5, SPARSE, 7, seed)
    assert_array_equal(dense.matrix, _drawn_factors([(12, 5)], seed)[0])
    trp = build_map("trp", (3, 4), 5, SPARSE, 7, seed)
    for got, want in zip(trp.factors, _drawn_factors([(3, 5), (4, 5)], seed), strict=True):
        assert_array_equal(got, want)
    ens = build_map("trp_t", (3, 4), 5, SPARSE, 2, seed)
    assert ens.T == 2
    for t, rep in enumerate(ens.replicates):
        want = _drawn_factors([(3, 5), (4, 5)], seed.child(t))
        for a, b in zip(rep.factors, want, strict=True):
            assert_array_equal(a, b)


@pytest.mark.parametrize("dist", [GAUSS, SPARSE, EntryDistribution.very_sparse(30)],
                         ids=["gaussian", "sparse", "very_sparse"])
def test_one_factor_trp_is_the_dense_map_of_the_same_seed(dist):
    # A TRP draws its factors in mode order from its seed's one stream, so
    # its one factor is the dense map's matrix, bit for bit, and both apply
    # it with the one kernel.
    x = np.random.default_rng(16).standard_normal((4, 30))
    for i in range(20):
        seed = SeedSpec(16).child(i)
        trp, rp = (build_map(kind, (30,), 6, dist, 1, seed) for kind in ("trp", "rp"))
        assert_array_equal(trp.factors[0], rp.matrix)
        assert_array_equal(trp(x), rp(x))


def test_build_map_rejects_bad_requests(monkeypatch):
    with pytest.raises(ValueError, match="single distribution"):
        build_map("rp", (3, 3), 2, (GAUSS, GAUSS), 1, SeedSpec(0))
    with pytest.raises(ValueError, match="got 3 distributions for 2 factors"):
        build_map("trp", (2, 2), 3, (GAUSS,) * 3, 1, SeedSpec(0))

    def drawn(*args):
        raise AssertionError("a refused law reached a draw")

    # A string used to be read as one law per character: "got 8
    # distributions for 2 factors", or an AttributeError on 8 factors.
    monkeypatch.setattr(maps, "_sample_array", drawn)
    for kind, dims, dist in [
        ("trp", (2, 2), "gaussian"),
        ("trp", (2,) * 8, "gaussian"),
        ("trp", (2, 2), ["g", "h"]),
        ("trp_t", (2, 2), "gaussian"),
        ("trp", (2, 2), None),
    ]:
        with pytest.raises(ValueError, match=f"one per factor, got {re.escape(repr(dist))}$"):
            build_map(kind, dims, 3, dist, 2, SeedSpec(0))
    with pytest.raises(ValueError, match="single distribution.*got 'gaussian'$"):
        build_map("rp", (2, 2), 3, "gaussian", 1, SeedSpec(0))
    with pytest.raises(ValueError, match="unknown map kind"):
        build_map("dct", (3, 3), 2, GAUSS, 1, SeedSpec(0))
    # The kind is checked first: a bad kind on bad sizes names the kind.
    with pytest.raises(ValueError, match=r"^unknown map kind 'bogus'"):
        build_map("bogus", (0,), 0, GAUSS, 0, SeedSpec(0))


def test_factor_column_count_must_agree():
    with pytest.raises(ValueError, match="column count"):
        TensorRandomProjection(
            (np.ones((2, 3)), np.ones((2, 2))), (GAUSS, GAUSS)
        )
