import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import mode_n_unfold
from tensorproj.distributions import EntryDistribution, SeedSpec, very_sparse_family
from tensorproj.linalg import qr_factor
from tensorproj.maps import build_ensemble, build_trp
from tensorproj.sketch import (
    LowRank,
    RankDeficiencyWarning,
    _multi_mode_product,
    averaged_low_rank_approx,
    low_rank_approx,
    relative_error,
    tucker_synthetic,
)

GAUSS = EntryDistribution.gaussian()


def rank_limited(rng, rows, cols, rank):
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


def test_exact_rank_matrix_is_recovered():
    rng = np.random.default_rng(0)
    x = rank_limited(rng, 30, 12, 3)
    omega = build_trp((4, 3), 5, GAUSS, SeedSpec(1))
    with pytest.warns(RankDeficiencyWarning):
        approx = low_rank_approx(x, omega)
    assert relative_error(x, approx) <= 1e-8


def test_full_sketch_reproduces_the_matrix():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 6))
    omega = build_trp((3, 2), 6, GAUSS, SeedSpec(3))
    assert_allclose(low_rank_approx(x, omega).dense(), x, atol=1e-10)


def test_structured_sketch_equals_materialized_sketch():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 40))
    trp = build_trp((5, 8), 7, GAUSS, SeedSpec(5))
    dense = trp.materialize()
    direct = low_rank_approx(x, lambda p: p @ dense / np.sqrt(7)).dense()
    structured = low_rank_approx(x, trp).dense()
    assert np.max(np.abs(direct - structured)) <= 1e-10


def test_rank_deficient_sketch_warns_and_proceeds():
    rng = np.random.default_rng(6)
    x = np.outer(rng.standard_normal(15), rng.standard_normal(8))
    omega = build_trp((4, 2), 4, GAUSS, SeedSpec(7))
    with pytest.warns(RankDeficiencyWarning, match="effective rank 1"):
        approx = low_rank_approx(x, omega)
    assert relative_error(x, approx) <= 1e-8


@pytest.mark.parametrize("builder", [low_rank_approx, averaged_low_rank_approx])
def test_sketch_builders_warn_at_the_caller_and_name_the_shape(builder):
    # Both builders point a RankDeficiencyWarning at the line that called
    # them, and refuse a non-matrix X by its shape, naming neither builder.
    rng = np.random.default_rng(6)
    x = np.outer(rng.standard_normal(15), rng.standard_normal(8))
    ensemble = build_ensemble((4, 2), 4, GAUSS, 2, SeedSpec(7))
    omega = ensemble if builder is averaged_low_rank_approx else ensemble.replicates[0]
    with pytest.warns(RankDeficiencyWarning, match="effective rank 1") as caught:
        builder(x, omega)
    assert [w.filename for w in caught] == [__file__] * len(caught)
    with pytest.raises(ValueError, match=r"^X must be a matrix, got shape \(8,\)$"):
        builder(np.ones(8), omega)


def test_low_rank_approx_validation():
    omega = build_trp((2, 2), 2, GAUSS, SeedSpec(0))
    with pytest.raises(ValueError, match=r"X must be a matrix, got shape \(4,\)"):
        low_rank_approx(np.ones(4), omega)
    with pytest.raises(ValueError, match="one row per point"):
        low_rank_approx(np.ones((5, 4)), lambda p: p[:3])
    big = build_trp((2, 2), 9, GAUSS, SeedSpec(0))
    with pytest.raises(ValueError, match="exceeds row count"):
        low_rank_approx(np.ones((5, 4)), big)


def test_low_rank_approx_rejects_a_one_dimensional_sketch():
    # A map returning one value per row used to fail with an IndexError.
    with pytest.raises(ValueError, match=r"one row per point, got \(5,\) for 5"):
        low_rank_approx(np.ones((5, 4)), lambda p: p[:, 0])


def test_approximation_never_beats_the_trivial_bound():
    # Q Q^T is an orthogonal projector, so the residual cannot exceed ||X||.
    rng = np.random.default_rng(8)
    for seed in range(5):
        x = rng.standard_normal((20, 12))
        omega = build_trp((4, 3), 3, GAUSS, SeedSpec(seed))
        assert relative_error(x, low_rank_approx(x, omega)) <= 1.0 + 1e-12


def test_projection_is_idempotent():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((18, 10))
    omega = build_trp((5, 2), 4, GAUSS, SeedSpec(10))
    q = qr_factor(np.asarray(omega(x))).q
    once = q @ (q.T @ x)
    twice = q @ (q.T @ once)
    assert np.max(np.abs(once - twice)) <= 1e-10


def test_averaging_one_replicate_matches_single_sketch():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((14, 6))
    ensemble = build_ensemble((3, 2), 4, GAUSS, 1, SeedSpec(12))
    omega = build_trp((3, 2), 4, GAUSS, SeedSpec(12).child(0))
    averaged = averaged_low_rank_approx(x, ensemble)
    single = low_rank_approx(x, omega)
    assert_array_equal(averaged.q, single.q)
    assert_array_equal(averaged.b, single.b)
    assert_array_equal(averaged.dense(), single.dense())


def test_averaging_is_the_mean_over_the_ensemble_replicates():
    x = np.random.default_rng(23).standard_normal((16, 12))
    ensemble = build_ensemble((4, 3), 3, GAUSS, 4, SeedSpec(24))
    approxs = [low_rank_approx(x, rep) for rep in ensemble.replicates]
    averaged = averaged_low_rank_approx(x, ensemble)
    assert_array_equal(averaged.q, np.hstack([a.q for a in approxs]))
    assert_array_equal(averaged.b, np.vstack([a.b for a in approxs]) / 4)
    assert_allclose(
        averaged.dense(), np.mean([a.dense() for a in approxs], axis=0), rtol=0, atol=1e-12
    )


def test_averaging_preserves_exact_recovery():
    rng = np.random.default_rng(13)
    x = rank_limited(rng, 25, 12, 3)
    ensemble = build_ensemble((4, 3), 5, GAUSS, 3, SeedSpec(14))
    # sketching a rank-3 matrix with k=5 is rank deficient by construction
    with pytest.warns(RankDeficiencyWarning):
        approx = averaged_low_rank_approx(x, ensemble)
    assert relative_error(x, approx) <= 1e-8


def test_averaged_rank_is_bounded_by_t_times_k():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((12, 12))
    ensemble = build_ensemble((4, 3), 2, GAUSS, 3, SeedSpec(16))
    approx = averaged_low_rank_approx(x, ensemble)
    assert approx.q.shape == (12, 6)
    assert np.linalg.matrix_rank(approx.dense()) <= 6


def test_averaged_low_rank_validation():
    ensemble = build_ensemble((3, 2), 2, GAUSS, 2, SeedSpec(0))
    with pytest.raises(ValueError, match=r"X must be a matrix, got shape \(6,\)"):
        averaged_low_rank_approx(np.ones(6), ensemble)
    with pytest.raises(ValueError, match="input has 7 entries, map expects 6"):
        averaged_low_rank_approx(np.ones((5, 7)), ensemble)


# -------------------------------------------------------------- tucker model


def test_multi_mode_product_matrix_case():
    rng = np.random.default_rng(17)
    core = rng.standard_normal((3, 4))
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((5, 4))
    assert_allclose(_multi_mode_product(core, [a, b]), a @ core @ b.T, atol=1e-12)


def test_multi_mode_product_order_three():
    rng = np.random.default_rng(18)
    core = rng.standard_normal((2, 3, 2))
    arms = [rng.standard_normal((4, 2)), rng.standard_normal((5, 3)), rng.standard_normal((3, 2))]
    want = np.einsum("abc,ia,jb,kc->ijk", core, *arms)
    assert_allclose(_multi_mode_product(core, arms), want, atol=1e-12)


def test_multi_mode_product_arm_count_must_match():
    with pytest.raises(ValueError, match="modes"):
        _multi_mode_product(np.ones((2, 2)), [np.ones((3, 2))])


def test_noiseless_tensor_has_core_rank_unfoldings():
    t = tucker_synthetic(20, 3, 5, SeedSpec(20), noise_fraction=0.0)
    for mode in (1, 2, 3):
        s = np.linalg.svd(mode_n_unfold(t, mode), compute_uv=False)
        assert s[5] <= 1e-10 * s[0]


def test_noise_energy_fraction_is_calibrated():
    ratios = []
    for seed in range(10):
        noisy = tucker_synthetic(20, 3, 5, SeedSpec(seed))
        clean = tucker_synthetic(20, 3, 5, SeedSpec(seed), noise_fraction=0.0)
        ratios.append(float(np.sum((noisy - clean) ** 2) / np.sum(clean**2)))
    assert all(0.008 <= r <= 0.012 for r in ratios)
    assert np.mean(ratios) == pytest.approx(0.01, abs=0.002)


def test_tucker_synthetic_deterministic():
    a = tucker_synthetic(8, 2, 3, SeedSpec(21))
    b = tucker_synthetic(8, 2, 3, SeedSpec(21))
    assert_array_equal(a, b)
    c = tucker_synthetic(8, 2, 3, SeedSpec(22))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("order", [2, 3])
def test_tucker_synthetic_is_signal_plus_scaled_noise(order):
    # Rebuilt from the seed's one stream: the core, the arms in mode order,
    # then the noise.
    side, rank, seed = 9, 4, SeedSpec(23)
    rng = seed.generator()
    core = rng.random((rank,) * order)
    arms = [qr_factor(rng.standard_normal((side, rank))).q for _ in range(order)]
    signal = _multi_mode_product(core, arms)
    scale = np.sqrt(0.01 * float(np.sum(signal**2)) / side**order)
    noise = rng.standard_normal(signal.shape)
    got = tucker_synthetic(side, order, rank, seed)
    assert np.array_equal(got, signal + scale * noise)
    assert got.flags.c_contiguous and got.flags.owndata
    assert np.array_equal(tucker_synthetic(side, order, rank, seed, noise_fraction=0.0), signal)


def test_tucker_synthetic_validation():
    with pytest.raises(ValueError, match="side"):
        tucker_synthetic(0, 2, 1, SeedSpec(0))
    with pytest.raises(ValueError, match="order"):
        tucker_synthetic(4, 0, 1, SeedSpec(0))
    with pytest.raises(ValueError, match="core rank"):
        tucker_synthetic(4, 2, 5, SeedSpec(0))
    with pytest.raises(ValueError, match="core rank"):
        tucker_synthetic(4, 2, 0, SeedSpec(0))
    with pytest.raises(ValueError, match="noise fraction"):
        tucker_synthetic(4, 2, 2, SeedSpec(0), noise_fraction=-0.01)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tucker_synthetic_rejects_non_finite_noise_fraction(bad):
    # nan used to return an all-NaN target, inf one of infinities.
    with pytest.raises(ValueError, match=f"finite and non-negative, got {bad}"):
        tucker_synthetic(6, 2, 2, SeedSpec(0), noise_fraction=bad)


@pytest.mark.parametrize("flag", [True, np.True_])
def test_tucker_synthetic_refuses_a_bool_noise_fraction(flag):
    # True used to run as noise_fraction=1.0, giving the same draw.
    with pytest.raises(ValueError, match=f"noise fraction must be a real number, got {flag!r}"):
        tucker_synthetic(4, 2, 2, SeedSpec(0), noise_fraction=flag)


def test_relative_error_basics():
    x = np.ones((2, 2))
    assert relative_error(x, x) == 0.0
    assert relative_error(x, np.zeros((2, 2))) == 1.0
    assert relative_error(x, 2.0 * x) == 1.0
    with pytest.raises(ValueError, match="shape mismatch"):
        relative_error(x, np.ones((2, 3)))
    with pytest.raises(ValueError, match="zero reference"):
        relative_error(np.zeros((2, 2)), x)


# ------------------------------------------------------ factored scoring


def dense_error(x, approx):
    return np.linalg.norm(x - approx.dense()) / np.linalg.norm(x)


def noisy_low_rank(seed, rows=40, cols=48, rank=4, noise=0.05):
    rng = np.random.default_rng(seed)
    x = rank_limited(rng, rows, cols, rank)
    return x + noise * np.linalg.norm(x) / np.sqrt(x.size) * rng.standard_normal(x.shape)


# Sparse factors at these small sizes often give rank-deficient sketches;
# those are scored like any other.
@pytest.mark.filterwarnings("ignore::tensorproj.sketch.RankDeficiencyWarning")
@pytest.mark.parametrize(
    "dist",
    [GAUSS, EntryDistribution.sparse_sign(1 / 3), very_sparse_family((6, 8))],
    ids=["gaussian", "sparse_sign", "very_sparse"],
)
@pytest.mark.parametrize("T", [1, 5])
def test_factored_error_matches_the_dense_residual(dist, T):
    x = noisy_low_rank(25)
    for seed in range(4):
        ensemble = build_ensemble((6, 8), 6, dist, T, SeedSpec(seed))
        for approx in (
            averaged_low_rank_approx(x, ensemble),
            low_rank_approx(x, ensemble.replicates[0]),
        ):
            want = dense_error(x, approx)
            assert 0.01 < want < 1.0
            assert relative_error(x, approx) == pytest.approx(want, rel=1e-10)


def test_factored_error_of_a_rank_deficient_sketch():
    x = noisy_low_rank(26)
    g = np.random.default_rng(27).standard_normal((48, 3))
    with pytest.warns(RankDeficiencyWarning, match="effective rank 3 < 5"):
        approx = low_rank_approx(x, lambda p: (p @ g)[:, [0, 1, 0, 2, 1]])
    want = dense_error(x, approx)
    assert want > 0.01
    assert relative_error(x, approx) == pytest.approx(want, rel=1e-10)


def test_near_exact_factored_error_falls_back_to_the_dense_residual():
    # A 1e-7 relative error: the Gram-term subtraction alone would keep
    # only a few of its digits.
    x = noisy_low_rank(28, noise=1e-7)
    for T in (1, 5):
        approx = averaged_low_rank_approx(x, build_ensemble((6, 8), 6, GAUSS, T, SeedSpec(29)))
        want = dense_error(x, approx)
        assert want < 1e-6
        assert relative_error(x, approx) == pytest.approx(want, rel=1e-10)


def test_hand_built_low_rank_is_scored_for_its_own_coefficients():
    rng = np.random.default_rng(30)
    x = noisy_low_rank(31)
    q = qr_factor(rng.standard_normal((40, 5))).q
    skewed = [
        LowRank(q, 1.3 * (q.T @ x)),
        LowRank(q, rng.standard_normal((5, 48))),
        LowRank(rng.standard_normal((40, 7)), rng.standard_normal((7, 48))),
    ]
    for approx in skewed:
        want = dense_error(x, approx)
        assert want > 0.01
        assert relative_error(x, approx) == pytest.approx(want, rel=1e-10)


@pytest.mark.filterwarnings("ignore::tensorproj.sketch.RankDeficiencyWarning")
def test_scoring_another_x_forms_its_own_projection():
    # The builders keep Q^T X of the X they projected; an equal copy or a
    # different X of the same shape must not be scored with it.
    x, other = noisy_low_rank(34), noisy_low_rank(35)
    ensemble = build_ensemble((6, 8), 6, GAUSS, 5, SeedSpec(36))
    for approx in (
        low_rank_approx(x, ensemble.replicates[0]),
        averaged_low_rank_approx(x, ensemble),
    ):
        for y in (x.copy(), other):
            want = np.linalg.norm(y - approx.dense()) / np.linalg.norm(y)
            assert want > 0.01
            assert relative_error(y, approx) == pytest.approx(want, rel=1e-10)


def test_a_replaced_basis_is_scored_with_a_fresh_projection():
    # replace() used to carry the builder's Q^T X over to the new basis, and
    # relative_error then scored the old projection against it.
    x = noisy_low_rank(39)
    ensemble = build_ensemble((6, 8), 6, GAUSS, 5, SeedSpec(40))
    rng = np.random.default_rng(41)
    for approx in (
        low_rank_approx(x, ensemble.replicates[0]),
        averaged_low_rank_approx(x, ensemble),
    ):
        moved = dataclasses.replace(approx, q=qr_factor(rng.standard_normal(approx.q.shape)).q)
        want = dense_error(x, moved)
        assert want > 0.01
        assert relative_error(x, moved) == pytest.approx(want, rel=1e-10)


def test_low_rank_takes_only_its_factors():
    q, b = np.eye(3, 2), np.ones((2, 4))
    assert [f.name for f in dataclasses.fields(LowRank) if f.init] == ["q", "b"]
    with pytest.raises(TypeError):
        LowRank(q, b, source=q @ b, qtx=b)


def counting_matmuls(x):
    """``x`` viewed as an array that counts the matmuls taking it, or a view of it."""

    class Counted(np.ndarray):
        matmuls = 0

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                type(self).matmuls += 1
            plain = [np.asarray(a) for a in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    return x.view(Counted)


def test_each_sketch_forms_one_projection_of_x():
    x = counting_matmuls(noisy_low_rank(37))
    ensemble = build_ensemble((6, 8), 6, GAUSS, 5, SeedSpec(38))
    for build in (
        lambda: low_rank_approx(x, ensemble.replicates[0]),
        lambda: averaged_low_rank_approx(x, ensemble),
    ):
        before = type(x).matmuls
        approx = build()
        err = relative_error(x, approx)
        assert type(x).matmuls - before == 1
        # Another object, even an equal one, gets a fresh Q^T X.
        assert relative_error(x.copy(), approx) == pytest.approx(err, rel=1e-12)
        assert type(x).matmuls - before == 2


def test_averaging_warns_once_per_rank_deficient_replicate():
    x = np.random.default_rng(34).standard_normal((20, 12))
    ensemble = build_ensemble((4, 3), 4, very_sparse_family((4, 3)), 5, SeedSpec(4))

    def messages(fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fn()
        assert all(w.category is RankDeficiencyWarning for w in caught)
        return [str(w.message) for w in caught]

    got = messages(lambda: averaged_low_rank_approx(x, ensemble))
    # Two of the five replicates are rank deficient; the other three warn nothing.
    assert got == ["sketch has effective rank 2 < 4"] * 2
    per_replicate = [messages(lambda: low_rank_approx(x, rep)) for rep in ensemble.replicates]
    assert got == sum(per_replicate, [])


def test_factored_scoring_allocates_less_than_one_dense_matrix():
    x = np.random.default_rng(32).standard_normal((1000, 1000))
    ensemble = build_ensemble((10, 10, 10), 25, GAUSS, 5, SeedSpec(33))
    tracemalloc.start()
    try:
        relative_error(x, averaged_low_rank_approx(x, ensemble))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_relative_error_rejects_non_finite_input(bad):
    x = np.ones((3, 4))
    q, b = np.ones((3, 2)), np.ones((2, 4))

    def poisoned(a):
        a = a.copy()
        a[-1, -1] = bad
        return a

    for args in [
        ([[bad, 1.0]], np.zeros((1, 2))),
        (x, poisoned(x)),
        (poisoned(x), LowRank(q, b)),
        (x, LowRank(poisoned(q), b)),
        (x, LowRank(q, poisoned(b))),
    ]:
        with pytest.raises(ValueError, match="input holds NaN or infinite entries"):
            relative_error(*args)


def test_relative_error_checks_x_first_and_only_rejects_non_finite_entries():
    # A non-finite X is reported before a shape mismatch or a zero reference.
    for bad in [np.nan, np.inf, -np.inf]:
        for x_hat in [np.zeros((2, 2)), LowRank(np.ones((1, 1)), np.ones((1, 2)))]:
            with pytest.raises(ValueError, match="input holds NaN or infinite entries"):
                relative_error([[bad, 0.0]], x_hat)
    # ||X||^2 overflows for this finite X; that is not a non-finite entry.
    assert relative_error([[1e200, 0.0]], np.array([[1e200, 0.0]])) == 0.0


def test_relative_error_checks_factor_shapes():
    x = np.ones((3, 4))
    for q, b in [
        (np.ones((2, 2)), np.ones((2, 4))),
        (np.ones((3, 2)), np.ones((2, 5))),
        (np.ones((3, 2)), np.ones((3, 4))),
        (np.ones(3), np.ones((1, 4))),
    ]:
        with pytest.raises(ValueError, match="shape mismatch"):
            relative_error(x, LowRank(q, b))
    with pytest.raises(ValueError, match="zero reference"):
        relative_error(np.zeros((3, 4)), LowRank(np.ones((3, 2)), np.ones((2, 4))))
