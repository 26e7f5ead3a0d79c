import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import mode_n_unfold
from tensorproj.distributions import EntryDistribution, SeedSpec
from tensorproj.linalg import qr_factor
from tensorproj.maps import build_ensemble, build_trp
from tensorproj.sketch import (
    RankDeficiencyWarning,
    averaged_low_rank_approx,
    low_rank_approx,
    multi_mode_product,
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
    assert_allclose(low_rank_approx(x, omega), x, atol=1e-10)


def test_structured_sketch_equals_materialized_sketch():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 40))
    trp = build_trp((5, 8), 7, GAUSS, SeedSpec(5))
    dense = trp.materialize()
    direct = low_rank_approx(x, lambda p: p @ dense / np.sqrt(7))
    structured = low_rank_approx(x, trp)
    assert np.max(np.abs(direct - structured)) <= 1e-10


def test_rank_deficient_sketch_warns_and_proceeds():
    rng = np.random.default_rng(6)
    x = np.outer(rng.standard_normal(15), rng.standard_normal(8))
    omega = build_trp((4, 2), 4, GAUSS, SeedSpec(7))
    with pytest.warns(RankDeficiencyWarning, match="effective rank 1"):
        approx = low_rank_approx(x, omega)
    assert relative_error(x, approx) <= 1e-8


def test_low_rank_approx_validation():
    omega = build_trp((2, 2), 2, GAUSS, SeedSpec(0))
    with pytest.raises(ValueError, match="expects a matrix"):
        low_rank_approx(np.ones(4), omega)
    with pytest.raises(ValueError, match="one row per input row"):
        low_rank_approx(np.ones((5, 4)), lambda p: p[:3])
    big = build_trp((2, 2), 9, GAUSS, SeedSpec(0))
    with pytest.raises(ValueError, match="exceeds row count"):
        low_rank_approx(np.ones((5, 4)), big)


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
    assert_array_equal(averaged_low_rank_approx(x, ensemble), low_rank_approx(x, omega))


def test_averaging_is_the_mean_over_the_ensemble_replicates():
    x = np.random.default_rng(23).standard_normal((16, 12))
    ensemble = build_ensemble((4, 3), 3, GAUSS, 4, SeedSpec(24))
    approxs = [low_rank_approx(x, rep) for rep in ensemble.replicates]
    assert_array_equal(averaged_low_rank_approx(x, ensemble), np.mean(approxs, axis=0))


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
    assert np.linalg.matrix_rank(approx) <= 6


def test_averaged_low_rank_validation():
    ensemble = build_ensemble((3, 2), 2, GAUSS, 2, SeedSpec(0))
    with pytest.raises(ValueError, match="expects a matrix"):
        averaged_low_rank_approx(np.ones(6), ensemble)
    with pytest.raises(ValueError, match="input has 7 entries, map expects 6"):
        averaged_low_rank_approx(np.ones((5, 7)), ensemble)


# -------------------------------------------------------------- tucker model


def test_multi_mode_product_matrix_case():
    rng = np.random.default_rng(17)
    core = rng.standard_normal((3, 4))
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((5, 4))
    assert_allclose(multi_mode_product(core, [a, b]), a @ core @ b.T, atol=1e-12)


def test_multi_mode_product_order_three():
    rng = np.random.default_rng(18)
    core = rng.standard_normal((2, 3, 2))
    arms = [rng.standard_normal((4, 2)), rng.standard_normal((5, 3)), rng.standard_normal((3, 2))]
    want = np.einsum("abc,ia,jb,kc->ijk", core, *arms)
    assert_allclose(multi_mode_product(core, arms), want, atol=1e-12)


def test_multi_mode_product_arm_count_must_match():
    with pytest.raises(ValueError, match="modes"):
        multi_mode_product(np.ones((2, 2)), [np.ones((3, 2))])


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


def test_relative_error_basics():
    x = np.ones((2, 2))
    assert relative_error(x, x) == 0.0
    assert relative_error(x, np.zeros((2, 2))) == 1.0
    assert relative_error(x, 2.0 * x) == 1.0
    with pytest.raises(ValueError, match="shape mismatch"):
        relative_error(x, np.ones((2, 3)))
    with pytest.raises(ValueError, match="zero reference"):
        relative_error(np.zeros((2, 2)), x)
