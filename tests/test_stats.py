import math
import tracemalloc
from itertools import product

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from tensorproj.distributions import EntryDistribution, SeedSpec, very_sparse_family
from tensorproj.linalg import qr_factor
from tensorproj.maps import build_trp, make_factory
from tensorproj.stats import (
    _contract_all,
    _default_chunk,
    _mean_se,
    cosine_similarity_rmse,
    empirical_isometry,
    exact_variance,
    isometry_stats,
    pair_distances,
    pairwise_distance_ratio,
    polarization_check,
    squared_norm_samples,
    tail_exceedance,
    theoretical_variance,
)

GAUSS = EntryDistribution.gaussian()
SPARSE = EntryDistribution.sparse_sign(1 / 3)


# ------------------------------------------------- closed-form variance


def test_single_gaussian_factor_variance_is_two_over_k():
    x = np.random.default_rng(0).standard_normal(30)
    x /= np.linalg.norm(x)
    # the fourth-moment term carries a factor (3 - 3) = 0, so the answer
    # cannot depend on how the mass of x is spread
    assert theoretical_variance(x, 3.0, 50) == pytest.approx(0.04, rel=1e-12)


def test_axis_vector_two_factor_values():
    e1 = np.zeros(100)
    e1[0] = 1.0
    assert theoretical_variance(e1, [3.0, 3.0], 10, T=1) == pytest.approx(0.8)
    assert theoretical_variance(e1, [3.0, 3.0], 10, T=5) == pytest.approx(0.32)
    assert theoretical_variance(e1, [3.0, 3.0], 10, T=25) == pytest.approx(0.224)


def test_zero_input_has_zero_variance():
    assert theoretical_variance(np.zeros(12), [3.0, 3.0], 7) == 0.0


def test_scalar_moment_equals_singleton_sequence():
    x = np.arange(1.0, 6.0)
    assert theoretical_variance(x, 3.0, 4) == theoretical_variance(x, [3.0], 4)


def test_variance_validation():
    x = np.ones(4)
    with pytest.raises(ValueError, match="k must be positive"):
        theoretical_variance(x, 3.0, 0)
    with pytest.raises(ValueError, match="T must be positive"):
        theoretical_variance(x, 3.0, 2, T=0)
    with pytest.raises(ValueError, match="at least one"):
        theoretical_variance(x, [], 2)
    with pytest.raises(ValueError, match="impossible"):
        theoretical_variance(x, [0.5], 2)


@given(
    entries=st.lists(st.floats(-3, 3), min_size=2, max_size=8),
    moments=st.lists(st.floats(3.0, 10.0), min_size=1, max_size=3),
    k=st.integers(1, 20),
    t_pair=st.tuples(st.integers(1, 10), st.integers(1, 10)),
)
def test_more_replicates_never_hurt_when_moment_product_exceeds_three(
    entries, moments, k, t_pair
):
    # the replicate average divides only the fourth-moment surplus by T, so
    # once prod(m) >= 3 that surplus shrinks monotonically
    x = np.asarray(entries)
    t_lo, t_hi = min(t_pair), max(t_pair)
    assert theoretical_variance(x, moments, k, T=t_hi) <= theoretical_variance(
        x, moments, k, T=t_lo
    ) + 1e-15


@given(entries=st.lists(st.floats(-2, 2), min_size=1, max_size=6))
def test_variance_is_quartic_in_scale(entries):
    x = np.asarray(entries)
    got = theoretical_variance(2.0 * x, [3.0, 4.0], 3, T=2)
    assert got == pytest.approx(16.0 * theoretical_variance(x, [3.0, 4.0], 3, T=2), abs=1e-12)


# ------------------------------------------ exact fourth-moment enumeration
#
# Independent oracle for Var ||f(x)||^2.  Distinct rows of a Khatri-Rao
# column reuse factor entries, so E z^4 for z = <column, x> must be summed
# over index quadruples with the per-mode rule: odd multiplicity kills the
# term, multiplicity four contributes the fourth moment, two pairs
# contribute 1.  Columns and replicates are built from disjoint entries, so
#
#   Var = (E z^4 - 3 ||x||^4) / (T k) + 2 ||x||^4 / k
#
# follows from independence alone.  Cost is O(d^4), fine for the small dims
# used here.


def _mode_moment(quad, m4):
    counts = {}
    for v in quad:
        counts[v] = counts.get(v, 0) + 1
    if any(c % 2 for c in counts.values()):
        return 0.0
    return m4 if len(counts) == 1 else 1.0


def enumerated_variance(x, dims, fourth_moments, k, T=1):
    x = np.asarray(x, dtype=float).ravel()
    support = [p for p in range(x.size) if x[p] != 0.0]
    multis = {p: np.unravel_index(p, dims) for p in support}
    ez4 = 0.0
    for p, q, r, s in product(support, repeat=4):
        w = x[p] * x[q] * x[r] * x[s]
        for n, m4 in enumerate(fourth_moments):
            w *= _mode_moment(
                (multis[p][n], multis[q][n], multis[r][n], multis[s][n]), m4
            )
            if w == 0.0:
                break
        ez4 += w
    norm4 = float(x @ x) ** 2
    return (ez4 - 3.0 * norm4) / (T * k) + 2.0 / k * norm4


def test_enumeration_agrees_with_closed_form_on_axis_vectors():
    for dims, moments in [((4, 2), [3.0, 3.0]), ((2, 2, 2), [3.0, 100.0, 1.0])]:
        e1 = np.zeros(math.prod(dims))
        e1[0] = 1.0
        for k, T in [(1, 1), (10, 5)]:
            assert enumerated_variance(e1, dims, moments, k, T) == pytest.approx(
                theoretical_variance(e1, moments, k, T=T), rel=1e-12
            )


def test_enumeration_agrees_with_closed_form_for_one_factor():
    x = np.random.default_rng(3).standard_normal(7)
    for m4 in (1.0, 2.5, 3.0, 9.0):
        assert enumerated_variance(x, (7,), [m4], 5, T=2) == pytest.approx(
            theoretical_variance(x, [m4], 5, T=2), rel=1e-12
        )


def test_dense_input_two_factor_variance_exceeds_closed_form():
    # With several factors and a spread-out x the cross terms are real:
    # simulation tracks the enumeration, not the closed form.
    x = np.random.default_rng(5).standard_normal(8)
    x /= np.linalg.norm(x)
    exact = enumerated_variance(x, (4, 2), [3.0, 3.0], 10)
    closed = theoretical_variance(x, [3.0, 3.0], 10)
    assert exact > 1.5 * closed
    w = squared_norm_samples((4, 2), 10, SPARSE, x, 300_000, SeedSpec(123))
    assert float(np.var(w, ddof=1)) == pytest.approx(exact, rel=0.06)


def test_dense_input_enumeration_holds_under_replicate_averaging():
    x = np.random.default_rng(5).standard_normal(8)
    x /= np.linalg.norm(x)
    exact = enumerated_variance(x, (4, 2), [3.0, 3.0], 10, T=5)
    w = squared_norm_samples((4, 2), 10, GAUSS, x, 150_000, SeedSpec(124), T=5)
    assert float(np.var(w, ddof=1)) == pytest.approx(exact, rel=0.08)


EXACT_CASES = [
    ((7,), [9.0]),
    ((4, 3), [1.0, 9.0]),
    ((3, 2), [3.0, 1.0]),
    ((2, 3, 2), [9.0, 1.0, 3.0]),
    ((2, 2, 3), [1.5, 9.0, 1.0]),
]


@pytest.mark.parametrize("dims, moments", EXACT_CASES)
@pytest.mark.parametrize("T", [1, 5])
@pytest.mark.parametrize("support", ["dense", "sparse"])
def test_exact_variance_matches_enumeration(dims, moments, T, support):
    rng = np.random.default_rng(sum(dims) + 10 * T)
    x = rng.standard_normal(math.prod(dims))
    if support == "sparse":
        x[rng.random(x.size) >= 0.4] = 0.0
        x[1] = 0.7  # at least one nonzero
    want = enumerated_variance(x, dims, moments, 6, T)
    assert exact_variance(x, dims, moments, 6, T) == pytest.approx(want, rel=1e-12)


def test_exact_variance_equals_closed_form_for_one_factor_and_axis_vectors():
    x = np.random.default_rng(13).standard_normal(9)
    for m4 in (1.0, 3.0, 9.0):
        assert exact_variance(x, (9,), m4, 4, T=3) == pytest.approx(
            theoretical_variance(x, [m4], 4, T=3), rel=1e-12
        )
    for dims, moments in [((4, 2), [3.0, 3.0]), ((2, 3, 2), [1.0, 9.0, 3.0])]:
        axis = np.zeros(math.prod(dims))
        axis[5] = -2.0
        for T in (1, 5):
            assert exact_variance(axis, dims, moments, 10, T) == pytest.approx(
                theoretical_variance(axis, moments, 10, T), rel=1e-12
            )


@pytest.mark.parametrize("dims", [(4, 2), (3, 3), (50, 50), (2, 2, 2), (3, 2, 4)])
def test_exact_variance_exceeds_closed_form_for_dense_input(dims):
    x = np.random.default_rng(len(dims) + dims[0]).standard_normal(math.prod(dims))
    for moments in ([3.0] * len(dims), [9.0] + [3.0] * (len(dims) - 1)):
        for T in (1, 5):
            assert exact_variance(x, dims, moments, 10, T) > theoretical_variance(
                x, moments, 10, T
            )


def test_exact_variance_can_fall_below_closed_form_for_light_tails():
    # Rademacher entries (m = 1): the closed form is no bound there, and the
    # enumeration agrees with the exact value, not with the closed form
    x = np.array([1.0, 1.0, 1.0, -1.0])
    exact = exact_variance(x, (2, 2), 1.0, 3)
    oracle = enumerated_variance(x, (2, 2), [1.0, 1.0], 3)
    assert exact == pytest.approx(oracle, rel=1e-12)
    assert exact < theoretical_variance(x, [1.0, 1.0], 3)


def test_exact_variance_scalar_moment_applies_to_every_factor():
    x = np.random.default_rng(14).standard_normal(12)
    assert exact_variance(x, (3, 4), 9.0, 5) == exact_variance(x, (3, 4), [9.0, 9.0], 5)


def test_exact_variance_validation():
    x = np.ones(8)
    with pytest.raises(ValueError, match="k must be positive"):
        exact_variance(x, (4, 2), 3.0, 0)
    with pytest.raises(ValueError, match="T must be positive"):
        exact_variance(x, (4, 2), 3.0, 2, T=0)
    with pytest.raises(ValueError, match="at least one"):
        exact_variance(np.ones(1), (), [], 2)
    with pytest.raises(ValueError, match="impossible"):
        exact_variance(x, (4, 2), [3.0, 0.5], 2)
    with pytest.raises(ValueError, match="got 3 fourth moments for 2 factors"):
        exact_variance(x, (4, 2), [3.0, 3.0, 3.0], 2)
    with pytest.raises(ValueError, match="dims must be positive"):
        exact_variance(np.ones(0), (0, 2), 3.0, 2)
    with pytest.raises(ValueError, match="x has 7 entries, dims \\(4, 2\\) need 8"):
        exact_variance(np.ones(7), (4, 2), 3.0, 2)


# ------------------------------------------------------------ mean and SE


def test_mean_se_matches_numpy():
    vals = np.random.default_rng(1).standard_normal(1000)
    mean, se, count = _mean_se(vals)
    assert count == 1000
    assert mean == pytest.approx(float(vals.mean()), rel=1e-12)
    assert se == pytest.approx(float(vals.std(ddof=1)) / math.sqrt(1000), rel=1e-12)


def test_mean_se_skips_nan_draws():
    assert _mean_se(np.array([1.0, math.nan, 3.0])) == (2.0, 1.0, 2)
    assert _mean_se(np.array([math.nan, 2.0])) == (2.0, 0.0, 1)
    mean, se, count = _mean_se(np.array([math.nan, math.nan]))
    assert math.isnan(mean) and math.isnan(se) and count == 0
    mean, se, count = _mean_se(np.array([]))
    assert math.isnan(mean) and math.isnan(se) and count == 0


# ----------------------------------------------------------------- samplers


# (4, 3), (2, 3, 4) and (2, 3, 2, 3) move a later mode to the kernel's head.
CONTRACT_DIMS = [(12,), (3, 4), (4, 3), (2, 3, 4), (2, 3, 2, 3)]
CONTRACT_DISTS = {
    "gaussian": lambda dims: GAUSS,
    "sparse": lambda dims: SPARSE,
    "very_sparse": very_sparse_family,
}


@pytest.mark.parametrize("dims", CONTRACT_DIMS, ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("dist", CONTRACT_DISTS.values(), ids=CONTRACT_DISTS.keys())
@pytest.mark.parametrize("m", [1, 5])
def test_contract_kernel_matches_materialized_maps(dims, dist, m):
    # The sampler's batch of m maps goes through the same kernel as apply;
    # each slice must equal x times that map's materialized Khatri-Rao matrix.
    maps = [build_trp(dims, 3, dist(dims), SeedSpec(9).child(i)) for i in range(m)]
    factors = [np.stack([trp.factors[n] for trp in maps]) for n in range(len(dims))]
    x = np.random.default_rng(m).standard_normal(maps[0].d)
    z = _contract_all(x, factors)
    assert z.shape == (m, 3)
    for i, trp in enumerate(maps):
        want = x @ trp.materialize()
        assert np.linalg.norm(z[i] - want) <= 1e-12 * np.linalg.norm(want)


def test_contract_of_unbalanced_dims_stays_in_the_chunk_budget():
    # With the first mode at the head, dims (2, 50, 50) would form a
    # (m, 2500, k) tail block, 25 times the (m, d / d_N, k) = (m, 100, k)
    # block the default chunk size allows for.
    dims, m, k = (2, 50, 50), 100, 5
    factors = [np.ones((m, n, k)) for n in dims]
    x = np.ones(math.prod(dims))
    budget = 8 * m * k * (math.prod(dims) // dims[-1])
    tracemalloc.start()
    try:
        z = _contract_all(x, factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(z, np.full((m, k), float(math.prod(dims))))
    assert peak < 2 * budget


def test_squared_norm_samples_deterministic():
    x = np.random.default_rng(2).standard_normal(8)
    a = squared_norm_samples((4, 2), 3, SPARSE, x, 500, SeedSpec(11), T=2)
    b = squared_norm_samples((4, 2), 3, SPARSE, x, 500, SeedSpec(11), T=2)
    assert np.array_equal(a, b)
    c = squared_norm_samples((4, 2), 3, SPARSE, x, 500, SeedSpec(12), T=2)
    assert not np.array_equal(a, c)
    # Chunk c draws from child stream c: 400 trials of 158-trial chunks use
    # three streams, and a run of whole chunks repeats their draws exactly.
    assert _default_chunk((2, 500), 100, 1) == 158
    x = np.random.default_rng(3).standard_normal(1000)
    d = squared_norm_samples((2, 500), 100, GAUSS, x, 400, SeedSpec(4))
    assert d.shape == (400,)
    assert np.array_equal(d, squared_norm_samples((2, 500), 100, GAUSS, x, 400, SeedSpec(4)))
    assert np.array_equal(d[:316], squared_norm_samples((2, 500), 100, GAUSS, x, 316, SeedSpec(4)))


def test_squared_norm_samples_validation():
    with pytest.raises(ValueError, match="need 8"):
        squared_norm_samples((4, 2), 3, GAUSS, np.ones(7), 10, SeedSpec(0))
    with pytest.raises(ValueError, match="trials"):
        squared_norm_samples((4, 2), 3, GAUSS, np.ones(8), 0, SeedSpec(0))
    with pytest.raises(ValueError, match="T must be positive"):
        squared_norm_samples((4, 2), 3, GAUSS, np.ones(8), 10, SeedSpec(0), T=0)


def test_squared_norm_samples_rejects_zero_k_and_dims():
    # k=0 used to return NaN with a warning.
    with pytest.raises(ValueError, match="k must be positive, got 0"):
        squared_norm_samples((4, 2), 0, GAUSS, np.ones(8), 10, SeedSpec(0))
    with pytest.raises(ValueError, match="dims must be positive"):
        squared_norm_samples((4, 0), 3, GAUSS, np.ones(0), 10, SeedSpec(0))


def test_vectorized_sampler_mean_and_variance():
    e1 = np.zeros(8)
    e1[0] = 1.0
    report = isometry_stats((4, 2), 10, GAUSS, e1, 30_000, SeedSpec(77))
    assert abs(report.mean_sq_norm_ratio - 1.0) <= 4 * report.std_error_mean
    assert report.var_sq_norm == pytest.approx(0.8, rel=0.10)
    assert report.trials == 30_000
    assert not report.degenerate


def test_per_map_loop_agrees_with_theory():
    e1 = np.zeros(6)
    e1[0] = 1.0
    factory = make_factory("trp", (3, 2), 10, GAUSS, 1, SeedSpec(21))
    report = empirical_isometry(factory, e1, 8000)
    assert abs(report.mean_sq_norm_ratio - 1.0) <= 4 * report.std_error_mean
    assert report.var_sq_norm == pytest.approx(0.8, rel=0.15)


def test_empirical_isometry_zero_input_is_degenerate():
    factory = make_factory("trp", (2, 2), 3, GAUSS, 1, SeedSpec(0))
    report = empirical_isometry(factory, np.zeros(4), 50)
    assert report.degenerate
    assert math.isnan(report.mean_sq_norm_ratio)
    assert math.isnan(report.std_error_mean)
    assert report.var_sq_norm == 0.0


def test_isometry_needs_two_trials():
    factory = make_factory("trp", (2, 2), 3, GAUSS, 1, SeedSpec(0))
    with pytest.raises(ValueError, match="at least 2 trials"):
        empirical_isometry(factory, np.ones(4), 1)
    with pytest.raises(ValueError, match="at least 2 trials"):
        isometry_stats((2, 2), 3, GAUSS, np.ones(4), 1, SeedSpec(0))


# --------------------------------------------------------------- distortion


def test_distance_ratio_identity_map_is_exactly_one():
    pts = np.random.default_rng(6).standard_normal((7, 5))
    report = pairwise_distance_ratio(pts, lambda p: p)
    assert report.avg_ratio == 1.0
    assert report.std_ratio == 0.0
    assert report.skipped_pairs == 0
    assert report.ratios.shape == (21,)


def test_distance_ratio_orthonormal_map_near_one():
    rng = np.random.default_rng(7)
    q = qr_factor(rng.standard_normal((6, 6))).q
    pts = rng.standard_normal((5, 6))
    report = pairwise_distance_ratio(pts, lambda p: p @ q)
    assert_allclose(report.ratios, 1.0, atol=1e-12)


def test_distance_ratio_skips_duplicates():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]])
    report = pairwise_distance_ratio(pts, lambda p: p)
    assert report.skipped_pairs == 1
    assert report.ratios.shape == (2,)


def test_distance_ratio_all_duplicates_rejected():
    pts = np.ones((3, 2))
    with pytest.raises(ValueError, match="duplicates"):
        pairwise_distance_ratio(pts, lambda p: p)


def test_distance_ratio_shape_validation():
    with pytest.raises(ValueError, match="2-D"):
        pairwise_distance_ratio(np.ones(4), lambda p: p)
    with pytest.raises(ValueError, match="two point rows"):
        pairwise_distance_ratio(np.ones((1, 4)), lambda p: p)


def test_pair_distances_match_a_per_pair_loop():
    pts = np.random.default_rng(10).standard_normal((9, 13))
    want = [
        np.linalg.norm(pts[i] - pts[j]) for i in range(9) for j in range(i + 1, 9)
    ]
    assert_allclose(pair_distances(pts), want, rtol=1e-12, atol=0.0)
    i, j = np.triu_indices(9, k=1)
    assert_allclose(pair_distances(pts), np.linalg.norm(pts[i] - pts[j], axis=1),
                    rtol=1e-12, atol=0.0)


def test_pair_distances_validation():
    with pytest.raises(ValueError, match="2-D"):
        pair_distances(np.ones(4))
    with pytest.raises(ValueError, match="two point rows"):
        pair_distances(np.ones((1, 4)))


def test_distance_ratio_with_precomputed_original_is_identical():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((8, 6))
    q = rng.standard_normal((6, 3))
    fresh = pairwise_distance_ratio(pts, lambda p: p @ q)
    reused = pairwise_distance_ratio(pts, lambda p: p @ q, pair_distances(pts))
    assert reused.avg_ratio == fresh.avg_ratio
    assert reused.std_ratio == fresh.std_ratio
    assert reused.skipped_pairs == fresh.skipped_pairs
    assert np.array_equal(reused.ratios, fresh.ratios)


def test_distance_ratio_rejects_original_of_wrong_length():
    pts = np.random.default_rng(12).standard_normal((5, 3))
    with pytest.raises(ValueError, match="5 points need 10 pair distances"):
        pairwise_distance_ratio(pts, lambda p: p, np.ones(9))
    with pytest.raises(ValueError, match="need 10 pair distances"):
        pairwise_distance_ratio(pts, lambda p: p, np.ones((2, 5)))


def test_distance_ratio_counts_duplicates_with_precomputed_original():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    report = pairwise_distance_ratio(pts, lambda p: 2.0 * p, pair_distances(pts))
    assert report.skipped_pairs == 2
    assert report.ratios.shape == (4,)
    assert report.avg_ratio == 2.0


def test_distance_ratio_scales_linearly():
    pts = np.random.default_rng(8).standard_normal((6, 4))
    base = pairwise_distance_ratio(pts, lambda p: p)
    scaled = pairwise_distance_ratio(pts, lambda p: 3.0 * p)
    assert scaled.avg_ratio == pytest.approx(3.0 * base.avg_ratio, rel=1e-12)


def test_cosine_rmse_identity_factory_is_zero():
    pts = np.random.default_rng(9).standard_normal((6, 4))
    report = cosine_similarity_rmse(pts, lambda rep: (lambda p: p), 3)
    assert report.mean_rmse == 0.0
    assert report.std_error == 0.0
    assert np.array_equal(report.per_rep, np.zeros(3))


def test_cosine_rmse_is_scale_invariant():
    pts = np.random.default_rng(10).standard_normal((5, 4))
    report = cosine_similarity_rmse(pts, lambda rep: (lambda p: 2.0 * p), 2)
    assert report.mean_rmse == pytest.approx(0.0, abs=1e-12)


def test_cosine_rmse_standard_error():
    pts = np.random.default_rng(11).standard_normal((6, 9))
    factory = make_factory("trp", (3, 3), 4, GAUSS, 1, SeedSpec(30))
    report = cosine_similarity_rmse(pts, factory, 4)
    assert report.per_rep.shape == (4,)
    assert report.std_error == pytest.approx(
        float(report.per_rep.std(ddof=1)) / 2.0, rel=1e-12
    )
    assert report.mean_rmse == pytest.approx(float(report.per_rep.mean()), rel=1e-12)


def test_cosine_rmse_skips_pairs_a_map_sends_to_zero():
    pts = np.random.default_rng(13).standard_normal((4, 3))
    # Point 1 goes to zero: its three pairs are skipped, the other three keep
    # their cosines exactly.
    drop_one = lambda rep: (lambda p: p * np.array([[1.0], [0.0], [1.0], [1.0]]))
    report = cosine_similarity_rmse(pts, drop_one, 2)
    assert np.array_equal(report.per_rep, [0.0, 0.0])
    assert report.skipped_pairs == 6
    # A draw that leaves no pair has no RMSE; the mean and standard error
    # come from the other draws.
    first_off = lambda rep: (lambda p: 0.0 * p if rep == 0 else p + [0.0, 0.0, rep])
    report = cosine_similarity_rmse(pts, first_off, 3)
    assert np.isnan(report.per_rep[0])
    assert np.isfinite(report.per_rep[1:]).all()
    assert report.mean_rmse == pytest.approx(float(report.per_rep[1:].mean()), rel=1e-12)
    assert report.std_error == pytest.approx(
        float(report.per_rep[1:].std(ddof=1)) / math.sqrt(2), rel=1e-12
    )
    assert report.skipped_pairs == 6
    report = cosine_similarity_rmse(pts, lambda rep: (lambda p: 0.0 * p), 2)
    assert np.isnan(report.per_rep).all()
    assert np.isnan(report.mean_rmse) and np.isnan(report.std_error)
    assert report.skipped_pairs == 12
    assert cosine_similarity_rmse(pts, lambda rep: (lambda p: p), 2).skipped_pairs == 0


def test_cosine_rmse_validation():
    pts = np.random.default_rng(12).standard_normal((4, 3))
    with pytest.raises(ValueError, match="zero-norm"):
        bad = pts.copy()
        bad[1] = 0.0
        cosine_similarity_rmse(bad, lambda rep: (lambda p: p), 2)
    with pytest.raises(ValueError, match="replications"):
        cosine_similarity_rmse(pts, lambda rep: (lambda p: p), 0)
    with pytest.raises(ValueError, match="two point rows"):
        cosine_similarity_rmse(pts[:1], lambda rep: (lambda p: p), 2)


# --------------------------------------------------------------------- tails


def test_tail_exceedance_extremes():
    x = np.ones(4)
    factory = make_factory("trp", (2, 2), 5, GAUSS, 1, SeedSpec(40))
    assert tail_exceedance(factory, x, 0.0, 20) == 1.0
    assert tail_exceedance(factory, x, 1e9, 20) == 0.0


def test_tail_exceedance_monotone_in_eps():
    x = np.ones(4)
    factory = make_factory("trp", (2, 2), 5, GAUSS, 1, SeedSpec(41))
    fracs = [tail_exceedance(factory, x, eps, 200) for eps in (0.1, 0.3, 0.6)]
    assert fracs[0] >= fracs[1] >= fracs[2]


def test_factory_estimators_reduce_the_per_map_draws():
    # Reference: one ||f_i(x)||^2 per map, counted and averaged in a loop.
    x = np.random.default_rng(42).standard_normal(6)
    factory = make_factory("trp_t", (3, 2), 4, SPARSE, 2, SeedSpec(43))
    draws = [float(y @ y) for y in (factory(i)(x) for i in range(300))]
    x_sq = float(x @ x)
    hits = sum(abs(w - x_sq) >= 0.3 * x_sq for w in draws)
    assert tail_exceedance(factory, x, 0.3, 300) == hits / 300
    report = empirical_isometry(factory, x, 300)
    assert report.mean_sq_norm_ratio == pytest.approx(np.mean(draws) / x_sq, rel=1e-12)
    assert report.var_sq_norm == pytest.approx(np.var(draws, ddof=1), rel=1e-12)


def test_tail_exceedance_validation():
    factory = make_factory("trp", (2, 2), 5, GAUSS, 1, SeedSpec(0))
    with pytest.raises(ValueError, match="eps"):
        tail_exceedance(factory, np.ones(4), -0.1, 5)
    with pytest.raises(ValueError, match="trials"):
        tail_exceedance(factory, np.ones(4), 0.1, 0)
    with pytest.raises(ValueError, match="x = 0"):
        tail_exceedance(factory, np.zeros(4), 0.1, 5)


# -------------------------------------------------------------- polarization


@pytest.mark.parametrize("kind", ["rp", "trp", "trp_t"])
def test_polarization_identity_holds_for_every_map_kind(kind):
    rng = np.random.default_rng(50)
    proj = make_factory(kind, (4, 3), 6, GAUSS, 3, SeedSpec(51))(0)
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    scale = (np.linalg.norm(x) + np.linalg.norm(y)) ** 2
    assert polarization_check(proj, x, y) <= 1e-10 * scale


def test_polarization_degenerate_pairs():
    # y = x exercises f(2x) and f(0); y = -x the reverse
    trp = build_trp((3, 3), 4, GAUSS, SeedSpec(52))
    x = np.random.default_rng(53).standard_normal(9)
    assert polarization_check(trp, x, x) <= 1e-10 * 4 * float(x @ x)
    assert polarization_check(trp, x, -x) <= 1e-10 * 4 * float(x @ x)


def test_polarization_detects_nonlinearity():
    defect = polarization_check(
        lambda v: v * v, np.array([2.0, 0.0]), np.array([1.0, 0.0])
    )
    assert defect == pytest.approx(64.0)
