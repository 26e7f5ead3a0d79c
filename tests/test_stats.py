import math
import tracemalloc
import warnings
import weakref
from itertools import product

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from oracles import per_map_sq_norms, polarization_check
from tensorproj import stats
from tensorproj.cli import _mean_se
from tensorproj.distributions import (
    EntryDistribution,
    SeedSpec,
    _per_factor,
    _sample_array,
    very_sparse_family,
)
from tensorproj.linalg import qr_factor
from tensorproj.maps import build_map
from tensorproj.stats import (
    _BLOCK_SCRATCH,
    _contract_all,
    _PAIR_CHUNK,
    _pair_distances,
    _trial_scratch,
    cosine_similarity_rmse,
    exact_variance,
    pairwise_distance_ratio,
    squared_norm_samples,
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
    assert theoretical_variance(x, [3.0], 50) == pytest.approx(0.04, rel=1e-12)


def test_axis_vector_two_factor_values():
    e1 = np.zeros(100)
    e1[0] = 1.0
    assert theoretical_variance(e1, [3.0, 3.0], 10, T=1) == pytest.approx(0.8)
    assert theoretical_variance(e1, [3.0, 3.0], 10, T=5) == pytest.approx(0.32)
    assert theoretical_variance(e1, [3.0, 3.0], 10, T=25) == pytest.approx(0.224)


def test_zero_input_has_zero_variance():
    assert theoretical_variance(np.zeros(12), [3.0, 3.0], 7) == 0.0


# Both formulas take fourth_moments as an iterable, read once, of one real
# moment per factor.  A scalar used to be one factor's moment in
# theoretical_variance and every factor's in exact_variance; a ragged list
# died in numpy's own ndim, and a generator was taken for a scalar.
MOMENT_FORMS = {
    "scalar": (lambda: 3.0, "fourth moments need one per factor, got 3.0"),
    "0-d-array": (lambda: np.array(3.0), "fourth moments need one per factor, got array(3.)"),
    "bool": (lambda: True, "fourth moments need one per factor, got True"),
    "ragged": (lambda: [3.0, [3.0]], "fourth moments must be real numbers, got (3.0, [3.0])"),
    "generator": (lambda: (m for m in [3.0, 5.0]), None),
}
VARIANCE_FORMULAS = {
    "theoretical_variance": lambda m: theoretical_variance(np.arange(1.0, 9.0), m, 4, T=2),
    "exact_variance": lambda m: exact_variance(np.arange(1.0, 9.0), (4, 2), m, 4, T=2),
}


@pytest.mark.parametrize("formula", VARIANCE_FORMULAS.values(), ids=VARIANCE_FORMULAS.keys())
@pytest.mark.parametrize("form", MOMENT_FORMS)
def test_fourth_moments_are_one_per_factor(formula, form):
    make, message = MOMENT_FORMS[form]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            assert formula(make()) == formula([3.0, 5.0])
            return
        with pytest.raises(ValueError) as err:
            formula(make())
    assert str(err.value) == message


def test_variance_validation():
    x = np.ones(4)
    with pytest.raises(ValueError, match="k must be positive"):
        theoretical_variance(x, [3.0], 0)
    with pytest.raises(ValueError, match="T must be positive"):
        theoretical_variance(x, [3.0], 2, T=0)
    # It used to name dims, which the caller never passed.
    with pytest.raises(ValueError, match="^x must not be empty$"):
        theoretical_variance(np.array([]), [3.0], 2)
    with pytest.raises(ValueError, match="at least one"):
        theoretical_variance(x, [], 2)
    with pytest.raises(ValueError, match="impossible"):
        theoretical_variance(x, [0.5], 2)
    # Each used to be converted by float(): "3" and True ran as 3 and 1, and
    # a complex moment ran with a ComplexWarning.
    for bad in ("3", True, np.complex128(3.0), None, 3j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="fourth moments must be real numbers, got "):
                theoretical_variance(x, [bad], 2)
            with pytest.raises(ValueError, match="fourth moments must be real numbers, got "):
                theoretical_variance(x, [3.0, bad], 2)


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
        assert exact_variance(x, (9,), [m4], 4, T=3) == pytest.approx(
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
    exact = exact_variance(x, (2, 2), [1.0, 1.0], 3)
    oracle = enumerated_variance(x, (2, 2), [1.0, 1.0], 3)
    assert exact == pytest.approx(oracle, rel=1e-12)
    assert exact < theoretical_variance(x, [1.0, 1.0], 3)


def test_exact_variance_validation():
    x = np.ones(8)
    with pytest.raises(ValueError, match="k must be positive"):
        exact_variance(x, (4, 2), [3.0, 3.0], 0)
    with pytest.raises(ValueError, match="T must be positive"):
        exact_variance(x, (4, 2), [3.0, 3.0], 2, T=0)
    with pytest.raises(ValueError, match="at least one"):
        exact_variance(np.ones(1), (), [], 2)
    with pytest.raises(ValueError, match="impossible"):
        exact_variance(x, (4, 2), [3.0, 0.5], 2)
    with pytest.raises(ValueError, match="got 3 fourth moments for 2 factors"):
        exact_variance(x, (4, 2), [3.0, 3.0, 3.0], 2)
    for bad in ("3", True, np.complex128(3.0), None, 3j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="fourth moments must be real numbers, got "):
                exact_variance(x, (4, 2), [bad, bad], 2)
            with pytest.raises(ValueError, match="fourth moments must be real numbers, got "):
                exact_variance(x, (4, 2), [3.0, bad], 2)
    with pytest.raises(ValueError, match="dims must be positive"):
        exact_variance(np.ones(0), (0, 2), [3.0, 3.0], 2)
    with pytest.raises(ValueError, match="x has 7 entries, dims \\(4, 2\\) need 8"):
        exact_variance(np.ones(7), (4, 2), [3.0, 3.0], 2)


def test_exact_variance_refuses_orders_past_the_limit(monkeypatch):
    # The 4^N expansion takes about 4x longer per order, so order 11 is
    # refused before the expansion or any contraction starts.
    def started(*args, **kwargs):
        raise AssertionError("exact_variance expanded an order past its limit")

    monkeypatch.setattr(stats, "product", started)
    monkeypatch.setattr(stats, "_tied_sum", started)
    with pytest.raises(ValueError, match="^exact variance takes order at most 10, got 11$"):
        exact_variance(np.ones(1), (1,) * 11, [3.0] * 11, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inputs_and_moments_are_rejected(bad):
    x = np.ones(8)
    x[3] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        exact_variance(x, (4, 2), [3.0, 3.0], 2)
    with pytest.raises(ValueError, match="NaN or infinite"):
        theoretical_variance(x, [3.0], 2)
    with pytest.raises(ValueError, match="NaN or infinite"):
        squared_norm_samples((4, 2), 3, GAUSS, x, 10, SeedSpec(0))
    with pytest.raises(ValueError, match="fourth moments must be finite"):
        exact_variance(np.ones(8), (4, 2), [3.0, bad], 2)
    with pytest.raises(ValueError, match="fourth moments must be finite"):
        theoretical_variance(np.ones(8), [bad], 2)


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
    maps = [build_map("trp", dims, 3, dist(dims), 1, SeedSpec(9).child(i)) for i in range(m)]
    factors = [np.stack([trp.factors[n] for trp in maps]) for n in range(len(dims))]
    x = np.random.default_rng(m).standard_normal(maps[0].d)
    z = _contract_all(x, factors)
    assert z.shape == (m, 3)
    for i, trp in enumerate(maps):
        want = x @ trp.materialize()
        assert np.linalg.norm(z[i] - want) <= 1e-12 * np.linalg.norm(want)


def test_contract_of_unbalanced_dims_forms_the_smallest_tail_block():
    # With the first mode at the head, dims (2, 50, 50) would form a
    # (m, 2500, k) tail block, 25 times the (m, d / d_N, k) = (m, 100, k)
    # block of a largest head mode.
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


def _block_stream_samples(dims, k, dist, x, trials, seed, T, block):
    """Reference sampler: blocks of ``block`` trials, block b drawn from
    ``seed.child(b)`` mode by mode and contracted in one kernel call."""
    dists = _per_factor(dist, len(dims))
    out = []
    for b, start in enumerate(range(0, trials, block)):
        n = min(block, trials - start)
        rng = seed.child(b).generator()
        factors = [_sample_array(f, (n * T, d_i, k), rng) for f, d_i in zip(dists, dims)]
        s = _contract_all(x, factors).reshape(n, T, k).sum(axis=1)
        out.append(np.einsum("ij,ij->i", s, s) / (T * k))
    return np.concatenate(out)


# Orders 1-4; (4, 3) and (2, 3, 4) move a later mode to the kernel's head.
@pytest.mark.parametrize("dims", [(12,), (4, 3), (2, 3, 4), (2, 3, 2, 3)],
                         ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("dist", CONTRACT_DISTS.values(), ids=CONTRACT_DISTS.keys())
@pytest.mark.parametrize("T", [1, 3])
@pytest.mark.parametrize("x_kind", ["e1", "dense"])
def test_blocked_contraction_is_bitwise_the_whole_chunk(monkeypatch, dims, dist, T, x_kind):
    # Block b draws from child stream b.  A budget of one entry gives
    # blocks of one trial; three trials' entries give 25 = 8 * 3 + 1, a
    # partial last block; a huge budget gives a single block.
    k, trials = 4, 25
    d = math.prod(dims)
    x = np.eye(d)[0] if x_kind == "e1" else np.random.default_rng(d).standard_normal(d)
    calls = []
    kernel = stats._contract_all

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(stats, "_contract_all", counted)
    for budget, block, blocks in [(1, 1, 25), (3 * _trial_scratch(dims, k, T), 3, 9),
                                  (10**9, 25, 1)]:
        want = _block_stream_samples(dims, k, dist(dims), x, trials, SeedSpec(31), T, block)
        monkeypatch.setattr(stats, "_BLOCK_SCRATCH", budget)
        calls.clear()
        got = squared_norm_samples(dims, k, dist(dims), x, trials, SeedSpec(31), T=T)
        assert np.array_equal(got, want)
        assert len(calls) == blocks


@pytest.mark.parametrize("dims, k, T", [((2, 2, 1000), 10, 1), ((2, 2, 2), 50, 5),
                                        ((2, 2, 1000), 50, 5)])
def test_many_blocks_peak_near_one_block_budget(dims, k, T):
    # Far more trials than one block: the sampler holds the output, one
    # block's factors and the kernel's scratch, together about one budget.
    # At 2x2x1000, k=50, T=5 one trial is nearly a whole budget; the T=5
    # cases check that a block counts all T maps of each trial.
    block = max(1, _BLOCK_SCRATCH // _trial_scratch(dims, k, T))
    trials = 20 * block
    x = np.random.default_rng(0).standard_normal(math.prod(dims))
    tracemalloc.start()
    try:
        squared_norm_samples(dims, k, GAUSS, x, trials, SeedSpec(3), T=T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * trials + 2 * 8 * _BLOCK_SCRATCH


def test_squared_norm_samples_deterministic():
    x = np.random.default_rng(2).standard_normal(8)
    a = squared_norm_samples((4, 2), 3, SPARSE, x, 500, SeedSpec(11), T=2)
    b = squared_norm_samples((4, 2), 3, SPARSE, x, 500, SeedSpec(11), T=2)
    assert np.array_equal(a, b)
    c = squared_norm_samples((4, 2), 3, SPARSE, x, 500, SeedSpec(12), T=2)
    assert not np.array_equal(a, c)
    # Block b draws from child stream b: 400 trials in 10-trial blocks use
    # 40 streams, and a run of whole blocks repeats their draws exactly.  A
    # partial last block draws its modes from other stream positions.
    assert _BLOCK_SCRATCH // _trial_scratch((2, 500), 100, 1) == 10
    x = np.random.default_rng(3).standard_normal(1000)
    d = squared_norm_samples((2, 500), 100, GAUSS, x, 400, SeedSpec(4))
    assert d.shape == (400,)
    assert np.array_equal(d, squared_norm_samples((2, 500), 100, GAUSS, x, 400, SeedSpec(4)))
    e = squared_norm_samples((2, 500), 100, GAUSS, x, 315, SeedSpec(4))
    assert np.array_equal(d[:310], e[:310])
    assert not np.any(d[310:315] == e[310:])


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
    w = squared_norm_samples((4, 2), 10, GAUSS, e1, 30_000, SeedSpec(77))
    var = float(w.var(ddof=1))
    assert abs(float(w.mean()) - 1.0) <= 4 * math.sqrt(var / w.size)
    assert var == pytest.approx(0.8, rel=0.10)
    assert w.shape == (30_000,)


def test_per_map_loop_agrees_with_theory():
    e1 = np.zeros(6)
    e1[0] = 1.0
    maps = (build_map("trp", (3, 2), 10, GAUSS, 1, SeedSpec(21).child(i)) for i in range(8000))
    w = per_map_sq_norms(maps, e1)
    var = float(w.var(ddof=1))
    assert abs(float(w.mean()) - 1.0) <= 4 * math.sqrt(var / w.size)
    assert var == pytest.approx(0.8, rel=0.15)


# --------------------------------------------------------------- distortion


@pytest.mark.parametrize(
    "estimate",
    [lambda p, f: pairwise_distance_ratio(p, [f]), lambda p, f: cosine_similarity_rmse(p, [f])],
    ids=["distance", "cosine"],
)
def test_estimators_reject_a_map_that_changes_the_point_count(estimate):
    # Both used to fail with an IndexError from mismatched pair indices, or
    # (cosine, on a 1-D output) with a numpy AxisError.
    pts = np.random.default_rng(6).standard_normal((5, 4))
    with pytest.raises(ValueError, match=r"one row per point, got \(4, 4\) for 5"):
        estimate(pts, lambda p: p[:-1])
    with pytest.raises(ValueError, match=r"one row per point, got \(5,\) for 5"):
        estimate(pts, lambda p: p[:, 0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cosine_rmse_rejects_a_map_with_non_finite_output(bad):
    # A NaN image used to count as a draw that leaves no pair: it was left
    # out of the mean with nothing skipped and no error.
    pts = np.random.default_rng(6).standard_normal((5, 4))
    poisoned = lambda p: np.full_like(p, bad)
    with pytest.raises(ValueError, match="map returned NaN or infinite entries"):
        cosine_similarity_rmse(pts, [poisoned, lambda p: p, lambda p: 2.0 * p])


def test_distance_ratio_identity_map_is_exactly_one():
    pts = np.random.default_rng(6).standard_normal((7, 5))
    report = pairwise_distance_ratio(pts, [lambda p: p])
    assert report.avg_ratio.tolist() == [1.0]
    assert report.std_ratio.tolist() == [0.0]
    assert report.skipped_pairs == 0
    assert report.ratios.shape == (1, 21)


def test_distance_ratio_orthonormal_map_near_one():
    rng = np.random.default_rng(7)
    q = qr_factor(rng.standard_normal((6, 6))).q
    pts = rng.standard_normal((5, 6))
    report = pairwise_distance_ratio(pts, [lambda p: p @ q])
    assert_allclose(report.ratios, 1.0, atol=1e-12)


def test_distance_ratio_skips_duplicates():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]])
    report = pairwise_distance_ratio(pts, [lambda p: p])
    assert report.skipped_pairs == 1
    assert report.ratios.shape == (1, 2)


def test_distance_ratio_all_duplicates_rejected():
    pts = np.ones((3, 2))
    with pytest.raises(ValueError, match="duplicates"):
        pairwise_distance_ratio(pts, [lambda p: p])


def test_distance_ratio_shape_validation():
    with pytest.raises(ValueError, match="2-D"):
        pairwise_distance_ratio(np.ones(4), [lambda p: p])
    with pytest.raises(ValueError, match="two point rows"):
        pairwise_distance_ratio(np.ones((1, 4)), [lambda p: p])
    with pytest.raises(ValueError, match="at least one map"):
        pairwise_distance_ratio(np.eye(3), iter([]))


def test_pair_distances_match_a_per_pair_loop():
    pts = np.random.default_rng(10).standard_normal((9, 13))
    want = [
        np.linalg.norm(pts[i] - pts[j]) for i in range(9) for j in range(i + 1, 9)
    ]
    i, j = np.triu_indices(9, k=1)
    assert_allclose(_pair_distances(pts, (i, j)), want, rtol=1e-12, atol=0.0)
    assert_allclose(_pair_distances(pts, (i, j)), np.linalg.norm(pts[i] - pts[j], axis=1),
                    rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "n, width",
    [(2, 1), (40, 100), (12, 1000), (9, _PAIR_CHUNK - 1), (5, _PAIR_CHUNK), (4, _PAIR_CHUNK + 1)],
)
def test_pair_distances_equal_the_row_block_formula_bit_for_bit(n, width):
    # At widths 100 and 1000 chunk edges fall inside the rows' pair blocks;
    # near _PAIR_CHUNK a chunk holds one pair, and above it only by the
    # one-pair floor.  None may move a bit.
    rows = np.random.default_rng(width).standard_normal((n, width))
    want = np.concatenate(
        [np.sqrt(np.square(rows[a + 1 :] - rows[a]).sum(axis=1)) for a in range(n - 1)]
    )
    i, j = np.triu_indices(n, k=1)
    assert np.array_equal(_pair_distances(rows, (i, j)), want)
    assert np.array_equal(_pair_distances(rows, (i[::2], j[::2])), want[::2])


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_non_finite_points_are_rejected(bad):
    pts = np.random.default_rng(11).standard_normal((4, 6))
    pts[2, 1] = bad
    for estimate in (
        lambda: pairwise_distance_ratio(pts, [lambda p: p]),
        lambda: cosine_similarity_rmse(pts, [lambda p: p] * 2),
    ):
        with pytest.raises(ValueError, match="NaN or infinite"):
            estimate()


def test_distance_ratio_rows_match_a_per_map_norm_oracle():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((8, 6))
    qs = [rng.standard_normal((6, 3)) for _ in range(4)]
    report = pairwise_distance_ratio(pts, (lambda p, q=q: p @ q for q in qs))
    i, j = np.triu_indices(8, k=1)
    assert report.ratios.shape == (4, 28)
    for row, avg, std, q in zip(report.ratios, report.avg_ratio, report.std_ratio, qs):
        want = np.linalg.norm((pts[i] - pts[j]) @ q, axis=1) / np.linalg.norm(
            pts[i] - pts[j], axis=1
        )
        assert_allclose(row, want, rtol=1e-12, atol=0.0)
        assert avg == float(row.mean())
        assert std == float(row.std(ddof=1))
    assert report.skipped_pairs == 0


def test_distance_ratio_counts_duplicates_once_per_map():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    report = pairwise_distance_ratio(pts, [lambda p: 2.0 * p, lambda p: 3.0 * p])
    assert report.skipped_pairs == 2 * 2
    assert report.ratios.shape == (2, 4)
    assert report.avg_ratio.tolist() == [2.0, 3.0]


def test_distance_ratio_holds_one_map_of_a_generator_at_a_time():
    alive, peak = set(), []

    class Map:
        def __call__(self, p):
            return 2.0 * p

    def maps():
        for i in range(5):
            f = Map()
            alive.add(i)
            weakref.finalize(f, alive.discard, i)
            peak.append(len(alive))
            yield f
            del f

    pts = np.random.default_rng(14).standard_normal((4, 3))
    report = pairwise_distance_ratio(pts, maps())
    assert report.avg_ratio.shape == (5,)
    assert max(peak) == 1


def test_distance_ratio_scales_linearly():
    pts = np.random.default_rng(8).standard_normal((6, 4))
    base = pairwise_distance_ratio(pts, [lambda p: p])
    scaled = pairwise_distance_ratio(pts, [lambda p: 3.0 * p])
    assert scaled.avg_ratio == pytest.approx(3.0 * base.avg_ratio, rel=1e-12)


def test_cosine_rmse_identity_factory_is_zero():
    pts = np.random.default_rng(9).standard_normal((6, 4))
    report = cosine_similarity_rmse(pts, [lambda p: p] * 3)
    mean, se, _ = _mean_se(report.per_rep)
    assert mean == 0.0
    assert se == 0.0
    assert np.array_equal(report.per_rep, np.zeros(3))


def test_cosine_rmse_is_scale_invariant():
    pts = np.random.default_rng(10).standard_normal((5, 4))
    report = cosine_similarity_rmse(pts, [lambda p: 2.0 * p] * 2)
    assert _mean_se(report.per_rep)[0] == pytest.approx(0.0, abs=1e-12)


def test_cosine_rmse_standard_error():
    pts = np.random.default_rng(11).standard_normal((6, 9))
    maps = (build_map("trp", (3, 3), 4, GAUSS, 1, SeedSpec(30).child(i)) for i in range(4))
    report = cosine_similarity_rmse(pts, maps)
    assert report.per_rep.shape == (4,)
    mean, se, _ = _mean_se(report.per_rep)
    assert se == pytest.approx(float(report.per_rep.std(ddof=1)) / 2.0, rel=1e-12)
    assert mean == pytest.approx(float(report.per_rep.mean()), rel=1e-12)


def test_cosine_rmse_skips_pairs_a_map_sends_to_zero():
    pts = np.random.default_rng(13).standard_normal((4, 3))
    # Point 1 goes to zero: its three pairs are skipped, the other three keep
    # their cosines exactly.
    drop_one = lambda p: p * np.array([[1.0], [0.0], [1.0], [1.0]])
    report = cosine_similarity_rmse(pts, [drop_one] * 2)
    assert np.array_equal(report.per_rep, [0.0, 0.0])
    assert report.skipped_pairs == 6
    # A draw that leaves no pair has no RMSE; the mean and standard error
    # come from the other draws.
    first_off = [lambda p: 0.0 * p] + [lambda p, r=r: p + [0.0, 0.0, r] for r in (1, 2)]
    report = cosine_similarity_rmse(pts, first_off)
    assert np.isnan(report.per_rep[0])
    assert np.isfinite(report.per_rep[1:]).all()
    mean, se, _ = _mean_se(report.per_rep)
    assert mean == pytest.approx(float(report.per_rep[1:].mean()), rel=1e-12)
    assert se == pytest.approx(
        float(report.per_rep[1:].std(ddof=1)) / math.sqrt(2), rel=1e-12
    )
    assert report.skipped_pairs == 6
    report = cosine_similarity_rmse(pts, [lambda p: 0.0 * p] * 2)
    assert np.isnan(report.per_rep).all()
    mean, se, _ = _mean_se(report.per_rep)
    assert np.isnan(mean) and np.isnan(se)
    assert report.skipped_pairs == 12
    assert cosine_similarity_rmse(pts, [lambda p: p] * 2).skipped_pairs == 0


def test_cosine_rmse_holds_one_map_of_a_generator_at_a_time():
    alive, peak = set(), []

    class Map:
        def __init__(self, i):
            self.i = i
            alive.add(i)
            peak.append(len(alive))

        def __del__(self):
            alive.discard(self.i)

        def __call__(self, p):
            return 2.0 * p

    pts = np.random.default_rng(14).standard_normal((4, 3))
    report = cosine_similarity_rmse(pts, (Map(i) for i in range(5)))
    assert report.per_rep.shape == (5,)
    assert max(peak) == 1


def test_cosine_rmse_validation():
    pts = np.random.default_rng(12).standard_normal((4, 3))
    with pytest.raises(ValueError, match="zero-norm"):
        bad = pts.copy()
        bad[1] = 0.0
        cosine_similarity_rmse(bad, [lambda p: p] * 2)
    with pytest.raises(ValueError, match="at least one map"):
        cosine_similarity_rmse(pts, iter([]))
    with pytest.raises(ValueError, match="two point rows"):
        cosine_similarity_rmse(pts[:1], [lambda p: p] * 2)


# ------------------------------------------------------------ per-map oracle


def test_factory_estimators_reduce_the_per_map_draws():
    # Reference: one ||f_i(x)||^2 per map, counted and averaged in a loop,
    # with map i built from child stream i.
    x = np.random.default_rng(42).standard_normal(6)
    seed = SeedSpec(43)
    draws = [float(y @ y) for y in (build_map("trp_t", (3, 2), 4, SPARSE, 2, seed.child(i))(x)
                                    for i in range(300))]
    x_sq = float(x @ x)
    hits = sum(abs(w - x_sq) >= 0.3 * x_sq for w in draws)
    w = per_map_sq_norms(
        (build_map("trp_t", (3, 2), 4, SPARSE, 2, seed.child(i)) for i in range(300)), x
    )
    assert np.count_nonzero(np.abs(w - x_sq) >= 0.3 * x_sq) / 300 == hits / 300
    assert float(w.mean()) / x_sq == pytest.approx(np.mean(draws) / x_sq, rel=1e-12)
    assert float(w.var(ddof=1)) == pytest.approx(np.var(draws, ddof=1), rel=1e-12)


# -------------------------------------------------------------- polarization


@pytest.mark.parametrize("kind", ["rp", "trp", "trp_t"])
def test_polarization_identity_holds_for_every_map_kind(kind):
    rng = np.random.default_rng(50)
    proj = build_map(kind, (4, 3), 6, GAUSS, 3, SeedSpec(51).child(0))
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    scale = (np.linalg.norm(x) + np.linalg.norm(y)) ** 2
    assert polarization_check(proj, x, y) <= 1e-10 * scale


def test_polarization_degenerate_pairs():
    # y = x exercises f(2x) and f(0); y = -x the reverse
    trp = build_map("trp", (3, 3), 4, GAUSS, 1, SeedSpec(52))
    x = np.random.default_rng(53).standard_normal(9)
    assert polarization_check(trp, x, x) <= 1e-10 * 4 * float(x @ x)
    assert polarization_check(trp, x, -x) <= 1e-10 * 4 * float(x @ x)


def test_polarization_detects_nonlinearity():
    defect = polarization_check(
        lambda v: v * v, np.array([2.0, 0.0]), np.array([1.0, 0.0])
    )
    assert defect == pytest.approx(64.0)
