import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given
from numpy.testing import assert_array_equal

from tensorproj.distributions import (
    EntryDistribution,
    SeedSpec,
    _per_factor,
    _sample_array,
    very_sparse_family,
)
from tensorproj.maps import build_map


# --------------------------------------------------------- EntryDistribution


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown distribution kind"):
        EntryDistribution("rademacher")


def test_gaussian_has_no_sparsity_knob():
    with pytest.raises(ValueError, match="no sparsity"):
        EntryDistribution("gaussian", delta=0.5)


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.5])
def test_delta_outside_unit_interval_rejected(delta):
    with pytest.raises(ValueError, match="delta"):
        EntryDistribution.sparse_sign(delta)


@pytest.mark.parametrize("flag", [True, np.True_])
def test_delta_refuses_a_bool(flag):
    # True used to pass as delta 1: sparse_sign(True) built delta=True.
    with pytest.raises(ValueError, match=f"delta must be a real number, got {flag!r}"):
        EntryDistribution.sparse_sign(flag)
    with pytest.raises(ValueError, match=f"delta must be a real number, got {flag!r}"):
        EntryDistribution("gaussian", delta=flag)


def test_delta_refuses_a_string():
    # "0.5" used to reach the interval check and fail with a bare TypeError.
    with pytest.raises(ValueError, match="delta must be a real number, got '0.5'"):
        EntryDistribution("sparse_sign", "0.5")


def test_fourth_moments():
    assert EntryDistribution.gaussian().fourth_moment() == 3.0
    assert EntryDistribution.sparse_sign(1 / 3).fourth_moment() == pytest.approx(3.0)
    assert EntryDistribution.sparse_sign(0.01).fourth_moment() == pytest.approx(100.0)


def test_very_sparse_delta_values():
    assert EntryDistribution.very_sparse(784).delta == pytest.approx(1 / 28)
    assert EntryDistribution.very_sparse(1).delta == 1.0
    assert EntryDistribution.very_sparse(2500).delta == pytest.approx(0.02)
    with pytest.raises(ValueError):
        EntryDistribution.very_sparse(0)


def test_very_sparse_family_product_rate():
    fam = very_sparse_family((50, 50))
    assert len(fam) == 2
    assert math.prod(d.delta for d in fam) == pytest.approx(1 / 50)


# ------------------------------------------------------------------ sampling


def test_same_seed_bitwise_identical():
    seed = SeedSpec(123).child(4)
    a = build_map("rp", (20,), 7, EntryDistribution.gaussian(), 1, seed).matrix
    b = build_map("rp", (20,), 7, EntryDistribution.gaussian(), 1, seed).matrix
    assert_array_equal(a, b)


def test_sparse_support_is_exact():
    delta = 0.3
    dist = EntryDistribution.sparse_sign(delta)
    mat = build_map("rp", (300,), 40, dist, 1, SeedSpec(5)).matrix
    scale = 1 / math.sqrt(delta)
    assert set(np.unique(mat)) <= {-scale, 0.0, scale}


def test_sparse_nonzero_rate():
    delta = 1 / 3
    dist = EntryDistribution.sparse_sign(delta)
    mat = build_map("rp", (1000,), 1000, dist, 1, SeedSpec(6)).matrix
    rate = np.count_nonzero(mat) / mat.size
    assert abs(rate - delta) <= 3 * math.sqrt(delta * (1 - delta) / mat.size)


def test_gaussian_moments():
    mat = build_map("rp", (1000,), 1000, EntryDistribution.gaussian(), 1, SeedSpec(7)).matrix
    assert abs(mat.mean()) <= 3 / math.sqrt(mat.size)
    assert mat.var() == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("dist_id, dist", [
    ("gaussian", EntryDistribution.gaussian()),
    ("sparse_third", EntryDistribution.sparse_sign(1 / 3)),
    ("sparse_tenth", EntryDistribution.sparse_sign(0.1)),
])
def test_unit_variance(dist_id, dist):
    mat = build_map("rp", (1000,), 1000, dist, 1, SeedSpec(8)).matrix
    assert mat.var() == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("delta", [1 / 3, 0.1, 0.02])
def test_sparse_fourth_moment_monte_carlo(delta):
    dist = EntryDistribution.sparse_sign(delta)
    mat = build_map("rp", (1000,), 1000, dist, 1, SeedSpec(9)).matrix
    emp = float(np.mean(mat**4))
    assert abs(emp - 1 / delta) <= 0.05 / delta


def _sparse_sign_oracle(delta, shape, rng):
    """Sparse-sign entries built from masks in a separate output array."""
    u = rng.random(shape)
    out = (u >= 1.0 - delta / 2).astype(float)
    out -= u < delta / 2
    out *= 1.0 / math.sqrt(delta)
    return out


@pytest.mark.parametrize("delta", [1.0, 1 / 3, 0.02])
def test_sparse_sign_draw_is_bitwise_the_mask_formula_in_u_own_buffer(delta):
    shape = (200, 1000, 10)
    want = _sparse_sign_oracle(delta, shape, SeedSpec(13).generator())
    tracemalloc.start()
    try:
        got = _sample_array(EntryDistribution.sparse_sign(delta), shape,
                            SeedSpec(13).generator())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Bitwise, so every zero stays +0.0.
    assert got.tobytes() == want.tobytes()
    assert peak < 1.3 * got.nbytes


# ------------------------------------------------------------------- seeding


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(2**64)
    with pytest.raises(ValueError):
        SeedSpec(0, (-1,))
    with pytest.raises(ValueError):
        SeedSpec(0).child(-1)


@pytest.mark.parametrize(
    "base, path",
    [(1.5, ()), ("3", ()), (0, (1, 2.0)), (0, (None,)), (True, ()), (0, (1, True))],
)
def test_seed_spec_rejects_non_integers_when_constructed(base, path):
    # SeedSpec(1.5) used to construct and fail later inside numpy.
    with pytest.raises(ValueError, match="must be integers"):
        SeedSpec(base, path)
    assert SeedSpec(np.int64(3), (np.uint8(1),)).generator().random() == (
        SeedSpec(3, (1,)).generator().random()
    )


def test_child_refuses_a_bool_index():
    # child(True) used to give the path (True,).
    with pytest.raises(ValueError, match="must be integers"):
        SeedSpec(0).child(True)


def test_child_appends_to_path():
    seed = SeedSpec(9).child(2).child(0)
    assert seed.base_seed == 9
    assert seed.path == (2, 0)
    assert SeedSpec(9, (2, 0)) == seed


def test_sibling_streams_differ():
    base = SeedSpec(11)
    a = base.child(0).generator().standard_normal(100)
    b = base.child(1).generator().standard_normal(100)
    assert not np.array_equal(a, b)


def test_path_order_matters():
    base = SeedSpec(12)
    ab = SeedSpec(12, (3, 5)).generator().standard_normal(100)
    ba = SeedSpec(12, (5, 3)).generator().standard_normal(100)
    assert not np.array_equal(ab, ba)


@given(base=st.integers(0, 2**64 - 1), index=st.integers(0, 1000))
def test_equal_specs_equal_streams(base, index):
    a = SeedSpec(base).child(index)
    b = SeedSpec(base).child(index)
    assert a == b
    assert_array_equal(
        a.generator().standard_normal(8), b.generator().standard_normal(8)
    )


# ---------------------------------------------------------------- per_factor


def test_per_factor_broadcasts_single():
    g = EntryDistribution.gaussian()
    assert _per_factor(g, 3) == (g, g, g)


def test_per_factor_validates_length():
    g = EntryDistribution.gaussian()
    with pytest.raises(ValueError, match="3 distributions for 2 factors"):
        _per_factor((g, g, g), 2)
