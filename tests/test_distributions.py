import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given
from numpy.testing import assert_array_equal

from tensorproj.distributions import (
    EntryDistribution,
    SeedSpec,
    per_factor,
    sample_matrix,
    very_sparse_delta,
    very_sparse_family,
)


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


def test_fourth_moments():
    assert EntryDistribution.gaussian().fourth_moment() == 3.0
    assert EntryDistribution.sparse_sign(1 / 3).fourth_moment() == pytest.approx(3.0)
    assert EntryDistribution.sparse_sign(0.01).fourth_moment() == pytest.approx(100.0)


def test_very_sparse_delta_values():
    assert very_sparse_delta(784) == pytest.approx(1 / 28)
    assert very_sparse_delta(1) == 1.0
    assert very_sparse_delta(2500) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        very_sparse_delta(0)


def test_very_sparse_family_product_rate():
    fam = very_sparse_family((50, 50))
    assert len(fam) == 2
    assert math.prod(d.delta for d in fam) == pytest.approx(1 / 50)


# ------------------------------------------------------------------ sampling


def test_same_seed_bitwise_identical():
    seed = SeedSpec(123).child(4)
    a = sample_matrix(EntryDistribution.gaussian(), 20, 7, seed)
    b = sample_matrix(EntryDistribution.gaussian(), 20, 7, seed)
    assert_array_equal(a, b)


def test_sparse_support_is_exact():
    delta = 0.3
    mat = sample_matrix(EntryDistribution.sparse_sign(delta), 300, 40, SeedSpec(5))
    scale = 1 / math.sqrt(delta)
    assert set(np.unique(mat)) <= {-scale, 0.0, scale}


def test_sparse_nonzero_rate():
    delta = 1 / 3
    mat = sample_matrix(EntryDistribution.sparse_sign(delta), 1000, 1000, SeedSpec(6))
    rate = np.count_nonzero(mat) / mat.size
    assert abs(rate - delta) <= 3 * math.sqrt(delta * (1 - delta) / mat.size)


def test_gaussian_moments():
    mat = sample_matrix(EntryDistribution.gaussian(), 1000, 1000, SeedSpec(7))
    assert abs(mat.mean()) <= 3 / math.sqrt(mat.size)
    assert mat.var() == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("dist_id, dist", [
    ("gaussian", EntryDistribution.gaussian()),
    ("sparse_third", EntryDistribution.sparse_sign(1 / 3)),
    ("sparse_tenth", EntryDistribution.sparse_sign(0.1)),
])
def test_unit_variance(dist_id, dist):
    mat = sample_matrix(dist, 1000, 1000, SeedSpec(8))
    assert mat.var() == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("delta", [1 / 3, 0.1, 0.02])
def test_sparse_fourth_moment_monte_carlo(delta):
    dist = EntryDistribution.sparse_sign(delta)
    mat = sample_matrix(dist, 1000, 1000, SeedSpec(9))
    emp = float(np.mean(mat**4))
    assert abs(emp - 1 / delta) <= 0.05 / delta


def test_bad_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        sample_matrix(EntryDistribution.gaussian(), 0, 3, SeedSpec(0))


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
    assert per_factor(g, 3) == (g, g, g)


def test_per_factor_validates_length():
    g = EntryDistribution.gaussian()
    with pytest.raises(ValueError, match="3 distributions for 2 factors"):
        per_factor((g, g, g), 2)
