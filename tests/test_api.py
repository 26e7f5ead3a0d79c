import tensorproj


def test_public_names_are_sorted_unique_and_resolve():
    names = tensorproj.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(tensorproj, name) is not None, name


def test_removed_public_names_stay_removed():
    # Map factories and the per-map estimators built on them were replaced
    # by build_map and the reductions of squared_norm_samples.
    for name in ("make_factory", "empirical_isometry", "tail_exceedance"):
        assert name not in tensorproj.__all__
        assert not hasattr(tensorproj, name)
