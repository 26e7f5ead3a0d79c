import tensorproj


def test_public_names_are_sorted_unique_and_resolve():
    names = tensorproj.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(tensorproj, name) is not None, name


def test_removed_public_names_stay_removed():
    # Map factories and the per-map estimators built on them were replaced
    # by build_map and the reductions of squared_norm_samples; sample_matrix
    # and very_sparse_delta only re-checked what the dense map's draw and
    # EntryDistribution.very_sparse check.  isometry_stats (and its
    # IsometryStats) only reduced squared_norm_samples' vector, and
    # polarization_check is a test oracle.  QrFactor, multi_mode_product and
    # per_factor had no caller outside the package.  pair_distances is
    # computed inside pairwise_distance_ratio, once for all its maps.
    # build_trp, build_ensemble and build_conventional are build_map's
    # per-kind draw steps, left in tensorproj.maps: build_map checks a map's
    # sizes once and is the one public builder.  averaged_low_rank_approx is
    # low_rank_approx's ensemble step, left in tensorproj.sketch:
    # low_rank_approx takes any map, ensembles included.
    removed = (
        "make_factory",
        "empirical_isometry",
        "tail_exceedance",
        "sample_matrix",
        "very_sparse_delta",
        "isometry_stats",
        "IsometryStats",
        "polarization_check",
        "QrFactor",
        "multi_mode_product",
        "per_factor",
        "pair_distances",
        "build_trp",
        "build_ensemble",
        "build_conventional",
        "averaged_low_rank_approx",
    )
    for name in removed:
        assert name not in tensorproj.__all__
        assert not hasattr(tensorproj, name)
