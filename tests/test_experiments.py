import math
import os
import weakref

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from oracles import per_map_sq_norms
from tensorproj import experiments, stats
from tensorproj.cli import build_config
from tensorproj.distributions import EntryDistribution, SeedSpec, _per_factor
from tensorproj.experiments import (
    CSV_HEADER,
    SKETCH_CORE_RANK,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    _validate,
    read_csv,
    run_experiment,
    write_csv,
)
from tensorproj.maps import build_conventional, build_ensemble, build_map, build_trp
from tensorproj.sketch import (
    averaged_low_rank_approx,
    low_rank_approx,
    relative_error,
    tucker_synthetic,
)


def make_config(**overrides):
    base = dict(
        experiment="distance",
        map_kinds=("rp", "trp"),
        dist_kind="gaussian",
        dims=(4, 3),
        k_sweep=(2, 4),
        T=2,
        n_points=5,
        replications=3,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "overrides,match",
    [
        (dict(experiment="pca"), "unknown experiment"),
        (dict(dist_kind="uniform"), "unknown distribution"),
        (dict(map_kinds=()), "at least one map kind"),
        (dict(map_kinds=("srht",)), "unknown map kind"),
        (dict(map_kinds=("identity",)), "unknown map kind"),
        (dict(dims=()), "dims must be positive"),
        (dict(dims=(4, 0)), "dims must be positive"),
        (dict(k_sweep=()), "k values must be positive"),
        (dict(k_sweep=(2, 0)), "k values must be positive"),
        (dict(k_sweep=(2, 2)), "k values must be distinct"),
        (dict(T=0), "T must be positive"),
        (dict(replications=0), "replications must be positive"),
        (dict(n_points=1), "at least 2 points"),
        (dict(mnist_path="x.idx"), "the image set has d=784"),
        (
            dict(mnist_path="x.idx", dims=(28, 28), experiment="variance"),
            "generates its own data",
        ),
        (dict(experiment="sketch", k_sweep=(20,)), "cannot exceed the matrix side"),
        (dict(experiment="sketch", dims=(2, 2)), "too small for the synthetic core"),
        (dict(order=1), "order must be at least 2, got 1"),
        (dict(order=3), "order 3 applies only to the sketch experiment"),
        (dict(experiment="sketch", dims=(6, 7), order=3), r"d=42 is not s\^2"),
        # sqrt(10**10 - 1) lies within 1e-5 of 10**5: only an integer check rejects it.
        (dict(experiment="sketch", dims=(10**5 + 1, 10**5 - 1), order=3), r"is not s\^2"),
        (dict(experiment="sketch", dims=(6, 6), order=3, k_sweep=(7,)), "matrix side s=6"),
        (dict(experiment="sketch", dims=(4, 4), order=3), "matrix side 4 too small"),
        (dict(map_kinds=("rp", "trp", "rp")), r"map kinds must be distinct, got \('rp', 'trp'"),
    ],
)
def test_config_rejections(overrides, match):
    with pytest.raises(ConfigError, match=match):
        run_experiment(make_config(**overrides))


@pytest.mark.parametrize(
    "overrides,match",
    [
        (dict(replications=2.5), "replications must be an integer, got 2.5"),
        (dict(T=2.0), "T must be an integer, got 2.0"),
        (dict(order=2.0), "order must be an integer, got 2.0"),
        (dict(n_points=5.0), "n_points must be an integer, got 5.0"),
        (dict(experiment="cosine", n_points=0), "n_points must be positive, got 0"),
        (dict(dims=(4, 3.0)), "dims must be integers"),
        (dict(k_sweep=(2, 4.0)), "k values must be integers"),
        (dict(replications=True), "replications must be an integer, got True"),
        (dict(base_seed=True), "base_seed and path entries must be integers"),
        (dict(base_seed=2.0), "base_seed and path entries must be integers"),
        (dict(base_seed=-1), "base_seed must fit in an unsigned 64-bit integer"),
    ],
)
def test_config_sizes_follow_the_package_size_rule(overrides, match):
    # A float used to fail late: replications=2.5 with a builtin TypeError
    # in the cell loop, n_points=5.0 with a ValueError that was no
    # ConfigError, and T=2.0 or order=2.0 not at all.
    with pytest.raises(ConfigError, match=match):
        run_experiment(make_config(**overrides))


def test_config_sizes_may_be_lists(tmp_path):
    as_lists = run_experiment(make_config(dims=[4, 3], k_sweep=[2, 4]))
    assert as_lists == run_experiment(make_config())
    path = str(tmp_path / "lists.csv")
    write_csv(as_lists, path)
    assert read_csv(path) == as_lists


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


def test_large_exact_powers_are_accepted():
    _validate(make_config(experiment="sketch", dims=(10**5, 10**5), order=3))
    _validate(make_config(experiment="sketch", dims=(7**3,) * 3, order=10))


# ---------------------------------------------------------------- invariants


def test_runs_are_deterministic():
    cfg = make_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b
    c = run_experiment(make_config(base_seed=1))
    assert a != c


@pytest.mark.parametrize(
    "experiment,n_points",
    [("distance", 5), ("cosine", 5), ("variance", 5), ("sketch", 5)],
)
def test_every_cell_emits_one_record_per_replication(experiment, n_points):
    dims = (6, 6) if experiment == "sketch" else (4, 3)
    cfg = make_config(
        experiment=experiment,
        dims=dims,
        k_sweep=(2, 3),
        n_points=n_points,
        replications=4,
    )
    records = run_experiment(cfg)
    assert len(records) == 2 * 2 * 4  # kinds * k values * replications
    for kind in cfg.map_kinds:
        for k in cfg.k_sweep:
            cell = [r for r in records if r.map_kind == kind and r.k == k]
            assert len(cell) == 4
            assert [r.rep for r in cell] == [0, 1, 2, 3]
            assert len({r.metric for r in cell}) == 1


def test_metric_names_per_experiment():
    by_exp = {
        "distance": "avg_ratio",
        "cosine": "rmse",
        "variance": "sq_norm_ratio",
        "sketch": "relative_error",
    }
    for experiment, metric in by_exp.items():
        dims = (6, 6) if experiment == "sketch" else (4, 3)
        cfg = make_config(
            experiment=experiment, dims=dims, k_sweep=(3,), replications=2
        )
        records = run_experiment(cfg)
        assert {r.metric for r in records} == {metric}


def test_reported_t_field():
    cfg = make_config(
        experiment="variance", map_kinds=("rp", "trp", "trp_t"), T=3, replications=2
    )
    records = run_experiment(cfg)
    by_kind = {r.map_kind: r.T for r in records}
    assert by_kind == {"rp": 1, "trp": 1, "trp_t": 3}


def test_variance_records_match_theory():
    # ||f(e_1)||^2 over map draws: mean 1, variance 0.8 for two Gaussian
    # factors at k=10
    cfg = make_config(
        experiment="variance",
        map_kinds=("trp",),
        dims=(4, 2),
        k_sweep=(10,),
        replications=60_000,
        base_seed=5,
    )
    values = np.array([r.value for r in run_experiment(cfg)])
    assert float(values.mean()) == pytest.approx(1.0, abs=0.02)
    assert float(values.var(ddof=1)) == pytest.approx(0.8, rel=0.05)


@pytest.mark.parametrize("dist_kind", ["very_sparse", "sparse"])
@pytest.mark.parametrize("kind", ["trp", "trp_t"])
def test_variance_keeps_the_full_dims_law(dist_kind, kind):
    # Variance cells draw only the factor rows e_1 reads, but with the
    # entry rates of the full dims.  At k=5 very sparse rates 1/sqrt(3) and
    # 1/sqrt(4) give Var ||f(e_1)||^2 = 0.49 for trp; rates taken from the
    # drawn (1, 1) dims would be 1 and give 0.
    cfg = make_config(experiment="variance", map_kinds=(kind,), dist_kind=dist_kind,
                      dims=(3, 4), k_sweep=(5,), T=3, replications=40_000, base_seed=13)
    _, T, dist = experiments._layout(cfg, kind)
    moments = [f.fourth_moment() for f in _per_factor(dist, len(cfg.dims))]
    want = stats.exact_variance(np.eye(1, cfg.d)[0], cfg.dims, moments, 5, T)
    v = np.array([r.value for r in run_experiment(cfg)])
    n, var = v.size, float(v.var(ddof=1))
    assert abs(v.mean() - 1.0) < 4 * math.sqrt(var / n)
    fourth = float(np.mean((v - v.mean()) ** 4))
    assert abs(var - want) < 4 * math.sqrt((fourth - var**2) / n)


@pytest.mark.parametrize("dist_kind", ["gaussian", "sparse", "very_sparse"])
@pytest.mark.parametrize("kind", ["rp", "trp", "trp_t"])
def test_built_maps_follow_the_exact_law(dist_kind, kind):
    # The maps that distance, cosine and sketch runs apply, built as a run
    # builds them, against exact_variance: for e_1 and for a dense unit x,
    # the mean of ||f(x)||^2 within 4 SE of 1, and its variance within 4 SE
    # of the exact value, the SE from the sample fourth moment.
    cfg = make_config(dist_kind=dist_kind, dims=(2, 3), k_sweep=(3,), T=2)
    dims, T, dist = experiments._layout(cfg, kind)
    moments = [f.fourth_moment() for f in _per_factor(dist, len(dims))]
    seed = SeedSpec(17).child(len(dims)).child(T)
    maps = [build_map(kind, dims, 3, dist, T, seed.child(rep)) for rep in range(3000)]
    dense = np.arange(1.0, 7.0)
    for x in (np.eye(1, 6)[0], dense / np.linalg.norm(dense)):
        v = per_map_sq_norms(maps, x)
        n, var = v.size, float(v.var(ddof=1))
        assert abs(v.mean() - 1.0) < 4 * math.sqrt(var / n)
        fourth = float(np.mean((v - v.mean()) ** 4))
        want = stats.exact_variance(x, dims, moments, 3, T)
        assert abs(var - want) < 4 * math.sqrt((fourth - var**2) / n)


@pytest.mark.parametrize("dims", [(6,), (2, 3), (2, 3, 2)], ids=["order1", "order2", "order3"])
@pytest.mark.parametrize("dist_kind", ["gaussian", "sparse", "very_sparse"])
@pytest.mark.parametrize("kind", ["rp", "trp"])
def test_a_one_trial_sample_is_the_map_built_from_child_0(kind, dist_kind, dims):
    # A one-replicate map and a one-trial sampler block draw the same
    # factors from one stream, so criterion 3's sampler vouches for the
    # maps the runs build; only the kernels' rounding differs.
    cfg = make_config(dist_kind=dist_kind, dims=dims)
    layout, T, dist = experiments._layout(cfg, kind)
    x = np.random.default_rng(18).standard_normal(cfg.d)
    for i in range(100):
        seed = SeedSpec(18).child(i)
        y = build_map(kind, layout, 4, dist, T, seed.child(0))(x)
        want = stats.squared_norm_samples(layout, 4, dist, x, 1, seed)[0]
        assert float(y @ y) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind, entries", [("rp", 10 * 1 * 3 * 1), ("trp", 10 * 1 * 3 * 3),
                                           ("trp_t", 10 * 2 * 3 * 3)])
def test_variance_draws_only_the_rows_e1_reads(monkeypatch, kind, entries):
    # reps * T * k entries per factor, one row each: N = 1 factor for rp,
    # 3 for the structured kinds on 2x3x4.
    shapes = []
    sample = stats._sample_array

    def counted(dist, shape, rng):
        shapes.append(shape)
        return sample(dist, shape, rng)

    monkeypatch.setattr(stats, "_sample_array", counted)
    cfg = make_config(experiment="variance", map_kinds=(kind,), dims=(2, 3, 4),
                      k_sweep=(3,), T=2, replications=10)
    assert len(run_experiment(cfg)) == 10
    assert sum(math.prod(s) for s in shapes) == entries


def test_order_3_sketch_records_equal_a_direct_library_computation():
    cfg = build_config(["--experiment", "sketch", "--dims", "6x6", "--order", "3",
                        "--k", "2,5", "--reps", "2", "--T", "2", "--seed", "9"])
    base = SeedSpec(9)
    target = tucker_synthetic(6, 3, SKETCH_CORE_RANK, base.child(0)).reshape(6, 36)
    gauss = EntryDistribution.gaussian()
    want = []
    for kind_idx, kind in enumerate(("rp", "trp", "trp_t")):
        for k_idx, k in enumerate((2, 5)):
            for rep in range(2):
                seed = base.child(1).child(kind_idx).child(k_idx).child(rep)
                if kind == "trp_t":
                    ensemble = build_ensemble((6, 6), k, gauss, 2, seed)
                    approx = averaged_low_rank_approx(target, ensemble)
                else:
                    if kind == "rp":
                        omega = build_conventional(36, k, gauss, seed)
                    else:
                        omega = build_trp((6, 6), k, gauss, seed)
                    approx = low_rank_approx(target, omega)
                want.append(relative_error(target, approx))
    records = run_experiment(cfg)
    assert [(r.map_kind, r.k, r.rep, r.d, r.dims) for r in records] == [
        (kind, k, rep, 36, (6, 6)) for kind in ("rp", "trp", "trp_t") for k in (2, 5)
        for rep in range(2)
    ]
    assert_array_equal([r.value for r in records], want)


def test_sketch_errors_lie_in_unit_interval():
    cfg = make_config(
        experiment="sketch", dims=(6, 6), k_sweep=(5, 6), replications=3
    )
    records = run_experiment(cfg)
    assert all(0.0 <= r.value <= 1.0 + 1e-12 for r in records)


def test_cosine_values_are_per_replication_rmses():
    cfg = make_config(experiment="cosine", map_kinds=("trp",), k_sweep=(4,), replications=5)
    records = run_experiment(cfg)
    assert len({r.value for r in records}) > 1  # distinct draws, distinct errors
    assert all(r.value >= 0.0 for r in records)


@pytest.mark.parametrize("experiment", ["distance", "cosine", "sketch"])
def test_a_run_holds_one_built_map_at_a_time(experiment, monkeypatch):
    live = peak = 0
    build = experiments.build_map

    def release():
        nonlocal live
        live -= 1

    def counting_build(*args):
        nonlocal live, peak
        f = build(*args)
        live += 1
        peak = max(peak, live)
        weakref.finalize(f, release)
        return f

    monkeypatch.setattr(experiments, "build_map", counting_build)
    dims = (6, 6) if experiment == "sketch" else (4, 3)
    cfg = make_config(experiment=experiment, map_kinds=("rp", "trp", "trp_t"), dims=dims,
                      k_sweep=(2, 3), replications=3)
    assert len(run_experiment(cfg)) == 3 * 2 * 3
    assert peak == 1
    assert live == 0


@pytest.mark.parametrize(
    "experiment,estimator,pair_helper",
    [("distance", "pairwise_distance_ratio", "_pair_distances"),
     ("cosine", "cosine_similarity_rmse", "_pair_cosines")],
)
def test_a_run_calls_its_estimator_once(experiment, estimator, pair_helper, monkeypatch):
    # The points' own distances or cosines are computed once per run, not
    # once per (map kind, k) cell; each map then needs its own.
    calls = {estimator: 0, pair_helper: 0}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(experiments, estimator)
    counting(stats, pair_helper)
    cfg = make_config(experiment=experiment, map_kinds=("rp", "trp", "trp_t"),
                      k_sweep=(2, 3), replications=3)
    maps = 3 * 2 * 3
    assert len(run_experiment(cfg)) == maps
    assert calls == {estimator: 1, pair_helper: 1 + maps}


# ----------------------------------------------------------------------- csv


def test_csv_round_trip_is_lossless(tmp_path):
    cfg = make_config(replications=2)
    records = run_experiment(cfg)
    path = str(tmp_path / "out.csv")
    write_csv(records, path)
    back = read_csv(path)
    assert back == sorted(
        records, key=lambda r: (r.experiment, r.map_kind, r.k, r.rep)
    )


def test_csv_dims_column_uses_x_separator(tmp_path):
    rec = ExperimentRecord(
        experiment="distance",
        map_kind="trp",
        dist_kind="gaussian",
        d=2500,
        dims=(50, 50),
        k=5,
        T=1,
        rep=0,
        metric="avg_ratio",
        value=1.0,
    )
    path = str(tmp_path / "dims.csv")
    write_csv([rec], path)
    lines = open(path).read().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "distance,trp,gaussian,2500,50x50,5,1,0,avg_ratio,1,"


def test_csv_rows_are_sorted(tmp_path):
    cfg = make_config(k_sweep=(4, 2), map_kinds=("trp", "rp"))
    path = str(tmp_path / "sorted.csv")
    write_csv(run_experiment(cfg), path)
    rows = [line.split(",") for line in open(path).read().splitlines()[1:]]
    keys = [(r[1], int(r[5]), int(r[7])) for r in rows]
    assert keys == sorted(keys)


def test_csv_bytes_equal_a_row_by_row_formatter(tmp_path):
    # Unsorted rows from several cells and two dims, None and float
    # standard errors, and a NaN value.
    base = ExperimentRecord("distance", "trp", "gaussian", 8, (4, 2), 3, 1, 0, "avg_ratio", 0.1)
    records = [
        base._replace(map_kind="trp_t", T=5, rep=1, value=1 / 3, std_error=2.5e-300),
        base._replace(rep=1, value=float("nan")),
        base._replace(dims=(8,), map_kind="rp", k=10, value=-0.0, std_error=0.25),
        base._replace(k=2, rep=2, std_error=1e17),
        base,
        base._replace(map_kind="trp_t", T=5, value=7.0),
        base._replace(k=2, rep=0),
    ]

    def row(r):
        dims = "x".join(str(d) for d in r.dims)
        se = "" if r.std_error is None else f"{r.std_error:.17g}"
        return (f"{r.experiment},{r.map_kind},{r.dist_kind},{r.d},{dims},{r.k},{r.T},"
                f"{r.rep},{r.metric},{r.value:.17g},{se}\n")

    ordered = sorted(records, key=lambda r: (r.experiment, r.map_kind, r.k, r.rep))
    path = tmp_path / "cells.csv"
    write_csv(records, str(path))
    assert path.read_bytes() == (CSV_HEADER + "\n" + "".join(map(row, ordered))).encode()


def test_empty_record_list_gives_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    write_csv([], path)
    assert open(path).read() == CSV_HEADER + "\n"
    assert read_csv(path) == []


def test_failed_write_leaves_the_existing_file_untouched(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("earlier results\n")
    good = ExperimentRecord("distance", "trp", "gaussian", 4, (4,), 2, 1, 0, "avg_ratio", 1.0)
    # The second row fails to format after the header has been written.
    bad = good._replace(rep=1, value="not a number")
    with pytest.raises(ValueError):
        write_csv([good, bad], str(path))
    assert path.read_text() == "earlier results\n"
    assert os.listdir(tmp_path) == ["out.csv"]
    write_csv([good], str(path))
    assert read_csv(str(path)) == [good]
    assert os.listdir(tmp_path) == ["out.csv"]


def test_write_through_a_symlink_keeps_the_link(tmp_path):
    target = tmp_path / "data" / "out.csv"
    target.parent.mkdir()
    target.write_text("earlier results\n")
    link = tmp_path / "latest.csv"
    link.symlink_to(target)
    good = ExperimentRecord("distance", "trp", "gaussian", 4, (4,), 2, 1, 0, "avg_ratio", 1.0)
    write_csv([good], str(link))
    assert link.is_symlink()
    assert read_csv(str(target)) == [good]
    assert sorted(os.listdir(target.parent)) == ["out.csv"]


def test_records_are_immutable_hashable_tuples():
    rec = ExperimentRecord("distance", "trp", "gaussian", 8, (4, 2), 3, 1, 0, "avg_ratio", 0.5)
    with pytest.raises(AttributeError):
        rec.value = 1.0
    assert len({rec, rec._replace(), rec._replace(rep=1)}) == 2
    # The CSV's columns in the same order, three of them under longer names.
    renamed = {"map": "map_kind", "dist": "dist_kind", "stderr": "std_error"}
    assert ExperimentRecord._fields == tuple(renamed.get(c, c) for c in CSV_HEADER.split(","))


def test_read_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected header"):
        read_csv(str(path))
    path.write_text(CSV_HEADER + "\ndistance,trp\n")
    with pytest.raises(ValueError, match="malformed row"):
        read_csv(str(path))


@pytest.mark.parametrize(
    "row,cause",
    [
        ("distance,trp,gaussian,8,4x2,ten,1,0,avg_ratio,1,", "invalid literal for int()"),
        ("distance,trp,gaussian,8,4x,3,1,0,avg_ratio,1,", "invalid literal for int()"),
        ("distance,trp,gaussian,8,4x2,3,1,0,avg_ratio,one,", "could not convert string to float"),
    ],
)
def test_read_csv_names_a_row_with_an_unparsable_number(tmp_path, row, cause):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n{row}\n")
    with pytest.raises(ValueError, match=f"bad.csv: malformed row '{row}'") as info:
        read_csv(str(path))
    assert str(info.value.__cause__).startswith(cause)


def test_float_formatting_survives_extremes(tmp_path):
    rec = ExperimentRecord(
        experiment="variance",
        map_kind="trp",
        dist_kind="sparse",
        d=8,
        dims=(4, 2),
        k=1,
        T=1,
        rep=0,
        metric="sq_norm_ratio",
        value=0.1 + 0.2,  # not representable prettily
        std_error=1.2345678901234567e-300,
    )
    path = str(tmp_path / "floats.csv")
    write_csv([rec], path)
    back = read_csv(path)[0]
    assert back.value == rec.value
    assert back.std_error == rec.std_error
