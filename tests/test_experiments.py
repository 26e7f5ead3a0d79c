import dataclasses
import os

import numpy as np
import pytest

from tensorproj.experiments import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    read_csv,
    run_experiment,
    write_csv,
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
        (dict(map_kinds=("identity",), experiment="cosine"), "identity debug map"),
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
    ],
)
def test_config_rejections(overrides, match):
    with pytest.raises(ConfigError, match=match):
        run_experiment(make_config(**overrides))


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


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


def test_identity_map_reports_ratio_one():
    cfg = make_config(map_kinds=("identity",), k_sweep=(2,), replications=2)
    records = run_experiment(cfg)
    assert all(r.value == 1.0 for r in records)
    assert all(r.std_error == 0.0 for r in records)


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


def test_empty_record_list_gives_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    write_csv([], path)
    assert open(path).read() == CSV_HEADER + "\n"
    assert read_csv(path) == []


def test_failed_write_leaves_the_existing_file_untouched(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("earlier results\n")
    good = ExperimentRecord("distance", "trp", "gaussian", 4, (4,), 2, 1, 0, "avg_ratio", 1.0)
    # The second row fails to format after the first has been written.
    bad = dataclasses.replace(good, rep=1, value="not a number")
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


def test_read_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected header"):
        read_csv(str(path))
    path.write_text(CSV_HEADER + "\ndistance,trp\n")
    with pytest.raises(ValueError, match="malformed row"):
        read_csv(str(path))


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
