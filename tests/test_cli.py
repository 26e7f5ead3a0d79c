import shlex
from pathlib import Path

import numpy as np

from tensorproj.cli import build_config, main
from tensorproj.experiments import _validate

SMALL = [
    "--experiment",
    "distance",
    "--d",
    "12",
    "--dims",
    "4x3",
    "--k",
    "2,3",
    "--n",
    "4",
    "--reps",
    "2",
]


def test_defaults_for_synthetic_runs():
    cfg = build_config(["--experiment", "distance", "--d", "2500"])
    assert cfg.dims == (50, 50)
    assert cfg.k_sweep == (5, 10, 25, 50, 100)
    assert cfg.map_kinds == ("rp", "trp", "trp_t")
    assert cfg.dist_kind == "gaussian"
    assert cfg.T == 5
    assert cfg.n_points == 20
    assert cfg.replications == 100
    assert cfg.base_seed == 0
    assert cfg.out_path == "results.csv"


def test_defaults_for_image_runs():
    cfg = build_config(
        ["--experiment", "cosine", "--d", "784", "--mnist", "some.idx"]
    )
    assert cfg.dims == (28, 28)
    assert cfg.n_points == 50
    assert cfg.mnist_path == "some.idx"


def test_explicit_n_wins():
    cfg = build_config(
        ["--experiment", "cosine", "--d", "784", "--mnist", "f.idx", "--n", "7"]
    )
    assert cfg.n_points == 7


def test_dense_only_runs_need_no_factorization():
    cfg = build_config(["--experiment", "distance", "--d", "77", "--map", "rp"])
    assert cfg.dims == (77,)


def test_structured_maps_need_a_factorization(capsys):
    assert main(["--experiment", "distance", "--d", "77", "--map", "trp"]) == 1
    assert "no default factorization" in capsys.readouterr().err


def test_dims_must_multiply_to_d(capsys):
    assert main(["--experiment", "distance", "--d", "10", "--dims", "3x3"]) == 1
    assert "multiply to 9" in capsys.readouterr().err


def test_unknown_flag_is_an_error(capsys):
    assert main(SMALL + ["--frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_abbreviated_flags_are_rejected():
    assert main(["--exp", "distance", "--d", "12", "--dims", "4x3"]) == 1


def test_bad_k_list(capsys):
    assert main(SMALL[:-4] + ["--k", "5,ten"]) == 1
    assert "comma-separated integers" in capsys.readouterr().err


def test_empty_map_token(capsys):
    assert main(SMALL + ["--map", "rp,,trp"]) == 1
    assert "--map expects comma-separated map kinds, got 'rp,,trp'" in capsys.readouterr().err


def test_bad_dims_format(capsys):
    assert main(["--experiment", "distance", "--d", "12", "--dims", "4by3"]) == 1
    assert "50x50" in capsys.readouterr().err


def test_missing_experiment_flag():
    assert main(["--d", "12", "--dims", "4x3"]) == 1


def test_unknown_experiment_choice():
    assert main(["--experiment", "tsne", "--d", "12", "--dims", "4x3"]) == 1


def test_missing_image_file_is_io_error(tmp_path, capsys):
    args = [
        "--experiment",
        "cosine",
        "--d",
        "784",
        "--mnist",
        str(tmp_path / "nope.idx"),
        "--out",
        str(tmp_path / "o.csv"),
    ]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_image_file_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00\x00\x08\x03")  # header cut short
    args = [
        "--experiment",
        "cosine",
        "--d",
        "784",
        "--n",
        "2",
        "--reps",
        "2",
        "--k",
        "3",
        "--mnist",
        str(bad),
        "--out",
        str(tmp_path / "o.csv"),
    ]
    assert main(args) == 2
    assert "truncated header" in capsys.readouterr().err


def test_asking_for_more_images_than_stored(tmp_path, write_idx, capsys):
    images = np.ones((2, 784), dtype=np.uint8)
    path = write_idx(images=images)
    args = [
        "--experiment",
        "cosine",
        "--d",
        "784",
        "--n",
        "50",
        "--mnist",
        path,
        "--out",
        str(tmp_path / "o.csv"),
    ]
    assert main(args) == 1
    assert "file holds 2" in capsys.readouterr().err


def test_successful_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(SMALL + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    # 3 map kinds x 2 k values x 2 reps
    assert f"wrote 12 records to {out}" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 13
    assert lines[0].startswith("experiment,map,")


def test_repeat_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(SMALL + ["--seed", "3", "--out", str(a)]) == 0
    assert main(SMALL + ["--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main(SMALL + ["--seed", "4", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_cosine_run_survives_maps_that_send_points_to_zero(tmp_path, capsys):
    # At k=2 a sparse order-4 TRP is often the zero map: a factor column with
    # no nonzero entry zeroes its Khatri-Rao column.  The run must still
    # finish: pairs touching a zero image are skipped, and a draw left with
    # none records nan.  Seed 27 is one whose trp draws at k=2 are all the
    # zero map and whose trp draws at k=5 hold exactly one zero map.
    out = tmp_path / "cos.csv"
    args = ["--experiment", "cosine", "--dist", "sparse", "--d", "144", "--dims",
            "3x4x3x4", "--k", "2,5,9", "--reps", "3", "--seed", "27", "--n", "9"]
    assert main(args + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 27
    values = {(r[1], int(r[5])): [] for r in rows}
    for r in rows:
        values[(r[1], int(r[5]))].append(float(r[9]))
    assert np.isnan(values[("trp", 2)]).all()
    for kind in ("rp", "trp_t"):
        for k in (2, 5, 9):
            assert np.isfinite(values[(kind, k)]).all()
    # The summary averages the draws that have an RMSE and counts the others.
    trp5 = np.array(values[("trp", 5)])
    assert np.isnan(trp5).sum() == 1
    summary = capsys.readouterr().out
    assert "trp      k=2    value=nan (0 reps, 3 with no pair)" in summary
    mean = f"{np.nanmean(trp5):.6g}"
    assert f"trp      k=5    mean={mean} se=" in summary
    assert "(2 reps, 1 with no pair)" in summary


def test_order_4_sketch_smoke_run(tmp_path, capsys):
    # A 5^4 Tucker tensor unfolded to 5 x 125; at k = 5 the sketch spans every row.
    out = tmp_path / "o4.csv"
    args = ["--experiment", "sketch", "--dims", "5x5x5", "--order", "4", "--k", "2,5",
            "--reps", "2", "--T", "2", "--out", str(out)]
    assert main(args) == 0
    assert "wrote 12 records" in capsys.readouterr().out
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert {(r[3], r[4]) for r in rows} == {("125", "5x5x5")}
    errors = {k: [float(r[9]) for r in rows if r[5] == k] for k in ("2", "5")}
    assert all(0.0 < e < 1.0 for e in errors["2"])
    assert all(e < 1e-12 for e in errors["5"])


def test_readme_commands_are_valid_configs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line for line in block.splitlines() if line.startswith("trp-bench ")]
    assert len(commands) >= 5
    for line in commands:
        _validate(build_config(shlex.split(line)[1:]))
