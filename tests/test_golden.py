"""Golden sha256 digests of the CLI CSV, one tiny config per experiment.

A change to the kernels, the estimators or an RNG stream that moves any
output byte fails here.  When such a change is intended, rerun the config,
check the new values against the old ones (a kernel refactor should move
them only at rounding level), and update the digest in the same change,
saying why.  The digests were taken with numpy 2 and OpenBLAS on x86-64;
another BLAS may round differently.
"""

import hashlib
import warnings

import pytest

from tensorproj.cli import main
from tensorproj.experiments import read_csv, write_csv
from tensorproj.sketch import RankDeficiencyWarning

GOLDEN = {
    "distance-sparse-order3": (
        ["--experiment", "distance", "--d", "24", "--dims", "2x3x4", "--dist", "sparse",
         "--k", "3,6", "--n", "6", "--reps", "2", "--T", "2", "--seed", "3"],
        "6b99313438c39965769f56d8bc76bfbb81f2093c9f43ddcc4db6e7b1c0536fd8",
    ),
    "cosine-gaussian-order2": (
        ["--experiment", "cosine", "--d", "20", "--dims", "4x5",
         "--k", "3,6", "--n", "6", "--reps", "2", "--T", "2", "--seed", "4"],
        "fdf51ca7e3c08438cd7e5aee7c7e58f20b8b7b0f176d1c7ed900e6876bcef74f",
    ),
    "variance-sparse-order3": (
        ["--experiment", "variance", "--d", "8", "--dims", "2x2x2", "--dist", "sparse",
         "--k", "2,5", "--reps", "30", "--T", "3", "--seed", "5"],
        "3209048f750e766796742b71faaa4a1a50d7db09f1817db9786017b9d7220027",
    ),
    # 400 reps span three sampler blocks in the k=50, T=5 cell, so this
    # digest pins the block size; the 30-rep digest above fits in one block.
    "variance-gaussian-order3-blocks": (
        ["--experiment", "variance", "--d", "8", "--dims", "2x2x2",
         "--k", "10,50", "--reps", "400", "--T", "5", "--seed", "9"],
        "085111e70c43694775ed5700bc78041bab5a4b801649ca206b5b65bd4231fb0c",
    ),
    "sketch-gaussian-order3": (
        ["--experiment", "sketch", "--d", "64", "--dims", "4x4x4",
         "--k", "3,6", "--reps", "2", "--T", "2", "--seed", "6"],
        "01006822ec993fab509c8a4cc9dd095b70c07efef8e06f90fe4fdda116e40063",
    ),
    # An order-3 Tucker target of side 5, unfolded to 5 x 25.
    "sketch-gaussian-order3-target": (
        ["--experiment", "sketch", "--d", "25", "--dims", "5x5", "--order", "3",
         "--k", "2,4", "--reps", "2", "--T", "2", "--seed", "7"],
        "66b6d66d0d92b7291ac9c3eba6734d7ccb7291aa32acf92acb18d3c38df2fee0",
    ),
    # Sparse-sign factors and the T-replicate average; RANK_DEFICIENT counts
    # its rank-deficient sketches.
    "sketch-very-sparse-order3": (
        ["--experiment", "sketch", "--d", "64", "--dims", "4x4x4", "--dist", "very_sparse",
         "--k", "3,6", "--reps", "2", "--T", "3", "--seed", "8"],
        "6964c0f684e05b0831788f09e6700efc676a8c78ab165f6742893fe0b5051811",
    ),
}

# RankDeficiencyWarnings a config raises, repeats included (12 raised, 6
# distinct messages); every other config raises no warning.
RANK_DEFICIENT = {"sketch-very-sparse-order3": 12}


@pytest.mark.parametrize("name", GOLDEN)
def test_cli_csv_matches_golden_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out", str(out)]) == 0
    assert [w.category for w in caught] == [RankDeficiencyWarning] * RANK_DEFICIENT.get(name, 0)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_csv_round_trips_byte_for_byte(tmp_path):
    # The benchmark harness checks every run's CSV through this round trip.
    argv, _ = GOLDEN["variance-gaussian-order3-blocks"]
    out, copy = tmp_path / "out.csv", tmp_path / "copy.csv"
    assert main(argv + ["--out", str(out)]) == 0
    write_csv(read_csv(str(out)), str(copy))
    assert copy.read_bytes() == out.read_bytes()
