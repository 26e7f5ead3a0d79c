"""Golden sha256 digests of the CLI CSV, one tiny config per experiment.

A change to the kernels, the estimators or an RNG stream that moves any
output byte fails here.  When such a change is intended, rerun the config,
check the new values against the old ones (a kernel refactor should move
them only at rounding level), and update the digest in the same change,
saying why.  The digests were taken with numpy 2 and OpenBLAS on x86-64;
another BLAS may round differently.
"""

import hashlib
import math
import warnings

import pytest

from tensorproj.cli import main
from tensorproj.experiments import read_csv, write_csv
from tensorproj.sketch import RankDeficiencyWarning
from tensorproj.stats import _BLOCK_SCRATCH, _PAIR_CHUNK, _trial_scratch

GOLDEN = {
    "distance-sparse-order3": (
        ["--experiment", "distance", "--d", "24", "--dims", "2x3x4", "--dist", "sparse",
         "--k", "3,6", "--n", "6", "--reps", "2", "--T", "2", "--seed", "3"],
        "18d56b42b142665688b5d429d1c9b67104c586917c7fc31a2c6c62b33182e94e",
    ),
    "cosine-gaussian-order2": (
        ["--experiment", "cosine", "--d", "20", "--dims", "4x5",
         "--k", "3,6", "--n", "6", "--reps", "2", "--T", "2", "--seed", "4"],
        "b8ea70e0f849d236d4e351915cd4b005889946dfed8d561b68db5b0335147404",
    ),
    "variance-sparse-order3": (
        ["--experiment", "variance", "--d", "8", "--dims", "2x2x2", "--dist", "sparse",
         "--k", "2,5", "--reps", "30", "--T", "3", "--seed", "5"],
        "13ecbebf1271a626de1ab53baced82c697a94bc6e68ae5a3f3e5f02035330a52",
    ),
    # Variance cells sample e_1's support, dims (1, 1, 1): a block holds 349
    # trials at k=50, T=5, so 400 reps span two blocks and this digest pins
    # the block size; the 30-rep digests fit in one block.
    "variance-gaussian-order3-blocks": (
        ["--experiment", "variance", "--d", "8", "--dims", "2x2x2",
         "--k", "10,50", "--reps", "400", "--T", "5", "--seed", "9"],
        "1c4e80efb8fb1f4336b1d1ff92ea590eba90b75298725fe060b3a1a9875434d5",
    ),
    # Very sparse rates follow the full dims, 1/sqrt(2) per mode and
    # 1/sqrt(8) for rp, though the sampler draws only e_1's row of each factor.
    "variance-very-sparse-order3": (
        ["--experiment", "variance", "--d", "8", "--dims", "2x2x2", "--dist", "very_sparse",
         "--k", "2,5", "--reps", "30", "--T", "3", "--seed", "12"],
        "51330d36d7464eeac6b05a8bc5c9af5a08bf6c573da524b278324900f36d5b18",
    ),
    "sketch-gaussian-order3": (
        ["--experiment", "sketch", "--d", "64", "--dims", "4x4x4",
         "--k", "3,6", "--reps", "2", "--T", "2", "--seed", "6"],
        "91798031d9486279b1248e20bc6f03036070da205e042035d8b570ebd8df8e58",
    ),
    # An order-3 Tucker target of side 5, unfolded to 5 x 25.
    "sketch-gaussian-order3-target": (
        ["--experiment", "sketch", "--d", "25", "--dims", "5x5", "--order", "3",
         "--k", "2,4", "--reps", "2", "--T", "2", "--seed", "7"],
        "33576e68a851322a175be19b8d51f83c328c77e2c846e7ab787a259d7314a5cb",
    ),
    # Sparse-sign factors and the T-replicate average; RANK_DEFICIENT counts
    # its rank-deficient sketches.
    "sketch-very-sparse-order3": (
        ["--experiment", "sketch", "--d", "64", "--dims", "4x4x4", "--dist", "very_sparse",
         "--k", "3,6", "--reps", "2", "--T", "3", "--seed", "8"],
        "a5a902bcaea0090f162edd768e897a5b79423e2302ab877e8d7984319eadcea2",
    ),
    # Map kinds and k values out of sorted order: each draw is seeded by the
    # position of its kind and k on the command line, while the rows are
    # written sorted, so a runner that seeds by sorted position fails here.
    "distance-gaussian-unsorted": (
        ["--experiment", "distance", "--d", "24", "--dims", "2x3x4", "--map", "trp_t,rp",
         "--k", "6,3", "--n", "6", "--reps", "2", "--T", "2", "--seed", "10"],
        "bd805a76fa40f84537eaed7239811ffb8a59f525e621a8f27b11c01b517a8acb",
    ),
    # 1770 point pairs: at d=2500 the points' distances span 137 chunks of
    # stats._PAIR_CHUNK entries and the k=100 images' 6, so this digest pins
    # the pair kernel across chunk boundaries.
    "distance-sparse-chunks": (
        ["--experiment", "distance", "--d", "2500", "--dist", "sparse",
         "--n", "60", "--k", "5,100", "--reps", "2", "--seed", "13"],
        "06601a4c8b447cbad84ca17124f87dcf6f8f5f6efde11d7c13f484ff8dac92a2",
    ),
    "sketch-gaussian-unsorted": (
        ["--experiment", "sketch", "--d", "64", "--dims", "4x4x4", "--map", "trp_t,rp,trp",
         "--k", "6,3", "--reps", "2", "--T", "2", "--seed", "11"],
        "6eb026c23ae51c3be377f98345f2e76d6f8f1bc775179e13115de797449ee37a",
    ),
}

# RankDeficiencyWarnings a config raises, repeats included (13 raised, 5
# distinct messages); every other config raises no warning.
RANK_DEFICIENT = {"sketch-very-sparse-order3": 13}


@pytest.mark.parametrize("name", GOLDEN)
def test_cli_csv_matches_golden_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "out.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out", str(out)]) == 0
    assert [w.category for w in caught] == [RankDeficiencyWarning] * RANK_DEFICIENT.get(name, 0)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_blocks_config_spans_several_sampler_blocks():
    argv, _ = GOLDEN["variance-gaussian-order3-blocks"]
    assert argv[argv.index("--reps") + 1] == "400"
    assert _BLOCK_SCRATCH // _trial_scratch((1, 1, 1), 50, 5) < 400


def test_chunks_config_spans_several_pair_chunks():
    argv, _ = GOLDEN["distance-sparse-chunks"]
    n, d = (int(argv[argv.index(flag) + 1]) for flag in ("--n", "--d"))
    k = max(int(k) for k in argv[argv.index("--k") + 1].split(","))
    pairs = n * (n - 1) // 2
    for width, chunks in ((d, 137), (k, 6)):
        assert math.ceil(pairs / (_PAIR_CHUNK // width)) == chunks


def test_cli_csv_round_trips_byte_for_byte(tmp_path):
    # The benchmark harness checks every run's CSV through this round trip.
    argv, _ = GOLDEN["variance-gaussian-order3-blocks"]
    out, copy = tmp_path / "out.csv", tmp_path / "copy.csv"
    assert main(argv + ["--out", str(out)]) == 0
    write_csv(read_csv(str(out)), str(copy))
    assert copy.read_bytes() == out.read_bytes()
