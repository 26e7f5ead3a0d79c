"""The benchmark's three ``trp-bench`` workloads and the checks on their CSVs.

Each workload is one fixed set of ``trp-bench`` flags; the benchmark adds
``--seed`` and ``--out``.  The reps are scaled so one run of ``trp-bench``
takes 0.5-1 s on a 2-core x86-64 box, short beside the phases in which a
shared box changes speed, so the reference loop timed around it (see
reference.py) sees the same speed; a 35 s run holds 17-35 processes.
README.md in this directory says why each workload was chosen.

A check takes the parsed records and the seed and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from tensorproj.experiments import SKETCH_CORE_RANK, ExperimentRecord
from tensorproj.distributions import SeedSpec
from tensorproj.sketch import tucker_synthetic
from tensorproj.stats import theoretical_variance

Cells = dict[tuple[str, int], np.ndarray]

# Spans every workload must fire; each workload adds the layers it exercises.
COMMON_SPANS = ("cli.main", "experiments.run", "experiments.write_csv", "distributions.sample")
MAP_KINDS = ("rp", "trp", "trp_t")  # the trp-bench default
SKETCH_D = 1000
DISTANCE_POINTS = 20  # the trp-bench default for synthetic data


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]
    k_sweep: tuple[int, ...]
    reps: int
    spans: tuple[str, ...]
    check: Callable[[Sequence[ExperimentRecord], int], list[str]]

    @property
    def records(self) -> int:
        """Rows the CSV must hold: map kinds x k values x reps."""
        return len(MAP_KINDS) * len(self.k_sweep) * self.reps

    def trp_bench_argv(self, seed: int, out: str) -> list[str]:
        k = ",".join(str(k) for k in self.k_sweep)
        return [*self.flags, "--k", k, "--reps", str(self.reps), "--seed", str(seed),
                "--out", out]


def cells_of(
    records: Sequence[ExperimentRecord],
    of: Callable[[ExperimentRecord], float] = lambda r: r.value,
) -> Cells:
    """``of(record)`` per (map kind, k), in rep order."""
    by_cell: dict[tuple[str, int], list[tuple[int, float]]] = {}
    for r in records:
        by_cell.setdefault((r.map_kind, r.k), []).append((r.rep, of(r)))
    return {
        key: np.array([v for _, v in sorted(rows)]) for key, rows in by_cell.items()
    }


def check_common(wl: Workload, records: Sequence[ExperimentRecord]) -> list[str]:
    problems = []
    if len(records) != wl.records:
        problems.append(f"{len(records)} records, expected {wl.records}")
    expected_cells = {(m, k) for m in MAP_KINDS for k in wl.k_sweep}
    cells = {(r.map_kind, r.k) for r in records}
    if cells != expected_cells:
        problems.append(f"cells {sorted(cells)} differ from {sorted(expected_cells)}")
    for r in records:
        values = [r.value] if r.std_error is None else [r.value, r.std_error]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite value in {r}")
            break
    return problems


def _mean_se(w: np.ndarray) -> tuple[float, float]:
    return float(w.mean()), float(w.std(ddof=1)) / math.sqrt(w.size)


def check_variance(records: Sequence[ExperimentRecord], seed: int) -> list[str]:
    """Mean of ||f(e1)||^2 within 4 SE of 1; variance near the closed form.

    The closed form is exact for x = e1 at any order.  The variance test
    uses the sample fourth central moment for the standard error of the
    sample variance, and allows 7 of them because order-3 Gaussian products
    are heavy-tailed: over 150 seeds the worst cell sat 3.8 SE off.
    """
    problems = []
    e1 = np.zeros(8)
    e1[0] = 1.0
    for (kind, k), w in sorted(cells_of(records).items()):
        mean, se = _mean_se(w)
        if abs(mean - 1.0) > 4.0 * se:
            problems.append(f"{kind} k={k}: mean {mean:.5f} is not within 4 SE ({se:.5f}) of 1")
        order = 1 if kind == "rp" else 3
        T = 5 if kind == "trp_t" else 1
        theory = theoretical_variance(e1, [3.0] * order, k, T)
        var = float(w.var(ddof=1))
        m4 = float(np.mean((w - mean) ** 4))
        se_var = math.sqrt(max(m4 - var * var, 0.0) / w.size)
        if abs(var - theory) > 7.0 * se_var:
            problems.append(
                f"{kind} k={k}: variance {var:.5f} vs closed form {theory:.5f} "
                f"exceeds 7 SE ({se_var:.5f})"
            )
    return problems


def _pooled(cells: Cells, keys: Sequence[tuple[str, int]]) -> tuple[float, float]:
    """Mean of the cell means over ``keys``, and its standard error."""
    stats = [_mean_se(cells[key]) for key in keys]
    mean = sum(m for m, _ in stats) / len(stats)
    return mean, math.sqrt(sum(se * se for _, se in stats)) / len(stats)


def check_distance(records: Sequence[ExperimentRecord], seed: int) -> list[str]:
    """Distance ratios r = ||f(u)|| / ||u|| over the point pairs u.

    Every map is an isometry in expectation, E r^2 = 1 for each pair, so
    per map kind the mean of r^2 (rebuilt from each rep's mean and standard
    deviation over its pairs) pooled over all k lies within 6 SE of 1.  By
    Jensen E r <= 1, about 1 - 1/(4k) for a dense Gaussian map: per map kind
    the mean ratio over k <= 10 is not above 1 by more than 3 SE.  Each cell
    mean must also lie in [0.75, 1.1].  The SE is over reps, which draw
    independent maps.
    """
    problems = []
    ratio = cells_of(records)
    pairs = DISTANCE_POINTS * (DISTANCE_POINTS - 1) // 2
    square = cells_of(records, lambda r: r.value**2 + r.std_error**2 * (pairs - 1) / pairs)
    for (kind, k), w in sorted(ratio.items()):
        if not 0.75 <= w.mean() <= 1.1:
            problems.append(f"{kind} k={k}: mean ratio {w.mean():.5f} outside [0.75, 1.1]")
    for kind in MAP_KINDS:
        mean, se = _pooled(square, [key for key in square if key[0] == kind])
        if abs(mean - 1.0) > 6.0 * se:
            problems.append(f"{kind}: mean squared ratio {mean:.5f} is not within 6 SE of 1")
        mean, se = _pooled(ratio, [key for key in ratio if key[0] == kind and key[1] <= 10])
        if mean > 1.0 + 3.0 * se:
            problems.append(f"{kind}, k <= 10: mean ratio {mean:.5f} above 1 + 3 SE")
    return problems


def sketch_error_floor(d: int, seed: int, k_sweep: Sequence[int]) -> dict[int, float]:
    """Best rank-k relative error of the sketch target (Eckart-Young).

    Rebuilds the experiment's target: the Tucker matrix drawn from child 0
    of the base seed.  No rank-k approximation can beat this floor.
    """
    target = tucker_synthetic(d, 2, SKETCH_CORE_RANK, SeedSpec(seed).child(0))
    s = np.linalg.svd(target.reshape(d, d), compute_uv=False)
    energy = s**2
    total = float(energy.sum())
    return {k: math.sqrt(float(energy[k:].sum()) / total) for k in k_sweep}


def check_sketch(records: Sequence[ExperimentRecord], seed: int) -> list[str]:
    """Errors between the rank-k floor and 1; cell means not rising with k.

    Once k passes the signal rank the errors sit within a few percent of
    the floor, so a mean may rise by 1% plus 4 combined standard errors
    (the cells use independent sketches).
    """
    problems = []
    cells = cells_of(records)
    k_sweep = sorted({k for _, k in cells})
    floor = sketch_error_floor(SKETCH_D, seed, k_sweep)
    for kind in MAP_KINDS:
        prev = None
        for k in k_sweep:
            w = cells[(kind, k)]
            if w.min() < floor[k] * (1.0 - 1e-9) or w.max() >= 1.0:
                problems.append(
                    f"{kind} k={k}: errors [{w.min():.6f}, {w.max():.6f}] "
                    f"outside [{floor[k]:.6f}, 1)"
                )
            mean, se = _mean_se(w)
            if prev is not None and mean > 1.01 * prev[0] + 4.0 * math.hypot(se, prev[1]):
                problems.append(f"{kind} k={k}: mean error {mean:.6f} rose from {prev[0]:.6f}")
            prev = (mean, se)
    return problems


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="mc-variance",
            flags=("--experiment", "variance", "--dims", "2x2x2", "--T", "5"),
            k_sweep=(10, 50),
            reps=3000,
            spans=COMMON_SPANS + ("stats.squared_norm_samples", "stats.contract"),
            check=check_variance,
        ),
        Workload(
            name="distance-sparse",
            flags=("--experiment", "distance", "--d", "2500", "--dist", "sparse"),
            k_sweep=(5, 10, 25, 50, 100),
            reps=8,
            spans=COMMON_SPANS + ("data.gen_synthetic", "maps.build", "maps.apply",
                                  "stats.pairwise_distance"),
            check=check_distance,
        ),
        Workload(
            name="sketch-order3",
            flags=("--experiment", "sketch", "--d", str(SKETCH_D), "--dims", "10x10x10",
                   "--dist", "very_sparse"),
            k_sweep=(5, 10, 15, 20, 25),
            reps=2,
            spans=COMMON_SPANS + ("sketch.tucker_synthetic", "linalg.qr", "maps.build",
                                  "maps.apply", "sketch.low_rank_approx",
                                  "sketch.averaged", "sketch.relative_error"),
            check=check_sketch,
        ),
    )
}
