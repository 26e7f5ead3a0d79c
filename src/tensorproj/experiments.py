"""Benchmark experiments over projection maps, with a stable CSV contract.

Four experiments are wired up:

``distance``    average pairwise distance ratio per map draw
``cosine``      RMSE of pairwise cosine similarities per map draw
``variance``    one squared-norm sample ||f(e_1)||^2 per map draw
``sketch``      relative error of a sketched low-rank approximation per draw

The sketch target is a noisy random Tucker tensor of order N (``order``,
default 2) and side s with ``s**(N - 1) = d``, unfolded to an ``s x d``
matrix; each map projects its d columns.  At N = 2 it is ``d x d``.

Each experiment sweeps map kinds and sketch sizes k and emits one record per
(map kind, k, replication).  Runs are deterministic functions of the config:
the base seed fans out per data source, map kind, k and replication, so the
written CSV is byte-identical across repeated runs.

CSV format: header ``experiment,map,dist,d,dims,k,T,rep,metric,value,stderr``,
dims rendered as ``d1xd2x...``, floats with 17 significant digits (lossless
for doubles), rows sorted by (experiment, map, k, rep).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Sequence

import numpy as np

from .data import gen_synthetic, load_mnist
from .distributions import EntryDistribution, SeedSpec, very_sparse_family
from .maps import MAP_KINDS, build_map
from .sketch import (
    averaged_low_rank_approx,
    low_rank_approx,
    relative_error,
    tucker_synthetic,
)
from .stats import (
    cosine_similarity_rmse,
    pair_distances,
    pairwise_distance_ratio,
    squared_norm_samples,
)

EXPERIMENTS = ("distance", "cosine", "variance", "sketch")
DIST_KINDS = ("gaussian", "sparse", "very_sparse")
SPARSE_DELTA = 1.0 / 3.0
SKETCH_CORE_RANK = 5

# Conventional factorizations for benchmark sizes; anything else needs an
# explicit dims argument.
DEFAULT_DIMS: dict[int, tuple[int, ...]] = {
    784: (28, 28),
    2500: (50, 50),
    10000: (100, 100),
    40000: (200, 200),
    125000: (50, 50, 50),
}

CSV_HEADER = "experiment,map,dist,d,dims,k,T,rep,metric,value,stderr"


class ConfigError(ValueError):
    """The requested run is inconsistent or incomplete."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    map_kinds: tuple[str, ...]
    dist_kind: str
    dims: tuple[int, ...]
    k_sweep: tuple[int, ...]
    T: int
    n_points: int
    replications: int
    base_seed: int
    mnist_path: str | None = None
    out_path: str | None = None
    order: int = 2

    @property
    def d(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class ExperimentRecord:
    experiment: str
    map_kind: str
    dist_kind: str
    d: int
    dims: tuple[int, ...]
    k: int
    T: int
    rep: int
    metric: str
    value: float
    std_error: float | None = None


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {cfg.experiment!r}; expected one of {EXPERIMENTS}"
        )
    if cfg.dist_kind not in DIST_KINDS:
        raise ConfigError(
            f"unknown distribution {cfg.dist_kind!r}; expected one of {DIST_KINDS}"
        )
    if not cfg.map_kinds:
        raise ConfigError("at least one map kind is required")
    allowed = MAP_KINDS + ("identity",)
    for kind in cfg.map_kinds:
        if kind not in allowed:
            raise ConfigError(f"unknown map kind {kind!r}; expected one of {allowed}")
        if kind == "identity" and cfg.experiment != "distance":
            raise ConfigError("the identity debug map only applies to distance runs")
    if not cfg.dims or any(d < 1 for d in cfg.dims):
        raise ConfigError(f"dims must be positive, got {cfg.dims}")
    if not cfg.k_sweep or any(k < 1 for k in cfg.k_sweep):
        raise ConfigError(f"k values must be positive, got {cfg.k_sweep}")
    if len(set(cfg.k_sweep)) != len(cfg.k_sweep):
        raise ConfigError(f"k values must be distinct, got {cfg.k_sweep}")
    if cfg.T < 1:
        raise ConfigError(f"T must be positive, got {cfg.T}")
    if cfg.replications < 1:
        raise ConfigError(f"replications must be positive, got {cfg.replications}")
    if cfg.experiment in ("distance", "cosine") and cfg.n_points < 2:
        raise ConfigError(f"{cfg.experiment} needs at least 2 points")
    if cfg.mnist_path is not None and cfg.d != 784:
        raise ConfigError(f"the image set has d=784, config says d={cfg.d}")
    if cfg.mnist_path is not None and cfg.experiment in ("variance", "sketch"):
        raise ConfigError(f"the {cfg.experiment} experiment generates its own data")
    if cfg.order < 2:
        raise ConfigError(f"order must be at least 2, got {cfg.order}")
    if cfg.order != 2 and cfg.experiment != "sketch":
        raise ConfigError(f"order {cfg.order} applies only to the sketch experiment")
    if cfg.experiment == "sketch":
        side = _sketch_side(cfg)
        if side is None:
            raise ConfigError(f"d={cfg.d} is not s^{cfg.order - 1} for any integer side s")
        if max(cfg.k_sweep) > side:
            raise ConfigError(f"sketch size k cannot exceed the matrix side s={side}")
        if SKETCH_CORE_RANK > side:
            raise ConfigError(f"matrix side {side} too small for the synthetic core rank")


def _sketch_side(cfg: ExperimentConfig) -> int | None:
    """Side s of the sketch target, ``s**(order - 1) == d``; None if there is none."""
    side = round(cfg.d ** (1.0 / (cfg.order - 1)))
    return side if side ** (cfg.order - 1) == cfg.d else None


def _dist_for(cfg: ExperimentConfig, kind: str):
    """Entry distribution(s) for one map kind; dense maps see the flat dim."""
    if cfg.dist_kind == "gaussian":
        return EntryDistribution.gaussian()
    if cfg.dist_kind == "sparse":
        return EntryDistribution.sparse_sign(SPARSE_DELTA)
    if kind == "rp":
        return EntryDistribution.very_sparse(cfg.d)
    return very_sparse_family(cfg.dims)


def _kind_layout(cfg: ExperimentConfig, kind: str) -> tuple[tuple[int, ...], int]:
    """(factor dims, replicate count) a map kind uses internally."""
    if kind == "rp":
        return (cfg.d,), 1
    if kind == "trp":
        return cfg.dims, 1
    return cfg.dims, cfg.T


def _load_points(cfg: ExperimentConfig, data_seed: SeedSpec) -> np.ndarray:
    if cfg.mnist_path is not None:
        return load_mnist(cfg.mnist_path, cfg.n_points)
    return gen_synthetic(cfg.d, cfg.n_points, data_seed)


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Run all (map kind, k, replication) cells and return their records."""
    _validate(cfg)
    base = SeedSpec(cfg.base_seed)
    data_seed = base.child(0)
    map_root = base.child(1)

    points: np.ndarray | None = None
    original: np.ndarray | None = None
    target: np.ndarray | None = None
    if cfg.experiment in ("distance", "cosine"):
        points = _load_points(cfg, data_seed)
        if cfg.experiment == "distance":
            original = pair_distances(points)
    elif cfg.experiment == "sketch":
        side = _sketch_side(cfg)
        tensor = tucker_synthetic(side, cfg.order, SKETCH_CORE_RANK, data_seed)
        target = tensor.reshape(side, cfg.d)

    records: list[ExperimentRecord] = []
    for kind_idx, kind in enumerate(cfg.map_kinds):
        kind_seed = map_root.child(kind_idx)
        for k_idx, k in enumerate(cfg.k_sweep):
            cell_seed = kind_seed.child(k_idx)
            records.extend(_run_cell(cfg, kind, k, cell_seed, points, original, target))
    return records


def _records(
    cfg: ExperimentConfig,
    kind: str,
    k: int,
    metric: str,
    values: Sequence[float],
    std_errors: Sequence[float] | None = None,
) -> list[ExperimentRecord]:
    """The records of one (map kind, k) cell, one per rep in rep order."""
    cell = (cfg.experiment, kind, cfg.dist_kind, cfg.d, cfg.dims, k,
            cfg.T if kind == "trp_t" else 1)
    if std_errors is None:
        return [
            ExperimentRecord(*cell, rep, metric, float(v)) for rep, v in enumerate(values)
        ]
    return [
        ExperimentRecord(*cell, rep, metric, float(v), float(se))
        for rep, (v, se) in enumerate(zip(values, std_errors))
    ]


def _run_cell(
    cfg: ExperimentConfig,
    kind: str,
    k: int,
    cell_seed: SeedSpec,
    points: np.ndarray | None,
    original: np.ndarray | None,
    target: np.ndarray | None,
) -> list[ExperimentRecord]:
    reps = cfg.replications
    dims, T = _kind_layout(cfg, kind)
    dist = _dist_for(cfg, kind)

    if cfg.experiment == "variance":
        x = np.zeros(cfg.d)
        x[0] = 1.0
        samples = squared_norm_samples(dims, k, dist, x, reps, cell_seed, T=T)
        return _records(cfg, kind, k, "sq_norm_ratio", samples.tolist())

    # Map rep of a cell is drawn from the cell seed's child stream rep.
    if kind == "identity":
        maps = [lambda x: x] * reps
    else:
        maps = (build_map(kind, dims, k, dist, T, cell_seed.child(rep)) for rep in range(reps))

    if cfg.experiment == "distance":
        assert points is not None
        ratios, spreads = [], []
        # map() drops each map before the next is built; a loop variable
        # would hold two dense maps at once.
        for report in map(lambda f: pairwise_distance_ratio(points, f, original), maps):
            ratios.append(report.avg_ratio)
            spreads.append(report.std_ratio)
        return _records(cfg, kind, k, "avg_ratio", ratios, spreads)

    if cfg.experiment == "cosine":
        assert points is not None
        result = cosine_similarity_rmse(points, maps)
        return _records(cfg, kind, k, "rmse", result.per_rep.tolist())

    assert cfg.experiment == "sketch" and target is not None
    errors = []
    for rep in range(reps):
        rep_seed = cell_seed.child(rep)
        if kind == "trp_t":
            ensemble = build_map(kind, dims, k, dist, T, rep_seed)
            approx = averaged_low_rank_approx(target, ensemble)
        else:
            # Single-map sketches draw from child 0 of the rep's stream.
            omega = build_map(kind, dims, k, dist, T, rep_seed.child(0))
            approx = low_rank_approx(target, omega)
        errors.append(relative_error(target, approx))
    return _records(cfg, kind, k, "relative_error", errors)


def _format_value(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def write_csv(records: Sequence[ExperimentRecord], path: str) -> None:
    """Write records sorted by (experiment, map, k, rep); lossless floats.

    The rows go to a temporary file next to ``path`` that then replaces it,
    so a failed write leaves an existing file as it was.  A symlink at
    ``path`` is followed.  The directory must be writable, and the new file
    gets the process's default permissions, not the old file's.
    """
    rows = sorted(records, key=attrgetter("experiment", "map_kind", "k", "rep"))
    lines = [CSV_HEADER + "\n"]
    # Rows of one cell share their first seven columns; format them once.
    cell = attrgetter("experiment", "map_kind", "dist_kind", "d", "dims", "k", "T")
    for (experiment, kind, dist, d, dims, k, T), group in groupby(rows, key=cell):
        prefix = f"{experiment},{kind},{dist},{d},{'x'.join(map(str, dims))},{k},{T},"
        lines.extend(
            f"{prefix}{r.rep},{r.metric},{_format_value(r.value)},"
            f"{_format_value(r.std_error)}\n"
            for r in group
        )
    text = "".join(lines)
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_csv(path: str) -> list[ExperimentRecord]:
    """Parse a file written by :func:`write_csv` back into records."""
    with open(path, "r", newline="") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 11:
            raise ValueError(f"{path}: malformed row {line!r}")
        records.append(
            ExperimentRecord(
                experiment=parts[0],
                map_kind=parts[1],
                dist_kind=parts[2],
                d=int(parts[3]),
                dims=tuple(int(t) for t in parts[4].split("x")),
                k=int(parts[5]),
                T=int(parts[6]),
                rep=int(parts[7]),
                metric=parts[8],
                value=float(parts[9]),
                std_error=None if parts[10] == "" else float(parts[10]),
            )
        )
    return records
