"""Benchmark experiments over projection maps, with a stable CSV contract.

Four experiments are wired up:

``distance``    average pairwise distance ratio per map draw
``cosine``      RMSE of pairwise cosine similarities per map draw
``variance``    one squared-norm sample ||f(e_1)||^2 per map draw
``sketch``      relative error of a sketched low-rank approximation per draw

The sketch target is a noisy random Tucker tensor of order N (``order``,
default 2) and side s with ``s**(N - 1) = d``, unfolded to an ``s x d``
matrix; each map projects its d columns.  At N = 2 it is ``d x d``.

Each experiment sweeps map kinds (``rp``, ``trp``, ``trp_t``) and sketch
sizes k and emits one :class:`ExperimentRecord` per (map kind, k,
replication): a named tuple of the CSV columns, so a record is as cheap to
build as a tuple and is copied with ``record._replace(...)``.  A kind's
factor dims, replicate count T and entry distribution are decided in one
place, :func:`_layout`.  A run's data is one array, loaded once: the
points, the sketch target, or for variance e_1 on its one-entry support.
||f(e_1)||^2 reads only row 1 of each factor, so a variance cell samples,
in blocks, maps on dims ``(1, ..., 1)`` with the entry distributions of the
full dims: the same law, without drawing the rows e_1 never reads.  Every
other run scores one stream of maps built one at a time by
:func:`tensorproj.maps.build_map`, with one estimator call (or one sketch
per map) that returns one value per map.  Runs are deterministic functions
of the config: the base seed fans out per data source, map kind, k and
replication, so at a fixed BLAS build and thread count the written CSV is
byte-identical across runs.

CSV format: header ``experiment,map,dist,d,dims,k,T,rep,metric,value,stderr``,
dims rendered as ``d1xd2x...``, floats with 17 significant digits (lossless
for doubles), rows sorted by (experiment, map, k, rep).  :func:`write_csv`
formats the shared columns once per cell and writes the file a cell at a
time through a temporary file that replaces ``path`` only when complete.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .data import gen_synthetic, load_mnist
from .distributions import EntryDistribution, SeedSpec, very_sparse_family
from .linalg import _check_sizes
from .maps import MAP_KINDS, build_map
from .sketch import averaged_low_rank_approx, low_rank_approx, relative_error, tucker_synthetic
from .stats import cosine_similarity_rmse, pairwise_distance_ratio, squared_norm_samples

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


class ExperimentRecord(NamedTuple):
    """One map draw's result: a CSV row, with the fields in column order."""

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
    for kind in cfg.map_kinds:
        if kind not in MAP_KINDS:
            raise ConfigError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
    sizes = {"dims": tuple(cfg.dims), "k values": tuple(cfg.k_sweep), "T": cfg.T,
             "replications": cfg.replications, "order": cfg.order}
    if cfg.experiment in ("distance", "cosine"):
        sizes["n_points"] = cfg.n_points
    try:
        _check_sizes(**sizes)
        SeedSpec(cfg.base_seed)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if len(set(cfg.k_sweep)) != len(cfg.k_sweep):
        raise ConfigError(f"k values must be distinct, got {cfg.k_sweep}")
    if len(set(cfg.map_kinds)) != len(cfg.map_kinds):
        raise ConfigError(f"map kinds must be distinct, got {cfg.map_kinds}")
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


def _layout(
    cfg: ExperimentConfig, kind: str
) -> tuple[tuple[int, ...], int, EntryDistribution | tuple[EntryDistribution, ...]]:
    """(factor dims, replicate count T, entry distribution) of one map kind.

    Dense ``rp`` has the one factor of the flat dim d and, when very sparse,
    the rate 1/sqrt(d); the structured kinds factor ``cfg.dims`` with
    per-mode rates 1/sqrt(d_i).  Only ``trp_t`` has more than one replicate.
    """
    dims = (cfg.d,) if kind == "rp" else cfg.dims
    if cfg.dist_kind == "gaussian":
        dist = EntryDistribution.gaussian()
    elif cfg.dist_kind == "sparse":
        dist = EntryDistribution.sparse_sign(SPARSE_DELTA)
    elif kind == "rp":
        dist = EntryDistribution.very_sparse(cfg.d)
    else:
        dist = very_sparse_family(cfg.dims)
    return dims, (cfg.T if kind == "trp_t" else 1), dist


def _load_data(cfg: ExperimentConfig, seed: SeedSpec) -> np.ndarray:
    """The one array all cells of a run share, drawn from ``seed``.

    The points (distance, cosine), the ``s x d`` target (sketch), or the
    input e_1 on its one-entry support, ``[1.0]`` (variance, which draws
    nothing here).
    """
    if cfg.experiment == "variance":
        return np.ones(1)
    if cfg.experiment == "sketch":
        side = _sketch_side(cfg)
        return tucker_synthetic(side, cfg.order, SKETCH_CORE_RANK, seed).reshape(side, cfg.d)
    if cfg.mnist_path is None:
        return gen_synthetic(cfg.d, cfg.n_points, seed)
    return load_mnist(cfg.mnist_path, cfg.n_points)


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Run all (map kind, k, replication) draws as one stream; return their records.

    The draws run in ``map_kinds``, then ``k_sweep``, then rep order.  Draw
    rep of a (kind, k) cell is built from the cell seed's child stream rep,
    for every experiment and map kind.
    """
    _validate(cfg)
    base = SeedSpec(cfg.base_seed)
    data = _load_data(cfg, base.child(0))
    reps = range(cfg.replications)
    layouts = {kind: _layout(cfg, kind) for kind in cfg.map_kinds}
    cells = [(kind, k, layouts[kind], base.child(1).child(i).child(j))  # (dims, T, dist)
             for i, kind in enumerate(cfg.map_kinds) for j, k in enumerate(cfg.k_sweep)]
    # The generator holds no map, and its consumers below drop each map
    # before the next is built.  Variance cells draw their own maps.
    maps = (build_map(kind, dims, k, dist, T, seed.child(rep))
            for kind, k, (dims, T, dist), seed in cells for rep in reps)
    spreads = repeat(None)
    if cfg.experiment == "variance":
        metric = "sq_norm_ratio"
        # Factor rows are i.i.d. and ||f(e_1)||^2 reads only row 1 of each, so
        # maps of e_1's support under the full dims' distributions keep the law.
        values = np.concatenate([
            squared_norm_samples((1,) * len(dims), k, dist, data, cfg.replications, seed, T=T)
            for _, k, (dims, T, dist), seed in cells
        ]).tolist()
    elif cfg.experiment == "distance":
        report = pairwise_distance_ratio(data, maps)
        metric, values, spreads = "avg_ratio", report.avg_ratio.tolist(), report.std_ratio.tolist()
    elif cfg.experiment == "cosine":
        metric, values = "rmse", cosine_similarity_rmse(data, maps).per_rep.tolist()
    else:
        metric = "relative_error"
        sketches = (averaged_low_rank_approx if kind == "trp_t" else low_rank_approx
                    for kind, *_ in cells for _ in reps)
        values = list(map(lambda sketch, omega: relative_error(data, sketch(data, omega)),
                          sketches, maps))
    # values and spreads hold one entry per draw, in draw order.
    values, spreads, d, dims = iter(values), iter(spreads), cfg.d, tuple(cfg.dims)
    return [
        ExperimentRecord(cfg.experiment, kind, cfg.dist_kind, d, dims, k, T, rep,
                         metric, next(values), next(spreads))
        for kind, k, (_, T, _), _ in cells for rep in reps
    ]


def write_csv(records: Sequence[ExperimentRecord], path: str) -> None:
    """Write records sorted by (experiment, map, k, rep); lossless floats.

    The rows go, one cell at a time, to a temporary file next to ``path``
    that then replaces it, so a failed write leaves an existing file as it
    was.  A symlink at ``path`` is followed.  The directory must be
    writable, and the new file gets the process's default permissions, not
    the old file's.
    """
    rows = sorted(records, key=itemgetter(0, 1, 5, 7))  # experiment, map_kind, k, rep
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as f:
            f.write(CSV_HEADER + "\n")
            # Rows of one cell share their first seven fields, experiment
            # through T; format them once.
            cells = groupby(rows, key=itemgetter(slice(0, 7)))
            for (experiment, kind, dist, d, dims, k, T), cell in cells:
                prefix = f"{experiment},{kind},{dist},{d},{'x'.join(map(str, dims))},{k},{T},"
                f.write("".join([
                    f"{prefix}{r.rep},{r.metric},{r.value:.17g},"
                    f"{'' if r.std_error is None else f'{r.std_error:.17g}'}\n"
                    for r in cell
                ]))
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
        try:
            experiment, kind, dist, d, dims, k, T, rep, metric, value, se = line.split(",")
            records.append(ExperimentRecord(
                experiment, kind, dist, int(d), tuple(int(t) for t in dims.split("x")),
                int(k), int(T), int(rep), metric, float(value),
                None if se == "" else float(se),
            ))
        except ValueError as err:
            raise ValueError(f"{path}: malformed row {line!r}") from err
    return records
