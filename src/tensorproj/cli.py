"""Command line front end for the benchmark experiments.

Exit codes: 0 on success, 1 for configuration problems (bad flags or values),
2 for I/O and data-format problems.  Every run with the same flags and seed
writes a byte-identical CSV at a fixed BLAS build and thread count.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from .data import IdxFormatError
from .experiments import (
    DEFAULT_DIMS,
    DIST_KINDS,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    run_experiment,
    write_csv,
)
from .linalg import _as_real

DEFAULT_K_SWEEP = (5, 10, 25, 50, 100)
DEFAULT_MAPS = "rp,trp,trp_t"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is that
    # configuration problems exit with 1, so route them through ConfigError.
    def error(self, message: str) -> None:
        raise ConfigError(message)


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split("x"))
    except ValueError as exc:
        raise ConfigError(f"--dims expects a form like 50x50, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trp-bench",
        description="Benchmark structured random projections and sketches.",
        allow_abbrev=False,
    )
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument(
        "--map",
        default=DEFAULT_MAPS,
        help="comma-separated map kinds: rp, trp, trp_t",
    )
    parser.add_argument("--dist", default="gaussian", choices=DIST_KINDS)
    parser.add_argument("--d", type=int, default=None, help="input dimension")
    parser.add_argument(
        "--dims",
        default=None,
        help="factorization of d such as 50x50; defaults exist for benchmark sizes",
    )
    parser.add_argument(
        "--k",
        default=",".join(str(k) for k in DEFAULT_K_SWEEP),
        help="comma-separated sketch sizes",
    )
    parser.add_argument("--T", type=int, default=5, help="ensemble replicate count")
    parser.add_argument(
        "--order",
        type=int,
        default=2,
        help="sketch only: order N of the Tucker target, unfolded to s x d, s^(N-1) = d",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=None,
        help="number of data points (default 20 synthetic, 50 for image data)",
    )
    parser.add_argument("--reps", type=int, default=100, help="map draws per cell")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mnist", default=None, help="path to an IDX image file")
    parser.add_argument("--out", default="results.csv", help="output CSV path")
    return parser


def _resolve_dims(
    d: int | None, dims: tuple[int, ...] | None, map_kinds: tuple[str, ...]
) -> tuple[int, ...]:
    if dims is not None:
        if d is not None and math.prod(dims) != d:
            raise ConfigError(f"dims {dims} multiply to {math.prod(dims)}, not d={d}")
        return dims
    if d is None:
        raise ConfigError("provide --d or --dims")
    if d in DEFAULT_DIMS:
        return DEFAULT_DIMS[d]
    if all(kind == "rp" for kind in map_kinds):
        # Dense maps do not care about the factorization.
        return (d,)
    raise ConfigError(f"no default factorization for d={d}; pass --dims")


def build_config(argv: Sequence[str] | None = None) -> ExperimentConfig:
    args = build_parser().parse_args(argv)
    map_kinds = tuple(args.map.split(","))
    if "" in map_kinds:
        raise ConfigError(f"--map expects comma-separated map kinds, got {args.map!r}")
    dims = _resolve_dims(
        args.d, _parse_dims(args.dims) if args.dims else None, map_kinds
    )
    if args.n is None:
        n_points = 50 if args.mnist else 20
    else:
        n_points = args.n
    return ExperimentConfig(
        experiment=args.experiment,
        map_kinds=map_kinds,
        dist_kind=args.dist,
        dims=dims,
        k_sweep=_parse_ints(args.k, "--k"),
        T=args.T,
        n_points=n_points,
        replications=args.reps,
        base_seed=args.seed,
        mnist_path=args.mnist,
        out_path=args.out,
        order=args.order,
    )


def _mean_se(values: np.ndarray) -> tuple[float, float, int]:
    """Mean, standard error of the mean and count of the non-NaN ``values``.

    NaN marks a draw with no value.  With no values left the mean and the
    standard error are NaN; with one the standard error is 0.
    """
    v = _as_real(values)
    v = v[~np.isnan(v)]
    if v.size == 0:
        return math.nan, math.nan, 0
    se = math.sqrt(float(v.var(ddof=1)) / v.size) if v.size > 1 else 0.0
    return float(v.mean()), se, int(v.size)


def _print_summary(records: list[ExperimentRecord]) -> None:
    cells: dict[tuple[str, int], list[float]] = {}
    for r in records:
        cells.setdefault((r.map_kind, r.k), []).append(r.value)
    for (kind, k), values in sorted(cells.items()):
        # A cosine draw whose map leaves no point pair records nan.
        mean, se, count = _mean_se(values)
        empty = len(values) - count
        reps = f" ({count} reps" + (f", {empty} with no pair)" if empty else ")")
        if count > 1:
            print(f"{kind:8s} k={k:<4d} mean={mean:.6g} se={se:.3g}{reps}")
        else:
            print(f"{kind:8s} k={k:<4d} value={mean:.6g}{reps if empty else ''}")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        cfg = build_config(argv)
        records = run_experiment(cfg)
        assert cfg.out_path is not None
        write_csv(records, cfg.out_path)
    except (IdxFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # ConfigError, plus requests the data cannot satisfy (for example
        # asking for more images than the file holds)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_summary(records)
    print(f"wrote {len(records)} records to {cfg.out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
