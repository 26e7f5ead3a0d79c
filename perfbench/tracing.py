"""Per-layer spans and counters, installed from outside the library.

``install`` wraps the layer functions of ``tensorproj`` so that each call
records a span (name, parent span, start, end).  A layer's self time is the
summed duration of its spans minus the durations of their direct children.
Counters are updated at the same boundaries from the call's arguments and
result, so ratios are measured where the work happens; the time spent
computing them is recorded as a ``trace.count`` span and so is charged to
no layer.

Every reference to a wrapped function inside the package is replaced,
including names re-bound by ``from ... import`` and class-level aliases
such as ``__call__ = apply``.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

Count = Callable[[Counter, dict[str, Any], Any], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str, start: float) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, start, start])
        return idx

    def wrap(self, name: str | None, fn: Callable, count: Count | None = None) -> Callable:
        """``fn`` recording a span ``name`` (none if ``name`` is None) and counts."""
        sig = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            if name is not None:
                idx = self._open(name, perf_counter())
                self._stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    self.spans[idx][3] = perf_counter()
            else:
                result = fn(*args, **kwargs)
            if count is not None:
                idx = self._open("trace.count", perf_counter())
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
                self.spans[idx][3] = perf_counter()
            return result

        return traced

    def layers(self) -> tuple[dict[str, float], Counter]:
        """Self time in seconds and span count per layer name."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, parent, start, end in self.spans:
            duration = end - start
            self_s[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        return dict(self_s), calls


def _rebind(original: Callable, replacement: Callable) -> list[tuple[Any, str]]:
    """Point every package-level and class-level reference at ``replacement``."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tensorproj" or mod_name.startswith("tensorproj.")):
            continue
        for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    sites.append((owner, attr))
    for owner, attr in sites:
        setattr(owner, attr, replacement)
    return sites


# ---------------------------------------------------------------- counters


def _rows(x) -> int:
    return 1 if getattr(x, "ndim", 1) == 1 else int(x.shape[0])


def count_sample(c: Counter, a: dict, result) -> None:
    c["distributions.sample.entries"] += math.prod(a["shape"])


def count_squared_norm_samples(c: Counter, a: dict, result) -> None:
    # Factor rows that no nonzero of x touches are drawn but never used.
    dims = tuple(int(d) for d in a["dims"])
    support = a["x"].reshape(dims) != 0
    unused_rows = 0
    for mode, d in enumerate(dims):
        other = tuple(i for i in range(len(dims)) if i != mode)
        unused_rows += d - int(support.any(axis=other).sum())
    c["distributions.sample.unused_entries"] += a["trials"] * a["T"] * a["k"] * unused_rows


def count_trp_apply(c: Counter, a: dict, result) -> None:
    # Multiply-adds of the mode-by-mode contraction, from shapes: the first
    # mode touches all d inputs, each later one d / (product of modes done).
    proj, n = a["self"], _rows(a["x"])
    remaining, madds = proj.d, 0
    for d_i in reversed(proj.dims):
        madds += n * remaining * proj.k
        remaining //= d_i
    c["maps.apply.calls"] += 1
    c["maps.apply.rows"] += n
    c["maps.apply.madds"] += madds


def count_dense_apply(c: Counter, a: dict, result) -> None:
    proj, n = a["self"], _rows(a["x"])
    c["maps.apply.calls"] += 1
    c["maps.apply.rows"] += n
    c["maps.apply.madds"] += n * proj.d * proj.k


def count_sparse_kernel(c: Counter, a: dict, result) -> None:
    c["maps.apply.sparse_calls"] += 1


def count_pairs(c: Counter, a: dict, report) -> None:
    c["stats.pairwise_distance.pairs"] += int(report.ratios.size) + report.skipped_pairs
    c["stats.pairwise_distance.skipped_pairs"] += report.skipped_pairs


def count_low_rank(c: Counter, a: dict, result) -> None:
    # QR of the m x k sketch (m k^2) plus Q (Q^T X) (2 m k n), from shapes.
    m, n = a["x"].shape
    k = a["omega"].k
    c["sketch.low_rank_approx.calls"] += 1
    c["sketch.madds"] += m * k * k + 2 * m * k * n


def count_csv(c: Counter, a: dict, result) -> None:
    c["experiments.records"] += len(a["records"])
    c["experiments.write_csv.bytes"] += os.path.getsize(a["path"])


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer; return a function that unwraps them.

    A missing layer function is an error, so a rename cannot silently stop
    a layer from being measured.  The one exception is the sparse-sign
    kernel, whose removal leaves ``maps.apply.sparse_calls`` at 0.
    """
    from tensorproj import cli, data, distributions, experiments, linalg, maps, sketch, stats

    trp, ens, rp = maps.TensorRandomProjection, maps.TrpEnsemble, maps.ConventionalRp
    targets = [
        ("distributions.sample", distributions, "_sample_array", count_sample),
        ("maps.build", maps, "build_trp", None),
        ("maps.build", maps, "build_ensemble", None),
        ("maps.build", maps, "build_conventional", None),
        ("maps.apply", trp, "apply", count_trp_apply),
        ("maps.apply", ens, "apply", None),
        ("maps.apply", rp, "apply", count_dense_apply),
        (None, trp, "_apply_sparse", count_sparse_kernel),
        ("stats.contract", stats, "_contract_all", None),
        ("stats.squared_norm_samples", stats, "squared_norm_samples",
         count_squared_norm_samples),
        ("stats.pairwise_distance", stats, "pairwise_distance_ratio", count_pairs),
        ("sketch.low_rank_approx", sketch, "low_rank_approx", count_low_rank),
        ("sketch.averaged", sketch, "averaged_low_rank_approx", None),
        ("sketch.relative_error", sketch, "relative_error", None),
        ("sketch.tucker_synthetic", sketch, "tucker_synthetic", None),
        ("linalg.qr", linalg, "qr_factor", None),
        ("data.gen_synthetic", data, "gen_synthetic", None),
        ("experiments.run", experiments, "run_experiment", None),
        ("experiments.write_csv", experiments, "write_csv", count_csv),
        ("cli.main", cli, "main", None),
    ]
    restore = []
    for name, owner, attr, count in targets:
        original = vars(owner).get(attr)
        if original is None and attr == "_apply_sparse":
            continue
        if original is None:
            raise LookupError(f"traced layer {owner.__name__}.{attr} no longer exists")
        for site, site_attr in _rebind(original, tracer.wrap(name, original, count)):
            restore.append((site, site_attr, original))

    def uninstall() -> None:
        for owner, attr, original in restore:
            setattr(owner, attr, original)

    return uninstall
