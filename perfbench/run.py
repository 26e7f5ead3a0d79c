"""tensorproj benchmark: one ``trp-bench`` workload in fresh processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-variance --seed 1 --seconds 35 --trace 0

A run imports the package once to warm the caches, then starts timed
processes one after another until ``--seconds`` have passed.  Every process
runs the workload with the same seed: the first one's CSV is checked in
full, and every later CSV must match it byte for byte.  A fixed reference
loop (reference.py) is timed just before and just after each process, and
the process's timings are rescaled by it to reference seconds.  With
``--trace 0`` the timed processes run untraced and the end-to-end metrics
are reported; with ``--trace 1`` they alternate untraced and traced, and the
per-layer metrics and the tracing overhead are reported.  The last line of
standard output is one JSON object; a record of the run is written to
``.perfbench/`` in the checkout.  README.md in this directory explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_SECONDS, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# One BLAS/OpenMP thread per workload process: on a small shared box this
# keeps run-to-run spread low; it never exceeds nproc.
THREADS = 1
CHILD_TIMEOUT_S = 150
MIN_SAMPLES = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "draws_per_s": "1/s", "peak_rss_mb": "MB"}
TIMED_LAYERS = (
    "distributions.sample", "maps.build", "maps.apply", "stats.contract",
    "stats.squared_norm_samples", "stats.pairwise_distance", "sketch.low_rank_approx",
    "sketch.averaged", "sketch.relative_error", "linalg.qr", "data.gen_synthetic",
    "sketch.tucker_synthetic", "experiments.run", "experiments.write_csv", "cli.main",
)
SPAN_CALLS = ("distributions.sample", "maps.build", "stats.contract", "linalg.qr")
COUNTS = (
    "distributions.sample.entries", "maps.apply.calls", "maps.apply.rows",
    "maps.apply.sparse_calls", "maps.apply.madds", "stats.pairwise_distance.pairs",
    "stats.pairwise_distance.skipped_pairs", "sketch.madds", "sketch.rank_deficient",
    "experiments.write_csv.bytes", "experiments.records",
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def file_digest(path: Path) -> tuple[str, int]:
    """sha256 and number of data rows of a CSV."""
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n") - 1


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_process(wl, seed: int, trace: bool, work: Path, index: int) -> dict:
    """Run one workload process; return its timings, digest and problems.

    The reference loop is timed here just before and just after the
    process, so that the process's memory is its own.
    """
    csv, result = work / f"{index}.csv", work / f"{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result), str(int(trace)), "--",
           *wl.trp_bench_argv(seed, str(csv))]
    ref_before = reference_loop()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "problems": [f"process {index} timed out"]}
    ref_after = reference_loop()
    if proc.returncode != 0 or not result.is_file() or not csv.is_file():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return {"trace": trace, "problems": [f"process {index} exited {proc.returncode}: {tail}"]}
    out = json.loads(result.read_text())
    out["trace"] = trace
    out["ref_s"] = [ref_before, ref_after]
    out["sha256"], out["rows"] = file_digest(csv)
    out["problems"] = []
    return rescale(out)


def rescale(out: dict) -> dict:
    """Timings of one process in reference seconds; the measured ones as ``measured_*``.

    Each is multiplied by ``REF_SECONDS`` over the mean of the reference
    loop's times around the process.
    """
    scale = REF_SECONDS / statistics.fmean(out["ref_s"])
    out["measured_setup_s"], out["measured_wall_s"] = out["setup_s"], out["wall_s"]
    out["setup_s"] *= scale
    out["wall_s"] *= scale
    out["draws_per_s"] = out["rows"] / (out["wall_s"] - out["setup_s"])
    if "self_s" in out:
        out["self_s"] = {layer: t * scale for layer, t in out["self_s"].items()}
    return out


def check_reference(wl, seed: int, csv: Path, work: Path) -> list[str]:
    """Full output checks on the first CSV of a run."""
    from tensorproj.experiments import read_csv, write_csv
    from workloads import check_common

    records = read_csv(str(csv))
    copy = work / "roundtrip.csv"
    write_csv(records, str(copy))
    problems = check_common(wl, records)
    if copy.read_bytes() != csv.read_bytes():
        problems.append("CSV does not round-trip through read_csv and write_csv")
    if not problems:
        problems = wl.check(records, seed)
    return problems


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples above it."""
    v = sorted(values)
    out = {"median": statistics.median(v), "n": len(v)}
    if len(v) > 10:
        out["tail_pct"] = math.floor(100 * (len(v) - 10) / len(v))
        out["tail"] = v[len(v) - 11]
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tensorproj").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args, wl) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "blas_threads": THREADS,
        "ref_seconds": REF_SECONDS,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": wl.name,
        "argv": ["trp-bench", *wl.trp_bench_argv(args.seed, "<csv>")],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def layer_metrics(wl, traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced processes, and any tracing problems."""
    problems = []
    for p in traced:
        silent = [s for s in wl.spans if p["calls"].get(s, 0) == 0]
        if silent:
            problems.append(f"declared spans never fired: {silent}")
        if p["counts"] != traced[0]["counts"]:
            problems.append("counters differ between traced processes of one seed")
    counts, calls = traced[0]["counts"], traced[0]["calls"]
    m = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.self_s"] = (
            statistics.median(p["self_s"].get(layer, 0.0) for p in traced), "s")
    for layer in SPAN_CALLS:
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for name in COUNTS:
        m[name] = (counts.get(name, 0), "count")
    entries = counts.get("distributions.sample.entries", 0)
    unused = counts.get("distributions.sample.unused_entries", 0)
    m["distributions.sample.useful_frac"] = ((entries - unused) / entries if entries else 0.0,
                                             "ratio")
    sketches = counts.get("sketch.low_rank_approx.calls", 0)
    m["sketch.full_rank_frac"] = (
        1.0 - counts.get("sketch.rank_deficient", 0) / sketches if sketches else 0.0, "ratio")
    wall_traced = statistics.median(p["wall_s"] for p in traced)
    wall_plain = statistics.median(p["wall_s"] for p in untraced)
    m["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    m["trace.processes"] = (len(traced), "count")
    return m, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tensorproj" / "__init__.py").is_file():
        print(f"error: no tensorproj sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        print("error: need 0 <= seed < 2**64 and seconds > 0", file=sys.stderr)
        return 1
    wl = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, work: Path) -> int:
    record = run_record(args, wl)
    # Warm-up: one import fills the page and bytecode caches.
    subprocess.run([sys.executable, "-c", "import tensorproj.cli"], env=child_env(),
                   timeout=CHILD_TIMEOUT_S, check=False)
    processes: list[dict] = []
    start = time.perf_counter()
    while True:
        index = len(processes)
        done = [p for p in processes if "wall_s" in p]
        enough = (sum(not p["trace"] for p in done) >= MIN_SAMPLES
                  and (not args.trace or sum(p["trace"] for p in done) >= MIN_SAMPLES))
        if time.perf_counter() - start >= args.seconds and (enough or index > 4 * MIN_SAMPLES):
            break
        p = run_process(wl, args.seed, bool(args.trace and index % 2 == 1), work, index)
        csv = work / f"{index}.csv"
        if index == 0:
            # The first process is untraced; its CSV is checked in full and
            # becomes the reference for the others.
            ref = p
            if not p["problems"]:
                p["problems"] = check_reference(wl, args.seed, csv, work)
        elif not p["problems"] and p["sha256"] != ref.get("sha256"):
            p["problems"].append(f"process {index}: CSV differs from the first")
        elif not p["problems"] and ref["problems"]:
            p["problems"].append("the first CSV failed its checks")
        csv.unlink(missing_ok=True)
        processes.append(p)

    # Timings count from every process that completed, correct or not.
    timed = [p for p in processes if "wall_s" in p]
    untraced = [p for p in timed if not p["trace"]]
    traced = [p for p in timed if p["trace"]]
    timings = {name: summary([p[name] for p in untraced]) for name in END_TO_END if untraced}
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace and traced and untraced:
        metrics, trace_problems = layer_metrics(wl, traced, untraced)
        for p in traced:
            p["problems"] += trace_problems
    elif not args.trace:
        metrics = {name: (s["median"], END_TO_END[name]) for name, s in timings.items()}

    problems = sorted({msg for p in processes for msg in p["problems"]})
    attempted = wl.records * len(processes)
    failed = wl.records * sum(bool(p["problems"]) for p in processes)
    for msg in problems:
        print(f"FAIL {msg}")
    record.update(
        problems=problems, attempted=attempted, failed=failed,
        csv_sha256=processes[0].get("sha256"), timings=timings, processes=processes,
    )
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"{wl.name}: {' '.join(record['argv'])}")
    print(f"csv sha256 {record['csv_sha256']}; record in {record_path.relative_to(ROOT)}")
    if untraced:
        print("  measured, not rescaled: median wall "
              f"{statistics.median(p['measured_wall_s'] for p in untraced):.6g} s, setup "
              f"{statistics.median(p['measured_setup_s'] for p in untraced):.6g} s, reference "
              f"loop {statistics.median(r for p in untraced for r in p['ref_s']):.6g} s; "
              f"below, times are in reference seconds ({REF_SECONDS} s per loop)")
    for name, s in timings.items():
        tail = (f", p{s['tail_pct']} {s['tail']:.6g}" if "tail" in s
                else "; no percentile has 10 samples above it")
        print(f"  {name:12s} median {s['median']:.6g} {END_TO_END[name]} (n={s['n']}{tail})")
    print(f"  failed_frac  {failed / attempted:.6g} ({failed} of {attempted} records)")
    for name, (value, unit) in metrics.items():
        if name not in END_TO_END:
            print(f"  {name:40s} {value:.6g} {unit}")
    if not metrics:
        print("error: no process completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
