"""One workload process: run ``trp-bench`` once and write its timings.

Usage: python3 child.py RESULT_JSON TRACE -- TRP_BENCH_ARGS...

``wall_s`` runs from before ``import tensorproj`` to ``trp-bench`` returning
with its CSV closed; ``setup_s`` covers the import and building the config.
With TRACE = 1 the layers are wrapped after set-up (see tracing.py), and
every warning is recorded so that rank-deficient sketches can be counted.

``peak_rss_mb`` is the process's own high-water mark (``VmHWM``).  Linux
carries ``ru_maxrss`` over from the parent through fork and exec, so it
would report the benchmark's own peak whenever that is the larger.
"""

import json
import resource
import sys
import time
import warnings


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    start = time.perf_counter()
    from tensorproj import cli

    cli.build_config(argv)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(argv)
        wall_s = time.perf_counter() - start
        self_s, calls = tracer.layers()
        counts = dict(tracer.counts)
        counts["sketch.rank_deficient"] = sum(
            w.category.__name__ == "RankDeficiencyWarning" for w in caught
        )
        result.update(self_s=self_s, calls=dict(calls), counts=counts)
    else:
        rc = cli.main(argv)
        wall_s = time.perf_counter() - start
    result.update(
        rc=rc,
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb(),
    )
    with open(result_path, "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
