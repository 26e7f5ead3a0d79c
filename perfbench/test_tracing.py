"""Tests of the benchmark's tracer and timing rescale: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).parent)]

import tracing  # noqa: E402
from tensorproj import cli, maps  # noqa: E402
from tensorproj.distributions import EntryDistribution, SeedSpec  # noqa: E402


def test_self_time_is_duration_minus_children(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(tracing, "perf_counter", lambda: float(next(clock)))
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    self_s, calls = tracer.layers()
    # outer runs 0..5 and its two children 1..2 and 3..4.
    assert self_s == {"outer": 3.0, "inner": 2.0}
    assert calls == {"outer": 1, "inner": 2}
    assert [span[1] for span in tracer.spans] == [-1, 0, 0]


@pytest.fixture
def traced():
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        yield tracer
    finally:
        uninstall()


def test_call_alias_and_nested_apply_are_traced(traced):
    ens = maps.build_ensemble((4, 3), 5, EntryDistribution.gaussian(), 2, SeedSpec(0))
    ens(np.ones(12))
    _, calls = traced.layers()
    assert calls["maps.apply"] == 3  # the ensemble and its two replicates
    assert calls["maps.build"] == 3
    assert calls["distributions.sample"] == 4
    assert traced.counts["maps.apply.calls"] == 2
    assert traced.counts["maps.apply.madds"] == 2 * 5 * (12 + 4)


def test_uninstall_restores_the_library():
    original = maps.TensorRandomProjection.__call__
    tracing.install(tracing.Tracer())()
    assert maps.TensorRandomProjection.__call__ is original
    assert maps.TensorRandomProjection.apply is original


def test_counters_of_a_small_cli_run(traced, tmp_path):
    out = tmp_path / "out.csv"
    argv = ["--experiment", "distance", "--d", "12", "--dims", "4x3", "--dist", "sparse",
            "--k", "2,3", "--n", "5", "--reps", "2", "--out", str(out)]
    assert cli.main(argv) == 0
    c = traced.counts
    assert c["experiments.records"] == 3 * 2 * 2
    assert c["experiments.write_csv.bytes"] == out.stat().st_size
    assert c["stats.pairwise_distance.pairs"] == 12 * 10
    assert c["stats.pairwise_distance.skipped_pairs"] == 0
    # trp: one sparse kernel call per draw; trp_t: five replicates per draw.
    assert c["maps.apply.sparse_calls"] == 2 * 2 + 2 * 2 * 5


def test_unused_factor_rows_for_a_one_hot_input(traced):
    from tensorproj import stats

    x = np.zeros(8)
    x[0] = 1.0
    stats.squared_norm_samples((2, 2, 2), 3, EntryDistribution.gaussian(), x, 10,
                               SeedSpec(0), T=2)
    drawn = traced.counts["distributions.sample.entries"]
    assert drawn == 10 * 2 * 3 * 6
    assert traced.counts["distributions.sample.unused_entries"] == drawn // 2


def test_rescale_cancels_machine_speed():
    import run
    from reference import REF_SECONDS

    def process(speed):
        # The same work on a machine running at ``speed`` times the reference.
        return run.rescale({"setup_s": 0.2 / speed, "wall_s": 1.2 / speed, "rows": 600,
                            "ref_s": [REF_SECONDS / speed] * 2,
                            "self_s": {"maps.apply": 0.5 / speed}})

    for speed in (0.7, 1.0, 1.45):
        out = process(speed)
        assert out["wall_s"] == pytest.approx(1.2)
        assert out["setup_s"] == pytest.approx(0.2)
        assert out["draws_per_s"] == pytest.approx(600.0)
        assert out["self_s"] == {"maps.apply": pytest.approx(0.5)}
        assert out["measured_wall_s"] == pytest.approx(1.2 / speed)
