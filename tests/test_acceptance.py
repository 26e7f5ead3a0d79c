"""End-to-end acceptance checks for the whole package.

Each test prints one line ``CRITERION n: PASS/FAIL - detail`` (collected in
the terminal summary) and asserts it.  Tolerances and trial counts are stated
inline; seeds are fixed so reruns are bit-reproducible.  The full run takes
around seven minutes on a 2-core x86-64 machine, almost all of it in the
million-trial variance grid of criterion 3.
"""

import math
import os

import numpy as np

from oracles import polarization_check
from tensorproj.cli import main as cli_main
from tensorproj.data import gen_synthetic, load_mnist
from tensorproj.distributions import EntryDistribution, SeedSpec, very_sparse_family
from tensorproj.experiments import ExperimentConfig, run_experiment
from tensorproj.maps import build_map
from tensorproj.sketch import low_rank_approx, relative_error, tucker_synthetic
from tensorproj.stats import (
    cosine_similarity_rmse,
    exact_variance,
    squared_norm_samples,
    theoretical_variance,
)

GAUSS = EntryDistribution.gaussian()
SPARSE = EntryDistribution.sparse_sign(1 / 3)

CRITERION_LINES: list[str] = []


def _isometry(dims, k, dist, x, trials, seed, T=1):
    """Mean of ||f(x)||^2 / ||x||^2, its standard error, and Var ||f(x)||^2,
    reduced from ``trials`` draws of :func:`squared_norm_samples`."""
    w = squared_norm_samples(dims, k, dist, x, trials, seed, T=T)
    x_sq = float(x @ x)
    var = float(w.var(ddof=1))
    return float(w.mean()) / x_sq, math.sqrt(var) / (x_sq * math.sqrt(w.size)), var


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_lazy_apply_matches_materialized_oracle():
    worst = 0.0
    configs = 0
    for dims in [(4, 5), (3, 4, 5), (2, 3, 4, 5)]:
        for k in (1, 3):
            for dist in (GAUSS, SPARSE):
                trp = build_map("trp", dims, k, dist, 1, SeedSpec(100).child(configs))
                dense = trp.materialize()
                rng = np.random.default_rng(200 + configs)
                for _ in range(20):
                    x = rng.standard_normal(trp.d)
                    want = dense.T @ x / math.sqrt(k)
                    rel = np.linalg.norm(trp.apply(x) - want) / max(
                        np.linalg.norm(want), 1e-300
                    )
                    worst = max(worst, rel)
                configs += 1
    _report(
        1,
        worst <= 1e-10,
        f"{configs} map configs x 20 inputs, worst relative gap {worst:.3g} "
        "(tolerance 1e-10)",
    )


def test_criterion_2_mean_squared_norm_is_an_isometry():
    e1 = np.zeros(2500)
    e1[0] = 1.0
    mean, se, _ = _isometry((50, 50), 10, GAUSS, e1, 100_000, SeedSpec(7))
    gap = abs(mean - 1.0)
    _report(
        2,
        gap <= 4 * se,
        f"mean ||f(x)||^2 = {mean:.5f} over 1e5 draws, "
        f"|mean - 1| = {gap:.2g} vs 4 SE = {4 * se:.2g}",
    )


def test_criterion_3_variance_closed_form_grid():
    dims_for = {1: (8,), 2: (4, 2), 3: (2, 2, 2)}
    base = SeedSpec(1001)
    results = []
    exact_cells = below_cells = 0
    worst = None
    cell = 0
    for N in (1, 2, 3):
        dims = dims_for[N]
        d = math.prod(dims)
        rng = base.child(N).generator()
        xr = rng.standard_normal(d)
        xr /= np.linalg.norm(xr)
        e1 = np.zeros(d)
        e1[0] = 1.0
        for dist_name, dist in (("gauss", GAUSS), ("sparse", SPARSE)):
            for k in (10, 50):
                for T in (1, 5):
                    for x_name, x in (("e1", e1), ("dense", xr)):
                        mean, se, var = _isometry(
                            dims, k, dist, x, 1_000_000, base.child(100 + cell), T=T
                        )
                        moments = [dist.fourth_moment()] * N
                        pred = exact_variance(x, dims, moments, k, T)
                        closed = theoretical_variance(x, moments, k, T)
                        rel = abs(var - pred) / pred
                        closed_gap = (pred - closed) / pred
                        mean_ok = abs(mean - 1.0) <= 4 * se
                        # the closed form is exact for one factor or an axis
                        # vector, and a strict lower bound on the other cells
                        if N == 1 or x_name == "e1":
                            closed_ok = abs(closed_gap) <= 1e-12
                            exact_cells += closed_ok
                        else:
                            closed_ok = closed < pred
                            below_cells += closed_ok
                        ok = rel <= 0.05 and mean_ok and closed_ok
                        results.append(ok)
                        line = (
                            f"N={N} {dist_name:6s} k={k:<3d} T={T} x={x_name:5s} "
                            f"emp={var:.5f} exact={pred:.5f} "
                            f"closed={closed:.5f} rel={rel:7.2%} "
                            f"closed_gap={closed_gap:7.2%}"
                        )
                        if worst is None or rel > worst[0]:
                            worst = (rel, line)
                        print(
                            f"  {line} mean_ok={mean_ok} closed_ok={closed_ok}"
                            f"{'' if ok else '  <-- FAIL'}"
                        )
                        cell += 1
    good = sum(results)
    _report(
        3,
        good == len(results),
        f"{good}/{len(results)} grid cells within 5% of exact_variance at 1e6 "
        f"trials with the mean within 4 SE; closed form equal to it on "
        f"{exact_cells}/32 N=1 or e1 cells and strictly below on {below_cells}/16 "
        f"dense cells with N >= 2; worst cell {worst[1]}",
    )


def test_criterion_4_replicate_averaging_shrinks_variance():
    e1 = np.zeros(8)
    e1[0] = 1.0
    variances = []
    ok = True
    details = []
    for i, (T, want) in enumerate([(1, 0.8), (5, 0.32), (25, 0.224)]):
        _, _, var = _isometry((4, 2), 10, GAUSS, e1, 1_000_000, SeedSpec(8).child(i), T=T)
        variances.append(var)
        rel = abs(var - want) / want
        ok = ok and rel <= 0.05
        details.append(f"T={T}: {var:.4f} (want {want}, off {rel:.1%})")
    ok = ok and variances[0] >= variances[1] >= variances[2]
    _report(4, ok, "; ".join(details) + "; non-increasing in T")


def test_criterion_5_replicated_map_stores_one_twentieth():
    ok = True
    for k in (1, 10, 100):
        ens = build_map("trp_t", (200, 200), k, GAUSS, 5, SeedSpec(0))
        rp = build_map("rp", (40_000,), k, GAUSS, 1, SeedSpec(0))
        ok = ok and 20 * ens.storage_count() == rp.storage_count()
    _report(
        5,
        ok,
        "5 replicates on (200, 200) store exactly 1/20 of the dense count "
        "for k in {1, 10, 100} (integer arithmetic)",
    )


def test_criterion_6_materialized_sparsity_fractions():
    # Entries of one Khatri-Rao column share factor entries, so they are not
    # independent: column c has nnz(A_1[:, c]) * nnz(A_2[:, c]) nonzeros, a
    # product of independent Binomial(d_i, delta_i) counts.  Columns are
    # independent, so the pooled fraction has the exact standard error
    # from Var = prod(mu_i^2 + s_i^2) - prod(mu_i^2), with mu_i = d_i delta_i
    # and s_i^2 = d_i delta_i (1 - delta_i).
    dims, k, maps = (50, 50), 50, 32

    def z_score(dists):
        nnz = sum(
            np.count_nonzero(
                build_map("trp", dims, k, dists, 1, SeedSpec(10).child(i)).materialize()
            )
            for i in range(maps)
        )
        mu = [d * f.delta for d, f in zip(dims, dists)]
        s2 = [d * f.delta * (1 - f.delta) for d, f in zip(dims, dists)]
        var = math.prod(m * m + s for m, s in zip(mu, s2)) - math.prod(m * m for m in mu)
        d, cols = math.prod(dims), maps * k
        se = math.sqrt(var / cols) / d
        return (nnz / (cols * d) - math.prod(f.delta for f in dists)) / se, se

    z_vs, se_vs = z_score(very_sparse_family(dims))
    z_sp, se_sp = z_score((SPARSE, SPARSE))
    _report(
        6,
        abs(z_vs) <= 3.0 and abs(z_sp) <= 3.0,
        f"nnz fraction z-scores over {maps} maps: very sparse {z_vs:+.2f} "
        f"(SE {se_vs:.2g}), sign(1/3) {z_sp:+.2f} (SE {se_sp:.2g}) "
        "(band: 3 exact standard errors)",
    )


def test_criterion_7_distance_ratios_tighten_with_k():
    cfg = ExperimentConfig(
        experiment="distance",
        map_kinds=("rp", "trp", "trp_t"),
        dist_kind="gaussian",
        dims=(50, 50),
        k_sweep=(5, 10, 25, 50, 100),
        T=5,
        n_points=20,
        replications=100,
        base_seed=0,
    )
    records = run_experiment(cfg)
    ok = True
    details = []
    for kind in cfg.map_kinds:
        widths = []
        for k in cfg.k_sweep:
            vals = [r.value for r in records if r.map_kind == kind and r.k == k]
            mean = float(np.mean(vals))
            widths.append(4.0 * float(np.std(vals, ddof=1)))
            if k >= 50 and not 0.9 <= mean <= 1.1:
                ok = False
        shrinking = all(b < a for a, b in zip(widths, widths[1:]))
        ok = ok and shrinking
        details.append(f"{kind} band {widths[0]:.3f}->{widths[-1]:.3f}")
    _report(
        7,
        ok,
        "avg ratio in [0.9, 1.1] at k >= 50 and 2-sigma band strictly "
        "shrinking for all maps (" + ", ".join(details) + ")",
    )


def _cosine_table(points, dims, k, seed):
    means = {}
    for i, kind in enumerate(("rp", "trp", "trp_t")):
        layout = (points.shape[1],) if kind == "rp" else dims
        maps = (build_map(kind, layout, k, GAUSS, 5, seed.child(i).child(r)) for r in range(100))
        means[kind] = float(cosine_similarity_rmse(points, maps).per_rep.mean())
    return means


def test_criterion_8_cosine_rmse_table():
    base = SeedSpec(0)
    pts = gen_synthetic(10_000, 100, base.child(0))
    means = _cosine_table(pts, (100, 100), 50, base.child(1))
    targets = {"rp": 0.1409, "trp": 0.1431, "trp_t": 0.1412}
    close = all(abs(means[kind] - t) <= 0.02 for kind, t in targets.items())
    ordered = means["rp"] <= means["trp_t"] <= means["trp"]
    detail = (
        f"synthetic d=1e4: rp={means['rp']:.4f} trp={means['trp']:.4f} "
        f"trp_t={means['trp_t']:.4f} (targets ±0.02, ordering rp <= trp_t <= trp)"
    )

    mnist_path = os.environ.get("TRP_MNIST")
    if mnist_path:
        images = load_mnist(mnist_path, 50)
        m = _cosine_table(images, (28, 28), 50, SeedSpec(1))
        img_targets = {"rp": 0.1198, "trp": 0.1540, "trp_t": 0.1262}
        img_ok = all(abs(m[kind] - t) <= 0.05 for kind, t in img_targets.items())
        detail += (
            f"; images: rp={m['rp']:.4f} trp={m['trp']:.4f} "
            f"trp_t={m['trp_t']:.4f} (targets ±0.05)"
        )
    else:
        img_ok = True
        detail += "; image check SKIPPED (set TRP_MNIST to an IDX file to run it)"

    _report(8, close and ordered and img_ok, detail)


def test_criterion_9_tail_exceedance_decays_with_k():
    e1 = np.zeros(64)
    e1[0] = 1.0
    trials = 10_000
    fracs = []
    for i, k in enumerate((5, 10, 20, 50, 100)):
        w = squared_norm_samples(
            (8, 8), k, GAUSS, e1, trials, SeedSpec(2000).child(i)
        )
        fracs.append(float(np.mean(np.abs(w - 1.0) >= 0.2)))
    inversions = []
    for a, b in zip(fracs, fracs[1:]):
        if b > a:
            sigma = math.sqrt((a * (1 - a) + b * (1 - b)) / trials)
            inversions.append(b - a <= 2 * sigma)
    ok = len(inversions) == 0 or (len(inversions) == 1 and inversions[0])
    _report(
        9,
        ok,
        f"P(| ||f(e1)||^2 - 1 | >= 0.2) over k in (5,10,20,50,100): "
        + " -> ".join(f"{f:.3f}" for f in fracs)
        + f", {len(inversions)} inversion(s)",
    )


def test_criterion_10_sketching_error_decays_and_averaging_helps():
    base = SeedSpec(0)
    ks = (5, 10, 15, 20, 25)
    errs = {kind: {k: [] for k in ks} for kind in ("rp", "trp", "trp_t")}
    for s in range(100):
        target = tucker_synthetic(900, 2, 5, base.child(0).child(s)).reshape(900, 900)
        for kind in ("rp", "trp", "trp_t"):
            dims = (900,) if kind == "rp" else (30, 30)
            for ki, k in enumerate(ks):
                seed = base.child(1).child(s).child(ki)
                if kind == "trp_t":
                    omega = build_map("trp_t", (30, 30), k, GAUSS, 5, seed)
                else:
                    omega = build_map(kind, dims, k, GAUSS, 1, seed.child(0))
                errs[kind][k].append(relative_error(target, low_rank_approx(target, omega)))
    ok = True
    details = []
    for kind in ("rp", "trp", "trp_t"):
        means = [float(np.mean(errs[kind][k])) for k in ks]
        ok = ok and all(b < a for a, b in zip(means, means[1:]))
        details.append(f"{kind} {means[0]:.3f}->{means[-1]:.3f}")
    averaging_helps = all(
        float(np.mean(errs["trp_t"][k])) <= float(np.mean(errs["trp"][k])) for k in ks
    )
    ok = ok and averaging_helps

    clean = tucker_synthetic(
        900, 2, 5, base.child(0).child(0), noise_fraction=0.0
    ).reshape(900, 900)
    omega = build_map("trp", (30, 30), 5, GAUSS, 1, SeedSpec(3000))
    exact = relative_error(clean, low_rank_approx(clean, omega))
    ok = ok and exact <= 1e-8
    _report(
        10,
        ok,
        "mean error strictly decreasing over k=5..25 for all maps ("
        + ", ".join(details)
        + f"), 5-replicate average <= single map at every k, "
        f"noiseless rank-5 recovery error {exact:.1e} (tolerance 1e-8)",
    )


def test_criterion_11_polarization_identity_all_map_kinds():
    rng = np.random.default_rng(4000)
    worst = 0.0
    kinds = ("rp", "trp", "trp_t")
    for t in range(100):
        proj = build_map(kinds[t % 3], (4, 3), 6, GAUSS, 3, SeedSpec(4001).child(t).child(0))
        x = rng.standard_normal(12)
        y = rng.standard_normal(12)
        scale = (np.linalg.norm(x) + np.linalg.norm(y)) ** 2
        worst = max(worst, polarization_check(proj, x, y) / scale)
    _report(
        11,
        worst <= 1e-10,
        f"100 (map, x, y) triples across rp/trp/trp_t, worst scaled defect "
        f"{worst:.3g} (tolerance 1e-10)",
    )


def test_criterion_12_cli_output_is_byte_identical(tmp_path):
    args = [
        "--experiment",
        "variance",
        "--d",
        "12",
        "--dims",
        "4x3",
        "--k",
        "2,5",
        "--reps",
        "40",
        "--seed",
        "9",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    _report(
        12,
        a.read_bytes() == b.read_bytes(),
        "two CLI runs with the same flags and seed wrote byte-identical CSV",
    )
