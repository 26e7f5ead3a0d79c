"""Compare the exact squared-norm variance and its closed form with simulation.

tensorproj.stats.exact_variance gives the exact Var ||f(x)||^2, and the
relative difference printed is the simulation's distance from it, which
shrinks with --trials.  The paper's closed form is printed too: it is exact
for one factor matrix and for inputs on a single coordinate axis; for
several factors and a dense input it underestimates when every fourth
moment is at least 3 (Gaussian, or --delta <= 1/3).  See the module
docstring of tensorproj.stats.  Examples:

    python3 scripts/variance_check.py --dims 4x2 --k 10 --x dense
    python3 scripts/variance_check.py --dims 50x50 --k 10 --T 5 --x e1
"""

import argparse
import math

import numpy as np

from tensorproj import (
    EntryDistribution,
    SeedSpec,
    exact_variance,
    isometry_stats,
    theoretical_variance,
)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--dims", default="4x2")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--dist", default="gaussian", choices=("gaussian", "sparse"))
    p.add_argument("--delta", type=float, default=1 / 3,
                   help="nonzero probability for --dist sparse")
    p.add_argument("--x", default="e1", choices=("e1", "dense"))
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args()


def main():
    args = parse_args()
    dims = tuple(int(t) for t in args.dims.split("x"))
    d = math.prod(dims)
    if args.dist == "gaussian":
        dist = EntryDistribution.gaussian()
    else:
        dist = EntryDistribution.sparse_sign(args.delta)
    seed = SeedSpec(args.seed)
    if args.x == "e1":
        x = np.zeros(d)
        x[0] = 1.0
    else:
        x = seed.child(0).generator().standard_normal(d)
        x /= np.linalg.norm(x)

    st = isometry_stats(dims, args.k, dist, x, args.trials, seed.child(1), T=args.T)
    moments = [dist.fourth_moment()] * len(dims)
    exact = exact_variance(x, dims, moments, args.k, T=args.T)
    closed = theoretical_variance(x, moments, args.k, T=args.T)
    rel = abs(st.var_sq_norm - exact) / exact
    print(f"dims={dims} k={args.k} T={args.T} {args.dist} x={args.x} "
          f"trials={args.trials}")
    print(f"mean ||f(x)||^2 / ||x||^2 = {st.mean_sq_norm_ratio:.5f} "
          f"(std error {st.std_error_mean:.2g})")
    print(f"empirical variance  {st.var_sq_norm:.6f}")
    print(f"exact variance      {exact:.6f}")
    print(f"relative difference {rel:.2%}")
    print(f"closed-form value   {closed:.6f}")


if __name__ == "__main__":
    main()
