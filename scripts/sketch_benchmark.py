"""Low-rank sketching benchmark on random Tucker targets.

Builds noisy rank-r tensors, unfolds them to side x side^(order-1) matrices,
and compares the sketched approximation error of dense RP, a structured map,
and its T-replicate average over a sweep of sketch sizes.
"""

import argparse

import numpy as np

from tensorproj import (
    EntryDistribution,
    SeedSpec,
    averaged_low_rank_approx,
    build_ensemble,
    low_rank_approx,
    make_factory,
    relative_error,
    tucker_synthetic,
)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--side", type=int, default=30, help="tensor side length")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--rank", type=int, default=5, help="Tucker core rank")
    p.add_argument("--k", default="5,10,15,20,25")
    p.add_argument("--T", type=int, default=5)
    p.add_argument("--seeds", type=int, default=20, help="independent targets")
    p.add_argument("--noise", type=float, default=0.01,
                   help="noise energy as a fraction of signal energy")
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args()


def main():
    args = parse_args()
    ks = tuple(int(t) for t in args.k.split(","))
    if max(ks) > args.side:
        raise SystemExit(f"sketch size {max(ks)} exceeds the {args.side} rows")
    dims = (args.side,) * (args.order - 1)
    cols = args.side ** (args.order - 1)
    base = SeedSpec(args.seed)
    dist = EntryDistribution.gaussian()

    errs = {kind: {k: [] for k in ks} for kind in ("rp", "trp", "trp_t")}
    for s in range(args.seeds):
        tensor = tucker_synthetic(
            args.side, args.order, args.rank, base.child(0).child(s),
            noise_fraction=args.noise,
        )
        target = tensor.reshape(args.side, cols)
        for kind in ("rp", "trp", "trp_t"):
            layout = (cols,) if kind == "rp" else dims
            for ki, k in enumerate(ks):
                seed = base.child(1).child(s).child(ki)
                if kind == "trp_t":
                    ensemble = build_ensemble(dims, k, dist, args.T, seed)
                    approx = averaged_low_rank_approx(target, ensemble)
                else:
                    omega = make_factory(kind, layout, k, dist, 1, seed)(0)
                    approx = low_rank_approx(target, omega)
                errs[kind][k].append(relative_error(target, approx))

    print(f"{args.side}^{args.order} tensor, rank {args.rank}, "
          f"{args.noise:.0%} noise, {args.seeds} targets, unfolded to "
          f"{args.side} x {cols}")
    header = f"{'map':8s}" + "".join(f"  k={k:<10d}" for k in ks)
    print(header)
    for kind in ("rp", "trp", "trp_t"):
        cells = []
        for k in ks:
            vals = np.array(errs[kind][k])
            se = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
            cells.append(f"{vals.mean():.4f}±{se:.4f}")
        print(f"{kind:8s}  " + "  ".join(f"{c:12s}" for c in cells))


if __name__ == "__main__":
    main()
