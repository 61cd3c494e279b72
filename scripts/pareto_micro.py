#!/usr/bin/env python3
"""Exhaustive study of a micro search space.

Enumerates every discrete architecture of a small plan, computes exact
costs, optionally retrains each one briefly to score it, and reports the
cost/accuracy Pareto front.  Worker count for scoring follows --workers,
or the RCNAS_THREADS environment variable when unset.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from rcnas.cost import exact_cost
from rcnas.data import make_dataset
from rcnas.exhaustive import MicroSpace, pareto_front, resolve_workers, score_archs
from rcnas.network import NetworkPlan


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", type=Path, default=Path("runs/pareto"))
    p.add_argument("--score", action="store_true", help="retrain each arch briefly")
    p.add_argument("--score-epochs", type=int, default=4)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--ceiling", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args()


def main():
    args = parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    plan = NetworkPlan(
        n_cells=2, init_channels=4, n_classes=3, image_hw=(8, 8), n_nodes=4, k_levels=1
    )
    t0 = time.monotonic()
    space = MicroSpace(plan, ceiling=args.ceiling)
    costs = np.stack([exact_cost(a, plan) for a in space.archs])
    print(f"{len(space)} architectures; params [{costs[:,0].min():.0f}, {costs[:,0].max():.0f}], "
          f"flops [{costs[:,1].min():.0f}, {costs[:,1].max():.0f}]  [{time.monotonic()-t0:.0f}s]")

    records = [
        {"index": i, "params": float(c[0]), "flops": float(c[1]), "arch": a.to_json_dict()}
        for i, (a, c) in enumerate(zip(space.archs, costs))
    ]

    if args.score:
        train = make_dataset("blobs", n=192, hw=(8, 8), seed=args.seed)
        eval_ds = make_dataset("blobs", n=96, hw=(8, 8), seed=args.seed + 1)
        workers = resolve_workers(args.workers)
        print(f"scoring with {workers} worker(s)...")
        scores = score_archs(
            space.archs, plan, train, eval_ds,
            epochs=args.score_epochs, batch_size=32, seed=args.seed, workers=workers,
        )
        front = pareto_front(costs, scores)
        for i, rec in enumerate(records):
            rec["accuracy"] = float(scores[i])
            rec["pareto"] = i in set(front)
        print(f"Pareto front ({len(front)} of {len(space)}):")
        for i in front:
            print(f"  params {costs[i,0]:>7.0f} flops {costs[i,1]:>9.0f} acc {scores[i]:.3f}")

    (args.out / "space.json").write_text(json.dumps(records, indent=2) + "\n")
    print(f"wrote {args.out / 'space.json'}  [{time.monotonic()-t0:.0f}s total]")


if __name__ == "__main__":
    main()
