"""Write the benchmark's fixed inputs to ``inputs/``.

The committed files are the inputs; this script records how they were
made and is not run by the benchmark. Everything comes from seeded draws,
never from a search, so a change to the engine cannot move what a
workload runs:

- ``retrain_arch.json``: the architecture derived from N(0, 1) logits.
- ``fixed.json``: the search box, and for ``costmodel`` the box, the
  projection settings and two anchor sets. Infeasible anchors are the
  first N(0, 1) draws that lie outside the box (draws inside it are
  skipped; nothing else is looked at).
  Feasible anchors add +4 to the zero op of every normal and reduce edge
  and to the cheapest connection op, which puts them inside the box.

    python3 perfbench/make_inputs.py
"""
from __future__ import annotations

import json

import numpy as np

from workloads import INPUTS, PLAN, cells, cost, ops, theta_to_json

SEED = 20191227
BOX = {"lower": [None, None], "upper": [5000.0, 250000.0]}
PROJECTION = {"lambda1": 2.0, "lambda2": 2.0, "gamma": 0.9, "max_iters": 500, "lr": 0.003}
N_INFEASIBLE = 12
N_FEASIBLE = 2
BIAS = 4.0


def main() -> None:
    table = cost.build_cost_table(PLAN)
    templates = PLAN.templates()
    keys = table.theta_keys()
    box = cost.ConstraintBox(np.zeros(2), np.array(BOX["upper"]))
    arch_rng, infeasible_rng, feasible_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(SEED).spawn(3)
    )

    def draw(rng):
        return {k: rng.normal(0.0, 1.0, templates[k[0]].n_ops) for k in keys}

    arch = cells.derive_discrete(draw(arch_rng), templates)
    (INPUTS / "retrain_arch.json").write_text(arch.to_canonical_json())

    infeasible = []
    while len(infeasible) < N_INFEASIBLE:
        theta = draw(infeasible_rng)
        if not box.feasible(cost.expected_cost(theta, table)):
            infeasible.append(theta)

    connect_ops = templates[cells.CONNECT_KIND].op_names
    cheapest = connect_ops.index(ops.GROUP_CONV_G4)
    feasible = []
    for _ in range(N_FEASIBLE):
        theta = draw(feasible_rng)
        for (kind, edge), vec in theta.items():
            vec[cheapest if kind == cells.CONNECT_KIND else templates[kind].zero_index] += BIAS
        if not box.feasible(cost.expected_cost(theta, table)):
            raise SystemExit("a biased anchor is outside the box")
        feasible.append(theta)

    fixed = {
        "search_box": BOX,
        "costmodel": {
            "box": BOX,
            "projection": PROJECTION,
            "infeasible_anchors": [theta_to_json(t) for t in infeasible],
            "feasible_anchors": [theta_to_json(t) for t in feasible],
        },
    }
    (INPUTS / "fixed.json").write_text(json.dumps(fixed, indent=1) + "\n")


if __name__ == "__main__":
    main()
