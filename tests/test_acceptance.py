"""End-to-end acceptance gate for the constrained-search package.

Eight criteria, each with a hard wall-clock budget.  Every test prints a
single ``[criterion N] label: PASS/FAIL (...)`` line on the real stdout,
bypassing pytest capture, so the gate summary is visible in any run.
"""

import csv
import functools
import json
import math
import sys
import time
from collections import Counter

import numpy as np

from rcnas import autodiff as ad
from rcnas.autodiff import Tape, primitive_names
from rcnas.cells import CellTemplate, derive_discrete
from rcnas.cli import main
from rcnas.cost import (
    ConstraintBox,
    CostScope,
    CostTable,
    EdgeCost,
    build_cost_table,
    exact_cost,
    expected_cost,
)
from rcnas.data import make_dataset
from rcnas.exhaustive import MicroSpace, enumerate_vertex_costs, saturate_theta
from rcnas.network import NetworkPlan, Supernet
from rcnas.projection import ProjectionConfig, project
from rcnas.search import SearchConfig, darts_reference_search, retrain_eval, run_search

from gradsuite import engine_cases, run_cost_suite, run_engine_suite


def _report(n: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {label}: {status} ({detail})", file=sys.__stdout__, flush=True)


def criterion(n: int, label: str, budget_s: float):
    """Wrap a test so it reports one pass/fail line and enforces its budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                detail = fn(*args, **kwargs)
                dt = time.monotonic() - t0
                if dt > budget_s:
                    raise AssertionError(f"wall time {dt:.0f}s exceeds budget {budget_s:.0f}s")
            except BaseException as exc:
                dt = time.monotonic() - t0
                _report(n, label, False, f"{type(exc).__name__} after {dt:.0f}s")
                raise
            _report(n, label, True, f"{detail}; {dt:.1f}s")

        return wrapper

    return deco


# --- 1: every engine primitive and the cost gradient vs central differences


@criterion(1, "gradient checks", budget_s=120)
def test_gradients_match_finite_differences():
    n_engine, engine_failures = run_engine_suite()
    n_cost, cost_failures = run_cost_suite()
    assert not engine_failures, "\n".join(engine_failures)
    assert not cost_failures, "\n".join(cost_failures)

    # every registered primitive gets at least ten seeded cases
    counts = Counter()
    for label, _, _ in engine_cases():
        prefix = label.split("[")[0]
        for prim in primitive_names():
            if prefix == prim or prefix.startswith(prim + "_") or prim.startswith(prefix):
                counts[prim] += 1
    thin = {p: c for p, c in counts.items() if c < 10}
    missing = set(primitive_names()) - set(counts)
    assert not missing, f"primitives with no gradient cases: {sorted(missing)}"
    assert not thin, f"primitives with fewer than 10 cases: {thin}"
    assert n_cost >= 10
    return f"{n_engine} engine cases + {n_cost} cost-gradient cases, 0 failures"


# --- 2: exhaustive micro space, saturated expected cost == exact cost


@criterion(2, "micro-space cost oracle", budget_s=300)
def test_saturated_cost_is_exact_over_micro_space():
    plan = NetworkPlan(
        n_cells=2, init_channels=4, n_classes=4, image_hw=(8, 8), n_nodes=4, k_levels=1
    )
    templates = plan.templates()
    space = MicroSpace(plan)
    assert len(space) <= 500
    table = build_cost_table(plan)

    worst = 0.0
    for arch in space.archs:
        theta = saturate_theta(arch, templates, magnitude=40.0)
        phi = expected_cost(theta, table, CostScope.TOP_K)
        exact = exact_cost(arch, plan)
        rel = np.abs(phi - exact) / np.maximum(np.abs(exact), 1.0)
        worst = max(worst, float(rel.max()))
        assert rel.max() <= 1e-9, f"{arch.choices}: phi {phi} vs exact {exact}"
        recovered = derive_discrete(theta, templates)
        assert recovered.to_canonical_json() == arch.to_canonical_json()
    return f"{len(space)} architectures, max rel err {worst:.2e}, derive round-trips"


# --- 3: projection reaches a mid-span cost box from random starts


def _five_edge_table() -> tuple[CostTable, CellTemplate]:
    names = ("zero", "cheap", "dear")
    tpl = CellTemplate(n_inputs=2, n_intermediate=2, op_names=names, concat_output=True)
    entries = []
    for edge in tpl.edges():
        u = np.array([[0.0, 90.0, 100.0], [0.0, 900.0, 1000.0]])
        entries.append(EdgeCost("cell0", "kind0", edge, edge[1], u))
    return CostTable(entries=entries, fixed=np.zeros(2), templates={"kind0": tpl}), tpl


@criterion(3, "projection feasibility", budget_s=300)
def test_projection_reaches_box_from_random_starts():
    table, tpl = _five_edge_table()
    vertices = enumerate_vertex_costs(table)
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    box = ConstraintBox(lower=lo + 0.6 * (hi - lo), upper=lo + 0.8 * (hi - lo))

    cfg = ProjectionConfig(lambda1=1.0, lambda2=1.0, max_iters=500, lr=3e-4)
    rng = np.random.default_rng(np.random.SeedSequence(777))
    feasible = moved = 0
    max_iters_seen = 0
    for _ in range(100):
        theta = {
            ("kind0", e): np.array([0.0, 0.0, -0.4]) + 0.1 * rng.standard_normal(3)
            for e in tpl.edges()
        }
        res = project(theta, box, table, scope=CostScope.FULL_DAG, cfg=cfg)
        feasible += res.feasible
        moved += res.iterations > 0
        max_iters_seen = max(max_iters_seen, res.iterations)
    assert feasible >= 95, f"only {feasible}/100 anchors reached the box"
    # the start distribution must actually exercise the descent
    assert moved >= 50, f"only {moved}/100 starts were infeasible"

    # anchors already inside the box come back bit-identical in zero iterations
    unchanged = 0
    while unchanged < 10:
        theta = {
            ("kind0", e): 0.05 * rng.standard_normal(3) for e in tpl.edges()
        }
        phi = expected_cost(theta, table, CostScope.FULL_DAG)
        if not box.feasible(phi):
            continue
        res = project(theta, box, table, scope=CostScope.FULL_DAG, cfg=cfg)
        assert res.iterations == 0
        assert all(np.array_equal(res.theta_p[k], theta[k]) for k in theta)
        unchanged += 1
    return (
        f"{feasible}/100 feasible (max {max_iters_seen} of 500 iters), "
        f"{moved} required movement, 10/10 feasible anchors unchanged"
    )


# --- 4: with constraints disabled the search is the plain bilevel loop


@criterion(4, "unconstrained degeneration", budget_s=600)
def test_disabled_constraints_match_reference_loop():
    plan = NetworkPlan(
        n_cells=2, init_channels=4, n_classes=3, image_hw=(8, 8), n_nodes=4, k_levels=1
    )
    ds = make_dataset("blobs", n=128, hw=(8, 8), seed=5)
    cfg = SearchConfig(epochs=38, batch_size=8, e_u=50, warm_start_multiplier=2, seed=9)

    ref = darts_reference_search(plan, ds, cfg)
    assert len(ref.digests) >= 300

    free_box = ConstraintBox(lower=np.zeros(2), upper=np.full(2, np.inf))
    res_free = run_search(plan, ds, free_box, cfg)
    assert res_free.digests == ref.digests
    assert res_free.arch.to_canonical_json() == ref.arch.to_canonical_json()

    tight_box = ConstraintBox(lower=np.zeros(2), upper=0.5 * res_free.phi)
    zero_lam = ProjectionConfig(lambda1=0.0, lambda2=0.0)
    res_zero = run_search(plan, ds, tight_box, cfg, zero_lam)
    assert res_zero.digests == ref.digests
    assert res_zero.arch.to_canonical_json() == ref.arch.to_canonical_json()
    return (
        f"{len(ref.digests)} steps, logits trajectory bit-identical for "
        f"infinite box and for zero penalty weights"
    )


# --- 5: single-edge box binds the costly op at the closed-form weight


@criterion(5, "single-edge weight bound", budget_s=60)
def test_single_edge_projection_matches_closed_form():
    tpl = CellTemplate(
        n_inputs=1, n_intermediate=1, op_names=("cheap", "dear"), concat_output=False
    )
    table = CostTable(
        entries=[EdgeCost("cell0", "kind0", (0, 1), 1, np.array([[0.0, 100.0], [0.0, 0.0]]))],
        fixed=np.zeros(2),
        templates={"kind0": tpl},
    )
    box = ConstraintBox(lower=np.zeros(2), upper=np.array([25.0, np.inf]))
    cfg = ProjectionConfig(lambda1=0.0, lambda2=1.0, max_iters=2000, lr=1e-3)

    theta = {("kind0", (0, 1)): np.zeros(2)}
    res = project(theta, box, table, scope=CostScope.FULL_DAG, cfg=cfg)
    assert res.feasible

    vec = res.theta_p[("kind0", (0, 1))]
    w_dear = float(np.exp(vec[1] - vec.max()) / np.exp(vec - vec.max()).sum())
    gap = float(vec[0] - vec[1])
    # weight 25/100 on the costly op means a cheap-over-dear logit gap of ln 3
    assert w_dear <= 0.25 + 1e-3
    assert abs(w_dear - 0.25) <= 1e-3
    assert abs(gap - math.log(3.0)) <= 0.01
    return f"w_dear={w_dear:.4f} (bound 0.25), logit gap {gap:.4f} vs ln3={math.log(3.0):.4f}"


# --- 6: constrained search trades cost for little accuracy on real data


@criterion(6, "constrained end-to-end search", budget_s=2700)
def test_constrained_search_cuts_flops_and_keeps_accuracy():
    plan = NetworkPlan(
        n_cells=4, init_channels=4, n_classes=4, image_hw=(16, 16), n_nodes=5, k_levels=3
    )
    ds = make_dataset("shapes", n=512, hw=(16, 16), seed=11)
    eval_ds = make_dataset("shapes", n=256, hw=(16, 16), seed=12)
    cfg = SearchConfig(
        epochs=8, batch_size=16, e_u=8, warm_start_multiplier=2, seed=3, theta_lr=3e-3
    )

    free_box = ConstraintBox(lower=np.zeros(2), upper=np.full(2, np.inf))
    res_u = run_search(plan, ds, free_box, cfg)
    exact_u = exact_cost(res_u.arch, plan)

    box = ConstraintBox(lower=np.zeros(2), upper=0.6 * res_u.phi)
    proj = ProjectionConfig(lambda1=2.0, lambda2=2.0, gamma=0.9, max_iters=500, lr=3e-4)
    res_c = run_search(plan, ds, box, cfg, proj)
    exact_c = exact_cost(res_c.arch, plan)

    assert res_c.feasible, f"final mixture cost {res_c.phi} outside {box}"
    ratio = float(exact_c[1] / exact_u[1])
    assert ratio <= 0.7, f"constrained flops {exact_c[1]} vs unconstrained {exact_u[1]}"

    def mean_acc(arch):
        return float(
            np.mean(
                [
                    retrain_eval(
                        arch, plan, ds, eval_ds, epochs=36, batch_size=64, seed=s, lr=0.1
                    ).accuracy
                    for s in range(3)
                ]
            )
        )

    acc_u = mean_acc(res_u.arch)
    acc_c = mean_acc(res_c.arch)
    assert acc_u - acc_c <= 0.05, f"accuracy gap {acc_u - acc_c:.3f} exceeds 5pp"
    return (
        f"flops {exact_c[1]:.0f} vs {exact_u[1]:.0f} (ratio {ratio:.3f} <= 0.7), "
        f"retrained accuracy {acc_c:.3f} vs {acc_u:.3f} over 3 seeds"
    )


# --- 7: level groups share logits inside, decouple outside


@criterion(7, "group decoupling", budget_s=60)
def test_level_groups_are_decoupled():
    plan = NetworkPlan(
        n_cells=8, init_channels=4, n_classes=3, image_hw=(8, 8), n_nodes=4, k_levels=3
    )
    kinds = plan.cell_kind_list()
    assert kinds == [
        "normal.0", "normal.0", "reduce", "normal.1", "normal.1", "reduce", "normal.2", "normal.2",
    ]
    net = Supernet(plan, seed=21)
    templates = plan.templates()
    rng = np.random.default_rng(np.random.SeedSequence(22))
    x = rng.uniform(0, 1, size=(4, 3, 8, 8))

    def mixture_weights():
        out = {}
        for info in net.layout.cells:
            for edge in templates[info.kind].edges():
                v = net.arch.vector(info.kind, edge).data
                e = np.exp(v - v.max())
                out[(info.index, edge)] = e / e.sum()
        return out

    logits_before = net.forward(x).data.copy()
    before = mixture_weights()
    for edge in templates["normal.0"].edges():
        net.arch.vector("normal.0", edge).data += 0.37 * rng.standard_normal(
            templates["normal.0"].n_ops
        )
    after = mixture_weights()
    level0_cells = [i for i, k in enumerate(kinds) if k == "normal.0"]
    for (cell, edge), w in after.items():
        if cell in level0_cells:
            assert not np.array_equal(w, before[(cell, edge)])
        else:
            assert np.array_equal(w, before[(cell, edge)])
    # features still flow through the perturbed cells into the head
    assert not np.array_equal(net.forward(x).data, logits_before)

    # a loss tapped at the last level-0 cell reaches no other level's logits
    net2 = Supernet(plan, seed=21)
    with Tape() as tape:
        tapped = net2.forward(x, tap=1)
        tape.backward(ad.tensor_sum(tapped))
    touched, untouched = [], []
    for kind, edge, vec in net2.arch.items():
        g = vec.grad
        if kind == "normal.0":
            touched.append(g is not None and np.any(g != 0))
        elif kind != "connect":
            untouched.append(g is None or not np.any(g != 0))
    assert all(touched) and touched
    assert all(untouched) and untouched

    # sanity: the full loss does reach every level's logits
    with Tape() as tape:
        loss, _ = net2.loss(x, rng.integers(0, 3, size=4))
        tape.backward(loss)
    for kind in ("normal.1", "normal.2"):
        grads = [v.grad for k, _, v in net2.arch.items() if k == kind]
        assert any(g is not None and np.any(g != 0) for g in grads)
    return (
        "level-1/2 mixture weights byte-identical under level-0 perturbation; "
        "tapped loss grads are exactly zero outside level 0"
    )


# --- 8: rerunning any search from its manifest reproduces the artifacts


@criterion(8, "manifest reproducibility", budget_s=600)
def test_manifest_rerun_is_byte_identical(tmp_path):
    config = {
        "data": {"name": "blobs", "n": 96, "n_eval": 0, "image_hw": [8, 8], "seed": 4},
        "plan": {"n_cells": 2, "init_channels": 4, "n_nodes": 4, "k_levels": 1},
        "constraints": {"lower": [None, None], "upper": [2500.0, 250000.0]},
        "projection": {"lambda1": 1.0, "lambda2": 1.0, "max_iters": 200, "lr": 3e-3},
        "search": {
            "epochs": 3,
            "batch_size": 8,
            "e_u": 6,
            "warm_start_multiplier": 2,
            "seed": 13,
        },
        "scope": "topk",
    }
    fixed_names = [
        "manifest.json",
        "arch.json",
        "search_log.csv",
        "projection_trace.csv",
        "cost_report.csv",
        "arch.dot",
    ]
    # the box above never binds; under the second its projection descends
    iterations = []
    for name, upper in (("loose", config["constraints"]["upper"]), ("binding", [600.0, 36000.0])):
        config["constraints"]["upper"] = upper
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert main(["search", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["search", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        for fname in fixed_names:
            b1 = (out1 / fname).read_bytes()
            b2 = (out2 / fname).read_bytes()
            assert b1 == b2, f"{fname} differs between the {name} run and its manifest rerun"
        with open(out1 / "projection_trace.csv", newline="") as f:
            iterations.append([int(row["iterations"]) for row in csv.DictReader(f)])
    assert max(iterations[1]) > 0, f"the binding box never made the projection descend: {iterations[1]}"
    return (
        f"{len(fixed_names)} primary artifacts byte-identical after manifest rerun, "
        f"for a loose box and a binding one (projection iterations {iterations[0]}, {iterations[1]})"
    )
