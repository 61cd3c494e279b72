"""Exhaustive enumeration oracle: counts, round-trips, scoring."""

import numpy as np
import pytest

from rcnas import ops
from rcnas.cells import CellTemplate, DiscreteArch, derive_discrete
from rcnas.cost import CostScope, build_cost_table, exact_cost, expected_cost
from rcnas.data import make_blobs
from rcnas.exhaustive import (
    MicroSpace,
    SpaceTooLarge,
    count_archs,
    enumerate_archs,
    resolve_workers,
    saturate_theta,
    score_archs,
)
from rcnas.network import NetworkPlan

THREE_OPS = (ops.ZERO, ops.IDENTITY, ops.MAX_POOL_3)


def _tpl(n_intermediate=1):
    return CellTemplate(n_inputs=2, n_intermediate=n_intermediate, op_names=THREE_OPS)


def test_count_single_node_space_by_hand():
    # node 2: keep both predecessors, 2 non-zero ops each: C(2,2) * 2^2 = 4
    templates = {"cell": _tpl(1)}
    assert count_archs(templates) == 4
    archs = enumerate_archs(templates)
    assert len(archs) == 4
    for a in archs:
        a.validate(templates)
    assert len({a.arch_hash() for a in archs}) == 4


def test_count_two_node_space_by_hand():
    # node 3 adds C(3,2) * 2^2 = 12 selections on top of node 2's 4
    templates = {"cell": _tpl(2)}
    assert count_archs(templates) == 48
    assert len(enumerate_archs(templates)) == 48


def test_count_multiplies_across_kinds():
    templates = {"a": _tpl(1), "b": _tpl(2)}
    assert count_archs(templates) == 4 * 12 * 4


def test_ceiling_raises_space_too_large():
    templates = {"cell": _tpl(2)}
    with pytest.raises(SpaceTooLarge):
        enumerate_archs(templates, ceiling=10)
    # boundary: exactly at the ceiling enumerates fine
    assert len(enumerate_archs(templates, ceiling=48)) == 48


def test_micro_space_matches_plan_templates(micro_plan):
    space = MicroSpace(micro_plan)
    assert len(space) == count_archs(micro_plan.templates())
    assert len(space) == 196
    hashes = {a.arch_hash() for a in space.archs}
    assert len(hashes) == 196


def test_saturate_round_trips_every_arch():
    templates = {"cell": _tpl(2)}
    for arch in enumerate_archs(templates):
        theta = saturate_theta(arch, templates)
        back = derive_discrete(theta, templates)
        assert back.choices == arch.choices


def test_saturate_requires_zero_op_for_dropped_edges():
    no_zero = CellTemplate(n_inputs=2, n_intermediate=2, op_names=(ops.IDENTITY, ops.MAX_POOL_3))
    arch = DiscreteArch(
        {
            "cell": {
                2: ((0, ops.IDENTITY), (1, ops.IDENTITY)),
                3: ((0, ops.IDENTITY), (1, ops.IDENTITY)),  # drops (2, 3)
            }
        }
    )
    with pytest.raises(ValueError):
        saturate_theta(arch, {"cell": no_zero})


def test_saturated_cost_matches_exact_everywhere(micro_plan):
    table = build_cost_table(micro_plan)
    templates = micro_plan.templates()
    for arch in MicroSpace(micro_plan).archs:
        theta = saturate_theta(arch, templates)
        phi = expected_cost(theta, table, CostScope.TOP_K)
        exact = exact_cost(arch, micro_plan)
        np.testing.assert_allclose(phi, exact, rtol=1e-9)


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.setenv("RCNAS_THREADS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(8) == 2
    assert resolve_workers(1) == 1
    for bad in ("0", "-2", "abc", "1e3", "2.5"):
        monkeypatch.setenv("RCNAS_THREADS", bad)
        with pytest.raises(ValueError, match=f"RCNAS_THREADS must be a positive integer, got '{bad}'"):
            resolve_workers(4)
    monkeypatch.delenv("RCNAS_THREADS")
    assert resolve_workers(1) == 1
    assert resolve_workers(10**6) == (__import__("os").cpu_count() or 1)


def test_score_archs_serial_cached_and_ordered(micro_plan):
    plan = NetworkPlan(
        n_cells=2, init_channels=4, n_classes=3, image_hw=(8, 8), n_nodes=4, k_levels=1
    )
    space = MicroSpace(plan)
    archs = [space.archs[0], space.archs[1], space.archs[0]]  # duplicate on purpose
    train = make_blobs(32, (8, 8), seed=1)
    eval_ds = make_blobs(16, (8, 8), seed=2)
    scores = score_archs(archs, plan, train, eval_ds, epochs=1, batch_size=16, workers=1)
    assert scores.shape == (3,)
    assert scores[0] == scores[2]  # a duplicate arch scores the same


def test_score_archs_parallel_matches_serial(micro_plan):
    plan = NetworkPlan(
        n_cells=2, init_channels=4, n_classes=3, image_hw=(8, 8), n_nodes=4, k_levels=1
    )
    space = MicroSpace(plan)
    archs = space.archs[:3]
    train = make_blobs(32, (8, 8), seed=1)
    eval_ds = make_blobs(16, (8, 8), seed=2)
    serial = score_archs(archs, plan, train, eval_ds, epochs=1, batch_size=16, workers=1)
    parallel = score_archs(archs, plan, train, eval_ds, epochs=1, batch_size=16, workers=2)
    np.testing.assert_array_equal(serial, parallel)
