"""Exhaustive enumeration oracle: counts, round-trips."""

import numpy as np
import pytest

from rcnas import ops
from rcnas.cells import CellTemplate, DiscreteArch, derive_discrete
from rcnas.cost import CostScope, build_cost_table, exact_cost, expected_cost
from rcnas.exhaustive import (
    MicroSpace,
    SpaceTooLarge,
    count_archs,
    enumerate_archs,
    saturate_theta,
)

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
