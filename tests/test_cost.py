"""Differentiable cost model: expected cost, closed-form gradient, exact costs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcnas import ops
from rcnas.cells import ArchParams, CellTemplate, DiscreteArch, derive_discrete
from rcnas.cost import (
    METRICS,
    ConstraintBox,
    CostScope,
    CostTable,
    EdgeCost,
    build_cost_table,
    cost_gradient,
    cost_report_rows,
    exact_cost,
    expected_cost,
    phi_range,
    scope_edges,
    violation,
)
from rcnas.exhaustive import enumerate_vertex_costs, saturate_theta
from rcnas.network import NetworkPlan, Supernet

SMALL_OPS = (ops.ZERO, ops.IDENTITY, ops.MAX_POOL_3)


def _micro_plan(**kw):
    base = dict(
        n_cells=2, init_channels=4, n_classes=4, image_hw=(8, 8), n_nodes=4, k_levels=1
    )
    base.update(kw)
    return NetworkPlan(**base)


def _single_edge_table(u_params, u_flops=None, copies=1):
    tpl = CellTemplate(n_inputs=2, n_intermediate=1, op_names=SMALL_OPS)
    u = np.array([u_params, u_flops if u_flops is not None else [0.0] * len(u_params)])
    entries = [
        EdgeCost(owner=f"cell{i}", kind="cell", edge=(0, 2), node=2, u=u.copy())
        for i in range(copies)
    ]
    # edge (1, 2) exists in the template but carries no cost here
    zero_u = np.zeros_like(u)
    for i in range(copies):
        entries.append(EdgeCost(owner=f"cell{i}", kind="cell", edge=(1, 2), node=2, u=zero_u.copy()))
    return CostTable(entries=entries, fixed=np.array([10.0, 20.0]), templates={"cell": tpl})


def _uniform_theta(table):
    return {
        key: np.zeros(len(table.templates[key[0]].op_names))
        for key in table.theta_keys()
    }


def test_expected_cost_hand_value():
    table = _single_edge_table([0.0, 0.0, 9216.0])
    phi = expected_cost(_uniform_theta(table), table, CostScope.FULL_DAG)
    np.testing.assert_allclose(phi, [10.0 + 3072.0, 20.0], rtol=1e-12)


def test_cost_gradient_hand_value():
    table = _single_edge_table([0.0, 0.0, 9216.0])
    g = cost_gradient(_uniform_theta(table), table, CostScope.FULL_DAG)
    np.testing.assert_allclose(
        g[("cell", (0, 2))][0], [-1024.0, -1024.0, 2048.0], rtol=1e-12
    )
    np.testing.assert_allclose(g[("cell", (0, 2))][1], 0.0, atol=0)
    np.testing.assert_allclose(g[("cell", (1, 2))], 0.0, atol=0)


def test_shared_logits_accumulate():
    one = _single_edge_table([0.0, 0.0, 9216.0], copies=1)
    two = _single_edge_table([0.0, 0.0, 9216.0], copies=2)
    theta = _uniform_theta(one)
    phi1 = expected_cost(theta, one, CostScope.FULL_DAG)
    phi2 = expected_cost(theta, two, CostScope.FULL_DAG)
    np.testing.assert_allclose(phi2 - two.fixed, 2 * (phi1 - one.fixed), rtol=1e-12)
    g1 = cost_gradient(theta, one, CostScope.FULL_DAG)[("cell", (0, 2))]
    g2 = cost_gradient(theta, two, CostScope.FULL_DAG)[("cell", (0, 2))]
    np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12)


def test_cost_gradient_matches_finite_differences():
    plan = _micro_plan()
    table = build_cost_table(plan)
    rng = np.random.default_rng(np.random.SeedSequence(5))
    theta = {key: rng.standard_normal(len(table.templates[key[0]].op_names)) for key in table.theta_keys()}
    for scope in (CostScope.FULL_DAG, CostScope.TOP_K):
        frozen = scope_edges(theta, table.templates) if scope is CostScope.TOP_K else None
        grads = cost_gradient(theta, table, scope, frozen_scope=frozen)
        h = 1e-5
        for key in table.theta_keys():
            vec = theta[key]
            for i in range(len(vec)):
                for m in range(2):
                    orig = vec[i]
                    vec[i] = orig + h
                    up = expected_cost(theta, table, scope, frozen_scope=frozen)[m]
                    vec[i] = orig - h
                    dn = expected_cost(theta, table, scope, frozen_scope=frozen)[m]
                    vec[i] = orig
                    fd = (up - dn) / (2 * h)
                    an = grads[key][m, i]
                    denom = max(abs(an), abs(fd), 1.0)
                    assert abs(an - fd) / denom < 1e-6, (key, m, i)


def test_saturated_expected_equals_exact():
    plan = _micro_plan()
    table = build_cost_table(plan)
    net = Supernet(plan, seed=3)
    # the logits that Supernet(plan, 3) draws, at scale 1 rather than 1e-3
    theta_rng = np.random.default_rng(np.random.SeedSequence(3).spawn(2)[1])
    net.arch.load(ArchParams(plan.templates(), theta_rng, init_scale=1.0).numpy())
    arch = derive_discrete(net.arch.numpy(), plan.templates())
    theta = saturate_theta(arch, plan.templates())
    phi = expected_cost(theta, table, CostScope.TOP_K)
    np.testing.assert_allclose(phi, exact_cost(arch, plan), rtol=1e-9)


def test_all_identity_arch_costs_only_fixed_plus_links():
    plan = _micro_plan()
    table = build_cost_table(plan)
    arch = DiscreteArch(
        {
            "normal.0": {2: ((0, ops.IDENTITY), (1, ops.IDENTITY))},
            "connect": {1: ((0, ops.GROUP_CONV_G1),)},
        }
    )
    exact = exact_cost(arch, plan)
    # 4 links (2 cells x 2 inputs), each a 1x1 conv c4->c4 plus bn: 16 + 8 params
    assert exact[0] == table.fixed[0] + 4 * 24
    # each link conv: 1*1*4*4*8*8 = 1024 flops; identity edges and bn add none
    assert exact[1] == table.fixed[1] + 4 * 1024


def test_fixed_term_is_stem_plan_plus_classifier():
    plan = NetworkPlan(n_cells=4, init_channels=4, n_classes=4, image_hw=(16, 16), n_nodes=5, k_levels=3)
    table = build_cost_table(plan)
    # stem: 3x3 conv 3 -> 4 and BN (116 params, 27648 FLOPs at 16x16);
    # classifier: 32 features -> 4 classes with bias (132 params, 128 FLOPs)
    assert ops.counts(ops.STEM, plan.layout().stem_context) == (116, 27648)
    assert table.fixed.tolist() == [248, 27776]


def test_violation_trivials():
    box = ConstraintBox(np.array([10.0, 0.0]), np.array([20.0, 5.0]))
    lo, hi = violation(np.array([15.0, 2.0]), box)
    assert not lo.any() and not hi.any()
    lo, hi = violation(np.array([25.0, 2.0]), box)
    np.testing.assert_allclose(hi, [5.0, 0.0])
    assert not lo.any()
    lo, hi = violation(np.array([7.0, 2.0]), box)
    np.testing.assert_allclose(lo, [3.0, 0.0])
    # boundary counts as inside
    lo, hi = violation(np.array([20.0, 0.0]), box)
    assert not lo.any() and not hi.any()


def test_feasible_uses_relative_slack():
    box = ConstraintBox(np.array([0.0, 0.0]), np.array([100.0, 100.0]))
    assert box.feasible(np.array([100.0 + 1e-7, 50.0]))
    assert not box.feasible(np.array([100.0 + 1e-3, 50.0]))
    assert ConstraintBox.unbounded().feasible(np.array([1e18, 1e18]))


def _numpy_feasible(box, phi, tol):
    """The box test as numpy runs it on the bound arrays: the reference."""
    phi = np.asarray(phi, dtype=np.float64)
    lo_ok = phi >= box.lower - tol * np.abs(box.lower)
    with np.errstate(invalid="ignore"):  # 0 * inf, discarded by the where
        slack = np.where(np.isfinite(box.upper), tol * np.abs(box.upper), 0.0)
    hi_ok = phi <= box.upper + slack
    return bool(np.all(lo_ok) and np.all(hi_ok))


def _numpy_violation(phi, box):
    """The hinge distances as numpy computes them on the bound arrays: the reference."""
    phi = np.asarray(phi, dtype=np.float64)
    lower_v = np.maximum(box.lower - phi, 0.0)
    with np.errstate(invalid="ignore"):
        upper_v = np.maximum(phi - box.upper, 0.0)
    upper_v = np.where(np.isfinite(box.upper), upper_v, 0.0)
    return lower_v, upper_v


def _box_cases(rng, tol):
    """Seeded (box, phi) pairs. Lower bounds are zero or positive, upper
    ones finite, equal to the lower one or infinite. Each metric takes NaN,
    the infinities, a negative value, a random one, and each finite bound
    and its slack edge exactly and one ulp either side."""
    for _ in range(40):
        lo = np.where(rng.random(2) < 0.3, 0.0, rng.uniform(0.0, 1e4, 2))
        hi = lo + np.where(rng.random(2) < 0.2, 0.0, rng.uniform(0.0, 1e4, 2))
        hi = np.where(rng.random(2) < 0.3, np.inf, hi)
        box = ConstraintBox(lo, hi)
        values = []
        for m in range(2):
            vals = [np.nan, np.inf, -np.inf, -1.0, rng.uniform(0.0, 3e4)]
            edges = [lo[m], lo[m] - tol * abs(lo[m])]
            if np.isfinite(hi[m]):
                edges += [hi[m], hi[m] + tol * abs(hi[m])]
            for e in edges:
                vals += [e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
            values.append(vals)
        for a in values[0]:
            for b in values[1]:
                yield box, np.array([a, b])


@pytest.mark.parametrize("tol", [0.0, 1e-6])
def test_scalar_box_matches_the_numpy_formula_bit_for_bit(tol):
    rng = np.random.default_rng(np.random.SeedSequence(53))
    n = 0
    for box, phi in _box_cases(rng, tol):
        assert box.feasible(phi, tol) is _numpy_feasible(box, phi, tol), (box, phi)
        lower_v, upper_v = violation(phi, box)
        ref_lower, ref_upper = _numpy_violation(phi, box)
        assert lower_v.dtype == upper_v.dtype == np.float64
        assert lower_v.tobytes() == ref_lower.tobytes(), (box, phi)
        assert upper_v.tobytes() == ref_upper.tobytes(), (box, phi)
        n += 1
    assert n > 4000


@pytest.mark.parametrize("n", [1, 3])
def test_box_refuses_a_cost_vector_of_the_wrong_length(n):
    # numpy would broadcast a length-1 vector against the bounds
    box = ConstraintBox(np.zeros(2), np.array([10.0, np.inf]))
    with pytest.raises(ValueError, match="shape"):
        box.feasible(np.ones(n))
    with pytest.raises(ValueError, match="shape"):
        violation(np.ones(n), box)


def test_box_validation():
    with pytest.raises(ValueError):
        ConstraintBox(np.array([5.0, 0.0]), np.array([1.0, 10.0]))
    with pytest.raises(ValueError):
        ConstraintBox(np.array([-1.0, 0.0]), np.array([1.0, 10.0]))
    with pytest.raises(ValueError):
        ConstraintBox(np.zeros(3), np.ones(3))
    # a box no cost can ever meet is refused, not searched
    with pytest.raises(ValueError, match="NaN"):
        ConstraintBox(np.zeros(2), np.array([np.nan, 10.0]))
    with pytest.raises(ValueError, match="NaN"):
        ConstraintBox(np.array([0.0, np.nan]), np.array([1.0, 10.0]))
    with pytest.raises(ValueError, match="finite"):
        ConstraintBox(np.array([np.inf, 0.0]), np.full(2, np.inf))


def test_phi_range_matches_vertex_enumeration():
    table = build_cost_table(_micro_plan())
    lo, hi = phi_range(table)
    costs = enumerate_vertex_costs(table)
    np.testing.assert_allclose(lo, costs.min(axis=0), rtol=1e-12)
    np.testing.assert_allclose(hi, costs.max(axis=0), rtol=1e-12)


def test_topk_never_exceeds_fulldag():
    plan = NetworkPlan(
        n_cells=3, init_channels=4, n_classes=4, image_hw=(8, 8), n_nodes=5, k_levels=1
    )
    table = build_cost_table(plan)
    rng = np.random.default_rng(np.random.SeedSequence(9))
    for _ in range(20):
        theta = {
            key: rng.standard_normal(len(table.templates[key[0]].op_names))
            for key in table.theta_keys()
        }
        full = expected_cost(theta, table, CostScope.FULL_DAG)
        top = expected_cost(theta, table, CostScope.TOP_K)
        assert np.all(top <= full + 1e-9)


def test_topk_equals_fulldag_when_no_edge_dropped():
    # N=4 keeps both of node 2's predecessors, so the scopes coincide
    table = build_cost_table(_micro_plan())
    rng = np.random.default_rng(np.random.SeedSequence(10))
    theta = {
        key: rng.standard_normal(len(table.templates[key[0]].op_names))
        for key in table.theta_keys()
    }
    np.testing.assert_allclose(
        expected_cost(theta, table, CostScope.TOP_K),
        expected_cost(theta, table, CostScope.FULL_DAG),
        rtol=1e-12,
    )


def test_frozen_scope_overrides_live_selection():
    plan = NetworkPlan(
        n_cells=3, init_channels=4, n_classes=4, image_hw=(8, 8), n_nodes=5, k_levels=1
    )
    table = build_cost_table(plan)
    kind = "normal.0"
    theta0 = {key: np.zeros(len(table.templates[key[0]].op_names)) for key in table.theta_keys()}
    # ties keep preds (0, 1) for node 3
    frozen = scope_edges(theta0, table.templates)
    edge_23 = table.theta_keys().index((kind, (2, 3)))
    assert not frozen[edge_23]

    theta1 = {k: v.copy() for k, v in theta0.items()}
    idx = table.templates[kind].op_names.index(ops.SEP_CONV_5)
    theta1[(kind, (2, 3))][idx] = 6.0  # edge (2,3) now strongest, and expensive
    live = scope_edges(theta1, table.templates)
    assert live[edge_23]
    phi_live = expected_cost(theta1, table, CostScope.TOP_K)
    phi_frozen = expected_cost(theta1, table, CostScope.TOP_K, frozen_scope=frozen)
    assert phi_frozen[0] < phi_live[0]


def test_scope_parse():
    assert CostScope("topk") is CostScope.TOP_K
    assert CostScope("fulldag") is CostScope.FULL_DAG
    with pytest.raises(ValueError):
        CostScope("everything")


def test_cost_report_rows_schema():
    box = ConstraintBox(np.array([0.0, 0.0]), np.array([10.0, 10.0]))
    rows = cost_report_rows(np.array([12.0, 5.0]), np.array([11.0, 4.0]), box)
    assert [r["metric"] for r in rows] == list(METRICS)
    assert rows[0]["violation"] == pytest.approx(2.0)
    assert rows[1]["violation"] == 0.0
    assert set(rows[0]) == {
        "metric", "expected", "exact", "lower_bound", "upper_bound", "violation",
    }


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_expected_cost_stays_within_phi_range(seed):
    table = build_cost_table(_micro_plan())
    lo, hi = phi_range(table)
    rng = np.random.default_rng(seed)
    theta = {
        key: 5 * rng.standard_normal(len(table.templates[key[0]].op_names))
        for key in table.theta_keys()
    }
    phi = expected_cost(theta, table, CostScope.FULL_DAG)
    assert np.all(phi >= lo - 1e-9) and np.all(phi <= hi + 1e-9)


# --- the packed cost model against the per-entry definition


def _kept_keys(theta, table, scope, frozen_scope):
    """The keys a scope counts, from its key mask; None under FullDag."""
    if scope is CostScope.FULL_DAG:
        return None
    mask = frozen_scope if frozen_scope is not None else scope_edges(theta, table.templates)
    return {key for key, kept in zip(table.theta_keys(), mask) if kept}


def _reference_expected_cost(theta, table, scope, frozen_scope=None):
    """Phi summed entry by entry, one cell placement at a time."""
    kept = _kept_keys(theta, table, scope, frozen_scope)
    phi = table.fixed.copy()
    for e in table.entries:
        if kept is not None and (e.kind, e.edge) not in kept:
            continue
        z = theta[(e.kind, e.edge)]
        F = np.exp(z - z.max())
        phi += e.u @ (F / F.sum())
    return phi


def _reference_cost_gradient(theta, table, scope, frozen_scope=None):
    """dPhi/dtheta summed entry by entry: F * (u - u.F) per placement."""
    kept = _kept_keys(theta, table, scope, frozen_scope)
    grads = {key: np.zeros((2, len(theta[key]))) for key in table.theta_keys()}
    for e in table.entries:
        if kept is not None and (e.kind, e.edge) not in kept:
            continue
        z = theta[(e.kind, e.edge)]
        F = np.exp(z - z.max())
        F /= F.sum()
        grads[(e.kind, e.edge)] += F[None, :] * (e.u - (e.u @ F)[:, None])
    return grads


SHAPES_4CELL = NetworkPlan(n_cells=4, init_channels=4, n_classes=4, image_hw=(16, 16), n_nodes=5, k_levels=3)


def _draw_theta(table, rng, scale=1.0):
    return {key: scale * rng.standard_normal(table.templates[key[0]].n_ops) for key in table.theta_keys()}


@pytest.mark.parametrize("plan", [SHAPES_4CELL, _micro_plan()], ids=["shapes_4cell", "micro"])
@pytest.mark.parametrize("scope", ["topk", "fulldag", "frozen"])
def test_packed_cost_matches_per_entry_reference(plan, scope):
    table = build_cost_table(plan)
    rng = np.random.default_rng(np.random.SeedSequence(41))
    for _ in range(6):
        theta = _draw_theta(table, rng, scale=2.0)
        frozen = scope_edges(_draw_theta(table, rng), table.templates) if scope == "frozen" else None
        sc = CostScope.FULL_DAG if scope == "fulldag" else CostScope.TOP_K
        # the table goes by theta_keys(), never by the map's insertion order
        keys = list(theta)
        shuffled = {keys[i]: theta[keys[i]] for i in rng.permutation(len(keys))}
        ref_phi = _reference_expected_cost(theta, table, sc, frozen)
        ref_grad = _reference_cost_gradient(theta, table, sc, frozen)
        for th in (theta, shuffled):
            np.testing.assert_allclose(expected_cost(th, table, sc, frozen), ref_phi, rtol=1e-12, atol=0)
            grads = cost_gradient(th, table, sc, frozen)
            assert list(grads) == table.theta_keys()
            for key, ref in ref_grad.items():
                assert grads[key].shape == ref.shape
                np.testing.assert_allclose(grads[key], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("scope", ["topk", "fulldag", "frozen"])
def test_flat_logits_and_grad_match_the_map_forms(scope):
    """expected_cost on the flat vector gives the map's bytes, and with
    grad it also returns cost_gradient's bytes on the table's grid, +0.0
    on the rows outside the scope. FullDag prices as TopK under an
    all-True frozen mask, byte for byte."""
    table = build_cost_table(SHAPES_4CELL)
    rng = np.random.default_rng(np.random.SeedSequence(43))
    all_keys = np.ones(len(table.layout.keys), dtype=bool)
    for _ in range(4):
        theta = _draw_theta(table, rng, scale=2.0)
        frozen = scope_edges(_draw_theta(table, rng), table.templates) if scope == "frozen" else None
        sc = CostScope.FULL_DAG if scope == "fulldag" else CostScope.TOP_K
        flat = table.layout.flatten(theta)
        phi = expected_cost(theta, table, sc, frozen)
        flat_phi, grid = expected_cost(flat, table, sc, frozen, grad=True)
        assert flat_phi.tobytes() == phi.tobytes()
        assert grid.shape == table.U.shape
        assert not grid[~table.layout.valid[:, None, :].repeat(grid.shape[1], axis=1)].any()
        outside = grid[~table.scope_mask(flat, sc, frozen)]
        assert outside.tobytes() == np.zeros_like(outside).tobytes()
        full_phi, full_grid = expected_cost(flat, table, CostScope.FULL_DAG, frozen, grad=True)
        all_phi, all_grid = expected_cost(flat, table, CostScope.TOP_K, all_keys, grad=True)
        assert (full_phi.tobytes(), full_grid.tobytes()) == (all_phi.tobytes(), all_grid.tobytes())
        for k, (key, g) in enumerate(cost_gradient(theta, table, sc, frozen).items()):
            assert grid[k, :, : g.shape[1]].tobytes() == g.tobytes()


@pytest.mark.parametrize("plan", [SHAPES_4CELL, _micro_plan()], ids=["shapes_4cell", "micro"])
def test_frozen_scope_as_key_mask_matches_its_edge_sets(plan):
    table = build_cost_table(plan)
    rng = np.random.default_rng(np.random.SeedSequence(47))
    for _ in range(4):
        anchor = _draw_theta(table, rng)
        edges = scope_edges(anchor, table.templates)
        mask = table.scope_mask(anchor, CostScope.TOP_K)
        assert mask.dtype == bool and mask.shape == (len(table.layout.keys),)
        assert mask.tobytes() == table.scope_mask(anchor, CostScope.TOP_K, edges).tobytes()
        assert table.scope_mask(_draw_theta(table, rng), CostScope.TOP_K, mask) is mask
        full = table.scope_mask(anchor, CostScope.FULL_DAG, mask)
        assert full.dtype == bool and full.shape == (len(table.layout.keys),) and full.all()
        theta = _draw_theta(table, rng, scale=2.0)
        for th in (theta, table.layout.flatten(theta)):
            phi_e, grid_e = expected_cost(th, table, CostScope.TOP_K, edges, grad=True)
            phi_m, grid_m = expected_cost(th, table, CostScope.TOP_K, mask, grad=True)
            assert phi_m.tobytes() == phi_e.tobytes()
            assert grid_m.tobytes() == grid_e.tobytes()
        by_edges = cost_gradient(theta, table, CostScope.TOP_K, edges)
        by_mask = cost_gradient(theta, table, CostScope.TOP_K, mask)
        assert all(by_mask[key].tobytes() == by_edges[key].tobytes() for key in table.layout.keys)


def test_packed_rows_sum_cells_sharing_logits():
    table = _single_edge_table([0.0, 1.0, 9216.0], copies=3)
    assert table.layout.keys == tuple(table.theta_keys())
    np.testing.assert_array_equal(table.U[0], 3 * table.entries[0].u)
    np.testing.assert_array_equal(table.U[1], 0.0)


def test_bad_entry_raises_at_construction():
    tpl = CellTemplate(n_inputs=2, n_intermediate=1, op_names=SMALL_OPS)
    short = EdgeCost(owner="cell0", kind="cell", edge=(0, 2), node=2, u=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="has shape"):
        CostTable(entries=[short], fixed=np.zeros(2), templates={"cell": tpl})
    stray = EdgeCost(owner="cell0", kind="cell", edge=(0, 3), node=3, u=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="no logits vector"):
        CostTable(entries=[stray], fixed=np.zeros(2), templates={"cell": tpl})


def test_vertex_costs_match_per_entry_sums():
    table = build_cost_table(_micro_plan())
    costs = enumerate_vertex_costs(table)
    keys = table.theta_keys()
    sizes = [table.templates[kind].n_ops for kind, _ in keys]
    assert costs.shape == (int(np.prod(sizes)), 2)
    rng = np.random.default_rng(np.random.SeedSequence(43))
    for row in rng.choice(len(costs), size=20, replace=False):
        picks = dict(zip(keys, np.unravel_index(row, sizes)))  # key-major order
        acc = table.fixed.copy()
        for e in table.entries:
            acc += e.u[:, picks[(e.kind, e.edge)]]
        np.testing.assert_allclose(costs[row], acc, rtol=1e-12, atol=0)


# --- the logits-map contract


def _contract_violations(table):
    theta = _uniform_theta(table)
    first = table.theta_keys()[0]
    missing = {k: v for k, v in theta.items() if k != first}
    extra = {**theta, ("cell", (7, 9)): np.zeros(3)}
    short = {**theta, first: np.zeros(2)}
    return [(missing, "missing", first), (extra, "extra", ("cell", (7, 9))), (short, "shape", first)]


@pytest.mark.parametrize("fn", [expected_cost, cost_gradient], ids=["expected_cost", "cost_gradient"])
@pytest.mark.parametrize("scope", [CostScope.TOP_K, CostScope.FULL_DAG], ids=["topk", "fulldag"])
def test_logits_map_contract(fn, scope):
    table = _single_edge_table([0.0, 0.0, 9216.0])
    for theta, what, key in _contract_violations(table):
        with pytest.raises(ValueError, match=what) as err:
            fn(theta, table, scope)
        assert repr(key) in str(err.value)
