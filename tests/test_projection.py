"""Penalty projection of logits into a cost box."""

import hashlib
import math

import numpy as np
import pytest

from rcnas import cells as cells_module
from rcnas import cost as cost_module
from rcnas import ops
from rcnas import projection as projection_module
from rcnas.autodiff import Tensor
from rcnas.cells import CellTemplate
from rcnas.cost import ConstraintBox, CostScope, CostTable, EdgeCost, build_cost_table, expected_cost, scope_edges, violation
from rcnas.network import NetworkPlan
from rcnas.optim import Adam
from rcnas.projection import (
    ProjectionConfig,
    ProjectionError,
    decay_lambda,
    lagrangian,
    lagrangian_grad,
    project,
)

TWO_OPS = (ops.IDENTITY, ops.MAX_POOL_3)
THREE_OPS = (ops.ZERO, ops.IDENTITY, ops.MAX_POOL_3)


def _one_costly_edge_table(fixed=(0.0, 0.0), cost=100.0):
    """Node 2 with two edges; only edge (0,2) costs anything, and only in params."""
    tpl = CellTemplate(n_inputs=2, n_intermediate=1, op_names=TWO_OPS)
    entries = [
        EdgeCost(owner="cell0", kind="cell", edge=(0, 2), node=2, u=np.array([[0.0, cost], [0.0, 0.0]])),
        EdgeCost(owner="cell0", kind="cell", edge=(1, 2), node=2, u=np.zeros((2, 2))),
    ]
    return CostTable(entries=entries, fixed=np.array(fixed), templates={"cell": tpl})


def _uniform(table):
    return {
        key: np.zeros(len(table.templates[key[0]].op_names))
        for key in table.theta_keys()
    }


def _box(upper_params=25.0):
    return ConstraintBox(np.zeros(2), np.array([upper_params, np.inf]))


def test_lagrangian_zero_at_feasible_anchor():
    table = _one_costly_edge_table()
    theta = _uniform(table)
    h = lagrangian(theta, theta, _box(60.0), table, CostScope.FULL_DAG, 1.0, 1.0)
    assert h == 0.0


def test_lagrangian_without_penalty_is_proximal_only():
    table = _one_costly_edge_table()
    anchor = _uniform(table)
    moved = {k: v + 2.0 for k, v in anchor.items()}
    h = lagrangian(moved, anchor, _box(1e-9), table, CostScope.FULL_DAG, 0.0, 0.0)
    # 2 edges x 2 coords, each displaced by 2: 0.5 * 4 * 4
    assert h == pytest.approx(8.0, rel=1e-12)


def test_lagrangian_upper_hinge_value():
    table = _one_costly_edge_table()
    theta = _uniform(table)  # Phi_params = 50
    h = lagrangian(theta, theta, _box(25.0), table, CostScope.FULL_DAG, 1.0, 2.0)
    assert h == pytest.approx(2.0 * 25.0, rel=1e-12)


def test_lagrangian_lower_hinge_value():
    table = _one_costly_edge_table()
    theta = _uniform(table)  # Phi_params = 50
    box = ConstraintBox(np.array([80.0, 0.0]), np.array([np.inf, np.inf]))
    h = lagrangian(theta, theta, box, table, CostScope.FULL_DAG, 3.0, 1.0)
    assert h == pytest.approx(3.0 * 30.0, rel=1e-12)


@pytest.mark.parametrize("box", [_box(25.0), ConstraintBox(np.array([80.0, 0.0]), np.array([np.inf, np.inf]))])
def test_lagrangian_grad_matches_finite_differences(box):
    table = _one_costly_edge_table()
    anchor = _uniform(table)
    rng = np.random.default_rng(np.random.SeedSequence(2))
    theta = {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in anchor.items()}
    grads = lagrangian_grad(theta, anchor, box, table, CostScope.FULL_DAG, 1.3, 0.7)
    h = 1e-6
    for key in theta:
        for i in range(len(theta[key])):
            orig = theta[key][i]
            theta[key][i] = orig + h
            up = lagrangian(theta, anchor, box, table, CostScope.FULL_DAG, 1.3, 0.7)
            theta[key][i] = orig - h
            dn = lagrangian(theta, anchor, box, table, CostScope.FULL_DAG, 1.3, 0.7)
            theta[key][i] = orig
            fd = (up - dn) / (2 * h)
            an = grads[key][i]
            assert abs(an - fd) / max(abs(an), abs(fd), 1.0) < 1e-5, (key, i)


def test_decay_schedule():
    cfg = ProjectionConfig(lambda1=4.0, lambda2=2.0, gamma=0.5)
    assert decay_lambda(cfg, 0) == (4.0, 2.0)
    assert decay_lambda(cfg, 3) == (0.5, 0.25)
    const = ProjectionConfig(lambda1=4.0, lambda2=2.0, gamma=1.0)
    assert decay_lambda(const, 7) == (4.0, 2.0)
    grow = ProjectionConfig(lambda1=1.0, lambda2=1.0, gamma=2.0)
    assert decay_lambda(grow, 3) == (8.0, 8.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ProjectionConfig(lambda1=-1.0)
    with pytest.raises(ValueError):
        ProjectionConfig(gamma=0.0)
    with pytest.raises(ValueError):
        ProjectionConfig(max_iters=-1)


def test_feasible_anchor_returns_bit_identical():
    table = _one_costly_edge_table()
    rng = np.random.default_rng(np.random.SeedSequence(3))
    theta = {k: rng.standard_normal(v.shape) for k, v in _uniform(table).items()}
    res = project(theta, _box(1e6), table, CostScope.FULL_DAG)
    assert res.feasible and res.iterations == 0
    for key in theta:
        np.testing.assert_array_equal(res.theta_p[key], theta[key])


def test_zero_penalty_returns_anchor():
    table = _one_costly_edge_table()
    theta = _uniform(table)
    res = project(theta, _box(25.0), table, CostScope.FULL_DAG, cfg=ProjectionConfig(lambda1=0.0, lambda2=0.0))
    assert not res.feasible and res.iterations == 0
    for key in theta:
        np.testing.assert_array_equal(res.theta_p[key], theta[key])


def test_projection_reaches_box_with_logit_gap_bound():
    table = _one_costly_edge_table()
    theta = _uniform(table)
    cfg = ProjectionConfig(lambda1=1.0, lambda2=1.0, lr=3e-3, max_iters=600)
    res = project(theta, _box(25.0), table, CostScope.FULL_DAG, cfg=cfg)
    assert res.feasible
    assert 0 < res.iterations < cfg.max_iters  # early stop, not exhaustion
    vec = res.theta_p[("cell", (0, 2))]
    w_costly = np.exp(vec - vec.max())
    w_costly /= w_costly.sum()
    # Phi <= 25 forces weight <= 0.25, i.e. a logit gap of at least ln 3
    assert w_costly[1] <= 0.25 + 1e-3
    assert vec[0] - vec[1] >= math.log(3.0) - 5e-3
    # the costless edge had zero gradient throughout
    np.testing.assert_array_equal(res.theta_p[("cell", (1, 2))], theta[("cell", (1, 2))])


def test_infeasible_box_exhausts_budget():
    table = _one_costly_edge_table(fixed=(40.0, 0.0))
    theta = _uniform(table)
    cfg = ProjectionConfig(lr=3e-3, max_iters=50)
    res = project(theta, _box(10.0), table, CostScope.FULL_DAG, cfg=cfg)  # fixed 40 > 10
    assert not res.feasible
    assert res.iterations == cfg.max_iters


def test_max_iters_zero_returns_anchor():
    table = _one_costly_edge_table()
    theta = _uniform(table)
    res = project(theta, _box(25.0), table, CostScope.FULL_DAG, cfg=ProjectionConfig(max_iters=0))
    assert not res.feasible and res.iterations == 0


def test_projection_closes_a_violation_of_25():
    table = _one_costly_edge_table()
    theta = _uniform(table)
    box = _box(25.0)
    assert sum(sum(v) for v in violation(expected_cost(theta, table, CostScope.FULL_DAG), box)) == pytest.approx(25.0)
    res = project(theta, box, table, CostScope.FULL_DAG, cfg=ProjectionConfig(lr=3e-3, max_iters=600))
    assert res.feasible
    assert sum(sum(v) for v in violation(res.phi, box)) <= 25.0 * 1e-5


def test_topk_scope_frozen_from_anchor():
    tpl = CellTemplate(n_inputs=2, n_intermediate=2, op_names=THREE_OPS)
    u_cheap = np.array([[0.0, 1.0, 5.0], [0.0, 0.0, 0.0]])
    u_costly = np.array([[0.0, 10.0, 90.0], [0.0, 0.0, 0.0]])
    entries = [
        EdgeCost("cell0", "cell", (0, 2), 2, u_cheap.copy()),
        EdgeCost("cell0", "cell", (1, 2), 2, u_cheap.copy()),
        EdgeCost("cell0", "cell", (0, 3), 3, u_costly.copy()),
        EdgeCost("cell0", "cell", (1, 3), 3, u_costly.copy()),
        EdgeCost("cell0", "cell", (2, 3), 3, u_costly.copy()),
    ]
    table = CostTable(entries=entries, fixed=np.zeros(2), templates={"cell": tpl})
    theta = {key: np.zeros(3) for key in table.theta_keys()}
    # anchor ties keep (0,3) and (1,3); edge (2,3) is out of scope and must not move
    cfg = ProjectionConfig(lr=3e-3, max_iters=400)
    res = project(theta, _box(30.0), table, CostScope.TOP_K, cfg=cfg)
    assert res.feasible and res.iterations > 0
    np.testing.assert_array_equal(res.theta_p[("cell", (2, 3))], theta[("cell", (2, 3))])
    moved = [
        key for key in theta if not np.array_equal(res.theta_p[key], theta[key])
    ]
    assert moved  # the in-scope costly edges actually descended


def test_non_finite_cost_raises():
    table = _one_costly_edge_table(cost=np.nan)
    theta = _uniform(table)
    with pytest.raises(ProjectionError):
        project(theta, _box(25.0), table, CostScope.FULL_DAG, cfg=ProjectionConfig(lr=3e-3, max_iters=5))


def test_nan_logit_outside_the_frozen_scope_raises():
    """A key outside the scope prices as a zero row, and zero times a NaN
    softmax row is NaN: a NaN logit there poisons Phi instead of dropping
    out, so the projection stops at its first step."""
    table = _shapes_4cell_table()
    rng = np.random.default_rng(np.random.SeedSequence(31))
    theta = {key: rng.standard_normal(table.templates[key[0]].n_ops) for key in table.theta_keys()}
    key = table.theta_keys()[int(np.flatnonzero(~scope_edges(theta, table.templates))[0])]
    theta[key][0] = np.nan
    frozen = scope_edges(theta, table.templates)
    assert not frozen[table.theta_keys().index(key)]  # a NaN strength ranks last
    assert not np.isfinite(expected_cost(theta, table, CostScope.TOP_K, frozen)).all()
    with pytest.raises(ProjectionError, match="step 1:"):
        project(theta, ConstraintBox.unbounded(), table, CostScope.TOP_K)


# --- the fused loop against a step-by-step reference


def _reference_project(theta, box, table, scope, cfg, lam1, lam2):
    """Projection written from the public pieces: per-key Adam holders, and
    lagrangian_grad, expected_cost and lagrangian evaluated afresh at every
    iteration. Returns (theta_p, iterations, feasible, phi, objectives)."""
    anchor = {key: v.copy() for key, v in theta.items()}
    frozen = scope_edges(anchor, table.templates) if scope is CostScope.TOP_K else None
    phi = expected_cost(anchor, table, scope, frozen)
    objectives = [lagrangian(anchor, anchor, box, table, scope, lam1, lam2, frozen)]
    if box.feasible(phi, cfg.feas_tol):
        return anchor, 0, True, phi, objectives
    keys = list(anchor)
    holders = [Tensor(anchor[k].copy(), requires_grad=True) for k in keys]
    opt = Adam(holders, lr=cfg.lr, betas=(0.5, 0.999))
    for it in range(1, cfg.max_iters + 1):
        current = {k: t.data for k, t in zip(keys, holders)}
        g = lagrangian_grad(current, anchor, box, table, scope, lam1, lam2, frozen)
        for k, t in zip(keys, holders):
            t.grad = g[k]
        opt.step()
        current = {k: t.data for k, t in zip(keys, holders)}
        phi = expected_cost(current, table, scope, frozen)
        objectives.append(lagrangian(current, anchor, box, table, scope, lam1, lam2, frozen))
        if box.feasible(phi, cfg.feas_tol):
            return current, it, True, phi, objectives
    return current, cfg.max_iters, False, phi, objectives


def _shapes_4cell_table():
    plan = NetworkPlan(n_cells=4, init_channels=4, n_classes=4, image_hw=(16, 16), n_nodes=5, k_levels=3)
    return build_cost_table(plan)


_BOXES = {
    "upper": ConstraintBox(np.zeros(2), np.array([5000.0, 250000.0])),
    "lower_params": ConstraintBox(np.array([9000.0, 0.0]), np.array([np.inf, 400000.0])),
}


@pytest.mark.parametrize("box", list(_BOXES.values()), ids=list(_BOXES))
def test_project_matches_reference_loop(box):
    table = _shapes_4cell_table()
    cfg = ProjectionConfig(lambda1=2.0, lambda2=2.0, max_iters=500, lr=3e-3)
    rng = np.random.default_rng(np.random.SeedSequence(17))
    anchors = []
    while len(anchors) < 3:  # the first seeded draws outside the box
        theta = {key: rng.standard_normal(table.templates[key[0]].n_ops) for key in table.theta_keys()}
        if not box.feasible(expected_cost(theta, table, CostScope.TOP_K)):
            anchors.append(theta)
    for theta in anchors:
        res = project(theta, box, table, CostScope.TOP_K, cfg)
        ref_theta, ref_iters, ref_feasible, ref_phi, ref_h = _reference_project(
            theta, box, table, CostScope.TOP_K, cfg, cfg.lambda1, cfg.lambda2
        )
        assert res.iterations == ref_iters and res.feasible == ref_feasible
        for key in table.theta_keys():
            np.testing.assert_allclose(res.theta_p[key], ref_theta[key], rtol=0, atol=1e-9)
        np.testing.assert_allclose(res.phi, ref_phi, rtol=1e-9)
        assert res.objective == pytest.approx(ref_h[-1], rel=1e-9)


@pytest.mark.parametrize("scope", [CostScope.TOP_K, CostScope.FULL_DAG], ids=["topk", "fulldag"])
def test_project_logits_map_contract(scope):
    table = _one_costly_edge_table()
    theta = _uniform(table)
    missing = {k: v for k, v in theta.items() if k != ("cell", (0, 2))}
    extra = {**theta, ("cell", (5, 6)): np.zeros(2)}
    short = {**theta, ("cell", (1, 2)): np.zeros(3)}
    cases = [(missing, "missing", ("cell", (0, 2))), (extra, "extra", ("cell", (5, 6))), (short, "shape", ("cell", (1, 2)))]
    for bad, what, key in cases:
        with pytest.raises(ValueError, match=what) as err:
            project(bad, _box(25.0), table, scope)
        assert repr(key) in str(err.value)


# --- the bytes of project's results, pinned


# sha256 over each seeded anchor's result, in draw order; a rewrite of the
# descent loop must reproduce them bit for bit
_PINNED_DIGESTS = {
    ("topk", "lower_params", 3e-3): "0d80243cddf19cc803541b7ed2411a73383548665fe3dfe5bf62924c02db0343",
    ("topk", "lower_params", 3e-4): "f48edcc7e85df7b25587f8542a9295297c4ecbad61822fb4d969939e0d8e6fe8",
    ("topk", "upper", 3e-3): "b2b25f54baa031cf679093026aa27807b7ba8f4c121796d7a0a07035d5c91317",
    ("topk", "upper", 3e-4): "a25ba4725ca0abbfee74710dade5f86b3e43299e112754ae136f9f07373cf3b1",
    ("fulldag", "lower_params", 3e-3): "7e9e938dbaa1c8164156e351a3d31f83c4be858ed40e6e1836413ab51b7e5cb9",
    ("fulldag", "lower_params", 3e-4): "c748a11376a48f6e5c6d4bd290b940ffd9d24f3208dbf59712e5a850a073f173",
    ("fulldag", "upper", 3e-3): "d054616c5dff61f7cfe78fe22100b12987fd52721cacc49020375949d598d5a9",
    ("fulldag", "upper", 3e-4): "c91a3f08e82577645417718105a778c8d09e981f30347f6ee00e7ca0eae87986",
}


def _result_digest(results, table):
    h = hashlib.sha256()
    for res in results:
        h.update(np.int64(res.iterations).tobytes())
        h.update(np.bool_(res.feasible).tobytes())
        h.update(np.asarray(res.phi, dtype=np.float64).tobytes())
        h.update(np.float64(res.objective).tobytes())
        for key in table.theta_keys():
            h.update(np.asarray(res.theta_p[key], dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("lr", [3e-3, 3e-4])
@pytest.mark.parametrize("box_name", sorted(_BOXES))
@pytest.mark.parametrize("scope", [CostScope.TOP_K, CostScope.FULL_DAG], ids=["topk", "fulldag"])
def test_project_result_bytes_are_pinned(scope, box_name, lr):
    table = _shapes_4cell_table()
    box = _BOXES[box_name]
    cfg = ProjectionConfig(lambda1=2.0, lambda2=2.0, max_iters=300, lr=lr)
    rng = np.random.default_rng(np.random.SeedSequence(29))
    anchors = [
        {key: rng.standard_normal(table.templates[key[0]].n_ops) for key in table.theta_keys()} for _ in range(4)
    ]
    results = [project(theta, box, table, scope, cfg) for theta in anchors]
    assert _result_digest(results, table) == _PINNED_DIGESTS[(scope.value, box_name, lr)]


@pytest.mark.parametrize("scope", [CostScope.TOP_K, CostScope.FULL_DAG], ids=["topk", "fulldag"])
def test_project_evaluates_the_cost_table_once_per_iteration(scope, monkeypatch):
    table = _shapes_4cell_table()
    box = _BOXES["upper"]
    rng = np.random.default_rng(np.random.SeedSequence(29))
    theta = {key: rng.standard_normal(table.templates[key[0]].n_ops) for key in table.theta_keys()}
    calls = {"softmax": 0, "flatten": 0, "expected_cost": 0, "cost_gradient": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("softmax", "flatten"):
        monkeypatch.setattr(cells_module.LogitsLayout, name, counted(name, getattr(cells_module.LogitsLayout, name)))
    for module in (cost_module, projection_module):
        for name in ("expected_cost", "cost_gradient"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    res = project(theta, box, table, scope, ProjectionConfig(lambda1=2.0, lambda2=2.0, max_iters=300, lr=3e-3))
    assert res.iterations > 10
    assert calls == {"softmax": res.iterations + 1, "flatten": 1, "expected_cost": res.iterations + 1, "cost_gradient": 0}


@pytest.mark.parametrize("scope", [CostScope.TOP_K, CostScope.FULL_DAG], ids=["topk", "fulldag"])
def test_project_freezes_the_scope_once(scope, monkeypatch):
    table = _shapes_4cell_table()
    rng = np.random.default_rng(np.random.SeedSequence(29))
    theta = {key: rng.standard_normal(table.templates[key[0]].n_ops) for key in table.theta_keys()}
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)

        return wrapper

    for module in (cost_module, cells_module):
        monkeypatch.setattr(module, "scope_edges", counted(module.scope_edges))
    res = project(theta, _BOXES["upper"], table, scope, ProjectionConfig(lambda1=2.0, lambda2=2.0, max_iters=300, lr=3e-3))
    assert res.iterations == 300
    assert len(calls) == (1 if scope is CostScope.TOP_K else 0)
