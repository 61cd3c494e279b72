"""Macro network assembly: plans, layouts, supernet and discrete builds."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from rcnas import autodiff, cells, network, ops
from rcnas.autodiff import Tape, Tensor
from rcnas.cost import build_cost_table, exact_cost
from rcnas.network import (
    DiscreteNetwork,
    NetworkPlan,
    Supernet,
    default_reduction_positions,
)

from reference_net import ReferenceConvNet


def _plan(**kw):
    base = dict(
        n_cells=2, init_channels=4, n_classes=4, image_hw=(8, 8), n_nodes=4, k_levels=1
    )
    base.update(kw)
    return NetworkPlan(**base)


def test_default_reduction_positions():
    assert default_reduction_positions(8) == (2, 5)
    assert default_reduction_positions(3) == (1, 2)
    assert default_reduction_positions(9) == (3, 6)
    assert default_reduction_positions(2) == ()


def test_cell_kind_list_contiguous_levels():
    plan = NetworkPlan(n_cells=8, init_channels=4, image_hw=(16, 16), k_levels=3)
    assert plan.cell_kind_list() == [
        "normal.0",
        "normal.0",
        "reduce",
        "normal.1",
        "normal.1",
        "reduce",
        "normal.2",
        "normal.2",
    ]


def test_levels_clamp_to_available_cells():
    plan = _plan(n_cells=2, k_levels=3)
    assert plan.cell_kind_list() == ["normal.0", "normal.1"]
    tpls = plan.templates()
    assert set(tpls) == {"normal.0", "normal.1", "connect"}


def test_channels_double_at_each_reduction():
    plan = NetworkPlan(n_cells=8, init_channels=16, image_hw=(16, 16))
    layout = plan.layout()
    assert [c.channels for c in layout.cells] == [16, 16, 32, 32, 32, 64, 64, 64]
    assert [c.reduction for c in layout.cells] == [
        False, False, True, False, False, True, False, False,
    ]
    hw = [c.out_hw for c in layout.cells]
    assert hw[0] == (16, 16) and hw[2] == (8, 8) and hw[5] == (4, 4) and hw[7] == (4, 4)
    assert layout.final_channels == plan.n_intermediate * 64


def test_plan_validation():
    with pytest.raises(ValueError):
        _plan(init_channels=6)  # group-of-4 connection conv needs divisibility
    with pytest.raises(ValueError):
        NetworkPlan(n_cells=6, init_channels=4, image_hw=(10, 10))  # 10 % 4 != 0
    # odd init_channels fine without connection cells
    NetworkPlan(n_cells=2, init_channels=6, image_hw=(8, 8), use_connection=False,
                n_classes=4, n_nodes=4, k_levels=1)


def test_supernet_weight_count_matches_cost_table():
    plan = _plan()
    net = Supernet(plan, seed=0)
    table = build_cost_table(plan)
    expected = table.fixed[0] + sum(e.u[0].sum() for e in table.entries)
    assert net.weight_count() == expected


def test_supernet_weight_count_matches_cost_table_no_connection():
    plan = _plan(use_connection=False)
    net = Supernet(plan, seed=0)
    table = build_cost_table(plan)
    expected = table.fixed[0] + sum(e.u[0].sum() for e in table.entries)
    assert net.weight_count() == expected


@pytest.mark.parametrize("use_connection", [True, False], ids=["connection", "fixed_links"])
def test_discrete_weight_count_matches_exact_cost(use_connection):
    plan = _plan(n_cells=3, image_hw=(8, 8), use_connection=use_connection)
    net = Supernet(plan, seed=1)
    arch = cells.derive_discrete(net.arch.numpy(), plan.templates())
    dnet = DiscreteNetwork(plan, arch, seed=2)
    params, _flops = exact_cost(arch, plan)
    assert dnet.weight_count() == params


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of the weight data in weight_params() order and of one forward
# output, recorded before the two networks shared one slot walk: the build
# must draw the same weights in the same order and compute the same outputs
GOLDEN_DIGESTS = {
    (True, "supernet"): (
        "03aa470529106db6ecaaa28b66acc05934e1ca9e96db08fd1b9c9ba9e56b0b61",
        "9f516830e5d3dbd85eea867f37f9c62a02605a51f3f0f572c045b482c696be4e",
    ),
    (True, "discrete"): (
        "942a6e418d25e12b374dbe82698e832c00adad6f43df1a117e2b426d9b625f86",
        "61062aaa1a489c4859c15884c4e4b2dcd1f1dece904f06b10568e1b8eb321734",
    ),
    (False, "supernet"): (
        "3899b143468795cc2e5a41a27520da63bd0746346a27b400f2c6f92e16e27d58",
        "790bfb00f8dbe923d192cafd2e70c491074338c17230da1092fdddbd4bd47840",
    ),
    (False, "discrete"): (
        "dc27a458a57a9a077ba44c44ea3eb160336bd728ab3760226ecf35e023be8b60",
        "48efe91f61db2b15d56475cdfab82b29bc6dbe3e8b98bb841ae541155d2c8d6e",
    ),
}


@pytest.mark.parametrize("use_connection", [True, False], ids=["connection", "fixed_links"])
def test_weights_and_forward_match_golden_digests(use_connection):
    plan = _plan(n_cells=3, n_nodes=5, use_connection=use_connection)
    snet = Supernet(plan, seed=21)
    arch = cells.derive_discrete(snet.arch.numpy(), plan.templates())
    dnet = DiscreteNetwork(plan, arch, seed=22)
    x = np.random.default_rng(6).standard_normal((2, 3, 8, 8))
    for name, net in (("supernet", snet), ("discrete", dnet)):
        weights = _digest(p.data for p in net.weight_params())
        output = _digest([net.forward(x).data])
        assert (weights, output) == GOLDEN_DIGESTS[use_connection, name], name


def test_forward_shapes_and_tap():
    plan = _plan()
    net = Supernet(plan, seed=3)
    x = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
    logits = net.forward(x)
    assert logits.shape == (2, plan.n_classes)

    cell0 = net.forward(x, tap=0)
    info = net.layout.cells[0]
    assert cell0.shape == (2, info.out_channels, *info.out_hw)


def test_discrete_forward_shapes_and_tap():
    plan = _plan(n_cells=3)
    snet = Supernet(plan, seed=4)
    arch = cells.derive_discrete(snet.arch.numpy(), plan.templates())
    net = DiscreteNetwork(plan, arch, seed=5)
    x = np.random.default_rng(1).standard_normal((2, 3, 8, 8))
    logits = net.forward(x)
    assert logits.shape == (2, plan.n_classes)
    mid = net.forward(x, tap=1)
    info = net.layout.cells[1]
    assert mid.shape == (2, info.out_channels, *info.out_hw)


def test_same_seed_same_network():
    plan = _plan()
    a, b = Supernet(plan, seed=7), Supernet(plan, seed=7)
    c = Supernet(plan, seed=8)
    x = np.random.default_rng(2).standard_normal((1, 3, 8, 8))
    np.testing.assert_array_equal(a.forward(x).data, b.forward(x).data)
    assert a.arch.digest() == b.arch.digest()
    assert not np.array_equal(a.forward(x).data, c.forward(x).data)


def test_loss_is_finite_scalar():
    plan = _plan()
    net = Supernet(plan, seed=9)
    x = np.random.default_rng(3).standard_normal((4, 3, 8, 8))
    y = np.array([0, 1, 2, 3])
    loss, logits = net.loss(x, y)
    assert loss.shape == ()
    assert np.isfinite(loss.data)
    assert logits.shape == (4, 4)


def test_parameter_names_are_unique():
    plan = _plan(n_cells=3)
    net = Supernet(plan, seed=10)
    names = [p.name for p in net.weight_params()]
    assert len(names) == len(set(names))
    arch = cells.derive_discrete(net.arch.numpy(), plan.templates())
    dnet = DiscreteNetwork(plan, arch, seed=11)
    dnames = [p.name for p in dnet.weight_params()]
    assert len(dnames) == len(set(dnames))


def test_reference_convnet_forward_and_loss():
    net = ReferenceConvNet(in_channels=3, n_classes=4, channels=8, seed=0)
    x = np.random.default_rng(4).standard_normal((2, 3, 8, 8))
    out = net.forward(Tensor(x))
    assert out.shape == (2, 4)
    loss, _ = net.loss(x, np.array([0, 3]))
    assert np.isfinite(loss.data)
    # halved spatial size from the stride-2 block
    net2 = ReferenceConvNet(in_channels=3, n_classes=4, channels=8, seed=0)
    np.testing.assert_array_equal(out.data, net2.forward(Tensor(x)).data)


def test_supernet_logits_gradient_matches_finite_differences():
    # two reduction cells read one row of the logits, so that row collects
    # the gradients of both cells' softmaxes
    plan = NetworkPlan(n_cells=3, init_channels=4, n_classes=3, image_hw=(8, 8), n_nodes=4, k_levels=1)
    assert plan.cell_kind_list() == ["normal.0", "reduce", "reduce"]
    net = Supernet(plan, seed=5)
    theta = net.arch.theta
    assert theta.data.shape == (36,) and theta.data.dtype == np.float64
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal((2, 3, 8, 8)), rng.integers(0, 3, size=2)
    theta.data = rng.standard_normal(36)
    with Tape() as tape:
        loss, _ = net.loss(x, y)
        tape.backward(loss)
    grad, base = theta.grad.copy(), theta.data.copy()

    def loss_at(v):
        theta.data = v
        return float(net.loss(x, y)[0].data)

    h = 1e-5
    fd = np.array([(loss_at(base + h * e) - loss_at(base - h * e)) / (2 * h) for e in np.eye(36)])
    assert np.abs(grad).max() > 1e-2
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-8)


def test_supernet_weight_step_backward_frees_as_it_goes():
    # backward releases each entry once it has run, so its peak barely
    # rises above what forward left on the tape; a tape that kept every
    # entry and intermediate gradient to the end would read about 1.6x
    net = Supernet(_plan(), seed=13)
    for t in net.theta_tensors():
        t.requires_grad = False
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((8, 3, 8, 8)), rng.integers(0, 4, size=8)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss, _ = net.loss(x, y)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in net.weight_params())
    assert peak <= 1.15 * held


# the shapes_4cell plan (configs/shapes_4cell.json) at its search batch of 16
SHAPES_4CELL = NetworkPlan(n_cells=4, init_channels=4, n_classes=4, image_hw=(16, 16), n_nodes=5, k_levels=3)


def _shapes_batch():
    rng = np.random.default_rng(0)
    return rng.standard_normal((16, 3, 16, 16)), rng.integers(0, 4, size=16)


def _count_calls(monkeypatch, name, modules, record):
    """Wrap ``autodiff.<name>`` under every listed module's binding."""
    original = getattr(autodiff, name)

    def counted(*args, **kwargs):
        record.append(args[0])
        return original(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)


def test_supernet_forward_tape_budget(monkeypatch):
    # each conv op takes its ReLU from the state it shares with its
    # siblings, and conv+BN is one entry, the stem's and the grouped convs'
    # included: 757 entries before any of it
    convs, bns = [], []
    _count_calls(monkeypatch, "conv2d", (autodiff, ops), convs)
    _count_calls(monkeypatch, "batch_norm", (autodiff, ops), bns)
    net = Supernet(SHAPES_4CELL, seed=0)
    x, y = _shapes_batch()
    with Tape() as tape:
        net.loss(x, y)
    assert len(tape) <= 503
    assert len(convs) == 289  # every conv still runs, fused or not
    assert len(bns) == 8  # only the factorized reduces run a bare batch_norm


def test_relu_runs_once_per_relud_cell_state(monkeypatch):
    shared = []
    _count_calls(monkeypatch, "relu", (cells,), shared)

    class MarkedScope(cells.SharedRelu):
        def __init__(self, keys):
            shared.append(None)  # a new scope: a cell's links, or its edges
            super().__init__(keys)

    monkeypatch.setattr(cells, "SharedRelu", MarkedScope)
    net = Supernet(SHAPES_4CELL, seed=0)
    x, _ = _shapes_batch()
    with Tape():
        net.forward(x)
    # every template edge and link mixture holds a ReLU-led conv op, so each
    # cell ReLUs each distinct link source and each state that feeds an edge
    layout = SHAPES_4CELL.layout()
    expect = sum(
        len({s.src for s in layout.slots if s.cell == info.index and s.src is not None})
        + len({i for i, _ in layout.templates[info.kind].edges()})
        for info in layout.cells
    )
    relus = [t for t in shared if t is not None]
    assert len(relus) == expect == 19
    # within a scope no tensor is ReLU'd twice; across cells it may be
    scopes: list[list[int]] = []
    for t in shared:
        if t is None:
            scopes.append([])
        else:
            scopes[-1].append(id(t))
    assert len(scopes) == 2 * SHAPES_4CELL.n_cells
    assert all(len(set(ids)) == len(ids) for ids in scopes)


# tracemalloc peak of this forward before the ReLU was shared per state and
# conv+BN fused: sharing may not keep ReLU'd states alive past their cell
FORWARD_ONLY_PEAK_BEFORE = 2313131


def test_forward_only_discrete_peak_does_not_grow():
    arch = cells.derive_discrete(Supernet(SHAPES_4CELL, seed=0).arch.numpy(), SHAPES_4CELL.templates())
    net = DiscreteNetwork(SHAPES_4CELL, arch, seed=1)
    x, _ = _shapes_batch()
    net.forward(x)  # warm the conv band cache
    tracemalloc.start()
    try:
        net.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= FORWARD_ONLY_PEAK_BEFORE
