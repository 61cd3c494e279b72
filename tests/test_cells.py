"""Relaxed cells: mixture forward, edge ranking, discretization, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcnas import cells, ops
from rcnas.autodiff import Tensor
from rcnas.cells import (
    ArchFormatError,
    ArchParams,
    CellTemplate,
    DiscreteArch,
    cell_forward,
    connection_template,
    derive_discrete,
    export_dot,
    mixed_edge_forward,
    normal_kind,
    normal_template,
    scope_edges,
)
from rcnas.network import NetworkPlan


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _edge_ops(op_names, c=4, hw=8, stride=1, c_out=None, seed=0):
    ctx = ops.OpContext(c_in=c, c_out=c_out or c, h_in=hw, w_in=hw, stride=stride)
    rng = _rng(seed)
    return [ops.build(name, ctx, rng, prefix=name) for name in op_names]


SMALL_OPS = (ops.ZERO, ops.IDENTITY, ops.MAX_POOL_3)


def test_template_layout():
    tpl = normal_template(7)
    assert tpl.intermediates == (2, 3, 4, 5)
    assert tpl.predecessors(3) == (0, 1, 2)
    assert len(tpl.edges()) == 2 + 3 + 4 + 5
    assert tpl.kept_per_node(2) == 2
    assert tpl.zero_index == ops.NORMAL_OPS.index(ops.ZERO)
    conn = connection_template()
    assert conn.intermediates == (1,)
    assert conn.zero_index is None
    assert conn.kept_per_node(1) == 1
    assert normal_kind(0) == "normal.0"


def test_template_rejects_bad_shapes():
    with pytest.raises(ValueError):
        normal_template(3)
    with pytest.raises(ValueError):
        CellTemplate(n_inputs=2, n_intermediate=1, op_names=("identity",))
    with pytest.raises(ValueError):
        CellTemplate(n_inputs=2, n_intermediate=1, op_names=("identity", "identity"))


def test_mixed_edge_zero_identity_halves_input():
    edge_ops = _edge_ops((ops.ZERO, ops.IDENTITY))
    x = Tensor(_rng(1).standard_normal((2, 4, 8, 8)))
    out = mixed_edge_forward(Tensor(np.zeros(2)), x, edge_ops)
    np.testing.assert_allclose(out.data, 0.5 * x.data, rtol=0, atol=1e-15)


def test_mixed_edge_saturated_on_zero_vanishes():
    edge_ops = _edge_ops((ops.ZERO, ops.IDENTITY))
    x = Tensor(_rng(2).standard_normal((2, 4, 8, 8)))
    out = mixed_edge_forward(Tensor(np.array([40.0, 0.0])), x, edge_ops)
    assert np.abs(out.data).max() < 1e-15


def test_mixed_edge_theta_length_checked():
    edge_ops = _edge_ops((ops.ZERO, ops.IDENTITY))
    with pytest.raises(ValueError):
        mixed_edge_forward(Tensor(np.zeros(3)), Tensor(np.ones((1, 4, 8, 8))), edge_ops)


def test_connection_cell_is_single_mixed_edge():
    tpl = connection_template((ops.GROUP_CONV_G1, ops.GROUP_CONV_G2))
    edge_ops = _edge_ops((ops.GROUP_CONV_G1, ops.GROUP_CONV_G2), c=8, seed=3)
    theta = Tensor(np.array([0.3, -0.2]))
    x = Tensor(_rng(4).standard_normal((2, 8, 8, 8)))
    out = cell_forward(tpl, [x], {1: [(0, lambda t: mixed_edge_forward(theta, t, edge_ops))]})
    ref = mixed_edge_forward(theta, x, edge_ops)
    np.testing.assert_array_equal(out.data, ref.data)


def test_cell_forward_concats_intermediates():
    tpl = CellTemplate(n_inputs=2, n_intermediate=2, op_names=(ops.ZERO, ops.IDENTITY))
    theta = {e: Tensor(np.array([-40.0, 40.0])) for e in tpl.edges()}
    edge_ops = {e: _edge_ops((ops.ZERO, ops.IDENTITY)) for e in tpl.edges()}
    a = Tensor(np.full((1, 4, 8, 8), 1.0))
    b = Tensor(np.full((1, 4, 8, 8), 2.0))
    node_edges = {}
    for i, j in tpl.edges():
        node_edges.setdefault(j, []).append(
            (i, lambda t, e=(i, j): mixed_edge_forward(theta[e], t, edge_ops[e]))
        )
    out = cell_forward(tpl, [a, b], node_edges)
    assert out.shape == (1, 8, 8, 8)
    # node 2 = a + b = 3; node 3 = a + b + node2 = 6 (identity saturated everywhere)
    np.testing.assert_allclose(out.data[:, :4], 3.0, atol=1e-12)
    np.testing.assert_allclose(out.data[:, 4:], 6.0, atol=1e-12)


# --- the edge ranking against its per-edge definition


def _reference_edge_strength(theta, zero_index):
    """Largest mixture weight among non-zero ops, one edge at a time."""
    z = np.asarray(theta, dtype=np.float64)
    e = np.exp(z - z.max())
    w = e / e.sum()
    if zero_index is not None:
        w = np.delete(w, zero_index)
    return float(w.max())


def _reference_scope_edges(theta, templates):
    """Per node, the kept_per_node(j) strongest incoming edges, ties to the
    smaller predecessor."""
    kept = {}
    for kind, tpl in templates.items():
        edges = set()
        for j in tpl.intermediates:
            ranked = sorted(
                tpl.predecessors(j),
                key=lambda i: (-_reference_edge_strength(theta[(kind, (i, j))], tpl.zero_index), i),
            )
            edges.update((i, j) for i in ranked[: tpl.kept_per_node(j)])
        kept[kind] = frozenset(edges)
    return kept


def _reference_choices(theta, templates):
    """On each reference-kept edge, the first non-zero op in stable descending logit order."""
    kept = _reference_scope_edges(theta, templates)
    choices = {}
    for kind, tpl in templates.items():
        nodes = {}
        for j in tpl.intermediates:
            picks = []
            for i in sorted(i for i, jj in kept[kind] if jj == j):
                order = np.argsort(-np.asarray(theta[(kind, (i, j))], dtype=np.float64), kind="stable")
                picks.append((i, next(tpl.op_names[o] for o in order if tpl.op_names[o] != ops.ZERO)))
            nodes[j] = tuple(picks)
        choices[kind] = nodes
    return choices


RANKING_TEMPLATES = {
    # 8-op normal kinds beside the 4-op connect kind, which has no zero op
    "shapes_4cell": NetworkPlan(
        n_cells=4, init_channels=4, n_classes=4, image_hw=(16, 16), n_nodes=5, k_levels=3
    ).templates(),
    "zero_less": {
        "cell": CellTemplate(n_inputs=2, n_intermediate=2, op_names=(ops.IDENTITY, ops.MAX_POOL_3, ops.AVG_POOL_3))
    },
    # a 4-op kind with a zero op and nodes of 3 and 4 predecessors beside an
    # 8-op kind: its strengths must not be taken on rows padded to 8 ops
    "mixed_width": {
        "narrow": CellTemplate(
            n_inputs=2, n_intermediate=3, op_names=(ops.ZERO, ops.IDENTITY, ops.MAX_POOL_3, ops.AVG_POOL_3)
        ),
        "wide": normal_template(5),
        "connect": connection_template(),
    },
}
# distinct values, so a permutation of them ties in exact arithmetic and
# only the rounding of each edge's softmax breaks the tie
PERMUTED_VALUES = np.array([1.0, 0.7, 0.35, 0.1, -0.3, -0.55, -0.9, -1.2])
RANKING_LOGITS = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "ties": lambda rng, n: rng.integers(-2, 3, size=n).astype(np.float64),
    "zeros": lambda rng, n: np.zeros(n),
    "permuted": lambda rng, n: rng.permutation(PERMUTED_VALUES[:n]),
}


@pytest.mark.parametrize("logits", list(RANKING_LOGITS))
@pytest.mark.parametrize("space", list(RANKING_TEMPLATES))
def test_ranking_matches_per_edge_reference(space, logits):
    templates = RANKING_TEMPLATES[space]
    assert any(tpl.zero_index is None for tpl in templates.values())
    rng = _rng(51)
    for _ in range(25):
        theta = {
            (kind, edge): RANKING_LOGITS[logits](rng, templates[kind].n_ops)
            for kind, edge in cells.theta_keys(templates)
        }
        kept = _reference_scope_edges(theta, templates)
        assert scope_edges(theta, templates).tolist() == [edge in kept[kind] for kind, edge in cells.theta_keys(templates)]
        assert derive_discrete(theta, templates).choices == _reference_choices(theta, templates)


def test_derive_discrete_hand_case():
    tpl = CellTemplate(n_inputs=2, n_intermediate=1, op_names=SMALL_OPS)
    theta = {
        ("cell", (0, 2)): np.array([0.0, 3.0, 1.0]),
        ("cell", (1, 2)): np.array([0.0, 1.0, 2.0]),
    }
    arch = derive_discrete(theta, {"cell": tpl})
    assert arch.choices["cell"][2] == ((0, ops.IDENTITY), (1, ops.MAX_POOL_3))


def test_derive_discrete_drops_weakest_edge():
    tpl = CellTemplate(n_inputs=2, n_intermediate=2, op_names=SMALL_OPS)
    theta = {("cell", e): np.zeros(3) for e in tpl.edges()}
    theta[("cell", (1, 3))] = np.array([0.0, 2.0, 0.0])
    theta[("cell", (2, 3))] = np.array([0.0, 0.0, 1.5])
    arch = derive_discrete(theta, {"cell": tpl})
    # node 3 candidates: pred 0 (uniform, weak) vs preds 1, 2 (boosted)
    assert arch.choices["cell"][3] == ((1, ops.IDENTITY), (2, ops.MAX_POOL_3))


def test_derive_tie_breaks_prefer_small_indices():
    tpl = CellTemplate(n_inputs=2, n_intermediate=2, op_names=SMALL_OPS)
    theta = {("cell", e): np.zeros(3) for e in tpl.edges()}
    arch = derive_discrete(theta, {"cell": tpl})
    # all strengths equal: keep preds (0, 1); all op logits equal: first non-zero op
    assert arch.choices["cell"][2] == ((0, ops.IDENTITY), (1, ops.IDENTITY))
    assert arch.choices["cell"][3] == ((0, ops.IDENTITY), (1, ops.IDENTITY))


def test_derive_never_keeps_zero_op():
    tpl = CellTemplate(n_inputs=2, n_intermediate=1, op_names=SMALL_OPS)
    theta = {("cell", e): np.array([40.0, 1.0, 0.0]) for e in tpl.edges()}
    arch = derive_discrete(theta, {"cell": tpl})
    for _, op in arch.choices["cell"][2]:
        assert op != ops.ZERO


@given(
    shifts=st.lists(st.integers(-10, 10), min_size=2, max_size=2),
    logits=st.lists(
        st.lists(st.integers(-8, 8), min_size=3, max_size=3), min_size=2, max_size=2
    ),
)
@settings(max_examples=60, deadline=None)
def test_derive_invariant_to_per_edge_logit_shift(shifts, logits):
    tpl = CellTemplate(n_inputs=2, n_intermediate=1, op_names=SMALL_OPS)
    theta = {("cell", e): np.array(v, dtype=np.float64) for e, v in zip(tpl.edges(), logits)}
    shifted = {
        ("cell", e): theta[("cell", e)] + float(c) for e, c in zip(tpl.edges(), shifts)
    }
    a = derive_discrete(theta, {"cell": tpl})
    b = derive_discrete(shifted, {"cell": tpl})
    assert a.choices == b.choices


def test_derive_float_shift_smoke():
    tpl = normal_template(5)
    rng = _rng(9)
    theta = {("normal.0", e): rng.standard_normal(tpl.n_ops) for e in tpl.edges()}
    shifted = {k: v + 1.7 for k, v in theta.items()}
    assert derive_discrete(theta, {"normal.0": tpl}).choices == derive_discrete(
        shifted, {"normal.0": tpl}
    ).choices


def test_json_round_trip_preserves_arch():
    templates = {"normal.0": normal_template(5), "connect": connection_template()}
    arch = derive_discrete(ArchParams(templates, _rng(11), init_scale=1.0).numpy(), templates)
    text = arch.to_canonical_json()
    doc = json.loads(text)
    back = DiscreteArch.from_json_dict(doc)
    back.validate(templates)
    assert back.choices == arch.choices
    assert back.arch_hash() == arch.arch_hash()


def test_canonical_json_is_sorted_with_trailing_newline():
    templates = {"connect": connection_template()}
    arch = derive_discrete(ArchParams(templates, _rng(12)).numpy(), templates)
    text = arch.to_canonical_json()
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_validate_rejects_malformed_archs():
    templates = {"connect": connection_template()}
    good = derive_discrete(ArchParams(templates, _rng(13)).numpy(), templates)

    with pytest.raises(ArchFormatError):
        DiscreteArch({"other": good.choices["connect"]}).validate(templates)
    with pytest.raises(ArchFormatError):
        DiscreteArch({"connect": {2: good.choices["connect"][1]}}).validate(templates)
    with pytest.raises(ArchFormatError):
        DiscreteArch({"connect": {1: ((0, "sep_conv_3x3"),)}}).validate(templates)
    with pytest.raises(ArchFormatError):
        DiscreteArch({"connect": {1: ((5, ops.GROUP_CONV_G1),)}}).validate(templates)

    tpl = CellTemplate(n_inputs=2, n_intermediate=1, op_names=SMALL_OPS)
    with pytest.raises(ArchFormatError):
        DiscreteArch({"cell": {2: ((0, ops.ZERO), (1, ops.IDENTITY))}}).validate({"cell": tpl})
    with pytest.raises(ArchFormatError):  # duplicate predecessor
        DiscreteArch({"cell": {2: ((0, ops.IDENTITY), (0, ops.MAX_POOL_3))}}).validate({"cell": tpl})
    with pytest.raises(ArchFormatError):  # unsorted predecessors
        DiscreteArch({"cell": {2: ((1, ops.IDENTITY), (0, ops.MAX_POOL_3))}}).validate({"cell": tpl})


def test_from_json_rejects_bad_documents():
    with pytest.raises(ArchFormatError):
        DiscreteArch.from_json_dict([])
    with pytest.raises(ArchFormatError):
        DiscreteArch.from_json_dict({"schema_version": 99, "kinds": {}})
    with pytest.raises(ArchFormatError):
        DiscreteArch.from_json_dict({"schema_version": 1})
    with pytest.raises(ArchFormatError):
        DiscreteArch.from_json_dict(
            {"schema_version": 1, "kinds": {"connect": {"nodes": {"x": []}}}}
        )
    with pytest.raises(ArchFormatError):
        DiscreteArch.from_json_dict(
            {"schema_version": 1, "kinds": {"connect": {"nodes": {"1": [{"pred": 0}]}}}}
        )


def test_arch_params_digest_and_load():
    templates = {"normal.0": normal_template(5), "connect": connection_template()}
    a = ArchParams(templates, _rng(21))
    b = ArchParams(templates, _rng(21))
    c = ArchParams(templates, _rng(22))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()

    c.load(a.numpy())
    assert c.digest() == a.digest()

    snap = a.numpy()
    snap[("connect", (0, 1))][:] = 99.0  # numpy() must hand out copies
    assert a.digest() == b.digest()

    with pytest.raises(ValueError):
        a.load({("connect", (0, 1)): np.zeros(17)})


def test_export_dot_lists_every_chosen_edge():
    templates = {"normal.0": normal_template(6), "connect": connection_template()}
    arch = derive_discrete(ArchParams(templates, _rng(31), init_scale=1.0).numpy(), templates)
    dot = export_dot(arch, templates)
    assert dot.startswith("digraph")
    n_picks = sum(
        len(picks) for nodes in arch.choices.values() for picks in nodes.values()
    )
    op_edges = [
        line for line in dot.splitlines() if "->" in line and 'label="' in line
    ]
    assert len(op_edges) == n_picks
    for nodes in arch.choices.values():
        for picks in nodes.values():
            for _, op in picks:
                assert f'label="{op}"' in dot
