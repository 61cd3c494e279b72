"""Cell DAG templates, architecture parameters, and discretization.

A cell is a small DAG: input nodes, intermediate nodes, and (for
feature cells) an output that channel-concatenates the intermediates.
During search every intermediate receives a softmax-weighted mixture of
candidate ops on every incoming edge. Discretization keeps the top-2
strongest incoming edges per intermediate and the strongest non-zero op
on each kept edge.

Cells come in kinds. Normal cells are split into k depth levels, each
with its own logits; reduction cells share one set; channel-adapting
connection cells (one input, one intermediate, one edge) share another.
"""
from __future__ import annotations

import functools
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import ops
from .autodiff import Tensor, add, concat, relu, softmax, weighted_sum

__all__ = [
    "CellTemplate",
    "ArchParams",
    "DiscreteArch",
    "ArchFormatError",
    "REDUCE_KIND",
    "CONNECT_KIND",
    "normal_kind",
    "normal_template",
    "connection_template",
    "theta_keys",
    "LogitsLayout",
    "logits_layout",
    "scope_edges",
    "MixedEdge",
    "mixed_edge_forward",
    "SharedRelu",
    "cell_forward",
    "derive_discrete",
    "export_dot",
    "TOP_EDGES_PER_NODE",
]

REDUCE_KIND = "reduce"
CONNECT_KIND = "connect"

# Discretization keeps this many incoming edges per intermediate node
# (fewer if the node has fewer candidate predecessors).
TOP_EDGES_PER_NODE = 2


def normal_kind(level: int) -> str:
    return f"normal.{level}"


class ArchFormatError(ValueError):
    """A serialized architecture violated the document schema."""


@dataclass(frozen=True)
class CellTemplate:
    """Node/edge layout plus the candidate op list for one cell kind."""

    n_inputs: int
    n_intermediate: int
    op_names: tuple[str, ...]
    concat_output: bool = True

    def __post_init__(self):
        if self.n_inputs < 1 or self.n_intermediate < 1:
            raise ValueError("template needs at least one input and one intermediate node")
        if len(self.op_names) < 2:
            raise ValueError("template needs at least two candidate ops")
        if len(set(self.op_names)) != len(self.op_names):
            raise ValueError("duplicate op names in template")

    @property
    def intermediates(self) -> tuple[int, ...]:
        return tuple(range(self.n_inputs, self.n_inputs + self.n_intermediate))

    def predecessors(self, j: int) -> tuple[int, ...]:
        """Candidate source nodes for intermediate j: every earlier node."""
        return tuple(range(j))

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for j in self.intermediates:
            out.extend((i, j) for i in self.predecessors(j))
        return tuple(out)

    @property
    def n_ops(self) -> int:
        return len(self.op_names)

    @property
    def zero_index(self) -> int | None:
        try:
            return self.op_names.index(ops.ZERO)
        except ValueError:
            return None

    def kept_per_node(self, j: int) -> int:
        return min(TOP_EDGES_PER_NODE, len(self.predecessors(j)))


def normal_template(n_nodes: int = 7, op_names: tuple[str, ...] = ops.NORMAL_OPS) -> CellTemplate:
    """Feature-cell template: nodes 0,1 are inputs, node n_nodes-1 is the
    concat output, the rest are intermediates."""
    if n_nodes < 4:
        raise ValueError(f"feature cells need >= 4 nodes (2 inputs, 1 intermediate, output), got {n_nodes}")
    return CellTemplate(n_inputs=2, n_intermediate=n_nodes - 3, op_names=tuple(op_names), concat_output=True)


def connection_template(op_names: tuple[str, ...] = ops.CONNECTION_OPS) -> CellTemplate:
    """Channel-adapting template: one input, one intermediate, one edge."""
    return CellTemplate(n_inputs=1, n_intermediate=1, op_names=tuple(op_names), concat_output=False)


ThetaKey = tuple[str, tuple[int, int]]
ThetaMap = dict[ThetaKey, np.ndarray]


def theta_keys(templates: dict[str, CellTemplate]) -> list[ThetaKey]:
    """The order of the logits vectors, one per (kind, edge): kinds in
    template order, each kind's edges in ``edges()`` order."""
    return [(kind, edge) for kind, tpl in templates.items() for edge in tpl.edges()]


class ArchParams:
    """One logits vector per (cell kind, edge); cells of equal kind share it."""

    def __init__(self, templates: dict[str, CellTemplate], rng: np.random.Generator, init_scale: float = 1e-3):
        self.templates = dict(templates)
        self._vectors: dict[ThetaKey, Tensor] = {
            (kind, edge): Tensor(init_scale * rng.standard_normal(self.templates[kind].n_ops), requires_grad=True)
            for kind, edge in theta_keys(self.templates)
        }

    def vector(self, kind: str, edge: tuple[int, int]) -> Tensor:
        return self._vectors[(kind, edge)]

    def items(self):
        for (kind, edge), t in self._vectors.items():
            yield kind, edge, t

    def tensors(self) -> list[Tensor]:
        return list(self._vectors.values())

    def numpy(self) -> dict[ThetaKey, np.ndarray]:
        return {key: t.data.copy() for key, t in self._vectors.items()}

    def load(self, values: dict[ThetaKey, np.ndarray]) -> None:
        for key, arr in values.items():
            t = self._vectors[key]
            if t.data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {key}: {t.data.shape} vs {arr.shape}")
            t.data = np.asarray(arr, dtype=np.float64).copy()

    def digest(self) -> str:
        h = hashlib.sha256()
        for (kind, edge), t in self._vectors.items():
            h.update(f"{kind}:{edge}".encode())
            h.update(t.data.tobytes())
        return h.hexdigest()


class LogitsLayout:
    """Where every logits vector of a template set sits, and the TopK rule.

    ``keys`` are ``theta_keys(templates)`` and ``sizes`` their op counts.
    Logits travel as one flat vector, the keys' vectors concatenated in key
    order, or on the (K, O) grid zero-padded to the widest template, whose
    real cells ``valid`` marks. ``logits_layout`` keeps one per template set.
    """

    def __init__(self, templates: Iterable[tuple[str, CellTemplate]]):
        templates = dict(templates)
        self.keys = tuple(theta_keys(templates))
        self.sizes = tuple(templates[kind].n_ops for kind, _ in self.keys)
        sizes = np.array(self.sizes, dtype=np.intp)
        self.valid = np.arange(sizes.max(initial=0))[None, :] < sizes[:, None]
        self.valid.flags.writeable = False  # one layout serves every caller
        starts = np.cumsum(sizes) - sizes
        self._starts = tuple(starts.tolist())
        # per op count and zero op, the keys' flat positions and non-zero ops:
        # a padded row would sum its softmax denominator in another order,
        # and so change the last bit that breaks exact ties
        groups: dict[tuple[int, int | None], list[int]] = {}
        for k, (kind, _) in enumerate(self.keys):
            groups.setdefault((self.sizes[k], templates[kind].zero_index), []).append(k)
        self._blocks = [
            (np.array(rows), starts[rows][:, None] + np.arange(n), np.array([o for o in range(n) if o != zero]))
            for (n, zero), rows in groups.items()
        ]
        # keys come grouped by node with predecessor i at place i, so ranking by node
        # first leaves each group in place, and rank i is kept when key i would be
        self._pred = np.array([i for _, (i, _) in self.keys], dtype=np.intp)
        self._node = np.cumsum(self._pred == 0)
        self._keep = np.array([i < templates[kind].kept_per_node(j) for kind, (i, j) in self.keys], dtype=bool)

    def flatten(self, theta: ThetaMap) -> np.ndarray:
        """The logits map as one flat float64 vector in key order. Raises
        ValueError naming a missing key, an extra key or a wrong-length vector."""
        vecs = []
        for key, n in zip(self.keys, self.sizes):
            try:
                v = theta[key]
            except KeyError:
                raise ValueError(f"logits map is missing key {key!r}") from None
            shape = v.shape if isinstance(v, np.ndarray) else np.shape(v)
            if shape != (n,):
                raise ValueError(f"logits for {key!r} have shape {shape}, expected ({n},)")
            vecs.append(v)
        if len(theta) != len(self.keys):
            extra = next(key for key in theta if key not in set(self.keys))
            raise ValueError(f"logits map has extra key {extra!r}")
        return np.concatenate(vecs, dtype=np.float64)

    def unflatten(self, flat: np.ndarray) -> ThetaMap:
        """Views of a flat vector, keyed in key order."""
        return {key: flat[a : a + n] for key, a, n in zip(self.keys, self._starts, self.sizes)}

    def softmax(self, flat: np.ndarray) -> np.ndarray:
        """Per-key softmax on the (K, O) grid; padding gets weight zero."""
        z = np.full(self.valid.shape, -np.inf)
        z[self.valid] = flat
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def topk(self, flat: np.ndarray) -> np.ndarray:
        """Boolean key mask of the edges discretization keeps: per
        intermediate node j, the kept_per_node(j) incoming edges of largest
        strength, ties preferring the smaller predecessor. An edge's
        strength is its largest mixture weight among non-zero ops."""
        strength = np.empty(len(self.keys))
        for rows, at, real in self._blocks:
            z = flat[at]
            e = np.exp(z - z.max(axis=1, keepdims=True))
            # max(e) / sum is max(e / sum): dividing by one positive sum keeps the order
            strength[rows] = e[:, real].max(axis=1) / e.sum(axis=1)
        mask = np.empty(len(self.keys), dtype=bool)
        mask[np.lexsort((self._pred, -strength, self._node))] = self._keep
        return mask

    def best_ops(self, flat: np.ndarray) -> np.ndarray:
        """Per key, the op index of its largest non-zero logit; ties prefer
        the smaller op index."""
        best = np.empty(len(self.keys), dtype=np.intp)
        for rows, at, real in self._blocks:
            best[rows] = real[flat[at][:, real].argmax(axis=1)]
        return best


_layouts = functools.lru_cache(maxsize=64)(LogitsLayout)


def logits_layout(templates: dict[str, CellTemplate]) -> LogitsLayout:
    """The layout of a template set, built once per distinct set."""
    return _layouts(tuple(templates.items()))


def scope_edges(theta: ThetaMap | np.ndarray, templates: dict[str, CellTemplate]) -> np.ndarray:
    """The edges discretization keeps for a logits map or its flat vector, as
    ``LogitsLayout.topk``'s mask over ``theta_keys(templates)``. The TopK cost
    scope counts them, and shared logits keep them for every cell of a kind."""
    layout = logits_layout(templates)
    return layout.topk(theta if isinstance(theta, np.ndarray) else layout.flatten(theta))


class MixedEdge:
    """One searched edge: the softmax mixture, under logits ``theta``, of
    its candidate ops. It reads a shared ReLU if any of its ops does."""

    __slots__ = ("theta", "ops", "reads_relu")

    def __init__(self, theta: Tensor, edge_ops: list[ops.OpInstance]):
        self.theta = theta
        self.ops = edge_ops
        self.reads_relu = any(op.reads_relu for op in edge_ops)

    def __call__(self, x: Tensor, relu_x: Tensor | None = None) -> Tensor:
        # looked up at call time, so a wrapper installed on the module sees every call
        return mixed_edge_forward(self.theta, x, self.ops, relu_x)


def mixed_edge_forward(theta: Tensor, x: Tensor, edge_ops: list[ops.OpInstance], relu_x: Tensor | None = None) -> Tensor:
    """Softmax-weighted sum of every candidate op applied to x; ops that
    start with a ReLU read ``relu_x`` (= relu(x)) instead when it is given."""
    if theta.shape != (len(edge_ops),):
        raise ValueError(f"theta shape {theta.shape} does not match {len(edge_ops)} ops")
    weights = softmax(theta)
    return weighted_sum(weights, [op(x, relu_x) for op in edge_ops])


class SharedRelu:
    """Runs the edges of one cell so that those reading the same tensor
    share one ReLU of it.

    ``keys`` names, with repeats, the tensor each edge will read. ``run``
    calls ``edge_fn(x)``, or ``edge_fn(x, relu(x))`` for an edge whose
    ``reads_relu`` attribute is true (an ``ops.OpInstance`` or
    ``MixedEdge`` with a ReLU-led op). The ReLU of a key is taken at its
    first such edge and dropped after the key's last edge, so a forward
    without a tape holds no ReLU longer than its readers need it.
    """

    __slots__ = ("_pending", "_relus")

    def __init__(self, keys: Iterable):
        self._pending = Counter(keys)
        self._relus: dict = {}

    def run(self, edge_fn: Callable[..., Tensor], x: Tensor, key) -> Tensor:
        if getattr(edge_fn, "reads_relu", False):
            if key not in self._relus:
                self._relus[key] = relu(x)
            out = edge_fn(x, self._relus[key])
        else:
            out = edge_fn(x)
        self._pending[key] -= 1
        if not self._pending[key]:
            self._relus.pop(key, None)
        return out


def cell_forward(
    template: CellTemplate,
    inputs: list[Tensor],
    node_edges: dict[int, list[tuple[int, Callable[..., Tensor]]]],
) -> Tensor:
    """Run one cell: each intermediate node j is the sum, in list order, of
    the outputs of its ``(i, edge_fn)`` pairs in ``node_edges[j]`` on
    state i. The edges run under one ``SharedRelu``, so ``relu(state_i)``
    is taken at most once, lives only within this call, and is dropped
    after state i's last edge.

    Returns the channel-concat of intermediates (or the single
    intermediate for non-concat templates).
    """
    if len(inputs) != template.n_inputs:
        raise ValueError(f"template expects {template.n_inputs} inputs, got {len(inputs)}")
    states = list(inputs)
    shared = SharedRelu(i for j in template.intermediates for i, _ in node_edges[j])
    for j in template.intermediates:
        acc = None
        for i, edge_fn in node_edges[j]:
            term = shared.run(edge_fn, states[i], i)
            acc = term if acc is None else add(acc, term)
        states.append(acc)
    inter = states[template.n_inputs :]
    return concat(inter, axis=1) if template.concat_output else inter[0]


@dataclass
class DiscreteArch:
    """Chosen (predecessor, op) pairs per intermediate node, per cell kind."""

    choices: dict[str, dict[int, tuple[tuple[int, str], ...]]] = field(default_factory=dict)

    SCHEMA_VERSION = 1

    def op_on(self, kind: str, edge: tuple[int, int]) -> str | None:
        """The op kept on a template edge, or None if the edge was not kept."""
        i, j = edge
        return dict(self.choices[kind][j]).get(i)

    def validate(self, templates: dict[str, CellTemplate]) -> None:
        if set(self.choices) != set(templates):
            raise ArchFormatError(f"kinds {sorted(self.choices)} do not match templates {sorted(templates)}")
        for kind, tpl in templates.items():
            nodes = self.choices[kind]
            if set(nodes) != set(tpl.intermediates):
                raise ArchFormatError(f"{kind}: nodes {sorted(nodes)} != intermediates {list(tpl.intermediates)}")
            for j, picks in nodes.items():
                if len(picks) != tpl.kept_per_node(j):
                    raise ArchFormatError(f"{kind}: node {j} keeps {len(picks)} edges, expected {tpl.kept_per_node(j)}")
                preds = [p for p, _ in picks]
                if len(set(preds)) != len(preds):
                    raise ArchFormatError(f"{kind}: node {j} reuses a predecessor")
                for p, op in picks:
                    if p not in tpl.predecessors(j):
                        raise ArchFormatError(f"{kind}: node {j} cannot take input from node {p}")
                    if op not in tpl.op_names:
                        raise ArchFormatError(f"{kind}: op {op!r} not in template op set")
                    if op == ops.ZERO:
                        raise ArchFormatError(f"{kind}: node {j} kept the zero op")
                if list(preds) != sorted(preds):
                    raise ArchFormatError(f"{kind}: node {j} edges must be sorted by predecessor")

    def to_json_dict(self) -> dict:
        kinds = {}
        for kind, nodes in self.choices.items():
            kinds[kind] = {
                "nodes": {
                    str(j): [{"pred": p, "op": op} for p, op in picks]
                    for j, picks in sorted(nodes.items())
                }
            }
        return {"schema_version": self.SCHEMA_VERSION, "kinds": kinds}

    def to_canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DiscreteArch":
        if not isinstance(doc, dict):
            raise ArchFormatError("architecture document must be a JSON object")
        version = doc.get("schema_version")
        # an int, not a bool or float that compares equal to one
        if type(version) is not int or version != cls.SCHEMA_VERSION:
            raise ArchFormatError(f"unsupported schema_version {version!r}")
        kinds = doc.get("kinds")
        if not isinstance(kinds, dict):
            raise ArchFormatError("missing 'kinds' object")
        choices: dict[str, dict[int, tuple[tuple[int, str], ...]]] = {}
        for kind, body in kinds.items():
            if not isinstance(body, dict) or "nodes" not in body:
                raise ArchFormatError(f"kind {kind!r}: missing 'nodes'")
            if not isinstance(body["nodes"], dict):
                raise ArchFormatError(f"kind {kind!r}: 'nodes' must be an object keyed by node index")
            nodes = {}
            for j_str, picks in body["nodes"].items():
                # canonical decimal only, so no two keys ("2", "02", " 2")
                # name one node
                try:
                    j = int(j_str)
                except ValueError:
                    j = None
                if str(j) != j_str:
                    raise ArchFormatError(f"kind {kind!r}: node key {j_str!r} is not a canonical decimal integer")
                if not isinstance(picks, list):
                    raise ArchFormatError(f"kind {kind!r}: node {j} edges must be a list")
                parsed = []
                for item in picks:
                    if not isinstance(item, dict) or set(item) != {"pred", "op"}:
                        raise ArchFormatError(f"kind {kind!r}: node {j} edge entries need exactly 'pred' and 'op'")
                    pred, op = item["pred"], item["op"]
                    if not isinstance(pred, int) or isinstance(pred, bool) or not isinstance(op, str):
                        raise ArchFormatError(f"kind {kind!r}: node {j} edge needs an integer 'pred' and a string 'op'")
                    parsed.append((pred, op))
                nodes[j] = tuple(parsed)
            choices[kind] = nodes
        return cls(choices)

    def arch_hash(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode()).hexdigest()


def derive_discrete(theta: dict[ThetaKey, np.ndarray], templates: dict[str, CellTemplate]) -> DiscreteArch:
    """Discretize mixture logits into a concrete architecture.

    Per intermediate node, keep the edges ``scope_edges`` selects, sorted
    by predecessor, and on each the argmax non-zero op (ties prefer the
    smaller op index). The result is invariant to adding a constant to any
    single edge's logits.
    """
    layout = logits_layout(templates)
    flat = layout.flatten(theta)
    best = layout.best_ops(flat)
    choices = {kind: {j: () for j in tpl.intermediates} for kind, tpl in templates.items()}
    for k in np.flatnonzero(layout.topk(flat)):  # key order: each node's predecessors ascending
        kind, (i, j) = layout.keys[k]
        choices[kind][j] += ((i, templates[kind].op_names[best[k]]),)
    arch = DiscreteArch(choices)
    arch.validate(templates)
    return arch


def export_dot(arch: DiscreteArch, templates: dict[str, CellTemplate]) -> str:
    """Render the chosen cells as a Graphviz digraph, one cluster per kind.

    Input nodes are labeled c_{k-1} / c_{k-2}; op edges carry op labels;
    dashed edges mark the output concat.
    """
    arch.validate(templates)
    lines = ["digraph arch {", "  rankdir=LR;", "  node [shape=box, style=rounded];"]
    for ci, (kind, tpl) in enumerate(templates.items()):
        tag = f"k{ci}"
        lines.append(f"  subgraph cluster_{tag} {{")
        lines.append(f'    label="{kind}";')
        input_labels = ["c_{k-2}", "c_{k-1}"] if tpl.n_inputs == 2 else ["in"]
        for i in range(tpl.n_inputs):
            lines.append(f'    {tag}_n{i} [label="{input_labels[i]}"];')
        for j in tpl.intermediates:
            lines.append(f'    {tag}_n{j} [label="{j}"];')
        for j, picks in sorted(arch.choices[kind].items()):
            for p, op in picks:
                lines.append(f'    {tag}_n{p} -> {tag}_n{j} [label="{op}"];')
        if tpl.concat_output:
            out = tpl.n_inputs + tpl.n_intermediate
            lines.append(f'    {tag}_n{out} [label="out"];')
            for j in tpl.intermediates:
                lines.append(f"    {tag}_n{j} -> {tag}_n{out} [style=dashed];")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
