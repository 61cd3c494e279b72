"""Whole-network assembly: stem, stacked cells, inter-cell links, classifier.

A NetworkPlan fixes the macro structure (cell count, channel schedule,
reduction placement, depth levels). Its Layout holds every op placement
once, as a Slot built in the plan's one walk: per cell its two links, then
its template edges. Both networks build from those slots and run one
forward; they differ only in what a slot holds. Supernet holds the softmax
mixture of every candidate op; DiscreteNetwork holds the op a DiscreteArch
chose, or nothing on an edge it did not keep. The cost model prices the
same slots, so costs, counts, and shapes agree by construction. With
connection cells off, each link holds the fixed FIXED_LINK_OP (ReLU, 1x1
conv at the link's stride, BN) and its cost is part of the fixed term.
The stem is the op ops.STEM (3x3 conv and BN) at ``Layout.stem_context``,
built and priced from its plan like every other op; only the classifier
(global pooling and a linear layer) is written here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Callable, NamedTuple

import numpy as np

from . import cells, ops
from .autodiff import (
    Parameter,
    Tensor,
    conv2d,  # noqa: F401 - unused here; perfbench/test_perfbench.py reads rcnas.network.conv2d
    cross_entropy_logits,
    global_avg_pool,
    linear,
)
from .settings import check_ranges

__all__ = [
    "NetworkPlan",
    "Layout",
    "CellInfo",
    "Slot",
    "Supernet",
    "DiscreteNetwork",
    "STEM",
    "FIXED_LINK_OP",
]

STEM = -1  # source index meaning "the stem output"

# What every link runs when the plan has no connection cells.
FIXED_LINK_OP = ops.GROUP_CONV_G1


def default_reduction_positions(n_cells: int) -> tuple[int, ...]:
    """Reductions at one and two thirds of the depth (8 cells -> 2 and 5)."""
    if n_cells < 3:
        return ()
    return (n_cells // 3, (2 * n_cells) // 3)


@dataclass(frozen=True)
class NetworkPlan:
    """Macro structure of the searched network."""

    n_cells: Annotated[int, {"minimum": 1}] = 4
    init_channels: Annotated[int, {"minimum": 1}] = 8
    n_classes: int = 10
    in_channels: int = 3
    image_hw: tuple[int, int] = (16, 16)
    n_nodes: Annotated[int, {"minimum": 4}] = 5  # two inputs, at least one intermediate, the output
    k_levels: Annotated[int, {"minimum": 1}] = 3
    use_connection: Annotated[bool, {}] = True

    def __post_init__(self):
        check_ranges(NetworkPlan, vars(self))
        h, w = self.image_hw
        factor = 2 ** len(self.reductions)
        if h % factor or w % factor:
            raise ValueError(f"image {h}x{w} not divisible by total reduction factor {factor}")
        if self.use_connection:
            # every link's channel count is a multiple of init_channels, so a
            # connection op whose plan fits init_channels fits every link;
            # a misfit raises ShapeError, a ValueError
            for name in ops.CONNECTION_OPS:
                ops.layer_plan(name, ops.OpContext(self.init_channels, self.init_channels, 1, 1))

    @property
    def reductions(self) -> tuple[int, ...]:
        return default_reduction_positions(self.n_cells)

    @property
    def n_intermediate(self) -> int:
        return self.n_nodes - 3

    def cell_kind_list(self) -> list[str]:
        """Kind id per cell index; normal cells split into contiguous levels."""
        reds = set(self.reductions)
        normal_cells = [i for i in range(self.n_cells) if i not in reds]
        kinds = [cells.REDUCE_KIND] * self.n_cells
        groups = [g for g in np.array_split(normal_cells, self.k_levels) if len(g)]
        for level, grp in enumerate(groups):
            for idx in grp:
                kinds[int(idx)] = cells.normal_kind(level)
        return kinds

    def templates(self) -> dict[str, cells.CellTemplate]:
        """Templates for every kind the plan instantiates, in network order."""
        out: dict[str, cells.CellTemplate] = {}
        for kind in self.cell_kind_list():
            if kind not in out:
                out[kind] = cells.normal_template(self.n_nodes)
        if self.use_connection:
            out[cells.CONNECT_KIND] = cells.connection_template()
        return out

    def layout(self) -> "Layout":
        """The plan's layout, built at first call and shared by every caller
        after it; callers must not change it."""
        if "_layout" not in self.__dict__:
            self.__dict__["_layout"] = self._build_layout()  # the frozen dataclass allows no setattr
        return self.__dict__["_layout"]

    def _build_layout(self) -> "Layout":
        """Size each cell, then place its two links and its template edges.
        An edge from a cell input runs at the cell's input size and the
        reduction's stride; every other edge at its output size, stride 1."""
        reds = set(self.reductions)
        kinds = self.cell_kind_list()
        templates = self.templates()
        link_kind = cells.CONNECT_KIND if self.use_connection else None
        infos: list[CellInfo] = []
        slots: list[Slot] = []
        ch = self.init_channels
        for i in range(self.n_cells):
            reduction = i in reds
            if reduction:
                ch *= 2
            in_hw = infos[-1].out_hw if infos else self.image_hw
            info = CellInfo(
                index=i,
                kind=kinds[i],
                reduction=reduction,
                channels=ch,
                out_hw=(in_hw[0] // 2, in_hw[1] // 2) if reduction else in_hw,
                out_channels=self.n_intermediate * ch,
            )
            for k, src in enumerate((i - 2, i - 1)):
                src = src if src >= 0 else STEM
                sh = self.image_hw if src == STEM else infos[src].out_hw
                stride = sh[0] // in_hw[0]
                if stride not in (1, 2) or sh[1] // in_hw[1] != stride:
                    raise ValueError(f"cell {i} slot {k}: cannot bridge {sh} -> {in_hw}")
                c_src = self.init_channels if src == STEM else infos[src].out_channels
                ctx = ops.OpContext(c_src, ch, sh[0], sh[1], stride)
                slots.append(Slot(i, f"cell{i}.in{k}", link_kind, (0, 1), ctx, src))
            tpl = templates[info.kind]
            for edge in tpl.edges():
                from_input = edge[0] < tpl.n_inputs
                hw = in_hw if from_input else info.out_hw
                ctx = ops.OpContext(ch, ch, hw[0], hw[1], 2 if reduction and from_input else 1)
                slots.append(Slot(i, f"cell{i}.edge{edge[0]}_{edge[1]}", info.kind, edge, ctx))
            infos.append(info)
        stem_context = ops.OpContext(self.in_channels, self.init_channels, *self.image_hw)
        return Layout(self, tuple(infos), tuple(slots), templates, stem_context)


@dataclass(frozen=True)
class CellInfo:
    index: int
    kind: str
    reduction: bool
    channels: int
    out_hw: tuple[int, int]
    out_channels: int


class Slot(NamedTuple):
    """One op placement: a link into a cell, or one of its template edges."""

    cell: int
    prefix: str  # parameter-name prefix: cellN.inK or cellN.edgeI_J
    kind: str | None  # logits kind; None for a link when connection cells are off
    edge: tuple[int, int]  # a link is edge (0, 1) of the connection template
    context: ops.OpContext
    src: int | None = None  # links only: the source cell, or STEM


@dataclass(frozen=True)
class Layout:
    """The plan's one walk: its cells, and every op placement once, in the
    order networks draw weights: per cell its two links, then its template
    edges."""

    plan: NetworkPlan
    cells: tuple[CellInfo, ...]
    slots: tuple[Slot, ...]
    templates: dict[str, cells.CellTemplate]
    stem_context: ops.OpContext  # the stem op: the input image to init_channels

    @property
    def final_channels(self) -> int:
        return self.cells[-1].out_channels


EdgeFn = Callable[..., Tensor]  # an OpInstance or a cells.MixedEdge


class _NetworkBase:
    """The one build and forward both network flavors share. A subclass
    says what a slot holds through ``_slot_op``."""

    def __init__(self, plan: NetworkPlan, seed: int):
        self.plan = plan
        self.layout = plan.layout()
        self.templates = self.layout.templates
        ss = np.random.SeedSequence(seed)
        w_ss, theta_ss = ss.spawn(2)
        self._w_rng = np.random.default_rng(w_ss)
        self._theta_rng = np.random.default_rng(theta_ss)
        self._params: list[Parameter] = []

        self.stem = ops.build(ops.STEM, self.layout.stem_context, self._w_rng, "stem")
        self._params.extend(self.stem.parameters)

    def _slot_op(self, slot: Slot) -> EdgeFn | None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _build_op(self, op_name: str, slot: Slot) -> ops.OpInstance:
        inst = ops.build(op_name, slot.context, self._w_rng, f"{slot.prefix}.{op_name}")
        self._params.extend(inst.parameters)
        return inst

    def _build(self) -> None:
        """Build every slot in walk order, then the classifier."""
        self._links: list[list[tuple[int, EdgeFn]]] = [[] for _ in self.layout.cells]
        self._nodes: list[dict[int, list[tuple[int, EdgeFn]]]] = [{} for _ in self.layout.cells]
        for slot in self.layout.slots:
            fn = self._build_op(FIXED_LINK_OP, slot) if slot.kind is None else self._slot_op(slot)
            if slot.src is not None:
                self._links[slot.cell].append((slot.src, fn))
            elif fn is not None:
                i, j = slot.edge
                self._nodes[slot.cell].setdefault(j, []).append((i, fn))

        feat = self.layout.final_channels
        K = self.plan.n_classes
        bound = np.sqrt(6.0 / feat)
        self.fc_w = Parameter(self._w_rng.uniform(-bound, bound, size=(K, feat)), "classifier.weight")
        self.fc_b = Parameter(np.zeros(K), "classifier.bias")
        self._params += [self.fc_w, self.fc_b]
        self.check_names_unique()

    def _forward(self, x, tap: int | None) -> Tensor:
        """Stem, then per cell its links and ``cells.cell_forward``, then
        the classifier; ``tap`` returns cell ``tap``'s output instead. A
        cell's links run under one ``cells.SharedRelu``, as its edges do, so
        two links from one source share its ReLU; no ReLU outlives its cell."""
        xt = x if isinstance(x, Tensor) else Tensor(x)
        stem_out = self.stem(xt)
        outs: list[Tensor] = []
        for info, links, nodes in zip(self.layout.cells, self._links, self._nodes):
            shared = cells.SharedRelu(src for src, _ in links)
            ins = [shared.run(fn, stem_out if src == STEM else outs[src], src) for src, fn in links]
            out = cells.cell_forward(self.templates[info.kind], ins, nodes)
            outs.append(out)
            if tap is not None and info.index == tap:
                return out
        return linear(global_avg_pool(outs[-1]), self.fc_w, self.fc_b)

    def weight_params(self) -> list[Parameter]:
        return list(self._params)

    def weight_count(self) -> int:
        return sum(p.size for p in self._params)

    def check_names_unique(self) -> None:
        names = [p.name for p in self._params]
        assert len(names) == len(set(names)), "duplicate parameter names"

    def loss(self, x: np.ndarray, y: np.ndarray) -> tuple[Tensor, Tensor]:
        logits = self.forward(x)
        return cross_entropy_logits(logits, y), logits


class Supernet(_NetworkBase):
    """Relaxed search network: every candidate op on every slot, mixed by
    softmax over shared per-kind logits."""

    def __init__(self, plan: NetworkPlan, seed: int):
        super().__init__(plan, seed)
        self.arch = cells.ArchParams(self.templates, self._theta_rng)
        self._build()

    def _slot_op(self, slot: Slot) -> EdgeFn:
        part = self.arch.layout.rows[(slot.kind, slot.edge)]
        edge_ops = [self._build_op(op_name, slot) for op_name in self.templates[slot.kind].op_names]
        return cells.MixedEdge(self.arch.theta, part, edge_ops)

    # Each class defines its own forward (and __init__) so that a tracer
    # wrapping a class's own methods can tell the two networks apart.
    def forward(self, x, tap: int | None = None) -> Tensor:
        return self._forward(x, tap)

    def theta_tensors(self) -> list[Tensor]:
        """The logits, ``arch.theta``, as the one tensor of a list."""
        return [self.arch.theta]


class DiscreteNetwork(_NetworkBase):
    """Concrete network for a chosen architecture; only kept edges exist."""

    def __init__(self, plan: NetworkPlan, arch: cells.DiscreteArch, seed: int):
        super().__init__(plan, seed)
        arch.validate(self.templates)
        self.arch = arch
        self._build()

    def _slot_op(self, slot: Slot) -> ops.OpInstance | None:
        op_name = self.arch.op_on(slot.kind, slot.edge)
        return None if op_name is None else self._build_op(op_name, slot)

    # See Supernet.forward.
    def forward(self, x, tap: int | None = None) -> Tensor:
        return self._forward(x, tap)
