"""Exhaustive enumeration over small architecture spaces.

Used as an independent oracle: the relaxed cost model and the derivation
rule can be checked against every discrete architecture when the space is
small enough to walk.  Everything enumerates in one canonical order so
results are reproducible and index-addressable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cells import CellTemplate, DiscreteArch
from .cost import CostTable
from .network import NetworkPlan

__all__ = [
    "SpaceTooLarge",
    "count_archs",
    "enumerate_archs",
    "MicroSpace",
    "saturate_theta",
    "enumerate_vertex_costs",
]


class SpaceTooLarge(ValueError):
    """Raised when an enumeration would exceed its ceiling."""


def _nonzero_ops(tpl: CellTemplate) -> list[str]:
    zi = tpl.zero_index
    return [name for o, name in enumerate(tpl.op_names) if o != zi]


def count_archs(templates: dict[str, CellTemplate]) -> int:
    """Closed-form size of the discrete space the templates span.

    Per intermediate node: choose which predecessors to keep, then one
    non-zero op per kept edge.  Kinds multiply independently.
    """
    total = 1
    for tpl in templates.values():
        ops = len(_nonzero_ops(tpl))
        for j in tpl.intermediates:
            kept = tpl.kept_per_node(j)
            total *= math.comb(len(tpl.predecessors(j)), kept) * ops**kept
    return total


def _node_choices(tpl: CellTemplate, j: int) -> list[tuple[tuple[int, str], ...]]:
    """All ((pred, op), ...) selections for node j, in canonical order."""
    kept = tpl.kept_per_node(j)
    ops = _nonzero_ops(tpl)
    out = []
    for preds in itertools.combinations(tpl.predecessors(j), kept):
        for op_combo in itertools.product(ops, repeat=kept):
            out.append(tuple(zip(preds, op_combo)))
    return out


def enumerate_archs(templates: dict[str, CellTemplate], ceiling: int = 10_000) -> list[DiscreteArch]:
    """Every discrete architecture, ordered kind-major then node-major."""
    n = count_archs(templates)
    if n > ceiling:
        raise SpaceTooLarge(f"space holds {n} architectures, ceiling is {ceiling}")
    kind_names = list(templates)
    per_kind_choices = []
    for kind in kind_names:
        tpl = templates[kind]
        per_node = [_node_choices(tpl, j) for j in tpl.intermediates]
        per_kind_choices.append(list(itertools.product(*per_node)))
    archs = []
    for combo in itertools.product(*per_kind_choices):
        choices: dict[str, dict[int, tuple[tuple[int, str], ...]]] = {}
        for kind, node_picks in zip(kind_names, combo):
            tpl = templates[kind]
            choices[kind] = {j: picks for j, picks in zip(tpl.intermediates, node_picks)}
        archs.append(DiscreteArch(choices))
    assert len(archs) == n
    return archs


@dataclass
class MicroSpace:
    """A plan small enough to enumerate, with its architectures precomputed."""

    plan: NetworkPlan
    ceiling: int = 10_000
    archs: list[DiscreteArch] = field(init=False)

    def __post_init__(self) -> None:
        self.archs = enumerate_archs(self.plan.templates(), self.ceiling)

    def __len__(self) -> int:
        return len(self.archs)


def saturate_theta(
    arch: DiscreteArch,
    templates: dict[str, CellTemplate],
    magnitude: float = 40.0,
) -> dict[tuple[str, tuple[int, int]], np.ndarray]:
    """Logits whose softmax is (numerically) one-hot on the architecture.

    Kept edges spike on their chosen op; dropped edges spike on the zero
    op, which both kills their feature contribution and marks them weakest
    for the top-2 edge ranking.  Templates without a zero op (single-edge
    kinds where every edge is kept) never have dropped edges to mark.
    """
    theta: dict[tuple[str, tuple[int, int]], np.ndarray] = {}
    for kind, tpl in templates.items():
        picked: dict[tuple[int, int], int] = {}
        for j, picks in arch.choices[kind].items():
            for pred, op in picks:
                picked[(pred, j)] = tpl.op_names.index(op)
        for edge in tpl.edges():
            vec = np.zeros(tpl.n_ops)
            if edge in picked:
                vec[picked[edge]] = magnitude
            else:
                if tpl.zero_index is None:
                    raise ValueError(f"kind {kind!r} drops edge {edge} but has no zero op")
                vec[tpl.zero_index] = magnitude
            theta[(kind, edge)] = vec
    return theta


def enumerate_vertex_costs(table: CostTable, ceiling: int = 200_000) -> np.ndarray:
    """Expected cost at every one-hot vertex of the relaxed space (FullDag).

    Each shared logits vector commits to one op, so every cell using that
    vector picks the same op; the result is the exact set of costs
    reachable in the saturated limit.  Returns an array of shape
    (n_vertices, n_metrics) in canonical key-major order.
    """
    n = math.prod(table.layout.sizes)
    if n > ceiling:
        raise SpaceTooLarge(f"{n} vertices exceed ceiling {ceiling}")
    out = np.asarray(table.fixed, dtype=np.float64)[None, :]
    for u, size in zip(table.U, table.layout.sizes):
        # every vertex so far, extended by each op of this key (key-major order)
        out = (out[:, None, :] + u[:, :size].T[None, :, :]).reshape(-1, out.shape[1])
    return out
