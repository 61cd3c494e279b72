"""Differentiable cost model over parameter count and FLOPs.

The expected cost of the relaxed network is

    Phi_m(theta) = fixed_m + sum_edges [edge in scope] * u_edge_m . softmax(theta_edge)

where u is a theta-free table holding every candidate op's cost at its
placement. The table, the fixed term and the exact cost of a discrete
architecture all read ``Layout.slots()``, the walk both networks build
from, so they price the ops the networks hold, in the same order; with
connection cells off, each link's fixed op is part of ``fixed``. Cells
sharing logits each contribute their own shape-dependent u row. Under the
TopK scope only the top-2 strongest incoming edges per
intermediate node count (matching what discretization will keep); under
FullDag every edge counts.

Because cells sharing a logits vector only ever add their rows, the model
works on the per-vector sums, which the table holds from the moment it is
built as a dense U[key, metric, op] (see ``CostTable``). Every scope is a
boolean key mask (``CostTable.scope_mask``; FullDag's holds every key), and
a key outside it prices as a zero row of U: Phi = fixed + sum_k U_k . F_k
and dPhi/dtheta_o = F_o(theta) * (U_o - U.F(theta)), exactly zero there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import cells, ops
from .cells import ThetaKey, ThetaMap, scope_edges
from .network import FIXED_LINK_OP, Layout, NetworkPlan

__all__ = [
    "METRICS",
    "CostScope",
    "ConstraintBox",
    "CostTable",
    "build_cost_table",
    "expected_cost",
    "cost_gradient",
    "exact_cost",
    "violation",
    "scope_edges",
    "phi_range",
    "cost_report_rows",
]

METRICS = ("params", "flops")
N_METRICS = len(METRICS)


class CostScope(Enum):
    FULL_DAG = "fulldag"
    TOP_K = "topk"


def _metric_floats(phi: np.ndarray) -> list[float]:
    """A cost vector as one Python float per metric; raises ValueError
    unless it holds exactly one value per metric."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (N_METRICS,):
        raise ValueError(f"cost vector must have shape ({N_METRICS},), got {phi.shape}")
    return phi.tolist()


@dataclass(frozen=True)
class ConstraintBox:
    """Per-metric closed interval [lower, upper] on the expected cost.

    ``bounds`` holds the same bounds as one (lower, upper) pair of Python
    floats per metric: the membership test and the hinge distances run on
    the metrics as floats, the same IEEE-754 operations numpy would run on
    two-element arrays, without its per-call overhead."""

    lower: np.ndarray
    upper: np.ndarray
    bounds: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != (N_METRICS,) or hi.shape != (N_METRICS,):
            raise ValueError(f"bounds must have shape ({N_METRICS},)")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError(f"bounds must not be NaN, got lower {lo}, upper {hi}")
        if np.any(lo < 0) or np.any(np.isinf(lo)):
            raise ValueError("lower bounds must be finite and non-negative")
        if np.any(lo > hi):
            raise ValueError(f"empty box: lower {lo} exceeds upper {hi}")
        object.__setattr__(self, "bounds", tuple(zip(lo.tolist(), hi.tolist())))

    @classmethod
    def unbounded(cls) -> "ConstraintBox":
        return cls(np.zeros(N_METRICS), np.full(N_METRICS, np.inf))

    def feasible(self, phi: np.ndarray, tol: float = 1e-6) -> bool:
        """Membership with relative slack ``tol`` on each finite bound."""
        for p, (lo, hi) in zip(_metric_floats(phi), self.bounds):
            if not (p >= lo - tol * abs(lo) and p <= (hi if hi == math.inf else hi + tol * abs(hi))):
                return False
        return True


def violation(phi: np.ndarray, box: ConstraintBox) -> tuple[np.ndarray, np.ndarray]:
    """Hinge distances to the box: (max(C_L - phi, 0), max(phi - C_H, 0)).

    Both are zero exactly on the (closed) box, boundary included, and the
    upper one is zero under an infinite bound. A NaN cost gives NaN.
    """
    lower_v, upper_v = [], []
    for p, (lo, hi) in zip(_metric_floats(phi), box.bounds):
        lower_v.append(max(lo - p, 0.0))
        upper_v.append(0.0 if hi == math.inf else max(p - hi, 0.0))
    return np.array(lower_v), np.array(upper_v)


@dataclass(frozen=True)
class EdgeCost:
    """Cost rows for one mixed edge at one placement in the network."""

    owner: str  # the slot's prefix: "cell3.edge0_2", or "cell3.in0" for a link
    kind: str
    edge: tuple[int, int]
    node: int
    u: np.ndarray  # (N_METRICS, n_ops)


@dataclass(frozen=True, eq=False)
class CostTable:
    """theta-free cost data for a plan: per-edge op costs plus fixed costs.

    Building the table sums its entries into one row per logits vector, on
    the grid of its templates' ``cells.LogitsLayout``: ``U[k, m, o]`` is
    metric m of op o summed over every cell that shares vector
    ``layout.keys[k]``, zero-padded to the widest template.
    """

    entries: list[EdgeCost]
    fixed: np.ndarray  # (N_METRICS,)
    templates: dict[str, cells.CellTemplate] = field(default_factory=dict)
    layout: cells.LogitsLayout = field(init=False, repr=False)
    U: np.ndarray = field(init=False, repr=False)  # (K, N_METRICS, O)

    def __post_init__(self):
        layout = cells.logits_layout(self.templates)
        sizes, width = layout.sizes, layout.valid.shape[1]
        row = {key: k for k, key in enumerate(layout.keys)}
        rows = np.zeros(len(self.entries), dtype=np.intp)
        blocks = np.zeros((len(self.entries), N_METRICS, width))
        for i, e in enumerate(self.entries):
            key = (e.kind, e.edge)
            if key not in row:
                raise ValueError(f"cost entry {e.owner!r} has no logits vector {key!r} in the templates")
            k = rows[i] = row[key]
            if e.u.shape != (N_METRICS, sizes[k]):
                raise ValueError(f"cost entry {e.owner!r} {key!r} has shape {e.u.shape}, expected {(N_METRICS, sizes[k])}")
            blocks[i, :, : sizes[k]] = e.u
        U = np.zeros((len(layout.keys), N_METRICS, width))
        np.add.at(U, rows, blocks)  # in entry order, as the cells sharing a key add up
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "U", U)

    def theta_keys(self) -> list[ThetaKey]:
        return list(self.layout.keys)

    def scope_mask(self, theta: ThetaMap | np.ndarray, scope: CostScope, frozen_scope: np.ndarray | None = None) -> np.ndarray:
        """Boolean key mask of the edges a scope counts: all keys under
        FullDag, which ignores ``frozen_scope``; under TopK, ``frozen_scope``
        or else the mask ``scope_edges`` makes of ``theta`` (a map or a flat
        vector), so a caller holding the scope fixed freezes it once."""
        if scope is CostScope.FULL_DAG:
            return np.ones(len(self.layout.keys), dtype=bool)
        return frozen_scope if frozen_scope is not None else scope_edges(theta, self.templates)


def _stem_classifier_costs(layout: Layout) -> np.ndarray:
    # the stem is an op plan; the classifier is a linear layer with bias
    K = layout.plan.n_classes
    feat = layout.final_channels
    stem = np.array(ops.counts(ops.STEM, layout.stem_context), dtype=np.float64)
    return stem + np.array([feat * K + K, feat * K], dtype=np.float64)


def build_cost_table(plan: NetworkPlan) -> CostTable:
    """Tabulate every candidate op's cost at every slot with logits, in slot
    order; the fixed term adds the stem, the classifier and the fixed links
    of a plan without connection cells. Never reads theta."""
    layout = plan.layout()
    templates = layout.templates
    fixed = _stem_classifier_costs(layout)
    entries: list[EdgeCost] = []
    for slot in layout.slots():
        if slot.kind is None:
            fixed += ops.counts(FIXED_LINK_OP, slot.context)
            continue
        tpl = templates[slot.kind]
        u = np.zeros((N_METRICS, tpl.n_ops))
        for oi, op_name in enumerate(tpl.op_names):
            u[:, oi] = ops.counts(op_name, slot.context)
        entries.append(EdgeCost(slot.prefix, slot.kind, slot.edge, slot.edge[1], u))
    return CostTable(entries=entries, fixed=fixed, templates=templates)


def expected_cost(
    theta: ThetaMap | np.ndarray,
    table: CostTable,
    scope: CostScope = CostScope.TOP_K,
    frozen_scope: np.ndarray | None = None,
    grad: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Expected cost vector (params, flops) of the relaxed network.

    ``theta`` is a logits map or its flat vector in the table's key order.
    ``frozen_scope`` overrides the TopK edge selection with a boolean key
    mask, as ``scope_edges`` returns it; projection passes the mask of its
    anchor, built once per call, to keep the active set fixed while logits
    move. With ``grad`` the same softmax and U.F also give dPhi/dtheta on
    the table's grid, (K, N_METRICS, O), returned second.
    """
    flat = theta if isinstance(theta, np.ndarray) else table.layout.flatten(theta)
    F = table.layout.softmax(flat)
    # a key outside the scope is a zero row: +0.0 in Phi, F * (0 - 0) = +0.0 in the gradient
    U = table.U * table.scope_mask(flat, scope, frozen_scope)[:, None, None]
    mean = np.einsum("kmo,ko->km", U, F)
    phi = table.fixed + mean.sum(axis=0)
    return (phi, F[:, None, :] * (U - mean[:, :, None])) if grad else phi


def cost_gradient(
    theta: ThetaMap,
    table: CostTable,
    scope: CostScope = CostScope.TOP_K,
    frozen_scope: np.ndarray | None = None,
) -> ThetaMap:
    """dPhi/dtheta for every logits vector, shaped (N_METRICS, n_ops).

    Closed form per logits vector: F * (U - (U.F)) per metric, U summing
    the cells that share it; vectors outside the scope get exact zeros.
    ``frozen_scope`` is the key mask of ``expected_cost``.
    """
    _, g = expected_cost(theta, table, scope, frozen_scope, grad=True)
    return {key: g[k, :, :n] for k, (key, n) in enumerate(zip(table.layout.keys, table.layout.sizes))}


def exact_cost(arch: cells.DiscreteArch, plan: NetworkPlan) -> np.ndarray:
    """Cost vector of the discrete network an architecture instantiates.

    Matches the scalar-weight count of DiscreteNetwork exactly: both walk
    the same slots with the same per-op formulas.
    """
    layout = plan.layout()
    arch.validate(layout.templates)
    total = _stem_classifier_costs(layout)
    for slot in layout.slots():
        op_name = FIXED_LINK_OP if slot.kind is None else arch.op_on(slot.kind, slot.edge)
        if op_name is not None:
            params, flops = ops.counts(op_name, slot.context)
            total[0] += params
            total[1] += flops
    return total


def phi_range(table: CostTable) -> tuple[np.ndarray, np.ndarray]:
    """Extremes of the expected cost over all logits under FullDag scope,
    attained in the saturated limit.

    Cells sharing a logits vector commit to the same op, so the extremes
    are taken over each vector's summed cost rows, per metric.
    """
    real = table.layout.valid[:, None, :]
    lo = table.fixed + np.where(real, table.U, np.inf).min(axis=2).sum(axis=0)
    hi = table.fixed + np.where(real, table.U, -np.inf).max(axis=2).sum(axis=0)
    return lo, hi


def cost_report_rows(
    phi: np.ndarray,
    exact: np.ndarray,
    box: ConstraintBox,
) -> list[dict]:
    """Rows for the cost report CSV: one per metric."""
    lower_v, upper_v = violation(phi, box)
    rows = []
    for m, name in enumerate(METRICS):
        rows.append(
            {
                "metric": name,
                "expected": float(phi[m]),
                "exact": float(exact[m]),
                "lower_bound": float(box.lower[m]),
                "upper_bound": float(box.upper[m]),
                "violation": float(lower_v[m] + upper_v[m]),
            }
        )
    return rows
