"""Iterative projection of architecture logits into a cost box.

Given logits theta and a box [C_L, C_H] per metric, find nearby logits
theta_p whose expected cost lies inside the box by descending

    h(theta_p) = 1/2 ||theta - theta_p||^2
               + lambda1 * sum_m max(C_L_m - Phi_m(theta_p), 0)
               + lambda2 * sum_m max(Phi_m(theta_p) - C_H_m, 0)

with Adam (betas 0.5, 0.999), for at most e_p steps or until feasible.
The anchor theta never moves; under the TopK scope the active edge set is
frozen from the anchor so the objective stays smooth during the descent.
Both penalty weights decay geometrically across projection rounds, and at
lambda = 0 the projection degenerates to the identity.

The descent keeps the logits as one flat vector under one Adam, in the
cost table's key order. It freezes the TopK scope once per call, as the
boolean key mask ``CostTable.scope_mask`` makes of the anchor, and
hands that mask to every iteration. Each iteration evaluates the cost table
once, with one ``expected_cost`` call on that flat vector at its new point:
one softmax F over the table's grid, one contraction U.F per logits vector
with the rows outside the scope priced as zero rows, Phi = fixed + the sum
of the U.F rows, and from the same F and U.F the gradient of Phi on the
grid, F * (U - U.F). Phi gives h, the feasibility test and the next step's hinge
coefficients, which weight that gradient into the gradient of h. The box
arithmetic on the two metrics (``ConstraintBox.feasible``, ``violation``,
the hinge sums and coefficients) runs on Python floats: the same IEEE-754
operations in the same order as on two-element arrays, so the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .autodiff import Tensor
from .cost import ConstraintBox, CostScope, CostTable, ThetaMap, cost_gradient, expected_cost, violation
from .optim import Adam
from .settings import check_ranges

__all__ = ["ProjectionConfig", "ProjectionResult", "ProjectionError", "lagrangian", "lagrangian_grad", "project", "decay_lambda"]


class ProjectionError(ArithmeticError):
    """The penalty objective became non-finite during descent."""


@dataclass(frozen=True)
class ProjectionConfig:
    lambda1: Annotated[float, {"minimum": 0}] = 1.0
    lambda2: Annotated[float, {"minimum": 0}] = 1.0
    gamma: Annotated[float, {"exclusiveMinimum": 0}] = 0.98  # per-round geometric decay of both lambdas
    max_iters: Annotated[int, {"minimum": 0}] = 500  # e_p
    lr: Annotated[float, {"exclusiveMinimum": 0}] = 3e-4
    feas_tol: Annotated[float, {"minimum": 0}] = 1e-6

    def __post_init__(self):
        check_ranges(ProjectionConfig, vars(self))


def decay_lambda(cfg: ProjectionConfig, t: int) -> tuple[float, float]:
    """Penalty weights for projection round t: lambda * gamma^t."""
    f = cfg.gamma**t
    return float(cfg.lambda1 * f), float(cfg.lambda2 * f)


def _hinge_sums(lower_v: np.ndarray, upper_v: np.ndarray) -> tuple[float, float]:
    """Total distance below and above the box, summed over the metrics."""
    return sum(lower_v.tolist()), sum(upper_v.tolist())


def _hinge_coefficients(lower_v: np.ndarray, upper_v: np.ndarray, lambda1: float, lambda2: float) -> np.ndarray:
    """Per-metric weight of dPhi in dh: +lambda2 above the box, -lambda1 below."""
    return np.array([lambda2 * (up > 0) - lambda1 * (low > 0) for low, up in zip(lower_v.tolist(), upper_v.tolist())])


def lagrangian(
    theta_p: ThetaMap,
    theta_anchor: ThetaMap,
    box: ConstraintBox,
    table: CostTable,
    scope: CostScope,
    lambda1: float,
    lambda2: float,
    frozen_scope=None,
) -> float:
    """Penalty objective h(theta_p); the proximal term plus hinge penalties."""
    sq = 0.0
    for key, anchor in theta_anchor.items():
        d = theta_p[key] - anchor
        sq += float(d @ d)
    phi = expected_cost(theta_p, table, scope, frozen_scope)
    low, up = _hinge_sums(*violation(phi, box))
    return 0.5 * sq + lambda1 * low + lambda2 * up


def lagrangian_grad(
    theta_p: ThetaMap,
    theta_anchor: ThetaMap,
    box: ConstraintBox,
    table: CostTable,
    scope: CostScope,
    lambda1: float,
    lambda2: float,
    frozen_scope=None,
) -> ThetaMap:
    """Analytic gradient of h. Hinge terms switch per metric on the side
    of the box the current cost violates; on the boundary the subgradient
    is taken as zero."""
    phi = expected_cost(theta_p, table, scope, frozen_scope)
    coeff = _hinge_coefficients(*violation(phi, box), lambda1, lambda2)
    grads = {key: theta_p[key] - theta_anchor[key] for key in theta_anchor}
    if coeff.any():
        dphi = cost_gradient(theta_p, table, scope, frozen_scope)
        for key in grads:
            grads[key] = grads[key] + coeff @ dphi[key]
    return grads


@dataclass
class ProjectionResult:
    theta_p: ThetaMap
    iterations: int
    feasible: bool
    phi: np.ndarray
    objective: float


def project(
    theta: ThetaMap,
    box: ConstraintBox,
    table: CostTable,
    scope: CostScope = CostScope.TOP_K,
    cfg: ProjectionConfig = ProjectionConfig(),
) -> ProjectionResult:
    """Project logits into the cost box.

    Feasibility is checked before any step, so a feasible anchor returns
    bit-identical logits with zero iterations. With both penalty weights
    at zero the gradient reduces to the proximal pull on an anchored
    start, which is zero, so the anchor is returned unchanged.
    """
    lam1, lam2 = cfg.lambda1, cfg.lambda2
    anchor = table.layout.flatten(theta)
    frozen = table.scope_mask(anchor, scope)

    def evaluate(flat: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
        """The one cost evaluation of an iteration: Phi and h at ``flat``,
        the hinge coefficients of the next step, and dPhi on the table's
        grid from the same softmax."""
        phi, dphi = expected_cost(flat, table, scope, frozen, grad=True)
        lower_v, upper_v = violation(phi, box)
        low, up = _hinge_sums(lower_v, upper_v)
        d = flat - anchor
        h = 0.5 * float(d @ d) + lam1 * low + lam2 * up
        return phi, h, _hinge_coefficients(lower_v, upper_v, lam1, lam2), dphi

    phi, h, coeff, dphi = evaluate(anchor)
    if box.feasible(phi, cfg.feas_tol):
        return ProjectionResult(table.layout.unflatten(anchor), 0, True, phi, h)
    if lam1 == 0.0 and lam2 == 0.0:
        # no penalty: h is minimized exactly at the anchor
        return ProjectionResult(table.layout.unflatten(anchor), 0, False, phi, h)

    # Adam is elementwise, so one flat holder steps exactly as one per logits vector
    holder = Tensor(anchor.copy(), requires_grad=True)
    opt = Adam([holder], lr=cfg.lr, betas=(0.5, 0.999))
    for it in range(1, cfg.max_iters + 1):
        grad = holder.data - anchor
        if coeff.any():
            grad = grad + np.einsum("m,kmo->ko", coeff, dphi)[table.layout.valid]
        holder.grad = grad
        opt.step()
        phi, h, coeff, dphi = evaluate(holder.data)
        if not math.isfinite(h) or not np.isfinite(phi).all():
            raise ProjectionError(f"non-finite objective at projection step {it}: h={h}, phi={phi}")
        if box.feasible(phi, cfg.feas_tol):
            return ProjectionResult(table.layout.unflatten(holder.data), it, True, phi, h)
    return ProjectionResult(table.layout.unflatten(holder.data), cfg.max_iters, False, phi, h)
