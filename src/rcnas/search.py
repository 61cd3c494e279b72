"""Bilevel architecture search with periodic cost projection.

The outer loop alternates two phases.  Phase I runs e_u paired updates:
a weight step on a training batch with the architecture logits frozen,
then a logits step on a validation batch with the weights frozen
(first-order approximation: no unrolling through the weight update).
Phase II projects the logits back into the cost box and continues from
the projected point.  The first Phase I block is stretched by a warm
start multiplier so early projections act on meaningful mixtures.

With both penalty weights at zero the projection is the identity and
the whole procedure degenerates to plain alternating descent; the
reference loop below runs the same paired step on its own flat
schedule, with no rounds and no projection, so the equivalence is
checkable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Annotated, NamedTuple

import numpy as np

from . import cells, data
from .autodiff import Parameter, Tape
from .cells import DiscreteArch
from .cost import ConstraintBox, CostScope, CostTable, build_cost_table, exact_cost, expected_cost
from .data import BatchStream, Dataset, normalization_stats, normalize, split_dataset
from .network import DiscreteNetwork, NetworkPlan, Supernet
from .optim import SGD, Adam
from .projection import ProjectionConfig, decay_lambda, project
from .settings import check_ranges

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SearchAbort",
    "run_search",
    "darts_reference_search",
    "evaluate",
    "retrain_eval",
    "RetrainResult",
    "LogRow",
    "LOG_COLUMNS",
]


class SearchAbort(RuntimeError):
    """Raised when a loss or a trained tensor turns non-finite; carries the
    step diagnostics."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the bilevel loop, each a scalar; the defaults are an empty
    config's, a desk-scale search.  The rest is DARTS' first-order recipe,
    fixed: a 50/50 train/val split, weight SGD at lr 0.025, momentum 0.9 and
    weight decay 3e-4, and Adam with betas (0.5, 0.999) on the logits."""

    epochs: Annotated[int, {"minimum": 1}] = 2
    batch_size: Annotated[int, {"minimum": 1}] = 16
    e_u: Annotated[int, {"minimum": 1}] = 8  # phase-I steps per round
    warm_start_multiplier: Annotated[int, {"minimum": 1}] = 2  # first round runs warm_start_multiplier * e_u steps
    seed: Annotated[int, {"minimum": 0}] = 0
    theta_lr: Annotated[float, {"exclusiveMinimum": 0}] = 3e-4

    def __post_init__(self) -> None:
        check_ranges(SearchConfig, vars(self))


class LogRow(NamedTuple):
    """One search_log.csv row. A cell that does not apply holds None: a
    search step has no proj_iters, a projection round no losses."""

    step: int
    round: int
    phase: str  # "search" or "project"
    train_loss: float | None
    val_loss: float | None
    phi_params: float | None
    phi_flops: float | None
    lambda1: float
    lambda2: float
    feasible: bool
    proj_iters: int | None


LOG_COLUMNS = list(LogRow._fields)


@dataclass
class SearchResult:
    arch: DiscreteArch
    digests: list[str]
    log_rows: list[LogRow]
    phi: np.ndarray
    feasible: bool
    report: dict


def _derive_seeds(seed: int) -> tuple[int, int, int, int]:
    """Model init, split, train stream, val stream."""
    s = np.random.SeedSequence(seed).generate_state(4)
    return tuple(int(v) for v in s)


def _float32_training(params, train: Dataset, held_out: Dataset) -> tuple[Dataset, Dataset]:
    """The training data and precision, the search's and retraining's:
    ``train`` and ``held_out`` normalized by ``train``'s statistics, their
    images cast to float32, and then each weight (a float64 draw, rounded
    once) cast to float32. Returns the two datasets; an optimizer built on
    ``params`` afterwards keeps its state in float32 too."""
    mean, std = normalization_stats(train)
    normed = [normalize(ds, mean, std) for ds in (train, held_out)]
    cast = tuple(replace(ds, images=ds.images.astype(np.float32)) for ds in normed)
    for p in params:
        p.data = p.data.astype(np.float32)
    return cast


def _setup(plan: NetworkPlan, ds: Dataset, cfg: SearchConfig):
    """Shared preamble: split, model, normalize, streams, optimizers.

    Both the projected search and the flat reference loop call this, so a
    degeneration comparison starts from bit-identical state. The supernet
    trains in float32 (``_float32_training``); its logits and Adam on them
    stay float64.
    """
    model_seed, split_seed, train_seed, val_seed = _derive_seeds(cfg.seed)
    val, train = split_dataset(ds, fraction=0.5, seed=split_seed)
    net = Supernet(plan, model_seed)
    train, val = _float32_training(net.weight_params(), train, val)
    train_stream = BatchStream(train, cfg.batch_size, train_seed)
    if train_stream.batches_per_epoch == 0:
        raise ValueError("no training steps: dataset too small for the batch size")
    val_stream = BatchStream(val, cfg.batch_size, val_seed)
    sgd = SGD(net.weight_params(), lr=0.025, momentum=0.9, weight_decay=3e-4)
    adam = Adam(net.theta_tensors(), lr=cfg.theta_lr, betas=(0.5, 0.999))
    return net, train_stream, val_stream, sgd, adam


def _descend(net, opt: SGD | Adam, batch: tuple[np.ndarray, np.ndarray], step: int, what: str, frozen=()) -> float:
    """One optimizer step on ``batch``'s loss; returns the loss.

    The gradients of ``opt.params`` are cleared and those tensors made
    trainable; ``frozen`` is held fixed for the step and then restored. A
    non-finite loss raises SearchAbort naming ``what`` and ``step``; so does
    a step that leaves a non-finite value in ``opt.params``, naming the
    first such tensor (its ``Parameter.name``, or "architecture logits")."""
    for p in opt.params:
        p.grad = None
        p.requires_grad = True
    saved = [t.requires_grad for t in frozen]
    for t in frozen:
        t.requires_grad = False
    try:
        with Tape() as tape:
            loss, _ = net.loss(*batch)
            tape.backward(loss)
    finally:
        for t, flag in zip(frozen, saved):
            t.requires_grad = flag
    value = float(loss.data)
    if not np.isfinite(value):
        raise SearchAbort(f"{what} became non-finite at step {step}", {"step": step, "quantity": what, "value": value})
    opt.step()
    for p in opt.params:
        if not np.isfinite(p.data).all():
            name = p.name if isinstance(p, Parameter) else "architecture logits"
            first = float(p.data[~np.isfinite(p.data)][0])
            raise SearchAbort(f"{name} became non-finite at step {step}", {"step": step, "quantity": name, "value": first})
    return value


def phase1_step(net: Supernet, sgd: SGD, adam: Adam, train_stream: BatchStream, val_stream: BatchStream, step: int) -> tuple[float, float]:
    """One paired update: weights on a train batch with the logits held
    fixed, then logits on a val batch with the weights held fixed."""
    train_loss = _descend(net, sgd, train_stream.next_batch(), step, "train loss", frozen=net.theta_tensors())
    val_loss = _descend(net, adam, val_stream.next_batch(), step, "val loss", frozen=net.weight_params())
    return train_loss, val_loss


def _result(net: Supernet, plan: NetworkPlan, table: CostTable, box: ConstraintBox, scope: CostScope, feas_tol: float,
            digests: list[str], rows: list[LogRow], rounds: int, t0: float) -> SearchResult:
    """A search's result from its final logits: their cost, whether it
    lies in ``box``, the derived architecture and the report. ``digests``
    holds one entry per step."""
    phi = expected_cost(net.arch.theta.data, table, scope)
    feasible = box.feasible(phi, feas_tol)
    arch = cells.derive_discrete(net.arch.numpy(), plan.templates())
    report = {
        "steps": len(digests),
        "rounds": rounds,
        "phi": [float(v) for v in phi],
        "feasible": feasible,
        "exact_cost": [float(v) for v in exact_cost(arch, plan)],
        "wall_seconds": time.monotonic() - t0,
    }
    return SearchResult(arch, digests, rows, phi, feasible, report)


def run_search(
    plan: NetworkPlan,
    ds: Dataset,
    box: ConstraintBox,
    cfg: SearchConfig = SearchConfig(),
    proj: ProjectionConfig = ProjectionConfig(),
    scope: CostScope = CostScope.TOP_K,
) -> SearchResult:
    """Projected bilevel search; returns the derived architecture and trace."""
    t0 = time.monotonic()
    net, train_stream, val_stream, sgd, adam = _setup(plan, ds, cfg)
    table = build_cost_table(plan)
    total_steps = cfg.epochs * train_stream.batches_per_epoch

    digests: list[str] = []
    rows: list[LogRow] = []
    step = 0
    round_idx = 0
    while step < total_steps:
        round_len = cfg.e_u * (cfg.warm_start_multiplier if round_idx == 0 else 1)
        round_len = min(round_len, total_steps - step)
        lam1, lam2 = decay_lambda(proj, round_idx)
        for _ in range(round_len):
            train_loss, val_loss = phase1_step(net, sgd, adam, train_stream, val_stream, step)
            step += 1
            digests.append(net.arch.digest())
            phi = expected_cost(net.arch.theta.data, table, scope)
            rows.append(LogRow(step, round_idx, "search", train_loss, val_loss, *phi, lam1, lam2, box.feasible(phi, proj.feas_tol), None))

        res = project(net.arch.numpy(), box, table, scope, replace(proj, lambda1=lam1, lambda2=lam2))
        net.arch.load(res.theta_p)
        rows.append(LogRow(step, round_idx, "project", None, None, *res.phi, lam1, lam2, res.feasible, res.iterations))
        round_idx += 1

    return _result(net, plan, table, box, scope, proj.feas_tol, digests, rows, round_idx, t0)


def darts_reference_search(plan: NetworkPlan, ds: Dataset, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Plain first-order alternating search: the same paired step on one
    flat loop, with no rounds and no projection.

    Deliberately independent of run_search's round scheduling so the two
    can be compared step for step.
    """
    t0 = time.monotonic()
    net, train_stream, val_stream, sgd, adam = _setup(plan, ds, cfg)
    table = build_cost_table(plan)
    total_steps = cfg.epochs * train_stream.batches_per_epoch

    digests: list[str] = []
    rows: list[LogRow] = []
    for step in range(total_steps):
        train_loss, val_loss = phase1_step(net, sgd, adam, train_stream, val_stream, step)
        digests.append(net.arch.digest())
        rows.append(LogRow(step + 1, 0, "search", train_loss, val_loss, None, None, 0.0, 0.0, True, None))
    box, tol = ConstraintBox.unbounded(), ProjectionConfig().feas_tol
    return _result(net, plan, table, box, CostScope.TOP_K, tol, digests, rows, 0, t0)


def evaluate(net, ds: Dataset, batch_size: int = 64) -> tuple[float, float]:
    """Mean loss and accuracy over the dataset in fixed order (no tape)."""
    n = len(ds)
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        xb = ds.images[start : start + batch_size]
        yb = ds.labels[start : start + batch_size]
        loss, logits = net.loss(xb, yb)
        total_loss += float(loss.data) * len(yb)
        correct += int((np.argmax(logits.data, axis=1) == yb).sum())
    return total_loss / n, correct / n


@dataclass
class RetrainResult:
    accuracy: float
    loss: float
    params: float
    flops: float
    seed: int
    history: list[dict] = field(default_factory=list)


def retrain_eval(
    arch: DiscreteArch,
    plan: NetworkPlan,
    train: Dataset,
    eval_ds: Dataset,
    epochs: Annotated[int, {"minimum": 1}] = 8,
    batch_size: Annotated[int, {"minimum": 1}] = 32,
    seed: Annotated[int, {"minimum": 0}] = 0,
    lr: Annotated[float, {"exclusiveMinimum": 0}] = 0.025,
    cutout: Annotated[bool, {}] = False,
) -> RetrainResult:
    """Train the discrete network from scratch and report held-out accuracy.

    One fixed recipe, as in DARTS: SGD with momentum 0.9 and weight decay
    3e-4, the learning rate annealed from ``lr`` on a cosine schedule,
    optional cutout, and evaluation in batches of 256. Retraining runs in
    float32, as the search's training does (``_float32_training``): the
    normalized images and the network's weights are cast, and the SGD
    state follows the weights. The cost model stays float64."""
    check_ranges(retrain_eval, locals())
    model_seed, _, stream_seed, aug_seed = _derive_seeds(seed)
    net = DiscreteNetwork(plan, arch, model_seed)
    train_n, eval_n = _float32_training(net.weight_params(), train, eval_ds)
    sgd = SGD(net.weight_params(), lr=lr, momentum=0.9, weight_decay=3e-4)
    stream = BatchStream(train_n, batch_size, stream_seed)
    aug_rng = np.random.default_rng(np.random.SeedSequence(aug_seed))

    steps_per_epoch = stream.batches_per_epoch
    total = epochs * steps_per_epoch
    history: list[dict] = []
    for step in range(total):
        sgd.lr = 0.5 * lr * (1.0 + np.cos(np.pi * step / max(1, total)))
        xb, yb = stream.next_batch()
        if cutout:
            xb = data.cutout(xb, aug_rng)
        loss = _descend(net, sgd, (xb, yb), step, "retrain loss")
        if (step + 1) % steps_per_epoch == 0:
            history.append({"epoch": (step + 1) // steps_per_epoch, "train_loss": loss})

    eval_loss, acc = evaluate(net, eval_n, batch_size=256)
    cost_vec = exact_cost(arch, plan)
    return RetrainResult(acc, eval_loss, float(cost_vec[0]), float(cost_vec[1]), seed, history)

