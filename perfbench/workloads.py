"""The rcnas benchmark workloads: ``search``, ``retrain`` and ``costmodel``.

Each workload builds its inputs from the benchmark seed and the fixed
inputs in ``inputs/``, times calls into the public API of ``rcnas`` and
checks every output. Untraced, a run reports the end-to-end metrics; with
a ``Tracer`` installed it reports the per-layer metrics instead.

Run one workload in this process (``run.py`` launches this with the BLAS
thread count set):

    python3 perfbench/workloads.py --workload search --seed 1 --seconds 40 --trace 0
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import rcnas.cells as cells  # noqa: E402
import rcnas.cost as cost  # noqa: E402
import rcnas.data as data  # noqa: E402
import rcnas.exhaustive as exhaustive  # noqa: E402
import rcnas.network as network  # noqa: E402
import rcnas.ops as ops  # noqa: E402
import rcnas.projection as projection  # noqa: E402
import rcnas.search as search  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("search", "retrain", "costmodel")

# name -> (unit, better); the metrics every untraced run prints in its result line
END_TO_END = {
    "throughput_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# The plan, data and search settings of configs/shapes_4cell.json.
PLAN = network.NetworkPlan(n_cells=4, init_channels=4, n_classes=4, image_hw=(16, 16), n_nodes=5, k_levels=3)
# The micro space of configs/micro_enumerate.json: 196 architectures.
MICRO_PLAN = network.NetworkPlan(n_cells=2, init_channels=4, n_classes=4, image_hw=(8, 8), n_nodes=4, k_levels=1)
DATASET = "shapes"
SEARCH_BATCH = 16
RETRAIN_BATCH = 64
RETRAIN_LR = 0.1
SEARCH_PROJECTION = projection.ProjectionConfig(lambda1=2.0, lambda2=2.0, gamma=0.9, max_iters=500, lr=3e-4)
ORACLE_RTOL = 1e-9  # acceptance criterion 2
PHI_RTOL = 1e-9  # project's phi against expected_cost recomputed under the frozen scope


@dataclass(frozen=True)
class Scale:
    """How much work one run does; ``FULL`` is what the benchmark runs."""

    n_train: int  # training images (search splits them half for the logits step)
    n_eval: int  # held-out images for the forward-only evaluate
    search_epochs: int
    e_u: int
    warm_start_multiplier: int
    retrain_epochs: int
    n_logits: int  # seeded logits per scope for expected_cost and cost_gradient
    cost_reps: int  # sweeps over those logits per costmodel pass
    n_anchors: int | None  # infeasible anchors projected per pass (None: all)
    setup_slice_s: float  # seconds of repeated set-up before the first unit (retrain: after each too)


FULL = Scale(512, 256, 2, 8, 2, 2, 8, 10, None, 0.25)
TINY = Scale(64, 32, 1, 1, 2, 1, 2, 1, 1, 0.0)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def derived_seeds(seed: int) -> dict[str, int]:
    """Independent seeds for data, model/search, logits and anchor order."""
    s = np.random.SeedSequence(seed).generate_state(4)
    return {"data": int(s[0]), "model": int(s[1]), "logits": int(s[2]), "order": int(s[3])}


def load_fixed() -> dict:
    return json.loads((INPUTS / "fixed.json").read_text())


def theta_from_json(doc: dict) -> dict:
    out = {}
    for key, values in doc.items():
        kind, edge = key.split("|")
        i, j = edge.split(",")
        out[(kind, (int(i), int(j)))] = np.asarray(values, dtype=np.float64)
    return out


def theta_to_json(theta: dict) -> dict:
    return {f"{kind}|{i},{j}": [float(v) for v in vec] for (kind, (i, j)), vec in theta.items()}


def box_from_json(doc: dict) -> cost.ConstraintBox:
    lower = [0.0 if v is None else float(v) for v in doc["lower"]]
    upper = [math.inf if v is None else float(v) for v in doc["upper"]]
    return cost.ConstraintBox(np.array(lower), np.array(upper))


def make_split(n_train: int, n_eval: int, seed: int) -> tuple[data.Dataset, data.Dataset]:
    """Train and held-out sets drawn from one generator stream, as the CLI does."""
    full = data.make_dataset(DATASET, n_train + n_eval, hw=PLAN.image_hw, seed=seed)
    train = data.Dataset(full.name, full.images[:n_train], full.labels[:n_train], full.n_classes, full.seed)
    held = data.Dataset(full.name, full.images[n_train:], full.labels[n_train:], full.n_classes, full.seed)
    return train, held


class Reference:
    """Fixed numpy work, timed beside the workload to track the machine's speed.

    On a shared machine other tenants move its speed by up to half within
    an hour, which no estimator inside a 40 s run can cancel (NOTES.md).
    The kernel mixes the two kinds of work rcnas does: a Python loop over
    small-array numpy calls, as in the cost model, projection and the
    cells' mixing, and one einsum contraction of conv size, as in
    ``conv2d`` (numpy's own loop, not BLAS, so the BLAS thread count
    leaves it alone). Its inputs come from a fixed seed and it calls no
    rcnas code, so no change to rcnas moves it.
    """

    NOMINAL_S = 0.008  # scale: gated times read as if this kernel took 8 ms (NOTES.md)

    def __init__(self):
        rng = np.random.default_rng(20191227)
        self.small = [rng.normal(size=8) for _ in range(50)]
        self.a = rng.normal(size=(16, 64, 128))
        self.b = rng.normal(size=(64, 64))
        self.seconds: list[float] = []

    def time_once(self) -> None:
        t0 = time.perf_counter()
        for _ in range(20):
            for v in self.small:
                e = np.exp(v - v.max())
                e / e.sum()
        np.einsum("bcs,dc->bds", self.a, self.b)
        self.seconds.append(time.perf_counter() - t0)

    @property
    def speed(self) -> float:
        """The machine's speed during the run relative to nominal (above 1: faster)."""
        return self.NOMINAL_S / statistics.median(self.seconds)


class SetupTimer:
    """Times builds of a workload's inputs, and the reference, spread over the run.

    A single set-up takes 3-60 ms, and the machine's speed moves in bursts
    of seconds (NOTES.md). Builds timed back to back at one moment of the
    run would read that moment's speed, so builds are also timed between
    the run's timed steps, and ``setup_s`` is the median of all of them.
    The ``Reference`` kernel is timed after each build, so it samples the
    machine at the same moments. The collector is off inside each timing
    so that a collection of earlier garbage is not charged to one build.
    """

    def __init__(self, build, tracer: Tracer | None):
        self.build = build
        self.tracer = tracer
        self.seconds: list[float] = []
        self.reference = Reference()
        self.spent = 0.0  # wall seconds inside ``sample``, kept out of the timed work

    def sample(self, slice_s: float = 0.0):
        """Build repeatedly for ``slice_s`` seconds, at least once; return the last build."""
        begin = time.perf_counter()
        before = self.tracer.phase if self.tracer is not None else None
        _phase(self.tracer, "setup")
        # the span keeps this time out of the self time of a traced caller
        span = self.tracer.span("perfbench.setup_sample") if self.tracer is not None else nullcontext()
        try:
            with span:
                while True:
                    gc.disable()
                    try:
                        t0 = time.perf_counter()
                        out = self.build()
                        self.seconds.append(time.perf_counter() - t0)
                        self.reference.time_once()
                    finally:
                        gc.enable()
                    if time.perf_counter() >= begin + slice_s:
                        return out
        finally:
            if before is not None:
                self.tracer.set_phase(before)
            self.spent += time.perf_counter() - begin

    @property
    def median_s(self) -> float:
        return statistics.median(self.seconds)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    """What a workload run hands back: named figures, units of work, checks."""

    figures: dict[str, tuple[float, str]]  # named per-workload figures shown in the table
    throughput: float
    setup: SetupTimer
    units: int  # unit of work per-layer numbers are divided by
    unit_name: str
    wall_s: float  # timed wall over all units
    tally: Tally


@contextmanager
def call_timer(module, name: str, after=None):
    """Time every call of ``module.name`` while active; yields the seconds.
    ``after()``, when given, runs after each call, outside its timing."""
    original = getattr(module, name)
    seconds: list[float] = []

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = original(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - t0)
        if after is not None:
            after()
        return out

    setattr(module, name, timed)
    try:
        yield seconds
    finally:
        setattr(module, name, original)


def fits(deadline: float, unit_s: float) -> bool:
    """Whether another unit as long as the last one, set-up timed inside it
    included, ends by ``deadline``. The deadline is ``--seconds`` after the
    start of set-up; a run does at least one unit and never starts one it
    cannot finish, so it stays within ``--seconds``."""
    return time.perf_counter() + unit_s <= deadline


def _phase(tracer: Tracer | None, name: str) -> None:
    if tracer is not None:
        tracer.set_phase(name)


def run_search_workload(seed: int, seconds: float, scale: Scale, tracer: Tracer | None) -> Measured:
    """Constrained run_search calls, back to back, until ``seconds`` pass."""
    deadline = time.perf_counter() + seconds
    seeds = derived_seeds(seed)
    fixed = load_fixed()
    box = box_from_json(fixed["search_box"])

    def build():
        ds = data.make_dataset(DATASET, scale.n_train, hw=PLAN.image_hw, seed=seeds["data"])
        network.Supernet(PLAN, seeds["model"])
        cost.build_cost_table(PLAN)
        return ds

    setup = SetupTimer(build, tracer)
    ds = setup.sample(scale.setup_slice_s)
    cfg = search.SearchConfig(
        epochs=scale.search_epochs,
        batch_size=SEARCH_BATCH,
        e_u=scale.e_u,
        warm_start_multiplier=scale.warm_start_multiplier,
        seed=seeds["model"],
        theta_lr=0.003,
    )
    tally = Tally()
    steps = 0
    wall = 0.0
    templates = PLAN.templates()
    # one set-up build after each phase-I step, outside the step's timing
    with call_timer(search, "phase1_step", after=setup.sample) as step_s:
        while True:
            _phase(tracer, "run")
            gc.collect()
            spent = setup.spent
            t0 = time.perf_counter()
            try:
                res = search.run_search(PLAN, ds, box, cfg, SEARCH_PROJECTION, cost.CostScope.TOP_K)
            except (search.SearchAbort, projection.ProjectionError) as exc:
                res = None
                reason = f"search aborted: {exc}"
            elapsed = time.perf_counter() - t0
            wall += elapsed - (setup.spent - spent)
            _phase(tracer, "check")
            if res is None:
                tally.check(False, reason)
            else:
                steps += res.report["steps"]
                tally.check(*check_search(res, box, templates))
            if not fits(deadline, elapsed):
                break
    # Every phase-I step does the same work, so steps are taken at their
    # typical time. The rest of the wall time (projection, set-up inside
    # run_search, per-step bookkeeping) is kept as measured.
    rest = wall - sum(step_s)
    rate = steps / (len(step_s) * typical(step_s) + rest) if steps else 0.0
    figures = {"search_steps_per_s": (rate, "1/s")}
    return Measured(figures, rate, setup, max(steps, 1), "paired phase-I step", wall, tally)


def typical(seconds: list[float]) -> float:
    """Median of repeated timings of the same work.

    Other tenants of the machine slow single calls by up to half, in bursts
    (NOTES.md); the median of the repetitions ignores the bursts, and of the
    estimators tried it spread least from run to run.
    """
    return statistics.median(seconds) if seconds else 0.0


def check_search(res, box: cost.ConstraintBox, templates: dict) -> tuple[bool, str]:
    if res.feasible != box.feasible(res.phi):
        return False, f"search: feasible={res.feasible} but box says {box.feasible(res.phi)} for phi {res.phi}"
    try:
        res.arch.validate(templates)
    except cells.ArchFormatError as exc:
        return False, f"search: derived architecture invalid: {exc}"
    exact = cost.exact_cost(res.arch, PLAN)
    if not np.all(np.isfinite(exact)):
        return False, f"search: exact cost {exact} not finite"
    return True, ""


def run_retrain_workload(seed: int, seconds: float, scale: Scale, tracer: Tracer | None) -> Measured:
    """retrain_eval of the fixed architecture, repeated until ``seconds`` pass.

    retrain_eval ends with a forward-only ``evaluate`` on the held-out set;
    a timer around ``rcnas.search.evaluate`` splits training from it. Each
    call does the same work, so the rates come from the typical call.
    """
    deadline = time.perf_counter() + seconds
    seeds = derived_seeds(seed)
    arch_doc = json.loads((INPUTS / "retrain_arch.json").read_text())

    def build():
        train, held = make_split(scale.n_train, scale.n_eval, seeds["data"])
        arch = cells.DiscreteArch.from_json_dict(arch_doc)
        network.DiscreteNetwork(PLAN, arch, seeds["model"])
        return train, held, arch

    setup = SetupTimer(build, tracer)
    train, held, arch = setup.sample(scale.setup_slice_s)
    train_images = scale.retrain_epochs * (len(train) // RETRAIN_BATCH) * RETRAIN_BATCH

    tally = Tally()
    train_seconds, accuracies, call_seconds = [], [], []
    wall = 0.0
    with call_timer(search, "evaluate") as eval_seconds:
        while True:
            _phase(tracer, "run")
            gc.collect()
            t0 = time.perf_counter()
            try:
                res = search.retrain_eval(
                    arch, PLAN, train, held, epochs=scale.retrain_epochs, batch_size=RETRAIN_BATCH,
                    seed=seeds["model"], lr=RETRAIN_LR,
                )
            except search.SearchAbort as exc:
                res = None
                reason = f"retrain aborted: {exc}"
            dt = time.perf_counter() - t0
            wall += dt
            call_seconds.append(dt)
            _phase(tracer, "check")
            if res is None:
                tally.check(False, reason)
            else:
                train_seconds.append(dt - eval_seconds[-1])
                accuracies.append(res.accuracy)
                tally.check(*check_retrain(res))
            setup.sample(scale.setup_slice_s)
            if not fits(deadline, dt + scale.setup_slice_s):
                break
    rate = train_images / typical(train_seconds) if train_seconds else 0.0
    figures = {
        "retrain_samples_per_s": (rate, "1/s"),
        "eval_samples_per_s": (len(held) / typical(eval_seconds) if eval_seconds else 0.0, "1/s"),
        "retrain_accuracy": (statistics.median(accuracies) if accuracies else 0.0, "fraction"),
    }
    return Measured(figures, rate, setup, max(len(call_seconds), 1), "retrain_eval call", wall, tally)


def check_retrain(res) -> tuple[bool, str]:
    losses = [res.loss] + [h["train_loss"] for h in res.history]
    if not all(math.isfinite(v) for v in losses):
        return False, f"retrain: non-finite loss in {losses}"
    if not 0.0 <= res.accuracy <= 1.0:
        return False, f"retrain: accuracy {res.accuracy} outside [0, 1]"
    return True, ""


@dataclass
class CostInputs:
    table: cost.CostTable
    phi_lo: np.ndarray
    phi_hi: np.ndarray
    micro_table: cost.CostTable
    space: exhaustive.MicroSpace
    box: cost.ConstraintBox
    proj: projection.ProjectionConfig
    infeasible: list[dict]
    feasible: list[dict]


def run_costmodel_workload(seed: int, seconds: float, scale: Scale, tracer: Tracer | None) -> Measured:
    """Passes over the cost model until ``seconds`` pass. One pass times four
    blocks: expected_cost and cost_gradient over seeded logits under both
    scopes, project from every fixed anchor, and the micro-space oracle."""
    deadline = time.perf_counter() + seconds
    seeds = derived_seeds(seed)
    fixed = load_fixed()["costmodel"]

    def build():
        table = cost.build_cost_table(PLAN)
        lo, hi = cost.phi_range(table)
        anchors = [theta_from_json(a) for a in fixed["infeasible_anchors"][: scale.n_anchors]]
        return CostInputs(
            table=table,
            phi_lo=lo,
            phi_hi=hi,
            micro_table=cost.build_cost_table(MICRO_PLAN),
            space=exhaustive.MicroSpace(MICRO_PLAN),
            box=box_from_json(fixed["box"]),
            proj=projection.ProjectionConfig(**fixed["projection"]),
            infeasible=anchors,
            feasible=[theta_from_json(a) for a in fixed["feasible_anchors"]],
        )

    setup = SetupTimer(build, tracer)
    inp = setup.sample(scale.setup_slice_s)
    rng = np.random.default_rng(np.random.SeedSequence(seeds["logits"]))
    keys = inp.table.theta_keys()
    logits = [{k: rng.normal(0.0, 1.0, inp.table.templates[k[0]].n_ops) for k in keys} for _ in range(scale.n_logits)]
    anchors = [(a, False) for a in inp.infeasible] + [(a, True) for a in inp.feasible]
    order = np.random.default_rng(np.random.SeedSequence(seeds["order"])).permutation(len(anchors))
    anchors = [anchors[i] for i in order]
    scopes = (cost.CostScope.TOP_K, cost.CostScope.FULL_DAG)
    micro_templates = MICRO_PLAN.templates()

    tally = Tally()
    times: dict[tuple, list[float]] = defaultdict(list)  # (block, operation) -> seconds per pass
    passes = 0
    wall = 0.0
    while True:
        _phase(tracer, "run")
        gc.collect()
        spent = setup.spent
        t_pass = time.perf_counter()
        phis, grads, results, oracle = [], [], [], []
        for _ in range(scale.cost_reps):
            for i, th in enumerate(logits):
                pair = []
                for sc in scopes:
                    t0 = time.perf_counter()
                    pair.append(cost.expected_cost(th, inp.table, sc))
                    times["ec", i, sc].append(time.perf_counter() - t0)
                phis.append(pair)
        for _ in range(scale.cost_reps):
            for i, th in enumerate(logits):
                for sc in scopes:
                    t0 = time.perf_counter()
                    grads.append(cost.cost_gradient(th, inp.table, sc))
                    times["grad", i, sc].append(time.perf_counter() - t0)
        for i, (anchor, _) in enumerate(anchors):
            t0 = time.perf_counter()
            results.append(projection.project(anchor, inp.box, inp.table, cost.CostScope.TOP_K, inp.proj))
            times["proj", i].append(time.perf_counter() - t0)
            setup.sample()  # one set-up build after each projection, outside its timing
        for i, arch in enumerate(inp.space.archs):
            t0 = time.perf_counter()
            theta = exhaustive.saturate_theta(arch, micro_templates)
            phi = cost.expected_cost(theta, inp.micro_table, cost.CostScope.TOP_K)
            exact = cost.exact_cost(arch, MICRO_PLAN)
            back = cells.derive_discrete(theta, micro_templates)
            times["oracle", i].append(time.perf_counter() - t0)
            oracle.append((arch, phi, exact, back))
        elapsed = time.perf_counter() - t_pass
        wall += elapsed - (setup.spent - spent)

        _phase(tracer, "check")
        passes += 1
        for top, full in phis:
            tally.check(*check_full_dag(full, inp))
            tally.check(*check_top_k(top, full, inp))
        for g in grads:
            tally.check(*check_gradient(g, inp.table))
        for (anchor, feasible_anchor), res in zip(anchors, results):
            tally.check(*check_projection(anchor, feasible_anchor, res, inp))
        for arch, phi, exact, back in oracle:
            tally.check(*check_oracle(arch, phi, exact, back))
        if not fits(deadline, elapsed):
            break

    def rate(block: str) -> float:
        """Operations per second of a pass rebuilt from each operation's typical time."""
        each = [typical(v) for key, v in times.items() if key[0] == block]
        return len(each) / sum(each)

    figures = {
        "projections_per_s": (rate("proj"), "1/s"),
        "expected_cost_per_s": (rate("ec"), "1/s"),
        "cost_gradient_per_s": (rate("grad"), "1/s"),
        "oracle_archs_per_s": (rate("oracle"), "1/s"),
    }
    projections = figures["projections_per_s"][0]
    return Measured(figures, projections, setup, passes, "costmodel pass", wall, tally)


def check_full_dag(full: np.ndarray, inp: CostInputs) -> tuple[bool, str]:
    """FullDag cost lies in the saturated extremes of phi_range."""
    tol = 1e-12 * inp.phi_hi
    if not np.all(np.isfinite(full)) or np.any(full < inp.phi_lo - tol) or np.any(full > inp.phi_hi + tol):
        return False, f"expected_cost: FullDag {full} outside phi_range [{inp.phi_lo}, {inp.phi_hi}]"
    return True, ""


def check_top_k(top: np.ndarray, full: np.ndarray, inp: CostInputs) -> tuple[bool, str]:
    """TopK sums a subset of FullDag's non-negative edge terms."""
    tol = 1e-12 * inp.phi_hi
    if not np.all(np.isfinite(top)) or np.any(top < inp.table.fixed - tol) or np.any(top > full + tol):
        return False, f"expected_cost: TopK {top} outside [fixed {inp.table.fixed}, FullDag {full}]"
    return True, ""


def check_gradient(grad: dict, table: cost.CostTable) -> tuple[bool, str]:
    """Each per-metric gradient row of a softmax-mixed edge sums to zero."""
    if set(grad) != set(table.theta_keys()):
        return False, "cost_gradient: keys differ from the table's logits keys"
    for key, g in grad.items():
        if g.shape != (cost.N_METRICS, table.templates[key[0]].n_ops) or not np.all(np.isfinite(g)):
            return False, f"cost_gradient: bad block for {key}: shape {g.shape}"
        if np.any(np.abs(g.sum(axis=1)) > 1e-9 * (np.abs(g).sum(axis=1) + 1.0)):
            return False, f"cost_gradient: rows of {key} do not sum to zero: {g.sum(axis=1)}"
    return True, ""


def check_projection(anchor: dict, feasible_anchor: bool, res, inp: CostInputs) -> tuple[bool, str]:
    frozen = cost.scope_edges(anchor, inp.table.templates)
    recomputed = cost.expected_cost(res.theta_p, inp.table, cost.CostScope.TOP_K, frozen)
    if not np.all(np.abs(res.phi - recomputed) <= PHI_RTOL * np.maximum(np.abs(recomputed), 1.0)):
        return False, f"project: phi {res.phi} disagrees with recomputed {recomputed}"
    if res.feasible != inp.box.feasible(res.phi, inp.proj.feas_tol):
        return False, f"project: feasible={res.feasible} but box says otherwise for phi {res.phi}"
    if feasible_anchor:
        if res.iterations != 0 or not res.feasible:
            return False, f"project: feasible anchor took {res.iterations} iterations"
        if any(res.theta_p[k].tobytes() != anchor[k].tobytes() for k in anchor):
            return False, "project: feasible anchor came back with changed bits"
    return True, ""


def check_oracle(arch, phi: np.ndarray, exact: np.ndarray, back) -> tuple[bool, str]:
    rel = np.abs(phi - exact) / np.maximum(np.abs(exact), 1.0)
    if not rel.max() <= ORACLE_RTOL:
        return False, f"oracle: phi {phi} vs exact {exact} (rel {rel.max():.2e})"
    if back.to_canonical_json() != arch.to_canonical_json():
        return False, "oracle: derive_discrete does not round-trip the saturated logits"
    return True, ""


RUNNERS = {"search": run_search_workload, "retrain": run_retrain_workload, "costmodel": run_costmodel_workload}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

CONV_VARIANTS = ("depthwise", "pointwise", "grouped", "dense")
OP_KINDS = ops.NORMAL_OPS + ops.CONNECTION_OPS
# primitives reported with calls and forward seconds; elementwise and head
# each sum the spans named below them
PRIMITIVES = (
    "autodiff.batch_norm",
    "autodiff.max_pool2d",
    "autodiff.avg_pool2d",
    "autodiff.softmax",
    "autodiff.weighted_sum",
    "autodiff.elementwise",
    "autodiff.head",
)
CALLS_AND_SECONDS = (
    "search.phase1_step",
    "cost.expected_cost",
    "cost.cost_gradient",
    "cost.scope_edges",
    "cost.exact_cost",
    "projection.project",
    "projection.lagrangian",
    "projection.lagrangian_grad",
    "cells.derive_discrete",
    "exhaustive.saturate_theta",
)


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for v in CONV_VARIANTS:
        p = f"autodiff.conv2d.{v}"
        units.update({f"{p}.calls": "count", f"{p}.fwd_s": "s", f"{p}.macs": "MAC_computed", f"{p}.bytes": "B_computed"})
    for p in PRIMITIVES:
        units.update({f"{p}.calls": "count", f"{p}.fwd_s": "s"})
    units.update({"autodiff.backward_s": "s", "autodiff.tape_entries": "count"})
    units.update({"cells.mixed_edge_forward.calls": "count", "cells.mixed_edge_forward.self_s": "s"})
    for kind in OP_KINDS:
        units.update({f"ops.{kind}.calls": "count", f"ops.{kind}.fwd_s": "s"})
    units.update({"network.forward_s": "s", "network.loss_s": "s", "network.build_s": "s"})
    units.update({"optim.sgd.step_s": "s", "optim.adam.calls": "count", "optim.adam.step_s": "s"})
    units.update({"data.next_batch_s": "s", "data.make_dataset_s": "s"})
    for p in CALLS_AND_SECONDS:
        units.update({f"{p}.calls": "count", f"{p}.s": "s"})
    units.update({"search.run_search.self_s": "s", "cost.build_cost_table_s": "s"})
    units.update({
        "projection.iterations": "count",
        "projection.expected_cost_per_iter": "count",
        "projection.feasible_ratio": "ratio",
        "projection.live_scope_infeasible": "count",
    })
    units.update({"exhaustive.enumerate_archs_s": "s"})
    units.update({"trace.throughput_per_s": "1/s", "trace.accounted_share": "ratio", "trace.spans": "count"})
    return units


PER_LAYER = _per_layer_units()


def observe_project(tracer: Tracer, args, kwargs, res) -> None:
    """Count projection outcomes where project returns. The live-scope check
    re-ranks the TopK edges at the returned logits (ROADMAP item 5(b))."""
    box, table = args[1], args[2]
    scope = args[3] if len(args) > 3 else kwargs.get("scope", cost.CostScope.TOP_K)
    count = tracer.count
    count["project.iterations"] += res.iterations
    if res.iterations or not res.feasible:
        count["project.infeasible_anchors"] += 1
        count["project.made_feasible"] += int(res.feasible)
    if res.feasible and scope is cost.CostScope.TOP_K:
        live = tracer.originals["cost.scope_edges"](res.theta_p, table.templates)
        phi = tracer.originals["cost.expected_cost"](res.theta_p, table, scope, live)
        count["project.live_scope_infeasible"] += int(not box.feasible(phi))


def layer_metrics(tracer: Tracer, m: Measured) -> dict[str, float]:
    """Per-layer figures per unit of work (setup layers: per set-up)."""
    run = tracer.summary("run")
    setup = tracer.summary("setup")
    counts = tracer.counts.get("run", {})
    u = m.units

    def total(summary, prefix: str, key: str) -> float:
        """Sum over the span ``prefix`` and the spans named below it."""
        return sum(v[key] for name, v in summary.items() if name == prefix or name.startswith(prefix + "."))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for v in CONV_VARIANTS:
        out[f"autodiff.conv2d.{v}.calls"] = total(run, f"autodiff.conv2d.{v}", "calls") / u
        out[f"autodiff.conv2d.{v}.fwd_s"] = total(run, f"autodiff.conv2d.{v}", "s") / u
        out[f"autodiff.conv2d.{v}.macs"] = counts.get(f"conv2d.{v}.macs", 0.0) / u
        out[f"autodiff.conv2d.{v}.bytes"] = counts.get(f"conv2d.{v}.bytes", 0.0) / u
    for p in PRIMITIVES:
        out[f"{p}.calls"] = total(run, p, "calls") / u
        out[f"{p}.fwd_s"] = total(run, p, "s") / u
    out["autodiff.backward_s"] = total(run, "autodiff.backward", "s") / u
    out["autodiff.tape_entries"] = ratio(counts.get("tape_entries", 0.0), counts.get("backward_calls", 0.0))
    out["cells.mixed_edge_forward.calls"] = total(run, "cells.mixed_edge_forward", "calls") / u
    out["cells.mixed_edge_forward.self_s"] = total(run, "cells.mixed_edge_forward", "self_s") / u
    for kind in OP_KINDS:
        out[f"ops.{kind}.calls"] = total(run, f"ops.{kind}", "calls") / u
        out[f"ops.{kind}.fwd_s"] = total(run, f"ops.{kind}", "s") / u
    out["network.forward_s"] = total(run, "network.forward", "s") / u
    out["network.loss_s"] = total(run, "network.loss", "s") / u
    out["network.build_s"] = total(setup, "network.build", "s") / len(m.setup.seconds)
    out["optim.sgd.step_s"] = total(run, "optim.sgd.step", "s") / u
    out["optim.adam.calls"] = total(run, "optim.adam.step", "calls") / u
    out["optim.adam.step_s"] = total(run, "optim.adam.step", "s") / u
    out["data.next_batch_s"] = total(run, "data.next_batch", "s") / u
    out["data.make_dataset_s"] = total(setup, "data.make_dataset", "s") / len(m.setup.seconds)
    for p in CALLS_AND_SECONDS:
        out[f"{p}.calls"] = total(run, p, "calls") / u
        out[f"{p}.s"] = total(run, p, "s") / u
    out["search.run_search.self_s"] = total(run, "search.run_search", "self_s") / u
    out["cost.build_cost_table_s"] = total(setup, "cost.build_cost_table", "s") / len(m.setup.seconds)
    iterations = counts.get("project.iterations", 0.0)
    out["projection.iterations"] = ratio(iterations, total(run, "projection.project", "calls"))
    out["projection.expected_cost_per_iter"] = ratio(
        tracer.calls_under("cost.expected_cost", "projection.project", "run"), iterations
    )
    out["projection.feasible_ratio"] = ratio(
        counts.get("project.made_feasible", 0.0), counts.get("project.infeasible_anchors", 0.0)
    )
    out["projection.live_scope_infeasible"] = counts.get("project.live_scope_infeasible", 0.0) / u
    out["exhaustive.enumerate_archs_s"] = total(setup, "exhaustive.enumerate_archs", "s") / len(m.setup.seconds)
    out["trace.throughput_per_s"] = m.throughput
    out["trace.accounted_share"] = ratio(sum(v["self_s"] for v in run.values()), m.wall_s)
    out["trace.spans"] = sum(v["calls"] for v in run.values()) / u
    assert set(out) == set(PER_LAYER), set(out) ^ set(PER_LAYER)
    return out


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------


def environment() -> dict:
    """Interpreter, numpy, BLAS, cores and commit behind a result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
    }


def blas_threads() -> int | None:
    """Threads OpenBLAS actually uses, read from the library numpy loaded."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> dict:
    """Run one workload; return the result line plus the figures behind it."""
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.observers["projection.project"] = observe_project
        tracer.install()
    try:
        m = RUNNERS[workload](seed, seconds, scale, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    error_rate = m.tally.failed / m.tally.attempted
    speed = m.setup.reference.speed
    # The gated times are taken at the nominal machine speed of ``Reference``;
    # the figures above them in the table are wall-clock.
    values = {
        "throughput_per_s": m.throughput / speed,
        "setup_s": m.setup.median_s * speed,
        "peak_rss_mb": peak_rss_mb,
    }
    figures = dict(m.figures)
    figures.update({
        "setup_wall_s": (m.setup.median_s, "s"),
        "reference_speed": (speed, "ratio"),
        "throughput_per_s": (values["throughput_per_s"], "1/s"),
        "setup_s": (values["setup_s"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "error_rate": (error_rate, "ratio"),
    })
    if tracer is None:
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    else:
        layers = layer_metrics(tracer, m)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    result = {"correct": m.tally.failed == 0, "attempted": m.tally.attempted, "failed": m.tally.failed, "metrics": metrics}
    return {
        "result": result,
        "figures": figures,
        "unit_name": m.unit_name,
        "units": m.units,
        "failures": m.tally.reasons,
        "tracer": tracer,
    }


def report_lines(out: dict) -> list[str]:
    """The human-readable table printed above the result line."""
    lines = [f"  {name:24s} {value:14.6g} {unit}" for name, (value, unit) in out["figures"].items()]
    lines.append(f"  per-layer figures are per {out['unit_name']} ({out['units']} in this run)")
    lines += [f"  FAILED: {reason}" for reason in out["failures"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    env = environment()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if out["tracer"] is not None:
        OUT_DIR.mkdir(exist_ok=True)
        out["tracer"].write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    print(f"rcnas benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("\n".join(report_lines(out)))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
