"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of ``rcnas`` from outside
the package: each call becomes a span (name, start, end, parent). A
module-level function is replaced under every name bound to it in any
loaded ``rcnas`` module, because modules import primitives by name
(``conv2d`` is bound in ``rcnas.autodiff``, ``rcnas.ops`` and
``rcnas.network``). Methods are replaced on their class.

Spans stay in memory in flat arrays and are written out once at the end.
A span's self time is its duration minus the durations of its direct
children; the program is one synchronous thread, so children never
overlap and self times partition the root spans exactly.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

# span name -> (module, function), wrapped wherever the function is bound
FUNCTIONS = {
    "autodiff.conv2d": ("rcnas.autodiff", "conv2d"),
    "autodiff.batch_norm": ("rcnas.autodiff", "batch_norm"),
    "autodiff.max_pool2d": ("rcnas.autodiff", "max_pool2d"),
    "autodiff.avg_pool2d": ("rcnas.autodiff", "avg_pool2d"),
    "autodiff.softmax": ("rcnas.autodiff", "softmax"),
    "autodiff.weighted_sum": ("rcnas.autodiff", "weighted_sum"),
    "autodiff.elementwise.relu": ("rcnas.autodiff", "relu"),
    "autodiff.elementwise.add": ("rcnas.autodiff", "add"),
    "autodiff.elementwise.mul": ("rcnas.autodiff", "mul"),
    "autodiff.elementwise.scale": ("rcnas.autodiff", "scale"),
    "autodiff.elementwise.concat": ("rcnas.autodiff", "concat"),
    "autodiff.elementwise.crop_offset": ("rcnas.autodiff", "crop_offset"),
    "autodiff.elementwise.channel_shuffle": ("rcnas.autodiff", "channel_shuffle"),
    "autodiff.head.global_avg_pool": ("rcnas.autodiff", "global_avg_pool"),
    "autodiff.head.linear": ("rcnas.autodiff", "linear"),
    "autodiff.head.cross_entropy_logits": ("rcnas.autodiff", "cross_entropy_logits"),
    "cells.mixed_edge_forward": ("rcnas.cells", "mixed_edge_forward"),
    "cells.derive_discrete": ("rcnas.cells", "derive_discrete"),
    "data.make_dataset": ("rcnas.data", "make_dataset"),
    "search.run_search": ("rcnas.search", "run_search"),
    "search.phase1_step": ("rcnas.search", "phase1_step"),
    "cost.build_cost_table": ("rcnas.cost", "build_cost_table"),
    "cost.expected_cost": ("rcnas.cost", "expected_cost"),
    "cost.cost_gradient": ("rcnas.cost", "cost_gradient"),
    "cost.scope_edges": ("rcnas.cost", "scope_edges"),
    "cost.exact_cost": ("rcnas.cost", "exact_cost"),
    "projection.project": ("rcnas.projection", "project"),
    "projection.lagrangian": ("rcnas.projection", "lagrangian"),
    "projection.lagrangian_grad": ("rcnas.projection", "lagrangian_grad"),
    "exhaustive.enumerate_archs": ("rcnas.exhaustive", "enumerate_archs"),
    "exhaustive.saturate_theta": ("rcnas.exhaustive", "saturate_theta"),
}

# span name -> (module, class, method), wrapped on the class
METHODS = {
    "autodiff.backward": ("rcnas.autodiff", "Tape", "backward"),
    "optim.sgd.step": ("rcnas.optim", "SGD", "step"),
    "optim.adam.step": ("rcnas.optim", "Adam", "step"),
    "data.next_batch": ("rcnas.data", "BatchStream", "next_batch"),
    "network.loss": ("rcnas.network", "_NetworkBase", "loss"),
    "network.forward.supernet": ("rcnas.network", "Supernet", "forward"),
    "network.forward.discrete": ("rcnas.network", "DiscreteNetwork", "forward"),
    "network.build.supernet": ("rcnas.network", "Supernet", "__init__"),
    "network.build.discrete": ("rcnas.network", "DiscreteNetwork", "__init__"),
    "ops": ("rcnas.ops", "OpInstance", "__call__"),  # named ops.<kind>
}

# Observers run inside this span, so their time stays out of the caller's
# self time.
OBSERVE_SPAN = "trace.observe"


def conv_variant(x_shape: tuple, w_shape: tuple, groups: int) -> str:
    """Classify a conv2d call by its weight shape and group count."""
    c_out, c_per_group, kh, kw = w_shape
    if groups == x_shape[1] and c_per_group == 1 and c_out == x_shape[1]:
        return "depthwise"
    if groups > 1:
        return "grouped"
    if kh == 1 and kw == 1:
        return "pointwise"
    return "dense"


class Tracer:
    """Records spans around rcnas calls while installed.

    ``set_phase`` tags every span opened after it, so set-up work and timed
    work are aggregated apart. ``counts[phase]`` holds quantities measured
    at the same boundaries: computed conv MACs and bytes per variant, tape
    entries per backward pass, and whatever observers add. An observer
    registered under a span name before ``install`` is called as
    ``observer(tracer, args, kwargs, result)`` after each call;
    ``originals`` gives observers the unwrapped functions, so that they
    record no spans of their own.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.phase_id = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.phases: list[str] = []
        self.counts: dict[str, defaultdict] = {}
        self.observers: dict[str, Callable] = {"autodiff.backward": _observe_backward}
        self.originals: dict[str, Callable] = {}
        self._phase = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.set_phase("setup")

    # -- recording ---------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        if phase not in self.phases:
            self.phases.append(phase)
            self.counts[phase] = defaultdict(float)
        self._phase = self.phases.index(phase)

    @property
    def phase(self) -> str:
        return self.phases[self._phase]

    @property
    def count(self) -> defaultdict:
        """Counters of the current phase."""
        return self.counts[self.phase]

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.phase_id.append(self._phase)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code that calls no traced function itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, span: str, fn: Callable) -> Callable:
        observer = self.observers.get(span)
        named_by_kind = span == "ops"

        def traced(*args, **kwargs):
            idx = self._open("ops." + args[0].kind if named_by_kind else span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observer is not None:
                obs = self._open(OBSERVE_SPAN)
                try:
                    observer(self, args, kwargs, out)
                finally:
                    self._close(obs)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_conv(self, original: Callable) -> Callable:
        """conv2d spans are named by variant. MACs and bytes are computed
        from the shapes: float64 input, weight and output, each read or
        written once."""

        def conv2d(x, weight, stride=1, padding=0, dilation=1, groups=1):
            variant = conv_variant(x.shape, weight.shape, groups)
            idx = self._open("autodiff.conv2d." + variant)
            try:
                out = original(x, weight, stride, padding, dilation, groups)
            finally:
                self._close(idx)
            B, c_out, oh, ow = out.shape
            _, c_per_group, kh, kw = weight.shape
            count = self.count
            count[f"conv2d.{variant}.macs"] += B * c_out * oh * ow * c_per_group * kh * kw
            count[f"conv2d.{variant}.bytes"] += x.data.nbytes + weight.data.nbytes + out.data.nbytes
            return out

        conv2d.__wrapped__ = original
        return conv2d

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method; ``uninstall`` undoes it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "rcnas" or n.startswith("rcnas.")]
        for span, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            self.originals[span] = original
            wrapper = self._wrap_conv(original) if span == "autodiff.conv2d" else self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for span, (mod_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self.originals[span] = original
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as parallel arrays, with each span's self time."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "phase_id": np.frombuffer(self.phase_id, dtype=np.int8),
            "parent": parent,
            "start": start,
            "end": end,
            "duration": dur,
            "self": dur - child,
        }

    def summary(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name in ``phase``: calls, total duration, total self time."""
        if phase not in self.phases or not self.names:
            return {}
        a = self.arrays()
        keep = a["phase_id"] == self.phases.index(phase)
        ids = a["name_id"][keep]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=a["duration"][keep], minlength=n)
        self_s = np.bincount(ids, weights=a["self"][keep], minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def calls_under(self, name: str, ancestor: str, phase: str) -> int:
        """Number of ``name`` spans in ``phase`` with an ``ancestor`` span above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        a = self.arrays()
        target = self._name_ids[ancestor]
        picked = (a["name_id"] == self._name_ids[name]) & (a["phase_id"] == self.phases.index(phase))
        p = a["parent"][picked]
        found = np.zeros(len(p), dtype=bool)
        while np.any(p >= 0):
            live = p >= 0
            found[live] |= a["name_id"][p[live]] == target
            p = np.where(live, a["parent"][np.maximum(p, 0)], -1)
        return int(found.sum())

    def write(self, path: Path) -> None:
        """Write every span (name, phase, start, end, parent, self time)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names, dtype=str), phases=np.array(self.phases, dtype=str), **self.arrays())


def _observe_backward(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count["tape_entries"] += len(args[0])
    tracer.count["backward_calls"] += 1
