"""Candidate operations for searched cells, with analytic cost formulas.

Two op families exist. Cells searched over spatial features use the
8-op set NORMAL_OPS (separable/dilated convs, pools, identity, zero);
channel-adapting cells between other cells use the 4-op set
CONNECTION_OPS (a dilated 3x3 conv and grouped 1x1 convs with channel
shuffle). The network stem is the op STEM, in neither set.

Each op is described once, by its layer plan: layer_plan(kind, ctx) reads
the name -> plan table _PLANS and returns a tuple of steps, each one of
  ("relu",)  ("shuffle", groups)  ("zero", c_out, h_out, w_out)
  ("conv", c_in, c_out, k, stride, dilation, groups): a bare conv
  ("conv_bn", c_in, c_out, k, stride, dilation, groups): that conv and a
      BN of its output, one autodiff.conv_bn call
  ("pool", "max" | "avg", c, stride): 3x3, padding 1
  ("fr", c_in, c_out): factorized reduce, two parallel stride-2 1x1 convs
      to c_out/2 channels each, on the even grid and on the grid shifted
      by one pixel, concatenated, then a BN
Identity at stride 1 is the empty plan. The plan is the only check of a
placement, and counts() and build() are each one loop over it, so they
accept the same placements and the formulas match the built weights by
construction. Each step builds to one forward, and none sees another.

A grouped conv normalizes before it shuffles (as the ShuffleNet unit
does), so its BN's gamma[k] and beta[k] act on conv output channel k.
An op whose plan starts with ("relu",) has ``reads_relu`` set: a caller
that already holds the ReLU of the input (cells.cell_forward shares one
per state within a cell) passes it in, and the op starts from it instead
of taking its own.

Cost conventions (normative, mirrored in the README):
  - conv k x k with groups g: params k^2 * c_in * c_out / g (no bias),
    FLOPs (multiply-accumulates) k^2 * (c_in/g) * c_out * h_out * w_out
  - factorized reduce: two 1x1 convs, each c_in * c_out / 2 params and
    that times h_out * w_out FLOPs
  - batch norm: 2 * c params, 0 FLOPs
  - pools: 0 params, k^2 * c * h_out * w_out FLOPs
  - identity at stride 1 / zero: 0 params, 0 FLOPs
  - ReLU, channel shuffle, global pooling: uncounted
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import (
    Parameter,
    ShapeError,
    Tensor,
    avg_pool2d,
    batch_norm,
    channel_shuffle,
    concat,
    conv2d,
    conv_bn,
    crop_offset,
    max_pool2d,
    relu,
)

__all__ = [
    "NORMAL_OPS",
    "CONNECTION_OPS",
    "ZERO",
    "IDENTITY",
    "STEM",
    "OpContext",
    "OpInstance",
    "build",
    "layer_plan",
    "counts",
    "UnknownOpError",
]

SEP_CONV_3 = "sep_conv_3x3"
SEP_CONV_5 = "sep_conv_5x5"
DIL_SEP_CONV_3 = "dil_sep_conv_3x3"
DIL_SEP_CONV_5 = "dil_sep_conv_5x5"
MAX_POOL_3 = "max_pool_3x3"
AVG_POOL_3 = "avg_pool_3x3"
IDENTITY = "identity"
ZERO = "zero"
DIL_CONV_3 = "dil_conv_3x3"
GROUP_CONV_G1 = "group_conv_1x1_g1"
GROUP_CONV_G2 = "group_conv_1x1_g2"
GROUP_CONV_G4 = "group_conv_1x1_g4"
STEM = "stem_conv_3x3"

# Order is load-bearing: architecture logits index into these tuples.
NORMAL_OPS: tuple[str, ...] = (
    SEP_CONV_3,
    SEP_CONV_5,
    DIL_SEP_CONV_3,
    DIL_SEP_CONV_5,
    MAX_POOL_3,
    AVG_POOL_3,
    IDENTITY,
    ZERO,
)
CONNECTION_OPS: tuple[str, ...] = (
    DIL_CONV_3,
    GROUP_CONV_G1,
    GROUP_CONV_G2,
    GROUP_CONV_G4,
)


class UnknownOpError(ValueError):
    pass


@dataclass(frozen=True)
class OpContext:
    """Placement of an op: channel counts, incoming spatial size, stride."""

    c_in: int
    c_out: int
    h_in: int
    w_in: int
    stride: int = 1

    def __post_init__(self):
        if self.c_in < 1 or self.c_out < 1:
            raise ShapeError("OpContext", f"channel counts must be positive, got {self.c_in}->{self.c_out}")
        if self.stride not in (1, 2):
            raise ShapeError("OpContext", f"stride must be 1 or 2, got {self.stride}")
        if self.h_in < 1 or self.w_in < 1:
            raise ShapeError("OpContext", f"spatial dims must be positive, got {self.h_in}x{self.w_in}")
        if self.stride == 2 and (self.h_in % 2 or self.w_in % 2):
            raise ShapeError("OpContext", f"stride 2 requires even spatial dims, got {self.h_in}x{self.w_in}")

    @property
    def h_out(self) -> int:
        return self.h_in // self.stride

    @property
    def w_out(self) -> int:
        return self.w_in // self.stride


class OpInstance:
    """A built operation: parameters plus its plan's steps as forwards over
    batched tensors, run in order. ``reads_relu`` says the plan starts
    with a ReLU of the input."""

    __slots__ = ("kind", "context", "parameters", "steps", "reads_relu")

    def __init__(self, kind: str, context: OpContext, parameters: list[Parameter], steps: list[Callable[[Tensor], Tensor]], reads_relu: bool):
        self.kind = kind
        self.context = context
        self.parameters = parameters
        self.steps = steps
        self.reads_relu = reads_relu

    def __call__(self, x: Tensor, relu_x: Tensor | None = None) -> Tensor:
        """Run the op on ``x``. A caller that already holds ``relu(x)``
        passes it as ``relu_x``; an op that starts with a ReLU then reads it
        instead of taking its own, and every other op ignores it."""
        ctx = self.context
        if x.ndim != 4 or x.shape[1:] != (ctx.c_in, ctx.h_in, ctx.w_in):
            raise ShapeError(
                self.kind,
                f"expected input (B, {ctx.c_in}, {ctx.h_in}, {ctx.w_in}), got {x.shape}",
            )
        steps = self.steps
        if relu_x is not None and self.reads_relu:
            x, steps = relu_x, steps[1:]
        for step in steps:
            x = step(x)
        return x

    def weight_count(self) -> int:
        return sum(p.size for p in self.parameters)

    def __repr__(self) -> str:  # pragma: no cover
        return f"OpInstance({self.kind}, {self.context})"


def _same_channels(kind: str, ctx: OpContext) -> int:
    if ctx.c_in != ctx.c_out:
        raise ShapeError(kind, f"requires c_in == c_out, got {ctx.c_in}->{ctx.c_out}")
    return ctx.c_in


def _sep_conv(k: int, dilation: int, blocks: int):
    # blocks x (ReLU, depthwise k x k, pointwise 1x1 and BN); only the
    # first depthwise conv carries the stride
    def plan(kind: str, ctx: OpContext) -> tuple:
        c = _same_channels(kind, ctx)
        first = (("relu",), ("conv", c, c, k, ctx.stride, dilation, c), ("conv_bn", c, c, 1, 1, 1, 1))
        rest = (("relu",), ("conv", c, c, k, 1, dilation, c)) + first[2:]
        return first + rest * (blocks - 1)

    return plan


def _relu_conv_bn(k: int, dilation: int, groups: int):
    # ReLU, one k x k conv at the placement's stride and its BN; a grouped
    # conv then shuffles its channels
    def plan(kind: str, ctx: OpContext) -> tuple:
        if ctx.c_in % groups or ctx.c_out % groups:
            raise ShapeError(kind, f"channels {ctx.c_in}->{ctx.c_out} not divisible by groups {groups}")
        shuffle = (("shuffle", groups),) if groups > 1 else ()
        return (("relu",), ("conv_bn", ctx.c_in, ctx.c_out, k, ctx.stride, dilation, groups)) + shuffle

    return plan


def _identity(kind: str, ctx: OpContext) -> tuple:
    if ctx.stride == 1:
        _same_channels(kind, ctx)
        return ()
    if ctx.c_out % 2:
        raise ShapeError(kind, f"factorized reduce needs even c_out, got {ctx.c_out}")
    return (("relu",), ("fr", ctx.c_in, ctx.c_out))


_PLANS = {
    SEP_CONV_3: _sep_conv(3, 1, blocks=2),
    SEP_CONV_5: _sep_conv(5, 1, blocks=2),
    DIL_SEP_CONV_3: _sep_conv(3, 2, blocks=1),
    DIL_SEP_CONV_5: _sep_conv(5, 2, blocks=1),
    MAX_POOL_3: lambda kind, ctx: (("pool", "max", _same_channels(kind, ctx), ctx.stride),),
    AVG_POOL_3: lambda kind, ctx: (("pool", "avg", _same_channels(kind, ctx), ctx.stride),),
    IDENTITY: _identity,
    ZERO: lambda kind, ctx: (("zero", ctx.c_out, ctx.h_out, ctx.w_out),),
    DIL_CONV_3: _relu_conv_bn(3, 2, 1),
    GROUP_CONV_G1: _relu_conv_bn(1, 1, 1),
    GROUP_CONV_G2: _relu_conv_bn(1, 1, 2),
    GROUP_CONV_G4: _relu_conv_bn(1, 1, 4),
    # 3x3 conv and BN on the input image, at full resolution
    STEM: lambda kind, ctx: (("conv_bn", ctx.c_in, ctx.c_out, 3, 1, 1, 1),),
}


def layer_plan(kind: str, ctx: OpContext) -> tuple:
    """The op's ordered steps at this placement; raises ShapeError if the
    placement does not fit the op."""
    plan = _PLANS.get(kind)
    if plan is None:
        raise UnknownOpError(f"unknown op kind {kind!r}")
    return plan(kind, ctx)


def counts(kind: str, ctx: OpContext) -> tuple[int, int]:
    """(params, FLOPs) of the op at its placement, under the documented
    conventions: one pass over its plan."""
    params = flops = 0
    h, w = ctx.h_in, ctx.w_in
    for step in layer_plan(kind, ctx):
        tag = step[0]
        if tag in ("conv", "conv_bn"):
            _, c_in, c_out, k, stride, _dil, g = step
            h, w = h // stride, w // stride
            params += k * k * (c_in // g) * c_out + (2 * c_out if tag == "conv_bn" else 0)
            flops += k * k * (c_in // g) * c_out * h * w
        elif tag == "fr":  # two 1x1 convs, each c_in -> c_out/2, at stride 2, and a BN
            h, w = h // 2, w // 2
            params += step[1] * step[2] + 2 * step[2]
            flops += step[1] * step[2] * h * w
        elif tag == "pool":
            _, _mode, c, stride = step
            h, w = h // stride, w // stride
            flops += 9 * c * h * w
    return params, flops


def _init_conv(rng: np.random.Generator, c_out: int, c_in_per_group: int, k: int, name: str) -> Parameter:
    fan_in = c_in_per_group * k * k
    bound = np.sqrt(6.0 / fan_in)
    data = rng.uniform(-bound, bound, size=(c_out, c_in_per_group, k, k))
    return Parameter(data, name)


def _step_forward(step: tuple, conv_weight, bn_params) -> Callable[[Tensor], Tensor]:
    # Each closure looks its primitive up in this module at call time, so a
    # wrapper installed on rcnas.ops after the build still sees every call.
    tag = step[0]
    if tag == "relu":
        return lambda x: relu(x)
    if tag in ("conv", "conv_bn"):
        _, c_in, c_out, k, stride, dil, g = step
        w = conv_weight(c_out, c_in // g, k)
        pad = dil * (k - 1) // 2  # keeps the size at stride 1 for odd k
        if tag == "conv_bn":
            gamma, beta = bn_params(c_out)
            return lambda x: conv_bn(x, w, gamma, beta, stride=stride, padding=pad, dilation=dil, groups=g)
        return lambda x: conv2d(x, w, stride=stride, padding=pad, dilation=dil, groups=g)
    if tag == "fr":
        # the even grid and the grid shifted by one pixel, concatenated, then BN
        _, c_in, c_out = step
        w1 = conv_weight(c_out // 2, c_in, 1)
        w2 = conv_weight(c_out // 2, c_in, 1)
        gamma, beta = bn_params(c_out)

        def factorized_reduce(x: Tensor) -> Tensor:
            halves = concat([conv2d(x, w1, stride=2), conv2d(crop_offset(x, 1, 1), w2, stride=2)], axis=1)
            return batch_norm(halves, gamma, beta)

        return factorized_reduce
    if tag == "shuffle":
        groups = step[1]
        return lambda x: channel_shuffle(x, groups)
    if tag == "pool":
        _, mode, _c, stride = step
        if mode == "max":
            return lambda x: max_pool2d(x, 3, stride, 1)
        return lambda x: avg_pool2d(x, 3, stride, 1)
    shape = step[1:]  # "zero": a read-only zero-stride view in x's dtype, no array to pin
    return lambda x: Tensor(np.broadcast_to(x.data.dtype.type(0), (x.shape[0],) + shape))


def build(kind: str, ctx: OpContext, rng: np.random.Generator, prefix: str = "op") -> OpInstance:
    """Instantiate an op at a placement, drawing weights from ``rng``.

    Weights are drawn in plan order, so builds are reproducible. The n-th
    conv weight is ``{prefix}.conv{n}.weight``; a BN is named after the last
    conv before it, ``{prefix}.bn{n}.gamma``/``.beta``.
    """
    params: list[Parameter] = []
    n_conv = 0

    def conv_weight(c_out: int, c_in_per_group: int, k: int) -> Parameter:
        nonlocal n_conv
        n_conv += 1
        params.append(_init_conv(rng, c_out, c_in_per_group, k, f"{prefix}.conv{n_conv}.weight"))
        return params[-1]

    def bn_params(c: int) -> list[Parameter]:
        params.extend([Parameter(np.ones(c), f"{prefix}.bn{n_conv}.gamma"), Parameter(np.zeros(c), f"{prefix}.bn{n_conv}.beta")])
        return params[-2:]

    plan = layer_plan(kind, ctx)
    steps = [_step_forward(step, conv_weight, bn_params) for step in plan]
    return OpInstance(kind, ctx, params, steps, reads_relu=plan[:1] == (("relu",),))
