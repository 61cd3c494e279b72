"""Reverse-mode automatic differentiation over dense float32 or float64 tensors.

The engine is deliberately small: a handful of primitives sufficient for
convolutional supernets (convolution with stride/dilation/groups, batch
norm, conv followed by batch norm as one primitive, pooling, concat,
softmax, cross-entropy) plus a tape that records primitive applications in
execution order. Backward replays the tape in exact reverse order,
accumulating gradients additively across fan-out, and releases each entry
as soon as it has run.

What forward leaves on the tape is the memory peak of a training step, so
each entry keeps only what its rule reads, plus its input and output
tensors: ``relu`` its output (as the mask), ``conv2d`` its unpadded input
and weight (no padded copy, row stack or patches), ``batch_norm`` ``xhat``
and the inverse deviations, and ``conv_bn`` the conv input, ``xhat`` and
the inverse deviations but never the conv output between them.

A tensor is float32 when its data is and float64 otherwise, and every
primitive computes and returns its inputs' dtype; ``weighted_sum``
computes in its summands' dtype and returns its weights' gradient in
theirs. Training, the search's and retraining's, runs in float32; the
architecture logits, Adam on them, the cost model, projection and the
gradient checks run in float64.
Everything is deterministic: the same inputs produce bit-identical outputs
and gradients on every run.
"""
from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "Tape",
    "ShapeError",
    "primitive_names",
    "relu",
    "conv2d",
    "batch_norm",
    "conv_bn",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool",
    "concat",
    "add",
    "mul",
    "scale",
    "crop_offset",
    "channel_shuffle",
    "weighted_sum",
    "linear",
    "softmax",
    "cross_entropy_logits",
    "tensor_sum",
]


class ShapeError(ValueError):
    """A primitive was applied to inputs violating its shape contract."""

    def __init__(self, primitive: str, message: str):
        super().__init__(f"{primitive}: {message}")
        self.primitive = primitive


class Tensor:
    """Dense array with an optional gradient buffer: float32 data stays
    float32, anything else becomes float64.

    ``grad`` stays ``None`` until backward accumulates into it; it is only
    ever populated for tensors with ``requires_grad`` set, and backward
    keeps it only on leaves, the tensors no entry of its tape produced.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Parameter(Tensor):
    """A named leaf tensor that optimizers update."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.shape})"


# One entry per primitive application: (output, inputs, backward rule).
# The backward rule maps the output gradient to one gradient per input,
# aligned positionally; ``None`` marks inputs that need no gradient.
_BackwardFn = Callable[[np.ndarray], tuple]

_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of primitive applications.

    Entries are appended in execution order, which for an eager engine is
    a valid topological order; ``backward`` walks them in exact reverse.
    Use as a context manager around the forward pass:

        with Tape() as tape:
            loss = model_loss(...)
        tape.backward(loss)
    """

    __slots__ = ("_entries", "_consumed")

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], _BackwardFn] | None] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must nest"

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into .grad for every leaf that
        requires a gradient and is reachable from ``loss``.

        A leaf is a tensor no entry of this tape produced (a Parameter, a
        logits vector, a gradient-check input); only leaves keep ``.grad``.
        Each entry is released as soon as its rule has run: its slot becomes
        ``None`` and its output's ``.grad`` is dropped, which frees the
        closure and every array it saved. ``len(tape)`` still counts the
        recorded entries. Backward runs once per tape; a second call raises.
        """
        if loss.data.size != 1:
            raise ShapeError("backward", f"loss must be scalar, got shape {loss.shape}")
        if self._consumed:
            raise RuntimeError("backward called on a tape that has already been consumed")
        if not self._entries:
            raise RuntimeError("backward called on an empty tape")
        self._consumed = True
        if loss.grad is None:
            loss.grad = np.ones_like(loss.data)
        entries = self._entries
        for k in range(len(entries) - 1, -1, -1):
            out, inputs, bwd = entries[k]
            entries[k] = None
            gout, out.grad = out.grad, None
            if gout is not None:
                _accumulate(inputs, bwd(gout))


def _accumulate(inputs: tuple[Tensor, ...], grads: tuple) -> None:
    """Add one rule's input gradients into the inputs' ``.grad``.

    A function of its own so that ``grads`` is freed before the next rule
    runs."""
    for inp, gin in zip(inputs, grads):
        if gin is None or not inp.requires_grad:
            continue
        if inp.grad is not None:
            inp.grad += gin
            continue
        if np.shape(gin) != inp.data.shape:
            raise ShapeError("backward", f"gradient of shape {np.shape(gin)} for input of shape {inp.data.shape}")
        # a copy, never gin itself (a rule may return one array for several
        # inputs), laid out like the input, as BLAS picks its kernel, and
        # with it the rounding, by memory order
        inp.grad = np.empty_like(inp.data)
        inp.grad[...] = gin


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out: Tensor, inputs: tuple[Tensor, ...], bwd: _BackwardFn) -> Tensor:
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape._entries.append((out, inputs, bwd))
    return out


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), requires_grad=x.requires_grad)

    def bwd(g):
        # out > 0 exactly where x > 0 (also for -0.0 and NaN), so the tape
        # keeps no mask
        return (g * (out.data > 0.0),)

    return _record(out, (x,), bwd)


def _pair(v) -> tuple[int, int]:
    if isinstance(v, tuple):
        return v
    return (int(v), int(v))


def _padded(x: np.ndarray, ph: int, pw: int, value: float = 0.0) -> np.ndarray:
    """``x`` with ``ph`` rows and ``pw`` columns of ``value`` added on both sides."""
    if not (ph or pw):
        return x
    B, C, H, W = x.shape
    shape = (B, C, H + 2 * ph, W + 2 * pw)
    xp = np.zeros(shape, x.dtype) if value == 0.0 else np.full(shape, value, x.dtype)
    xp[:, :, ph : ph + H, pw : pw + W] = x
    return xp


def _unpad(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Inverse of ``_padded``: drop the border again."""
    return a[:, :, ph : a.shape[2] - ph, pw : a.shape[3] - pw]


def _span(offset: int, n: int, stride: int) -> slice:
    """``n`` indices from ``offset`` on, ``stride`` apart."""
    return slice(offset, offset + stride * (n - 1) + 1, stride)


def _tap(a: np.ndarray, di: int, dj: int, OH: int, OW: int, stride: int) -> np.ndarray:
    """Strided view of the OH x OW pixels one kernel tap, offset (di, dj), meets."""
    return a[:, :, _span(di, OH, stride), _span(dj, OW, stride)]


@functools.lru_cache(maxsize=256)
def _band_index(kh: int, kw: int, Wp: int, OW: int, stride: int, dilation: int):
    """(row, column) of every band entry, taps in row-major order, output
    column fastest: kernel row i's tap j meets input column ow*stride +
    j*dilation of the stacked row block i for output column ow. The arrays
    are shared between calls, so they are read-only."""
    i, j, ow = np.meshgrid(np.arange(kh), np.arange(kw), np.arange(OW), indexing="ij")
    rows, cols = (i * Wp + ow * stride + j * dilation).ravel(), ow.ravel()
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@functools.lru_cache(maxsize=256)
def _row_index(OH: int, kh: int, stride: int, dilation: int) -> np.ndarray:
    """(OH, kh): the padded input row kernel row i meets for output row oh.
    Shared between calls, so read-only."""
    idx = np.arange(OH)[:, None] * stride + np.arange(kh) * dilation
    idx.flags.writeable = False
    return idx


def _row_stack(x: np.ndarray, ph: int, pw: int, kh: int, OH: int, stride: int, dilation: int) -> np.ndarray:
    """(C, B*OH, kh*Wp): for each output row, the kh padded input rows its
    window covers, laid side by side. One zero-padded channel-major copy of
    ``x``, then one gather of its rows."""
    B, C, H, W = x.shape
    xp = np.zeros((C, B, H + 2 * ph, W + 2 * pw), x.dtype)
    xp[:, :, ph : ph + H, pw : pw + W] = x.transpose(1, 0, 2, 3)
    rows = np.take(xp, _row_index(OH, kh, stride, dilation), axis=2)
    return rows.reshape(C, B * OH, kh * xp.shape[3])


def _im2col(xp: np.ndarray, kh: int, kw: int, OH: int, OW: int, stride: int, dilation: int, groups: int):
    """(B, groups, C/groups*kh*kw, OH*OW) patch matrix of the padded input."""
    B, C = xp.shape[:2]
    if kh == kw == 1 and stride == 1:
        return xp.reshape(B, groups, C // groups, OH * OW)
    cols = np.empty((B, C, kh, kw, OH, OW), xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = _tap(xp, i * dilation, j * dilation, OH, OW, stride)
    return cols.reshape(B, groups, (C // groups) * kh * kw, OH * OW)


def conv2d(
    x: Tensor,
    weight: Tensor,
    stride: int = 1,
    padding: int | tuple[int, int] = 0,
    dilation: int = 1,
    groups: int = 1,
) -> Tensor:
    """Grouped 2-D cross-correlation, no bias.

    x: (B, C_in, H, W); weight: (C_out, C_in/groups, kh, kw).
    Output spatial size follows the usual floor formula.

    Depthwise convolutions run as one batched matmul per call: the stacked
    input rows each output row reads, (C, B*OH, kh*Wp), times a banded
    (C, kh*Wp, OW) matrix that holds each channel's kernel taps. Every
    other convolution is one grouped matmul of the weight matrix with the
    patch matrix. The tape keeps no padded input, row stack or patches:
    backward pads ``x`` again and rebuilds them only for the weight
    gradient; the input gradient never reads them.
    """
    if x.ndim != 4:
        raise ShapeError("conv2d", f"input must be 4-D (B,C,H,W), got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError("conv2d", f"weight must be 4-D, got {weight.shape}")
    B, C, H, W = x.shape
    Cout, Cg, kh, kw = weight.shape
    if C % groups or Cout % groups:
        raise ShapeError("conv2d", f"channels ({C}->{Cout}) not divisible by groups={groups}")
    if Cg != C // groups:
        raise ShapeError("conv2d", f"weight expects {Cg * groups} input channels, input has {C}")
    ph, pw = _pair(padding)
    KH = (kh - 1) * dilation + 1
    KW = (kw - 1) * dilation + 1
    Hp, Wp = H + 2 * ph, W + 2 * pw
    if Hp < KH or Wp < KW:
        raise ShapeError("conv2d", f"kernel {KH}x{KW} exceeds padded input {Hp}x{Wp}")
    OH = (Hp - KH) // stride + 1
    OW = (Wp - KW) // stride + 1

    # the padded input is freed once its row stack or patch matrix is built
    wd = weight.data
    depthwise = groups == C and Cg == 1 and Cout == C
    if depthwise:
        band_idx = _band_index(kh, kw, Wp, OW, stride, dilation)

        def band() -> np.ndarray:
            m = np.zeros((C, kh * Wp, OW), wd.dtype)
            m[:, band_idx[0], band_idx[1]] = np.repeat(wd.reshape(C, kh * kw), OW, axis=1)
            return m

        out_data = np.matmul(_row_stack(x.data, ph, pw, kh, OH, stride, dilation), band())
        out_data = out_data.reshape(C, B, OH, OW).transpose(1, 0, 2, 3)
    else:
        Og = Cout // groups
        wm = wd.reshape(groups, Og, Cg * kh * kw)
        out_data = np.matmul(wm, _im2col(_padded(x.data, ph, pw), kh, kw, OH, OW, stride, dilation, groups))
        out_data = out_data.reshape(B, Cout, OH, OW)
    out = Tensor(out_data, requires_grad=_needs_grad(x, weight))

    def bwd_depthwise(g):
        gt = g.transpose(1, 0, 2, 3).reshape(C, B * OH, OW)
        dw = dx = None
        if weight.requires_grad:
            rows = _row_stack(x.data, ph, pw, kh, OH, stride, dilation)
            full = np.matmul(rows.swapaxes(1, 2), gt)
            dw = full[:, band_idx[0], band_idx[1]].reshape(C, 1, kh, kw, OW).sum(axis=-1)
        if x.requires_grad:
            # one matmul per kernel row, so each scatter-add moves whole
            # contiguous (OH, Wp) blocks
            band_t = np.ascontiguousarray(band().reshape(C, kh, Wp, OW).swapaxes(2, 3))
            dxt = np.zeros((C, B, Hp, Wp), x.data.dtype)
            for i in range(kh):
                drow = np.matmul(gt, band_t[:, i]).reshape(C, B, OH, Wp)
                dxt[:, :, _span(i * dilation, OH, stride)] += drow
            dx = _unpad(dxt.transpose(1, 0, 2, 3), ph, pw)
        return (dx, dw)

    def bwd_grouped(g):
        gm = g.reshape(B, groups, Og, OH * OW)
        dw = dx = None
        if weight.requires_grad:
            cols = _im2col(_padded(x.data, ph, pw), kh, kw, OH, OW, stride, dilation, groups)
            dw = np.matmul(gm, cols.swapaxes(-1, -2)).sum(axis=0).reshape(wd.shape)
        if x.requires_grad:
            dcols = np.matmul(wm.swapaxes(1, 2), gm)
            if kh == kw == 1 and stride == 1:
                dxp = dcols.reshape(B, C, Hp, Wp)
            else:
                dcols = dcols.reshape(B, C, kh, kw, OH, OW)
                dxp = np.zeros((B, C, Hp, Wp), x.data.dtype)
                for i in range(kh):
                    for j in range(kw):
                        _tap(dxp, i * dilation, j * dilation, OH, OW, stride)[...] += dcols[:, :, i, j]
            dx = _unpad(dxp, ph, pw)
        return (dx, dw)

    return _record(out, (x, weight), bwd_depthwise if depthwise else bwd_grouped)


def _bn_forward(xd: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Per-channel batch statistics of ``xd`` over the batch and spatial
    axes: (output, xhat, inv, gam), the last three being all backward reads."""
    mu = xd.mean(axis=(0, 2, 3), keepdims=True)
    xc = xd - mu
    # the sum of squares np.var takes over the same mu, without a second mean
    var = (xc * xc).mean(axis=(0, 2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    # in place here and for the output: two fewer input-sized temporaries,
    # and the same bits
    xhat = xc
    xhat *= inv
    gam = gamma[None, :, None, None]
    out = gam * xhat
    out += beta[None, :, None, None]
    return out, xhat, inv, gam


def _bn_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gam: np.ndarray, need_x: bool, need_gamma: bool, need_beta: bool):
    """(dx, dgamma, dbeta) of ``_bn_forward`` for output gradient ``g``;
    ``None`` where not needed."""
    dgamma = np.einsum("bchw,bchw->c", g, xhat) if need_gamma else None
    dbeta = g.sum(axis=(0, 2, 3)) if need_beta else None
    dx = None
    if need_x:
        gm = g.mean(axis=(0, 2, 3), keepdims=True)
        gxm = (g * xhat).mean(axis=(0, 2, 3), keepdims=True)
        dx = gam * inv * (g - gm - xhat * gxm)
    return dx, dgamma, dbeta


def _check_bn(name: str, x: Tensor, gamma: Tensor, beta: Tensor) -> None:
    if gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError(name, f"gamma/beta must have shape ({x.shape[1]},)")


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Batch normalization with per-batch statistics (no running averages).

    Statistics are taken per channel over the batch and spatial axes. The
    tape entry keeps ``xhat``, the inverse deviations and ``gamma``. It
    also holds ``x`` as an input, which no rule reads; ``conv_bn`` keeps
    no such array after a conv.
    """
    if x.ndim != 4:
        raise ShapeError("batch_norm", f"input must be 4-D, got {x.shape}")
    _check_bn("batch_norm", x, gamma, beta)
    out_data, xhat, inv, gam = _bn_forward(x.data, gamma.data, beta.data)
    out = Tensor(out_data, requires_grad=_needs_grad(x, gamma, beta))

    def bwd(g):
        return _bn_backward(g, xhat, inv, gam, x.requires_grad, gamma.requires_grad, beta.requires_grad)

    return _record(out, (x, gamma, beta), bwd)


def conv_bn(
    x: Tensor,
    weight: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stride: int = 1,
    padding: int | tuple[int, int] = 0,
    dilation: int = 1,
    groups: int = 1,
) -> Tensor:
    """``batch_norm(conv2d(x, weight, ...), gamma, beta)`` as one tape entry.

    Output and gradients are bit-identical to the two-primitive chain. The
    entry keeps the conv input (through the conv's own rule, which pads
    and rebuilds from it) plus ``xhat``, the inverse deviations and
    ``gamma``; it never keeps the conv output, which no rule reads. The
    conv runs through this module's ``conv2d`` binding under a tape of its
    own, whose one entry supplies the conv's backward rule.
    """
    with Tape() as inner:
        y = conv2d(x, weight, stride, padding, dilation, groups)
    _check_bn("conv_bn", y, gamma, beta)
    out_data, xhat, inv, gam = _bn_forward(y.data, gamma.data, beta.data)
    need_y = y.requires_grad
    conv_bwd = inner._entries[0][2] if need_y else None
    del y, inner
    out = Tensor(out_data, requires_grad=_needs_grad(x, weight, gamma, beta))

    def bwd(g):
        dy, dgamma, dbeta = _bn_backward(g, xhat, inv, gam, need_y, gamma.requires_grad, beta.requires_grad)
        dx, dw = conv_bwd(dy) if need_y else (None, None)
        return (dx, dw, dgamma, dbeta)

    return _record(out, (x, weight, gamma, beta), bwd)


def _window_taps(a: np.ndarray, kernel: int, OH: int, OW: int, stride: int) -> list[np.ndarray]:
    """One strided view per window tap, in row-major window order."""
    return [_tap(a, i, j, OH, OW, stride) for i in range(kernel) for j in range(kernel)]


def _pool_prep(name: str, x: Tensor, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    if x.ndim != 4:
        raise ShapeError(name, f"input must be 4-D, got {x.shape}")
    B, C, H, W = x.shape
    Hp, Wp = H + 2 * padding, W + 2 * padding
    if Hp < kernel or Wp < kernel:
        raise ShapeError(name, f"kernel {kernel} exceeds padded input {Hp}x{Wp}")
    return (Hp - kernel) // stride + 1, (Wp - kernel) // stride + 1


def max_pool2d(x: Tensor, kernel: int = 3, stride: int = 1, padding: int = 1) -> Tensor:
    OH, OW = _pool_prep("max_pool2d", x, kernel, stride, padding)
    taps = _window_taps(_padded(x.data, padding, padding, -np.inf), kernel, OH, OW, stride)
    out_data = taps[0].copy()
    for t in taps[1:]:
        np.maximum(out_data, t, out=out_data)
    out = Tensor(out_data, requires_grad=x.requires_grad)

    def bwd(g):
        # each output's gradient goes to the first tap, row-major, that
        # holds the maximum; ``pending`` marks outputs not yet routed. The
        # input is padded again here so the tape holds no padded copy.
        xp = _padded(x.data, padding, padding, -np.inf)
        dxp = np.zeros(xp.shape, xp.dtype)
        pending = np.ones(out_data.shape, dtype=bool)
        taps = zip(_window_taps(xp, kernel, OH, OW, stride), _window_taps(dxp, kernel, OH, OW, stride))
        for t, dt in taps:
            hit = (t == out_data) & pending
            pending ^= hit
            dt += g * hit
        return (_unpad(dxp, padding, padding),)

    return _record(out, (x,), bwd)


def avg_pool2d(x: Tensor, kernel: int = 3, stride: int = 1, padding: int = 1) -> Tensor:
    # padding contributes zeros and is included in the divisor
    OH, OW = _pool_prep("avg_pool2d", x, kernel, stride, padding)
    taps = _window_taps(_padded(x.data, padding, padding), kernel, OH, OW, stride)
    inv_k2 = 1.0 / (kernel * kernel)
    acc = taps[0].copy()
    for t in taps[1:]:
        acc += t
    out = Tensor(acc * inv_k2, requires_grad=x.requires_grad)
    B, C, H, W = x.shape

    def bwd(g):
        dxp = np.zeros((B, C, H + 2 * padding, W + 2 * padding), x.data.dtype)
        gk = g * inv_k2
        for dt in _window_taps(dxp, kernel, OH, OW, stride):
            dt += gk
        return (_unpad(dxp, padding, padding),)

    return _record(out, (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    if x.ndim != 4:
        raise ShapeError("global_avg_pool", f"input must be 4-D, got {x.shape}")
    B, C, H, W = x.shape
    out = Tensor(x.data.mean(axis=(2, 3)), requires_grad=x.requires_grad)

    def bwd(g):
        return (np.broadcast_to(g[:, :, None, None] / (H * W), (B, C, H, W)).copy(),)

    return _record(out, (x,), bwd)


def concat(xs: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not xs:
        raise ShapeError("concat", "needs at least one input")
    base = list(xs[0].shape)
    for t in xs[1:]:
        s = list(t.shape)
        s[axis] = base[axis]
        if s != base:
            raise ShapeError("concat", f"incompatible shapes {xs[0].shape} vs {t.shape} on axis {axis}")
    sizes = [t.shape[axis] for t in xs]
    out = Tensor(np.concatenate([t.data for t in xs], axis=axis), requires_grad=_needs_grad(*xs))
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(xs), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError("add", f"shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data, requires_grad=_needs_grad(a, b))

    def bwd(g):
        return (g, g)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError("mul", f"shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data, requires_grad=_needs_grad(a, b))

    def bwd(g):
        da = g * b.data if a.requires_grad else None
        db = g * a.data if b.requires_grad else None
        return (da, db)

    return _record(out, (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c, requires_grad=x.requires_grad)

    def bwd(g):
        return (g * c,)

    return _record(out, (x,), bwd)


def crop_offset(x: Tensor, dh: int, dw: int) -> Tensor:
    """Drop the first dh rows and dw columns: x[:, :, dh:, dw:]."""
    if x.ndim != 4:
        raise ShapeError("crop_offset", f"input must be 4-D, got {x.shape}")
    B, C, H, W = x.shape
    if dh >= H or dw >= W:
        raise ShapeError("crop_offset", f"offset ({dh},{dw}) exceeds spatial dims ({H},{W})")
    out = Tensor(x.data[:, :, dh:, dw:].copy(), requires_grad=x.requires_grad)

    def bwd(g):
        return (np.pad(g, ((0, 0), (0, 0), (dh, 0), (dw, 0))),)

    return _record(out, (x,), bwd)


def channel_shuffle(x: Tensor, groups: int) -> Tensor:
    """Interleave channel groups: with groups=2, [a,b,c,d] -> [a,c,b,d]."""
    if x.ndim != 4:
        raise ShapeError("channel_shuffle", f"input must be 4-D, got {x.shape}")
    B, C, H, W = x.shape
    if C % groups:
        raise ShapeError("channel_shuffle", f"channels {C} not divisible by groups {groups}")
    per = C // groups
    out_data = x.data.reshape(B, groups, per, H, W).swapaxes(1, 2).reshape(B, C, H, W)
    out = Tensor(out_data, requires_grad=x.requires_grad)

    def bwd(g):
        # inverse permutation: shuffle with the complementary group count
        return (g.reshape(B, per, groups, H, W).swapaxes(1, 2).reshape(B, C, H, W),)

    return _record(out, (x,), bwd)


def weighted_sum(weights: Tensor, xs: Sequence[Tensor]) -> Tensor:
    """sum_i weights[i] * xs[i] with a 1-D weight vector."""
    if weights.ndim != 1 or weights.shape[0] != len(xs):
        raise ShapeError("weighted_sum", f"need {len(xs)} weights, got shape {weights.shape}")
    if not xs:
        raise ShapeError("weighted_sum", "needs at least one summand")
    shape = xs[0].shape
    for t in xs[1:]:
        if t.shape != shape:
            raise ShapeError("weighted_sum", f"summand shapes differ: {shape} vs {t.shape}")
    # in the summands' dtype: float64 weights would promote float32 summands
    wd = weights.data.astype(np.result_type(*(t.data.dtype for t in xs)), copy=False)
    acc = wd[0] * xs[0].data
    for i in range(1, len(xs)):
        acc = acc + wd[i] * xs[i].data
    out = Tensor(acc, requires_grad=_needs_grad(weights, *xs))

    def bwd(g):
        if weights.requires_grad:
            dw = np.array([np.vdot(g, t.data) for t in xs], dtype=weights.data.dtype)
        else:
            dw = None
        dxs = tuple(wd[i] * g if xs[i].requires_grad else None for i in range(len(xs)))
        return (dw,) + dxs

    return _record(out, (weights, *xs), bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight.T + bias with x: (B, C_in), weight: (C_out, C_in)."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError("linear", f"need 2-D input and weight, got {x.shape}, {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError("linear", f"input features {x.shape[1]} != weight features {weight.shape[1]}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError("linear", f"bias must have shape ({weight.shape[0]},)")
    out = Tensor(x.data @ weight.data.T + bias.data, requires_grad=_needs_grad(x, weight, bias))

    def bwd(g):
        dx = g @ weight.data if x.requires_grad else None
        dw = g.T @ x.data if weight.requires_grad else None
        db = g.sum(axis=0) if bias.requires_grad else None
        return (dx, dw, db)

    return _record(out, (x, weight, bias), bwd)


def softmax(x: Tensor, part: slice = slice(None)) -> Tensor:
    """Softmax over the last axis of ``x.data[part]``; x's gradient is zero
    outside ``part``, so each row of one logits vector can feed its own."""
    xp = x.data[part]
    z = xp - xp.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, requires_grad=x.requires_grad)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        gx = np.zeros_like(x.data)
        gx[part] = y * (g - dot)
        return (gx,)

    return _record(out, (x,), bwd)


def cross_entropy_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits (B, K) and integer labels (B,)."""
    if logits.ndim != 2:
        raise ShapeError("cross_entropy_logits", f"logits must be 2-D, got {logits.shape}")
    labels = np.asarray(labels)
    B, K = logits.shape
    if labels.shape != (B,):
        raise ShapeError("cross_entropy_logits", f"labels must have shape ({B},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= K:
        raise ShapeError("cross_entropy_logits", f"labels out of range [0, {K})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.arange(B)
    out = Tensor(-logp[rows, labels].mean(), requires_grad=logits.requires_grad)
    p = np.exp(logp)

    def bwd(g):
        d = p.copy()
        d[rows, labels] -= 1.0
        return (float(g) * d / B,)

    return _record(out, (logits,), bwd)


def tensor_sum(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum(), requires_grad=x.requires_grad)

    def bwd(g):
        return (np.full_like(x.data, float(g)),)

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# primitive set
# ---------------------------------------------------------------------------

# The tape-recording primitives, fixed at import: the set the gradient
# checks must cover.
_PRIMITIVES = (
    relu, conv2d, batch_norm, conv_bn, max_pool2d, avg_pool2d, global_avg_pool, concat, add, mul, scale,
    crop_offset, channel_shuffle, weighted_sum, linear, softmax, cross_entropy_logits, tensor_sum,
)


def primitive_names() -> tuple[str, ...]:
    return tuple(sorted(f.__name__ for f in _PRIMITIVES))
