"""Engine-level gradient and tape behavior tests.

Numeric ground truth throughout is central finite differences at
h = 1e-4 in float64; analytic gradients must agree to 1e-5 relative
(error floored at unit scale for near-zero entries).
"""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradsuite
from gradsuite import GradCheckError, grad_check
from rcnas import autodiff as ad
from rcnas.autodiff import (
    Parameter,
    ShapeError,
    Tape,
    Tensor,
    primitive_names,
)

ENGINE_CASES = gradsuite.engine_cases()


@pytest.mark.parametrize("label,f,x", ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES])
def test_primitive_gradients(label, f, x):
    report = grad_check(f, x, h=gradsuite.H, tol=gradsuite.TOL)
    assert report.passed, f"{label}: {report}"


def test_square_at_three_matches_slope_six():
    # d(x^2)/dx at 3 is 6; the FD oracle must agree essentially exactly
    def f(x):
        return ad.tensor_sum(ad.mul(x, x))

    report = grad_check(f, Tensor(np.array([3.0])), h=1e-4)
    assert report.passed
    assert abs(report.analytic[0] - 6.0) < 1e-12
    assert abs(report.numeric[0] - 6.0) < 1e-8


def test_fanout_accumulates_additively():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.add(x, x)  # y = 2x, dy/dx = 2 per coordinate
        loss = ad.tensor_sum(y)
        tape.backward(loss)
    assert np.array_equal(x.grad, np.array([2.0, 2.0]))


def test_first_gradient_is_a_copy_not_the_rule_output():
    # add's backward hands the same array to both inputs; neither may alias it
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.add(a, b)
        y2 = ad.add(y, a)  # a is reached twice
        loss = ad.tensor_sum(y2)
        tape.backward(loss)
    assert np.array_equal(a.grad, [2.0, 2.0])
    assert np.array_equal(b.grad, [1.0, 1.0])
    assert not np.shares_memory(a.grad, b.grad)
    assert a.grad.dtype == np.float64 and b.grad.dtype == np.float64


def test_first_gradient_takes_the_input_layout():
    # BLAS rounds by memory order, so a gradient laid out unlike its tensor
    # would change the bits of every later matmul that reads it
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)

    def fortran_double(x):
        out = Tensor(x.data * 2.0, requires_grad=True)
        return ad._record(out, (x,), lambda g: (np.asfortranarray(g * 2.0),))

    with Tape() as tape:
        loss = ad.tensor_sum(fortran_double(x))
        tape.backward(loss)
    assert x.grad.flags.c_contiguous
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))


def test_backward_rejects_gradient_of_wrong_shape():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def bad_broadcast(x):
        out = Tensor(x.data * 2.0, requires_grad=True)
        return ad._record(out, (x,), lambda g: (np.float64(2.0),))  # scalar, not (2,)

    with Tape() as tape:
        loss = ad.tensor_sum(bad_broadcast(x))
        with pytest.raises(ShapeError, match="backward"):
            tape.backward(loss)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = ad.relu(x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_backward_on_empty_tape_raises():
    with Tape() as tape:
        loss = Tensor(np.array(1.0), requires_grad=True)
        with pytest.raises(RuntimeError):
            tape.backward(loss)


def test_no_grad_outside_tape():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.relu(x)  # no active tape: nothing recorded
    assert y.grad is None and x.grad is None


def test_backward_frees_intermediate_activations():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 5, 5)))
    w = Parameter(rng.standard_normal((3, 1, 3, 3)), "w")
    with Tape() as tape:
        h = ad.relu(ad.conv2d(x, w, padding=1, groups=3))
        alive = weakref.ref(h.data)
        loss = ad.tensor_sum(ad.scale(h, 2.0))
    del h
    assert alive() is not None  # the tape still needs it
    tape.backward(loss)
    assert alive() is None


def test_backward_keeps_leaf_grads_and_drops_the_rest():
    a = Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    b = Tensor(np.array([2.0, 3.0, -4.0]), requires_grad=True)
    with Tape() as tape:
        ab = ad.mul(a, b)
        r = ad.relu(ab)
        y = ad.add(ad.add(r, r), a)  # r is reached twice
        loss = ad.tensor_sum(y)
        tape.backward(loss)
    on = (a.data * b.data > 0).astype(float)
    assert np.array_equal(a.grad, 2.0 * on * b.data + 1.0)
    assert np.array_equal(b.grad, 2.0 * on * a.data)
    assert all(t.grad is None for t in (ab, r, y, loss))


def test_backward_keeps_the_entry_count():
    x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    with Tape() as tape:
        loss = ad.tensor_sum(ad.relu(ad.scale(x, 3.0)))
    assert len(tape) == 3
    tape.backward(loss)
    assert len(tape) == 3


def test_second_backward_on_a_tape_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = ad.tensor_sum(ad.scale(x, 2.0))
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="already been consumed"):
        tape.backward(loss)
    assert np.array_equal(x.grad, [2.0, 2.0])


@pytest.mark.parametrize("groups", [1, 4])
def test_padded_conv_keeps_no_padded_input(groups):
    # the tape may hold the output, not a padded copy of the input
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 4, 32, 32)))
    w = Parameter(rng.standard_normal((4, 4 // groups, 3, 3)), "w")
    ad.conv2d(x, w, padding=2, dilation=2, groups=groups)  # warm the band cache
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = ad.conv2d(x, w, padding=2, dilation=2, groups=groups)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    padded_bytes = 4 * 4 * 36 * 36 * 8
    assert len(tape) == 1
    assert held < out.data.nbytes + padded_bytes // 2


def test_relu_gradient_is_the_sign_of_the_input():
    x = np.array([-0.0, 0.0, np.nan, -np.inf, np.inf, 5e-324, -5e-324, 1.0, -1.0])
    t = Tensor(x, requires_grad=True)
    g = np.arange(1.0, x.size + 1)
    with Tape() as tape:
        loss = ad.tensor_sum(ad.mul(ad.relu(t), Tensor(g)))
        tape.backward(loss)
    assert np.array_equal(t.grad, g * (x > 0.0))


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 3, 4, 5), (8, 4, 16, 16), (3, 2, 7, 1), (16, 8, 8, 8)])
@pytest.mark.parametrize("loc,spread", [(0.0, 1.0), (1e3, 1e-2), (-7.0, 1e4)])
def test_batch_norm_matches_np_var(shape, loc, spread):
    # one mean and the sum of squares over it give np.var's bits exactly
    rng = np.random.default_rng(7)
    x = loc + spread * rng.standard_normal(shape)
    gamma, beta = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=(0, 2, 3), keepdims=True) + 1e-5)
    expect = gamma[None, :, None, None] * ((x - mu) * inv) + beta[None, :, None, None]
    out = ad.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta))
    assert np.array_equal(out.data, expect)


CONV_BN_CASES = [
    # (c_in, c_out, k, stride, padding, dilation, groups)
    (8, 8, 1, 1, 0, 1, 1),  # pointwise
    (4, 6, 1, 1, 0, 1, 1),  # pointwise, c_in != c_out
    (8, 8, 3, 1, 2, 2, 1),  # dense dilated 3x3
    (4, 8, 3, 2, 1, 1, 1),  # dense, stride 2, c_in != c_out
    (8, 8, 1, 1, 0, 1, 4),  # grouped
    (8, 8, 5, 2, 4, 2, 8),  # depthwise, dilated, strided (output laid out channel-major)
]


def _conv_bn_run(fused, cfg, seed=3):
    c_in, c_out, k, stride, padding, dilation, groups = cfg
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((4, c_in, 8, 8)), requires_grad=True)
    w = Parameter(rng.standard_normal((c_out, c_in // groups, k, k)), "w")
    gamma = Parameter(0.5 + rng.random(c_out), "gamma")
    beta = Parameter(rng.standard_normal(c_out), "beta")
    at = dict(stride=stride, padding=padding, dilation=dilation, groups=groups)
    with Tape() as tape:
        if fused:
            out = ad.conv_bn(x, w, gamma, beta, **at)
        else:
            out = ad.batch_norm(ad.conv2d(x, w, **at), gamma, beta)
        r = Tensor(np.random.default_rng(seed + 1).standard_normal(out.shape))
        loss = ad.tensor_sum(ad.mul(out, r))
    n_entries = len(tape)
    tape.backward(loss)
    return n_entries, [out.data, x.grad, w.grad, gamma.grad, beta.grad]


@pytest.mark.parametrize("cfg", CONV_BN_CASES)
def test_conv_bn_matches_batch_norm_of_conv2d_bit_for_bit(cfg):
    n_fused, fused = _conv_bn_run(True, cfg)
    n_chain, chain = _conv_bn_run(False, cfg)
    assert n_fused == n_chain - 1  # one entry where the chain records two
    for got, want in zip(fused, chain):
        assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_conv_bn_keeps_no_conv_output():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((8, 8, 16, 16)))
    w = Parameter(rng.standard_normal((8, 8, 1, 1)), "w")
    gamma, beta = Parameter(np.ones(8), "gamma"), Parameter(np.zeros(8), "beta")
    held, tapes = {}, []
    for name, fn in (("fused", ad.conv_bn), ("chain", lambda *a: ad.batch_norm(ad.conv2d(a[0], a[1]), a[2], a[3]))):
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = fn(x, w, gamma, beta)
            held[name] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        tapes.append(tape)
    # the chain also keeps the conv output, one array of the output's size
    assert [len(t) for t in tapes] == [1, 2]
    assert held["fused"] < held["chain"] - out.data.nbytes // 2


def test_channel_shuffle_permutation():
    x = Tensor(np.arange(4, dtype=np.float64).reshape(1, 4, 1, 1))
    y = ad.channel_shuffle(x, 2)
    assert list(y.data[0, :, 0, 0]) == [0.0, 2.0, 1.0, 3.0]


def test_uniform_cross_entropy_gradient():
    # logits all equal: grad is softmax minus one-hot, i.e. 1/K off-target
    K, B = 4, 2
    x = Tensor(np.zeros((B, K)), requires_grad=True)
    labels = np.array([1, 3])
    with Tape() as tape:
        loss = ad.cross_entropy_logits(x, labels)
        tape.backward(loss)
    expect = np.full((B, K), 1.0 / K)
    expect[0, 1] -= 1.0
    expect[1, 3] -= 1.0
    expect /= B
    np.testing.assert_allclose(x.grad, expect, atol=1e-12)


def test_max_pool_deterministic_tie_break():
    # two equal maxima in one window: gradient flows to the first argmax only
    x = Tensor(np.array([[[[5.0, 5.0], [0.0, 0.0]]]]), requires_grad=True)
    with Tape() as tape:
        y = ad.max_pool2d(x, 2, stride=1, padding=0)
        tape.backward(ad.tensor_sum(y))
    assert x.grad[0, 0, 0, 0] == 1.0 and x.grad[0, 0, 0, 1] == 0.0

    # 3x3 padded windows over a constant input: every real tap ties, so each
    # output's gradient goes to the first real tap of its window, row-major
    # (padding is -inf and never wins)
    x = Tensor(np.full((1, 1, 4, 5), 2.0), requires_grad=True)
    with Tape() as tape:
        y = ad.max_pool2d(x, 3, stride=1, padding=1)
        tape.backward(ad.tensor_sum(y))
    expect = np.zeros((4, 5))
    for oh in range(4):
        for ow in range(5):
            expect[max(oh - 1, 0), max(ow - 1, 0)] += 1.0
    np.testing.assert_array_equal(x.grad[0, 0], expect)


def _conv_reference(x, w, stride, padding, dilation, groups):
    """Grouped cross-correlation straight from its definition: one
    window dot product per output element."""
    ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
    B, C, H, W = x.shape
    Cout, Cg, kh, kw = w.shape
    Og = Cout // groups
    xp = np.zeros((B, C, H + 2 * ph, W + 2 * pw))
    xp[:, :, ph : ph + H, pw : pw + W] = x
    OH = (H + 2 * ph - (kh - 1) * dilation - 1) // stride + 1
    OW = (W + 2 * pw - (kw - 1) * dilation - 1) // stride + 1
    out = np.zeros((B, Cout, OH, OW))
    for b in range(B):
        for o in range(Cout):
            c0 = (o // Og) * Cg
            for oh in range(OH):
                for ow in range(OW):
                    acc = 0.0
                    for c in range(Cg):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[b, c0 + c, oh * stride + i * dilation, ow * stride + j * dilation] * w[o, c, i, j]
                    out[b, o, oh, ow] = acc
    return out


_CONV_FORWARD_CASES = [
    # (c_in, c_out, k, stride, padding, dilation, groups, (H, W))
    *[
        (4, 4, k, s, d * (k - 1) // 2, d, 4, (7, 7))
        for k in (3, 5)
        for d in (1, 2)
        for s in (1, 2)
    ],  # depthwise, as in sep_conv and dil_sep_conv
    (4, 6, 1, 1, 0, 1, 1, (6, 6)),  # 1x1
    (4, 6, 1, 2, 0, 1, 1, (7, 7)),  # 1x1 strided (factorized reduce)
    (4, 8, 1, 1, 0, 1, 2, (5, 5)),  # grouped 1x1
    (8, 8, 1, 1, 0, 1, 4, (5, 5)),
    (4, 6, 3, 2, 2, 2, 1, (8, 8)),  # dense 3x3, dilated, strided
    (3, 5, 3, 1, (1, 2), 1, 1, (5, 8)),  # tuple padding, non-square input
    (4, 4, 3, 2, (2, 1), 1, 4, (6, 9)),
]


@pytest.mark.parametrize("cfg", _CONV_FORWARD_CASES, ids=lambda c: "-".join(map(str, c)))
def test_conv2d_forward_matches_definition(cfg):
    c_in, c_out, k, stride, padding, dilation, groups, (H, W) = cfg
    rng = np.random.default_rng(np.random.SeedSequence(31))
    x = rng.standard_normal((2, c_in, H, W))
    w = rng.standard_normal((c_out, c_in // groups, k, k))
    out = ad.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding, dilation=dilation, groups=groups)
    ref = _conv_reference(x, w, stride, padding, dilation, groups)
    assert out.shape == ref.shape
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def _pool_reference(x, reduce, stride, pad_value):
    """3x3 pool with padding 1 from its definition."""
    B, C, H, W = x.shape
    xp = np.full((B, C, H + 2, W + 2), pad_value)
    xp[:, :, 1 : H + 1, 1 : W + 1] = x
    OH, OW = (H - 1) // stride + 1, (W - 1) // stride + 1
    out = np.zeros((B, C, OH, OW))
    for b in range(B):
        for c in range(C):
            for oh in range(OH):
                for ow in range(OW):
                    window = xp[b, c, oh * stride : oh * stride + 3, ow * stride : ow * stride + 3]
                    out[b, c, oh, ow] = reduce(window)
    return out


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("hw", [(6, 6), (5, 7)])
def test_pools_forward_match_definition(stride, hw):
    rng = np.random.default_rng(np.random.SeedSequence(37))
    x = rng.standard_normal((2, 3, *hw))
    # max pads with -inf; avg pads with zeros that count in the divisor of 9
    max_ref = _pool_reference(x, np.max, stride, -np.inf)
    avg_ref = _pool_reference(x, lambda win: win.sum() / 9.0, stride, 0.0)
    np.testing.assert_array_equal(ad.max_pool2d(Tensor(x), 3, stride, 1).data, max_ref)
    np.testing.assert_allclose(ad.avg_pool2d(Tensor(x), 3, stride, 1).data, avg_ref, rtol=1e-12, atol=1e-15)


def test_grad_check_reports_bad_backward_coordinates():
    # negative control: a deliberately wrong backward must be caught,
    # with the offending coordinates listed
    def bad_double(x: Tensor) -> Tensor:
        out = Tensor(x.data * 2.0, requires_grad=x.requires_grad)
        return ad._record(out, (x,), lambda g: (g * 3.0,))  # wrong: claims slope 3

    def f(x):
        return ad.tensor_sum(bad_double(x))

    report = grad_check(f, Tensor(np.array([1.0, 2.0])), h=1e-4)
    assert not report.passed
    assert len(report.failures) == 2
    assert "coord" in str(report)


def test_grad_check_wraps_exceptions():
    def f(x):
        if x.data[0] > 1.0:
            raise ValueError("boom")
        return ad.tensor_sum(x)

    with pytest.raises(GradCheckError) as ei:
        grad_check(f, Tensor(np.array([1.0])), h=1e-4)
    assert ei.value.coordinate is not None


def test_primitive_registry_round_trip():
    names = primitive_names()
    assert "conv2d" in names and "softmax" in names


def test_primitive_names_cover_every_exported_primitive():
    # a tape-recording function is one whose own body calls _record
    recording = set()
    for name in ad.__all__:
        code = getattr(getattr(ad, name), "__code__", None)
        if code is not None and "_record" in code.co_names:
            recording.add(name)
    names = primitive_names()
    assert len(names) == len(set(names))
    assert set(names) == recording


def _conv(**kw):
    return lambda x, w: ad.conv2d(x, w, **kw)


def _conv_bn(**kw):
    return lambda x, w, g, b: ad.conv_bn(x, w, g, b, **kw)


# primitive -> calls that reach each of its code paths: (function, input shapes)
_DTYPE_CASES = {
    "relu": [(ad.relu, [(2, 3, 5, 5)])],
    "conv2d": [
        (_conv(padding=1, groups=4), [(2, 4, 6, 6), (4, 1, 3, 3)]),  # depthwise
        (_conv(stride=2, padding=4, dilation=2, groups=4), [(2, 4, 7, 7), (4, 1, 5, 5)]),
        (_conv(), [(2, 4, 5, 5), (6, 4, 1, 1)]),  # 1x1, no patch copy
        (_conv(stride=2, padding=1, groups=2), [(2, 4, 6, 6), (4, 2, 3, 3)]),  # grouped, padded
    ],
    "batch_norm": [(ad.batch_norm, [(3, 4, 4, 4), (4,), (4,)])],
    "conv_bn": [
        (_conv_bn(padding=1, groups=4), [(2, 4, 6, 6), (4, 1, 3, 3), (4,), (4,)]),
        (_conv_bn(stride=2, padding=2, dilation=2), [(2, 4, 6, 6), (6, 4, 3, 3), (6,), (6,)]),
    ],
    "max_pool2d": [(lambda x: ad.max_pool2d(x, 3, s, 1), [(2, 3, 6, 6)]) for s in (1, 2)],
    "avg_pool2d": [(lambda x: ad.avg_pool2d(x, 3, s, 1), [(2, 3, 6, 6)]) for s in (1, 2)],
    "global_avg_pool": [(ad.global_avg_pool, [(2, 5, 4, 4)])],
    "concat": [(lambda a, b: ad.concat([a, b], axis=1), [(2, 3, 4, 4), (2, 2, 4, 4)])],
    "add": [(ad.add, [(2, 3, 4, 4), (2, 3, 4, 4)])],
    "mul": [(ad.mul, [(3, 4), (3, 4)])],
    "scale": [(lambda x: ad.scale(x, 0.5), [(2, 3, 3)])],
    "crop_offset": [(lambda x: ad.crop_offset(x, 1, 1), [(2, 3, 5, 5)])],
    "channel_shuffle": [(lambda x: ad.channel_shuffle(x, 2), [(2, 4, 3, 3)])],
    "weighted_sum": [(lambda w, a, b: ad.weighted_sum(w, [a, b]), [(2,), (2, 2, 3, 3), (2, 2, 3, 3)])],
    "linear": [(ad.linear, [(4, 5), (3, 5), (3,)])],
    "softmax": [(ad.softmax, [(3, 4)])],
    "cross_entropy_logits": [(lambda z: ad.cross_entropy_logits(z, np.array([0, 2, 1, 0])), [(4, 3)])],
    "tensor_sum": [(ad.tensor_sum, [(2, 3)])],
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", primitive_names())
def test_every_primitive_keeps_its_input_dtype(name, dtype):
    rng = np.random.default_rng(0)
    rule_dtypes = set()

    def watched(bwd):
        # what a rule returns, before backward copies it into .grad
        def run(g):
            grads = bwd(g)
            rule_dtypes.update(d.dtype for d in grads if d is not None)
            return grads

        return run

    for fn, shapes in _DTYPE_CASES[name]:
        inputs = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]
        with Tape() as tape:
            out = fn(*inputs)
            loss = out if out.size == 1 else ad.tensor_sum(out)
        tape._entries[:] = [(o, ins, watched(bwd)) for o, ins, bwd in tape._entries]
        tape.backward(loss)
        assert out.data.dtype == dtype
        assert [t.grad.dtype for t in inputs] == [dtype] * len(inputs)
    assert rule_dtypes == {np.dtype(dtype)}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_simplex(vals):
    x = Tensor(np.array(vals))
    s = ad.softmax(x).data
    assert abs(s.sum() - 1.0) < 1e-12
    assert np.all(s >= 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_weighted_sum_matches_manual_combination(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(3)
    xs = [rng.standard_normal((2, 2)) for _ in range(3)]
    out = ad.weighted_sum(Tensor(w), [Tensor(x) for x in xs])
    manual = sum(wi * xi for wi, xi in zip(w, xs))
    np.testing.assert_allclose(out.data, manual, atol=1e-12)


def test_weighted_sum_computes_in_its_summands_dtype():
    # a mixed edge: float64 softmax weights over float32 op outputs
    rng = np.random.default_rng(0)
    w = Tensor(ad.softmax(Tensor(rng.standard_normal(3))).data, requires_grad=True)
    xs = [Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True) for _ in range(3)]
    with Tape() as tape:
        out = ad.weighted_sum(w, xs)
        loss = ad.tensor_sum(out)
    tape.backward(loss)
    assert out.data.dtype == np.float32
    assert w.grad.dtype == np.float64
    assert [x.grad.dtype for x in xs] == [np.float32] * 3
    w32 = w.data.astype(np.float32)
    np.testing.assert_array_equal(out.data, w32[0] * xs[0].data + w32[1] * xs[1].data + w32[2] * xs[2].data)
