"""Candidate operation builders and their cost formulas.

Frozen numbers below were derived by summing layer plans by hand and
cross-checked against the built instances' actual parameter sizes.
"""

import numpy as np
import pytest

from rcnas import autodiff, ops
from rcnas.autodiff import ShapeError, Tensor, batch_norm, channel_shuffle, conv2d, relu


def _rng():
    return np.random.default_rng(np.random.SeedSequence(7))


def _ctx(c_in=16, c_out=16, hw=8, stride=1):
    return ops.OpContext(c_in=c_in, c_out=c_out, h_in=hw, w_in=hw, stride=stride)


def test_op_order_is_stable():
    # logits index into these tuples; reordering would silently re-wire archs
    assert ops.NORMAL_OPS == (
        "sep_conv_3x3",
        "sep_conv_5x5",
        "dil_sep_conv_3x3",
        "dil_sep_conv_5x5",
        "max_pool_3x3",
        "avg_pool_3x3",
        "identity",
        "zero",
    )
    assert ops.CONNECTION_OPS == (
        "dil_conv_3x3",
        "group_conv_1x1_g1",
        "group_conv_1x1_g2",
        "group_conv_1x1_g4",
    )


def test_sep_conv3_c16_params_864():
    ctx = _ctx()
    assert ops.counts(ops.SEP_CONV_3, ctx)[0] == 864  # 2 * (144 + 256 + 32)
    inst = ops.build(ops.SEP_CONV_3, ctx, _rng())
    assert inst.weight_count() == 864


def test_group_conv_g1_c16_params_288():
    ctx = _ctx()
    assert ops.counts(ops.GROUP_CONV_G1, ctx)[0] == 288  # 256 conv + 32 bn
    inst = ops.build(ops.GROUP_CONV_G1, ctx, _rng())
    assert inst.weight_count() == 288


def test_max_pool_c4_8x8_flops_2304():
    ctx = _ctx(c_in=4, c_out=4)
    assert ops.counts(ops.MAX_POOL_3, ctx)[1] == 2304  # 9 * 4 * 64
    assert ops.counts(ops.MAX_POOL_3, ctx)[0] == 0


def test_sep_conv3_flops_8x8():
    # per block: depthwise 9*16*64 + pointwise 16*16*64 = 25600
    assert ops.counts(ops.SEP_CONV_3, _ctx())[1] == 51200


def _convs(kind, ctx):
    return [step for step in ops.layer_plan(kind, ctx) if step[0] in ("conv", "conv_bn")]


def test_sep_conv_is_two_independent_blocks():
    convs = _convs(ops.SEP_CONV_3, _ctx())
    bns = [step for step in convs if step[0] == "conv_bn"]
    assert len(convs) == 4 and len(bns) == 2
    # depthwise convs are the 1st and 3rd; only the first carries the stride
    convs2 = _convs(ops.SEP_CONV_3, _ctx(stride=2))
    assert convs2[0][4] == 2 and convs2[2][4] == 1
    inst = ops.build(ops.SEP_CONV_3, _ctx(), _rng())
    names = [p.name for p in inst.parameters]
    assert len(names) == len(set(names)), "blocks must not share parameters"


def test_dil_sep_conv_is_single_block_with_dilation_2():
    convs = _convs(ops.DIL_SEP_CONV_3, _ctx())
    assert len(convs) == 2
    assert convs[0][5] == 2  # dilation on the depthwise conv
    assert ops.counts(ops.DIL_SEP_CONV_3, _ctx())[0] == 432


def test_group_conv_applies_channel_shuffle():
    ctx = _ctx(c_in=8, c_out=8, hw=4)
    inst = ops.build(ops.GROUP_CONV_G2, ctx, _rng())
    x = Tensor(_rng().standard_normal((2, 8, 4, 4)))
    got = inst(x).data
    w, gamma, beta = inst.parameters
    manual = channel_shuffle(batch_norm(conv2d(relu(x), w, stride=1, groups=2), gamma, beta), 2)
    np.testing.assert_array_equal(got, manual.data)


@pytest.mark.parametrize("kind,groups", [(ops.GROUP_CONV_G2, 2), (ops.GROUP_CONV_G4, 4)])
def test_grouped_conv_normalizes_before_shuffling(kind, groups):
    # BN runs on the conv output and the shuffle after it, so gamma[k] and
    # beta[k] act on conv output channel k; outputs and every gradient match
    # the unfused chain bit for bit
    ctx = _ctx(c_in=8, c_out=8, hw=4)
    inst = ops.build(kind, ctx, _rng())
    w, gamma, beta = inst.parameters
    rng = np.random.default_rng(3)
    gamma.data[:] = rng.uniform(0.5, 1.5, 8)
    beta.data[:] = rng.standard_normal(8)
    x_data = _rng().standard_normal((2, 8, 4, 4))
    g_out = rng.standard_normal((2, 8, 4, 4))

    def run(forward):
        x = Tensor(x_data.copy(), requires_grad=True)
        for p in (w, gamma, beta):
            p.grad = None
        with autodiff.Tape() as tape:
            out = forward(x)
            loss = autodiff.tensor_sum(autodiff.mul(out, Tensor(g_out)))
        tape.backward(loss)
        return [a.tobytes() for a in (out.data, x.grad, w.grad, gamma.grad, beta.grad)]

    manual = run(lambda x: channel_shuffle(batch_norm(conv2d(relu(x), w, groups=groups), gamma, beta), groups))
    assert run(inst) == manual


def test_stem_is_a_conv_bn_plan():
    in_ch, C, hw = 3, 16, 8
    ctx = ops.OpContext(c_in=in_ch, c_out=C, h_in=hw, w_in=hw)
    assert ops.STEM not in ops.NORMAL_OPS + ops.CONNECTION_OPS
    assert ops.layer_plan(ops.STEM, ctx) == (("conv_bn", in_ch, C, 3, 1, 1, 1),)
    assert ops.counts(ops.STEM, ctx) == (9 * in_ch * C + 2 * C, 9 * in_ch * C * hw * hw)
    inst = ops.build(ops.STEM, ctx, _rng(), "stem")
    assert [p.name for p in inst.parameters] == ["stem.conv1.weight", "stem.bn1.gamma", "stem.bn1.beta"]
    assert inst.weight_count() == ops.counts(ops.STEM, ctx)[0] and not inst.reads_relu


def test_zero_forward_is_zeros_with_output_shape():
    ctx = _ctx(c_in=4, c_out=8, hw=8, stride=2)
    inst = ops.build(ops.ZERO, ctx, _rng())
    out = inst(Tensor(np.ones((3, 4, 8, 8))))
    assert out.shape == (3, 8, 4, 4)
    assert not out.data.any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_forward_keeps_its_input_dtype(dtype):
    inst = ops.build(ops.ZERO, _ctx(c_in=4, c_out=4, hw=8), _rng())
    out = inst(Tensor(np.ones((2, 4, 8, 8), dtype=dtype)))
    assert out.data.dtype == dtype and not out.data.any()


def test_identity_stride1_is_passthrough():
    inst = ops.build(ops.IDENTITY, _ctx(c_in=4, c_out=4, hw=8), _rng())
    x = Tensor(np.arange(4 * 64, dtype=np.float64).reshape(1, 4, 8, 8))
    assert inst(x) is x


def test_zero_and_identity_cost_nothing_at_stride1():
    ctx = _ctx(c_in=4, c_out=4)
    for kind in (ops.ZERO, ops.IDENTITY):
        assert ops.counts(kind, ctx)[0] == 0
        assert ops.counts(kind, ctx)[1] == 0


def test_factorized_reduce_params_80():
    # identity at stride 2, c8 -> c8: two 1x1 halves (2 * 8*4) + bn (16)
    ctx = _ctx(c_in=8, c_out=8, stride=2)
    assert ops.counts(ops.IDENTITY, ctx)[0] == 80
    # the two halves run in parallel, each at 4x4: 2 * (8*4 * 16)
    assert ops.counts(ops.IDENTITY, ctx)[1] == 1024
    inst = ops.build(ops.IDENTITY, ctx, _rng())
    assert inst.weight_count() == 80
    out = inst(Tensor(np.ones((2, 8, 8, 8))))
    assert out.shape == (2, 8, 4, 4)


def _forward_counting_macs(monkeypatch, inst, x):
    """One forward of ``inst``, counting the MACs its convs and pools run
    per sample."""
    macs = 0

    def counting(primitive, macs_per_output):
        def counted(*args, **kwargs):
            nonlocal macs
            out = primitive(*args, **kwargs)
            macs += macs_per_output(*args) * int(np.prod(out.shape[1:]))
            return out

        return counted

    # ops calls conv2d itself and through conv_bn, which reads the autodiff binding
    counted_conv = counting(ops.conv2d, lambda x, w, *a: w.shape[1] * w.shape[2] * w.shape[3])
    monkeypatch.setattr(ops, "conv2d", counted_conv)
    monkeypatch.setattr(autodiff, "conv2d", counted_conv)
    monkeypatch.setattr(ops, "max_pool2d", counting(ops.max_pool2d, lambda *a: 9))
    monkeypatch.setattr(ops, "avg_pool2d", counting(ops.avg_pool2d, lambda *a: 9))
    return inst(x), macs


@pytest.mark.parametrize("kind", ops.NORMAL_OPS)
@pytest.mark.parametrize("stride", [1, 2])
def test_normal_op_count_matches_built_instance(kind, stride, monkeypatch):
    ctx = _ctx(c_in=8, c_out=8, hw=8, stride=stride)
    inst = ops.build(kind, ctx, _rng())
    assert inst.weight_count() == ops.counts(kind, ctx)[0]
    out, macs = _forward_counting_macs(monkeypatch, inst, Tensor(_rng().standard_normal((2, 8, 8, 8))))
    assert out.shape == (2, ctx.c_out, ctx.h_out, ctx.w_out)
    assert macs == ops.counts(kind, ctx)[1]


@pytest.mark.parametrize("kind", ops.CONNECTION_OPS)
@pytest.mark.parametrize("c_out,stride", [(8, 1), (16, 2)])
def test_connection_op_count_matches_built_instance(kind, c_out, stride, monkeypatch):
    ctx = ops.OpContext(c_in=8, c_out=c_out, h_in=8, w_in=8, stride=stride)
    inst = ops.build(kind, ctx, _rng())
    assert inst.weight_count() == ops.counts(kind, ctx)[0]
    out, macs = _forward_counting_macs(monkeypatch, inst, Tensor(_rng().standard_normal((2, 8, 8, 8))))
    assert out.shape == (2, c_out, ctx.h_out, ctx.w_out)
    assert macs == ops.counts(kind, ctx)[1]


@pytest.mark.parametrize(
    "kind,ctx",
    [
        (ops.MAX_POOL_3, _ctx(c_in=8, c_out=16)),  # a pool cannot change channels
        (ops.IDENTITY, _ctx(c_in=16, c_out=8)),  # nor can identity at stride 1
    ],
)
def test_counts_and_build_reject_the_same_placements(kind, ctx):
    for fn in (ops.counts, ops.layer_plan):
        with pytest.raises(ShapeError):
            fn(kind, ctx)
    with pytest.raises(ShapeError):
        ops.build(kind, ctx, _rng())


def test_pool_flops_halve_per_axis_at_stride2():
    s1 = ops.counts(ops.AVG_POOL_3, _ctx(c_in=4, c_out=4))[1]
    s2 = ops.counts(ops.AVG_POOL_3, _ctx(c_in=4, c_out=4, stride=2))[1]
    assert s2 * 4 == s1


def test_op_context_validation():
    with pytest.raises(ShapeError):
        ops.OpContext(c_in=4, c_out=4, h_in=8, w_in=8, stride=3)
    with pytest.raises(ShapeError):
        ops.OpContext(c_in=4, c_out=4, h_in=7, w_in=8, stride=2)
    with pytest.raises(ShapeError):
        ops.OpContext(c_in=0, c_out=4, h_in=8, w_in=8)


def test_unknown_op_kind_raises():
    with pytest.raises(ops.UnknownOpError):
        ops.counts("transposed_conv_9x9", _ctx())
    with pytest.raises(ops.UnknownOpError):
        ops.build("transposed_conv_9x9", _ctx(), _rng())


def test_sep_conv_rejects_channel_change():
    with pytest.raises(ShapeError):
        ops.counts(ops.SEP_CONV_3, ops.OpContext(c_in=8, c_out=16, h_in=8, w_in=8))


def test_input_shape_enforced():
    inst = ops.build(ops.SEP_CONV_3, _ctx(c_in=8, c_out=8), _rng())
    with pytest.raises(ShapeError):
        inst(Tensor(np.ones((2, 4, 8, 8))))


@pytest.mark.parametrize("kind", ops.NORMAL_OPS)
def test_shared_relu_gives_the_same_output(kind):
    # a caller holding relu(x) may hand it over; ops that start with a
    # ReLU read it, the rest ignore it, and the output bits do not change
    ctx = _ctx(c_in=8, c_out=8, hw=8)
    inst = ops.build(kind, ctx, _rng())
    x = Tensor(_rng().standard_normal((2, 8, 8, 8)))
    assert inst.reads_relu == (ops.layer_plan(kind, ctx)[:1] == (("relu",),))
    assert inst(x, relu(x)).data.tobytes() == inst(x).data.tobytes()


def test_zero_op_pins_no_array():
    inst = ops.build(ops.ZERO, _ctx(c_in=8, c_out=8, hw=8, stride=2), _rng())
    out = inst(Tensor(np.ones((2, 8, 8, 8))))
    assert out.shape == (2, 8, 4, 4) and not out.data.any()
    assert out.data.strides == (0, 0, 0, 0) and not out.data.flags.writeable
