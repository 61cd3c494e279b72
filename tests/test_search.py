"""Bilevel search loop, reference loop degeneration, retraining."""

import numpy as np
import pytest

from rcnas import search as search_mod
from rcnas.autodiff import Tape
from rcnas.cells import DiscreteArch
from rcnas.cost import ConstraintBox, CostScope
from rcnas.data import BatchStream, make_blobs, make_shapes, normalization_stats, normalize, split_dataset
from rcnas.network import DiscreteNetwork, NetworkPlan
from rcnas.optim import SGD
from rcnas.projection import ProjectionConfig
from rcnas.search import (
    LOG_COLUMNS,
    SearchAbort,
    SearchConfig,
    darts_reference_search,
    evaluate,
    phase1_step,
    retrain_eval,
    run_search,
)

from reference_net import ReferenceConvNet

IDENTITY_ARCH = DiscreteArch(
    {
        "normal.0": {2: ((0, "identity"), (1, "identity"))},
        "connect": {1: ((0, "group_conv_1x1_g1"),)},
    }
)


def _plan():
    return NetworkPlan(
        n_cells=2, init_channels=4, n_classes=3, image_hw=(8, 8), n_nodes=4, k_levels=1
    )


def _cfg(**kw):
    base = dict(epochs=2, batch_size=16, e_u=2, warm_start_multiplier=2, seed=0)
    base.update(kw)
    return SearchConfig(**base)


def _proj(**kw):
    base = dict(lr=3e-3, max_iters=20)
    base.update(kw)
    return ProjectionConfig(**base)


def test_run_search_toy_trace():
    ds = make_blobs(64, (8, 8), seed=1)
    res = run_search(_plan(), ds, ConstraintBox.unbounded(), _cfg(), _proj())
    # 32 train rows / batch 16 = 2 steps per epoch, 2 epochs
    assert res.report["steps"] == 4
    assert len(res.digests) == 4
    search_rows = [r for r in res.log_rows if r.phase == "search"]
    project_rows = [r for r in res.log_rows if r.phase == "project"]
    assert len(search_rows) == 4 and len(project_rows) == 1
    for row in res.log_rows:
        assert len(row) == len(LOG_COLUMNS)
    assert project_rows[0].proj_iters is not None  # projection iteration count recorded
    assert all(r.proj_iters is None for r in search_rows)
    res.arch.validate(_plan().templates())
    assert res.feasible and res.report["feasible"]
    np.testing.assert_allclose(res.phi, res.report["phi"])
    assert res.report["exact_cost"][0] > 0
    assert res.report["wall_seconds"] > 0


def test_warm_start_stretches_first_round():
    ds = make_blobs(64, (8, 8), seed=1)
    res = run_search(
        _plan(), ds, ConstraintBox.unbounded(), _cfg(e_u=1, warm_start_multiplier=2), _proj()
    )
    # 4 total steps: round 0 takes 2 (warm start), rounds 1-2 take 1 each
    assert res.report["rounds"] == 3
    project_steps = [r.step for r in res.log_rows if r.phase == "project"]
    assert project_steps == [2, 3, 4]
    lam1 = [r.lambda1 for r in res.log_rows if r.phase == "project"]
    g = _proj().gamma
    np.testing.assert_allclose(lam1, [1.0, g, g * g], rtol=1e-12)


def test_unreachable_box_reports_infeasible():
    ds = make_blobs(64, (8, 8), seed=1)
    box = ConstraintBox(np.zeros(2), np.array([1.0, 1.0]))  # below fixed cost
    res = run_search(_plan(), ds, box, _cfg(), _proj(max_iters=5))
    assert not res.feasible
    assert res.report["feasible"] is False
    assert all(r.feasible is False for r in res.log_rows)


def test_search_judges_feasibility_with_projection_tolerance():
    ds = make_blobs(64, (8, 8), seed=1)
    cfg = _cfg(epochs=1, batch_size=8, e_u=2, warm_start_multiplier=1)
    free = run_search(_plan(), ds, ConstraintBox.unbounded(), cfg)
    # phi is 1.25x the bound: outside at the default tolerance, inside at 0.5
    box = ConstraintBox(np.zeros(2), 0.8 * free.phi)
    assert not box.feasible(free.phi)
    res = run_search(_plan(), ds, box, cfg, ProjectionConfig(feas_tol=0.5))
    project_rows = [r for r in res.log_rows if r.phase == "project"]
    assert len(project_rows) == 2 and all(r.proj_iters == 0 for r in project_rows)
    np.testing.assert_array_equal(res.phi, free.phi)
    assert all(r.feasible is True for r in res.log_rows)
    assert res.feasible is True and res.report["feasible"] is True


def test_degenerates_to_reference_loop_without_constraints():
    ds = make_blobs(64, (8, 8), seed=2)
    cfg = _cfg(seed=3)
    constrained = run_search(
        _plan(), ds, ConstraintBox.unbounded(), cfg, _proj(lambda1=0.0, lambda2=0.0)
    )
    reference = darts_reference_search(_plan(), ds, cfg)
    assert constrained.digests == reference.digests
    assert constrained.arch.choices == reference.arch.choices


@pytest.mark.parametrize(
    "run, quantities, steps",
    [
        # four steps; which one aborts depends on the split the pixel lands in
        (lambda ds: run_search(_plan(), ds, ConstraintBox.unbounded(), _cfg(), _proj()), {"train loss", "val loss"}, range(4)),
        # a NaN training pixel makes the normalization stats NaN, so the
        # first step's loss is NaN
        (lambda ds: retrain_eval(IDENTITY_ARCH, _plan(), ds, make_blobs(16, (8, 8), seed=9), epochs=1, batch_size=16),
         {"retrain loss"}, [0]),
    ],
    ids=["run_search", "retrain_eval"],
)
def test_search_aborts_on_poisoned_inputs(run, quantities, steps):
    ds = make_blobs(64, (8, 8), seed=1)
    ds.images[0, 0, 0, 0] = np.nan
    with pytest.raises(SearchAbort) as exc:
        run(ds)
    diag = exc.value.diagnostics
    assert diag["quantity"] in quantities
    assert diag["step"] in steps
    assert str(exc.value) == f"{diag['quantity']} became non-finite at step {diag['step']}"


def test_retrain_aborts_at_the_step_that_diverges():
    """At lr 1e300 the first SGD step overflows the float32 weights: the
    abort names the parameter at that step, before any loss turns."""
    ds = make_blobs(64, (8, 8), seed=1)
    net_names = {p.name for p in DiscreteNetwork(_plan(), IDENTITY_ARCH, 0).weight_params()}
    with pytest.raises(SearchAbort) as exc:
        retrain_eval(IDENTITY_ARCH, _plan(), ds, make_blobs(16, (8, 8), seed=9), epochs=1, batch_size=16, lr=1e300)
    diag = exc.value.diagnostics
    assert diag["step"] == 0 and diag["quantity"] in net_names
    assert not np.isfinite(diag["value"])
    assert str(exc.value) == f"{diag['quantity']} became non-finite at step 0"


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(epochs=0)
    with pytest.raises(ValueError):
        SearchConfig(e_u=0)
    with pytest.raises(ValueError):
        SearchConfig(warm_start_multiplier=0)


def test_phase1_step_updates_both_variable_sets():
    ds = make_blobs(64, (8, 8), seed=4)
    net, train_stream, val_stream, sgd, adam = search_mod._setup(_plan(), ds, _cfg())
    theta_before = net.arch.digest()
    w_before = net.weight_params()[0].data.copy()
    train_loss, val_loss = phase1_step(net, sgd, adam, train_stream, val_stream, step=0)
    assert np.isfinite(train_loss) and np.isfinite(val_loss)
    assert net.arch.digest() != theta_before
    assert not np.array_equal(net.weight_params()[0].data, w_before)
    # weights are left trainable for the next round
    assert all(p.requires_grad for p in net.weight_params())


def test_phase1_step_leaves_the_train_gradient_on_the_weights():
    # each weight's gradient is that of the train batch's loss alone: the
    # logits step holds the weights fixed, so nothing accumulates on them
    ds = make_blobs(64, (8, 8), seed=4)
    net, train_stream, val_stream, sgd, adam = search_mod._setup(_plan(), ds, _cfg())
    phase1_step(net, sgd, adam, train_stream, val_stream, step=0)
    ref, ref_stream, _, _, _ = search_mod._setup(_plan(), ds, _cfg())
    for t in ref.theta_tensors():
        t.requires_grad = False
    with Tape() as tape:
        loss, _ = ref.loss(*ref_stream.next_batch())
        tape.backward(loss)
    grads = [(p.grad, q.grad) for p, q in zip(net.weight_params(), ref.weight_params())]
    assert all(q is not None for _, q in grads)
    for g, want in grads:
        np.testing.assert_array_equal(g, want)
    # both groups are left trainable for the next step
    assert all(p.requires_grad for p in net.weight_params())
    assert all(t.requires_grad for t in net.theta_tensors())


def test_evaluate_is_deterministic():
    ds = make_blobs(32, (8, 8), seed=7)
    net = ReferenceConvNet(in_channels=3, n_classes=3, channels=8, seed=0)
    a = evaluate(net, ds, batch_size=8)
    b = evaluate(net, ds, batch_size=8)
    assert a == b  # fixed visit order, no augmentation, no RNG


def test_retrain_eval_same_seed_is_identical():
    train = make_blobs(48, (8, 8), seed=8)
    eval_ds = make_blobs(24, (8, 8), seed=9)
    kw = dict(epochs=2, batch_size=16, lr=0.05)
    a = retrain_eval(IDENTITY_ARCH, _plan(), train, eval_ds, seed=1, **kw)
    b = retrain_eval(IDENTITY_ARCH, _plan(), train, eval_ds, seed=1, **kw)
    assert (a.accuracy, a.loss) == (b.accuracy, b.loss)
    assert a.history == b.history
    c = retrain_eval(IDENTITY_ARCH, _plan(), train, eval_ds, seed=2, **kw)
    assert a.loss != c.loss


def test_one_retrain_step_runs_in_float32(monkeypatch):
    plan = NetworkPlan(n_cells=2, init_channels=4, n_classes=3, image_hw=(8, 8), n_nodes=5, k_levels=1)
    # depthwise, dilated depthwise, dense dilated, both pools, and a skip
    arch = DiscreteArch(
        {
            "normal.0": {
                2: ((0, "dil_sep_conv_5x5"), (1, "max_pool_3x3")),
                3: ((0, "avg_pool_3x3"), (2, "sep_conv_3x3")),
            },
            "connect": {1: ((0, "dil_conv_3x3"),)},
        }
    )
    seen = {"outputs": set(), "grads": set(), "lr": set(), "after": set()}

    class RecordingTape(Tape):
        def backward(self, loss):
            seen["outputs"] |= {out.data.dtype for out, _, _ in self._entries}
            super().backward(loss)

    class RecordingSGD(SGD):
        def step(self):
            seen["grads"] |= {p.grad.dtype for p in self.params}
            seen["lr"].add(type(self.lr))
            super().step()
            seen["after"] |= {p.data.dtype for p in self.params}

    monkeypatch.setattr(search_mod, "Tape", RecordingTape)
    monkeypatch.setattr(search_mod, "SGD", RecordingSGD)
    train = make_blobs(16, (8, 8), seed=8)
    res = retrain_eval(arch, plan, train, make_blobs(8, (8, 8), seed=9), epochs=1, batch_size=16, seed=1)
    assert len(res.history) == 1  # one step
    f32 = {np.dtype(np.float32)}
    assert seen == {"outputs": f32, "grads": f32, "lr": {np.float64}, "after": f32}


def test_one_phase1_step_trains_in_float32_and_keeps_the_logits_float64(monkeypatch):
    # 4-node cells hold every op, the zero op among them
    ds = make_blobs(32, (8, 8), seed=3)
    net, train_stream, val_stream, sgd, adam = search_mod._setup(_plan(), ds, SearchConfig(batch_size=8, seed=0))
    theta = net.theta_tensors()
    tapes = []

    class RecordingTape(Tape):
        def backward(self, loss):
            tapes.append([(out.data.dtype, bwd.__qualname__, any(t in theta for t in ins)) for out, ins, bwd in self._entries])
            super().backward(loss)

    batches = []
    for stream in (train_stream, val_stream):
        monkeypatch.setattr(stream, "next_batch", lambda nb=stream.next_batch: batches.append(nb()) or batches[-1])
    monkeypatch.setattr(search_mod, "Tape", RecordingTape)
    search_mod.phase1_step(net, sgd, adam, train_stream, val_stream, 0)

    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert len(batches) == 2 and {x.dtype for x, _ in batches} == {f32}
    assert {p.data.dtype for p in net.weight_params()} == {f32}
    assert {v.dtype for v in sgd._velocity} == {f32}
    assert {t.data.dtype for t in theta} == {t.grad.dtype for t in theta} == {f64}
    assert {a.dtype for a in adam._m + adam._v} == {f64}
    train_tape, val_tape = tapes
    assert {dtype for dtype, _, _ in train_tape} == {f32}  # the logits are frozen: no softmax is recorded
    # the logits' softmaxes, one per mixed edge, are the only float64 entries
    reading_theta = [(dtype, name) for dtype, name, reads_theta in val_tape if reads_theta]
    assert set(reading_theta) == {(f64, "softmax.<locals>.bwd")} and len(reading_theta) >= len(theta)
    assert {dtype for dtype, _, reads_theta in val_tape if not reads_theta} == {f32}


def test_retrain_eval_beats_chance_on_blobs():
    train = make_blobs(96, (8, 8), seed=10)
    eval_ds = make_blobs(48, (8, 8), seed=11)
    res = retrain_eval(
        IDENTITY_ARCH, _plan(), train, eval_ds, epochs=6, batch_size=16, seed=0, lr=0.05
    )
    assert res.accuracy > 0.5  # chance is 1/3
    assert res.params > 0 and res.flops > 0
    assert len(res.history) == 6


def test_reference_convnet_learns_shapes_within_twenty_epochs():
    ds = make_shapes(800, (16, 16), seed=12)
    train, val = split_dataset(ds, fraction=0.8, seed=0)
    mean, std = normalization_stats(train)
    train, val = normalize(train, mean, std), normalize(val, mean, std)
    net = ReferenceConvNet(in_channels=3, n_classes=4, channels=16, seed=0)
    sgd = SGD(net.weight_params(), lr=0.05, momentum=0.9, weight_decay=3e-4)
    stream = BatchStream(train, batch_size=64, seed=0)
    for _ in range(20 * stream.batches_per_epoch):
        net.zero_weight_grads()
        xb, yb = stream.next_batch()
        with Tape() as tape:
            loss, _ = net.loss(xb, yb)
            tape.backward(loss)
        sgd.step()
    _, acc = evaluate(net, val, batch_size=160)
    assert acc >= 0.8
