"""Optimizer update rules against hand-computed sequences."""

import numpy as np
import pytest

from rcnas.autodiff import Tensor
from rcnas.optim import SGD, Adam


def _param(value=1.0):
    return Tensor(np.array([value]), requires_grad=True)


def test_sgd_momentum_two_steps_hand_values():
    p = _param(1.0)
    opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    p.grad = np.array([0.5])
    opt.step()
    # v = 0.5, p = 1 - 0.1*0.5
    assert p.data[0] == pytest.approx(0.95, rel=1e-12)
    p.grad = np.array([0.5])
    opt.step()
    # v = 0.9*0.5 + 0.5 = 0.95, p = 0.95 - 0.095
    assert p.data[0] == pytest.approx(0.855, rel=1e-12)


def test_sgd_weight_decay_adds_to_gradient():
    p = _param(1.0)
    opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.1)
    p.grad = np.array([0.5])
    opt.step()
    # g' = 0.5 + 0.1*1 = 0.6, p = 1 - 0.06
    assert p.data[0] == pytest.approx(0.94, rel=1e-12)
    p.grad = np.array([0.5])
    opt.step()
    # g' = 0.5 + 0.094, v = 0.54 + 0.594 = 1.134, p = 0.94 - 0.1134
    assert p.data[0] == pytest.approx(0.8266, rel=1e-12)


def test_sgd_none_grad_means_zero():
    p = _param(2.0)
    opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    opt.step()
    assert p.data[0] == 2.0
    # momentum still carries past velocity even when this step has no grad
    p.grad = np.array([1.0])
    opt.step()
    p.grad = None
    opt.step()
    assert p.data[0] == pytest.approx(2.0 - 0.1 - 0.1 * 0.9, rel=1e-12)


def test_adam_first_step_is_signed_lr():
    p = _param(1.0)
    opt = Adam([p], lr=0.01, betas=(0.9, 0.999))
    p.grad = np.array([0.5])
    opt.step()
    # bias correction makes mhat = g, vhat = g^2 on step 1
    assert p.data[0] == pytest.approx(1.0 - 0.01 * 0.5 / (0.5 + 1e-8), rel=1e-12)
    p.grad = np.array([0.5])
    opt.step()
    # constant gradient keeps mhat = g, vhat = g^2 at every step
    assert p.data[0] == pytest.approx(1.0 - 2 * 0.01 * 0.5 / (0.5 + 1e-8), rel=1e-9)


def test_adam_descends_tiny_gradients_at_lr_scale():
    p = _param(0.0)
    opt = Adam([p], lr=3e-4, betas=(0.5, 0.999))
    for _ in range(10):
        p.grad = np.array([1e-5])
        opt.step()
    # sign-normalized: small but consistent gradients still move ~lr per step
    assert p.data[0] == pytest.approx(-10 * 3e-4, rel=2e-3)


def test_zero_lr_changes_nothing_but_counters():
    p = _param(1.5)
    opt = Adam([p], lr=0.0, betas=(0.5, 0.999))
    p.grad = np.array([7.0])
    opt.step()
    assert p.data[0] == 1.5
    assert opt._t == 1

    q = _param(1.5)
    sgd = SGD([q], lr=0.0, momentum=0.9, weight_decay=0.0)
    q.grad = np.array([7.0])
    sgd.step()
    assert q.data[0] == 1.5
    assert [v.tolist() for v in sgd._velocity] == [[7.0]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make", [
    lambda ps, lr: SGD(ps, lr=lr, momentum=0.9, weight_decay=3e-4),
    lambda ps, lr: Adam(ps, lr=lr, betas=(0.9, 0.999)),
], ids=["SGD", "Adam"])
def test_a_step_keeps_the_parameter_dtype_under_a_numpy_float64_lr(make, dtype):
    # a cosine schedule's lr is a NumPy float64, which NumPy's promotion
    # rules would let turn a float32 parameter into float64
    p = Tensor(np.array([1.0, -2.0], dtype=dtype), requires_grad=True)
    opt = make([p], np.cos(0.5) * 0.1)
    for _ in range(2):
        p.grad = np.array([0.5, 0.25], dtype=dtype)
        opt.step()
        assert p.data.dtype == dtype
