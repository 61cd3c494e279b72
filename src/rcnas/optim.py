"""Plain-array optimizers: momentum SGD for network weights, Adam for
architecture logits and for the cost projection inner loop.

Both operate on Tensors through the .grad buffer and keep their
per-parameter state (velocity; first and second moments) as arrays of the
parameter's dtype. A step keeps that dtype too, whatever the type of
``lr``: under NumPy's promotion rules a NumPy float64 ``lr`` (a schedule's
value) would otherwise turn a float32 parameter into float64.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["SGD", "Adam"]


class SGD:
    """SGD with classical momentum and decoupled-from-nothing weight decay
    (decay is added to the gradient, as usual)."""

    def __init__(self, params: list[Tensor], lr: float, momentum: float, weight_decay: float):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data = (p.data - self.lr * v).astype(p.data.dtype, copy=False)


class Adam:
    """Adam with bias correction and eps 1e-8."""

    def __init__(self, params: list[Tensor], lr: float, betas: tuple[float, float]):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1c = 1.0 - self.beta1**self._t
        b2c = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            mhat = m / b1c
            vhat = v / b2c
            p.data = (p.data - self.lr * mhat / (np.sqrt(vhat) + 1e-8)).astype(p.data.dtype, copy=False)
