"""A floor model for dataset checks, used by the network and search tests."""

import numpy as np

from rcnas.autodiff import Parameter, Tensor, batch_norm, conv2d, cross_entropy_logits, global_avg_pool, linear, relu
from rcnas.ops import _init_conv


class ReferenceConvNet:
    """Two conv blocks and a linear head: a floor model for dataset checks.

    If this cannot learn a dataset, no searched cell architecture will;
    tests use it to certify the synthetic generators are learnable.
    """

    def __init__(self, in_channels: int, n_classes: int, channels: int = 16, seed: int = 0):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.conv1 = _init_conv(rng, channels, in_channels, 3, "ref.conv1")
        self.g1 = Parameter(np.ones(channels), "ref.bn1.gamma")
        self.b1 = Parameter(np.zeros(channels), "ref.bn1.beta")
        self.conv2 = _init_conv(rng, channels, channels, 3, "ref.conv2")
        self.g2 = Parameter(np.ones(channels), "ref.bn2.gamma")
        self.b2 = Parameter(np.zeros(channels), "ref.bn2.beta")
        bound = np.sqrt(6.0 / channels)
        self.fc_w = Parameter(rng.uniform(-bound, bound, size=(n_classes, channels)), "ref.fc.weight")
        self.fc_b = Parameter(np.zeros(n_classes), "ref.fc.bias")
        self._params = [self.conv1, self.g1, self.b1, self.conv2, self.g2, self.b2, self.fc_w, self.fc_b]

    def weight_params(self) -> list[Parameter]:
        return list(self._params)

    def zero_weight_grads(self) -> None:
        for p in self._params:
            p.grad = None

    def forward(self, x) -> Tensor:
        xt = x if isinstance(x, Tensor) else Tensor(x)
        h = relu(batch_norm(conv2d(xt, self.conv1, stride=1, padding=1), self.g1, self.b1))
        h = relu(batch_norm(conv2d(h, self.conv2, stride=2, padding=1), self.g2, self.b2))
        return linear(global_avg_pool(h), self.fc_w, self.fc_b)

    def loss(self, x, y) -> tuple[Tensor, Tensor]:
        logits = self.forward(x)
        return cross_entropy_logits(logits, y), logits
