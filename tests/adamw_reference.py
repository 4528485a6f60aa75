"""Per-tensor AdamW, the update `training.AdamW` makes on one flat vector,
written out tensor by tensor as a reference for the trainer tests."""

import numpy as np


class TensorAdamW:
    """Decoupled weight decay Adam over a dict of named tensors, in place."""

    def __init__(self, params: dict[str, np.ndarray], config):
        self.params = params
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.weight_decay = config.weight_decay
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= lr * self.weight_decay * p
            p -= (lr / bc1) * m / (np.sqrt(v / bc2) + self.eps)
