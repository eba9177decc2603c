"""Adam over a list of parameter tensors.

Training code calls ``zero_grad`` explicitly between steps; the engine
keeps accumulating otherwise. A fresh optimizer is built per training
stage so no moment estimates leak across stage boundaries.
"""

import numpy as np

from .tensor import StateError, Tensor


class Adam:
    """Adam with bias correction; beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise StateError(f"parameter {i} has no gradient; call backward first")
            g, m, v = p.grad, self.m[i], self.v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
