"""Adam over a list of parameter tensors, stepped inside the backward pass.

``step(loss)`` runs ``loss.backward``, the engine's one backward pass,
with a hook that updates each parameter as soon as its gradient is
final, so no parameter keeps a gradient buffer: where each parameter
feeds one tape node, one parameter's gradient is alive at a time. A
parameter read by several nodes sums its gradient in an array the
optimizer keeps from step to step, as it keeps the moments. A parameter
the loss does not reach still moves by its moments, as with a zero
gradient. A fresh optimizer is built per training stage so no moment
estimates leak across stage boundaries.

An update allocates no arrays: the moments update in place, and the
update goes a block of leading-axis rows (BLOCK elements, or one longer
row) at a time through two scratch buffers made once at construction.
Each ufunc writes into them in the operand order of the textbook
expression, so the parameters come out bit-identical to
``p - lr * (m / c1) / (sqrt(v / c2) + eps)``. A gradient of -0.0 gives
the same moments and parameters as +0.0.
"""

import numpy as np

from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
BLOCK = 1 << 14  # elements per scratch buffer (128 KB); 8,192 was about 10% slower


def _row_blocks(a: np.ndarray) -> list:
    """Indexes of ``a``'s blocks: all of an ``a`` of at most BLOCK elements
    (``...``), else leading-axis slices of BLOCK elements or of one row."""
    if a.size <= BLOCK:
        return [...]
    step = max(1, BLOCK // a[0].size)
    return [slice(i, i + step) for i in range(0, len(a), step)]


class Adam:
    """Adam with bias correction and the textbook BETA1, BETA2 and EPS."""

    def __init__(self, params: list[Tensor], lr: float = 1e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._index = {id(p): i for i, p in enumerate(self.params)}
        self._sums: dict = {}  # gradient sums of parameters read by several nodes
        size = max((p.data[r].size for p in self.params for r in _row_blocks(p.data)), default=0)
        flat = np.empty((2, size))
        # (rows, num, den) per block, the scratch views shaped like the block
        self._blocks = [[(r, *(f[: p.data[r].size].reshape(p.data[r].shape) for f in flat))
                         for r in _row_blocks(p.data)] for p in self.params]

    def step(self, loss: Tensor) -> None:
        """One Adam step on the gradient of the scalar ``loss``, applied
        parameter by parameter during its backward pass. Gradients of
        parameters this optimizer does not hold are dropped."""
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        waiting = dict(self._index)

        def update(p: Tensor, g: np.ndarray) -> None:
            i = waiting.pop(id(p), None)
            if i is not None:
                self._update(i, g, c1, c2)

        loss.backward(update, self._sums)
        for i in waiting.values():
            self._update(i, np.broadcast_to(0.0, self.params[i].data.shape), c1, c2)

    def _update(self, i: int, grad: np.ndarray, c1: float, c2: float) -> None:
        """Step parameter ``i`` by ``grad`` with bias corrections c1, c2."""
        p = self.params[i]
        for rows, num, den in self._blocks[i]:
            theta, g, m, v = (a[rows] for a in (p.data, grad, self.m[i], self.v[i]))
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=num)
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=num)
            v += np.multiply(num, g, out=num)
            np.divide(m, c1, out=num)
            num *= self.lr  # lr * (m / c1)
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += EPS
            num /= den
            theta -= num
