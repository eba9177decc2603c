#!/usr/bin/env python3
"""A tour of the tensor core: build a graph, backprop, take Adam steps."""

import numpy as np

from driftlab.tensor import Tensor, add, matmul, relu, tmean, mul
from driftlab.optim import Adam

rng = np.random.default_rng(0)

# A tensor wraps a float64 array. Leaves created with requires_grad=True
# are parameters; everything downstream tracks its parents. backward()
# hands each parameter its finished gradient through a hook, and the
# default hook adds it into the parameter's .grad.
x = Tensor(rng.normal(size=(8, 3)))
w = Tensor(rng.normal(size=(3, 4)) * 0.5, requires_grad=True)
b = Tensor(np.zeros(4), requires_grad=True)

h = relu(add(matmul(x, w), b))
loss = tmean(mul(h, h))
print("loss:", loss.item())

loss.backward()
print("dL/db:", b.grad)

# Check one coordinate against a central finite difference.
eps = 1e-6
k = 2
keep = b.data[k]
b.data[k] = keep + eps
up = tmean(mul(relu(add(matmul(x, w), b)), relu(add(matmul(x, w), b)))).item()
b.data[k] = keep - eps
down = tmean(mul(relu(add(matmul(x, w), b)), relu(add(matmul(x, w), b)))).item()
b.data[k] = keep
print("backprop vs finite difference:", b.grad[k], "vs", (up - down) / (2 * eps))

# An Adam step runs the same backward pass with its own hook, which
# updates each parameter as soon as its gradient is final, so training
# fills no .grad buffer.
opt = Adam([w, b], lr=0.05)
for step in range(60):
    loss = tmean(mul(relu(add(matmul(x, w), b)), relu(add(matmul(x, w), b))))
    opt.step(loss)
    if step % 20 == 0:
        print(f"step {step:3d} loss {loss.item():.6f}")

print("final loss:", loss.item(), "(driving activations toward zero)")
