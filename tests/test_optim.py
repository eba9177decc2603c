import numpy as np
import pytest

from driftlab.optim import Adam
from driftlab.tensor import StateError, Tensor


def quadratic_step(**kw):
    # minimize (theta - 5)^2 for a few steps
    theta = Tensor(0.0, requires_grad=True)
    opt = Adam([theta], **kw)
    for _ in range(200):
        opt.zero_grad()
        d = theta - 5.0
        (d * d).backward()
        opt.step()
    return theta.item()


def test_adam_converges_on_quadratic():
    assert quadratic_step(lr=0.3) == pytest.approx(5.0, abs=1e-3)


def test_adam_first_step_is_signed_lr():
    # with bias correction the first update is lr * g / (|g| + eps)
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    p.grad[:] = [0.5, -4.0, 1e-3]
    opt.step()
    want = np.array([1.0, -2.0, 3.0]) - 0.01 * np.sign([0.5, -4.0, 1e-3])
    assert np.allclose(p.data, want, atol=1e-6)


def test_adam_matches_reference_trace(rng):
    """Ten arbitrary gradient vectors replayed through an inline textbook
    implementation give the same parameter trajectory."""
    grads = [rng.normal(size=4) for _ in range(10)]
    p = Tensor(np.zeros(4), requires_grad=True)
    opt = Adam([p], lr=0.05)

    ref = np.zeros(4)
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        p.zero_grad()
        p.grad[:] = g
        opt.step()

        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        ref -= 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(p.data, ref, atol=1e-14)


def test_adam_zero_grad_means_zero_step():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam([p], lr=0.5)
    opt.zero_grad()
    opt.step()
    assert np.array_equal(p.data, [1.0, 2.0])


def test_missing_grad_raises():
    p = Tensor(np.ones(2))  # not a parameter, grad stays None
    p.requires_grad = True
    p.grad = None
    with pytest.raises(StateError):
        Adam([p]).step()
