import numpy as np
import pytest

from driftlab.optim import BLOCK, Adam
from driftlab.tensor import StateError, Tensor
from conftest import allocated_bytes


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


def test_adam_in_place_and_bitwise_equal_to_out_of_place_formula(rng):
    shapes = [(3, 4), (4,), ()]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    opt = Adam(params, lr=0.01)
    buffers = list(zip(opt.m, opt.v))
    ref = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    for t in range(1, 13):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = np.asarray(g, dtype=np.float64)
        opt.step()
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            ref[i] = ref[i] - lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)
            assert np.array_equal(params[i].data, ref[i])
            assert np.array_equal(opt.m[i], m[i]) and np.array_equal(opt.v[i], v[i])
    # the moment buffers are the arrays the optimizer started with
    assert all(opt.m[i] is mb and opt.v[i] is vb for i, (mb, vb) in enumerate(buffers))
    assert all(np.any(mb != 0) for mb, _ in buffers)


def test_adam_step_allocates_no_arrays(rng):
    # the benchmark's embedding net: 64 -> 256 -> 256 -> 64
    shapes = [(64, 256), (256,), (256, 256), (256,), (256, 64), (64,)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    for p in params:
        p.grad[...] = rng.normal(size=p.data.shape)
    opt = Adam(params, lr=1e-3)
    opt.step()  # the first step touches the scratch pages
    assert allocated_bytes(opt.step) < 4096  # one param-sized temporary is 524 KB


BENCH_NET = [(64, 256), (256,), (256, 256), (256,), (256, 64), (64,)]


def test_adam_construction_allocates_moments_and_two_blocks(rng):
    """The scratch is two buffers of BLOCK floats, not two of the largest
    parameter's size (65,536 floats for the 256 x 256 layer)."""
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in BENCH_NET]
    moments = 2 * sum(p.data.size for p in params)
    assert BLOCK == 16_384 and max(p.data.size for p in params) > BLOCK
    assert allocated_bytes(lambda: Adam(params)) <= 8 * (moments + 2 * BLOCK) + 16_384


@pytest.mark.parametrize("shape, order", [
    ((300, 100), "C"), ((300, 100), "F"), ((40_000,), "C"), ((2, 20_000), "C"),
    ((3, 7000, 2), "C")])
def test_adam_blocks_give_textbook_bits_above_one_block(rng, shape, order):
    """Parameters larger than one block, in row blocks, with rows larger
    than a block and a column-major layout, step to the textbook bits."""
    data = np.asarray(rng.normal(size=shape), order=order)
    p = Tensor(data, requires_grad=True)
    opt = Adam([p, Tensor(rng.normal(size=()), requires_grad=True)], lr=0.01)
    ref, m, v = data.copy(), np.zeros(shape), np.zeros(shape)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    for t in range(1, 6):
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
        p.grad = np.asarray(g, order=order)
        opt.params[1].grad = np.asarray(rng.normal())
        opt.step()
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        ref = ref - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert p.data is data and np.array_equal(p.data, ref)
        assert np.array_equal(opt.m[0], m) and np.array_equal(opt.v[0], v)
