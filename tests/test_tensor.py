import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab import tensor as T
from driftlab.tensor import (
    NormalizationError,
    ShapeError,
    StateError,
    Tensor,
)
from conftest import check_grads, max_rel_err, numeric_grad, nudge_off_kinks


def test_tensor_wraps_data_unchanged():
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    t = Tensor(x)
    assert t.data.dtype == np.float64
    assert np.array_equal(t.data, x)
    assert t.grad is None and not t.requires_grad


def test_param_grad_starts_as_none():
    p = Tensor(np.ones((3, 2)), requires_grad=True)
    assert p.grad is None
    T.tsum(p).backward()
    assert np.array_equal(p.grad, np.ones((3, 2)))


def test_square_of_scalar_param():
    # d(theta^2)/d(theta) = 2 theta; theta = 3 gives 6
    theta = Tensor(3.0, requires_grad=True)
    (theta * theta).backward()
    assert theta.grad == pytest.approx(6.0)


def test_grad_accumulates_until_zeroed():
    theta = Tensor(3.0, requires_grad=True)
    (theta * theta).backward()
    (theta * theta).backward()
    assert theta.grad == pytest.approx(12.0)
    theta.grad = None
    (theta * theta).backward()
    assert theta.grad == pytest.approx(6.0)


def three_taps(rng):
    """A scalar loss whose backward hands leaf ``x`` three contributions,
    logged in arrival order: -0.0 in all three, exact cancellations, and
    magnitudes far apart so the order of the additions shows."""
    cs = [rng.normal(size=40) * 10.0 ** rng.integers(-8, 9, size=40) for _ in range(3)]
    for c in cs:
        c[:4] = -0.0
    cs[0][4:8], cs[1][4:8], cs[2][4:8] = 1.0, -1.0, -0.0
    x = Tensor(np.zeros(40), requires_grad=True)
    arrived = []

    def tap(c):
        def back(g):
            arrived.append(g * c)
            return (arrived[-1],)
        return T._make(np.float64(0.0), (x,), back)

    return x, tap(cs[0]) + tap(cs[1]) + tap(cs[2]), arrived


def test_leaf_contributions_equal_sum_then_add(rng):
    x, loss, arrived = three_taps(rng)
    loss.backward()
    assert len(arrived) == 3
    want = np.zeros(40)
    want += (arrived[0] + arrived[1]) + arrived[2]
    assert x.grad.tobytes() == want.tobytes()
    assert not np.signbit(x.grad[:4]).any()


def test_leaf_grads_accumulate_across_backward_calls(rng):
    """Each pass sums its three contributions, then adds the sum into
    ``grad``; a second pass adds its own sum on top."""
    x, loss, arrived = three_taps(rng)
    loss.backward()
    once = x.grad.copy()
    loss.backward()
    assert len(arrived) == 6
    want = np.zeros(40)
    want += (arrived[0] + arrived[1]) + arrived[2]
    want += (arrived[3] + arrived[4]) + arrived[5]
    assert x.grad.tobytes() == want.tobytes()
    np.testing.assert_allclose(x.grad, 2 * once, rtol=1e-12, atol=0)


def test_hooked_backward_sums_a_leaf_like_an_inner_node(rng):
    """With a hook, a leaf read three times gets ``(c0 + c1) + c2`` once,
    after its last reader: -0.0 stays -0.0 where the ``grad`` path gives
    +0.0. The sum lives in the caller's ``sums`` array, reused by the
    next call, and ``grad`` stays None."""
    x, loss, arrived = three_taps(rng)
    sums, got = {}, []
    hook = lambda p, g: got.append((p, len(arrived), g.copy(), g))
    loss.backward(hook, sums)
    loss.backward(hook, sums)
    assert [(p, n) for p, n, _, _ in got] == [(x, 3), (x, 6)]
    for _, n, g, held in got:
        want = (arrived[n - 3] + arrived[n - 2]) + arrived[n - 1]
        assert g.tobytes() == want.tobytes()
        assert held is sums[x]
    assert np.signbit(got[0][2][:4]).all()
    assert x.grad is None


def test_only_the_tensor_module_touches_grad():
    """Every gradient consumer outside the engine reads gradients through
    a ``backward`` hook: no other module of the package reads or writes a
    ``.grad``."""
    src = Path(T.__file__).parent
    touched = []
    for path in sorted(src.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "grad":
                touched.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert touched == []


def test_dead_relu_blocks_gradient():
    x = Tensor(np.array([-2.0, -0.5]), requires_grad=True)
    T.relu(x).sum().backward()
    assert np.array_equal(x.grad, np.zeros(2))


_RELU_EDGES = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324)


@given(st.lists(st.one_of(st.sampled_from(_RELU_EDGES), st.floats()), min_size=1,
                max_size=64), st.integers(0, 2**32 - 1))
def test_relu_forward_bytes_equal_masked_where(values, seed):
    # seed -0.0, NaN, +-inf and +-5e-324 into every draw, shuffled
    a = np.random.default_rng(seed).permutation(np.array(values + list(_RELU_EDGES)))
    want = np.where(a > 0, a, 0.0)
    assert T.relu(a).data.tobytes() == want.tobytes()
    inplace = a.copy()
    assert T.relu_values(inplace, out=inplace) is inplace
    assert inplace.tobytes() == want.tobytes()


def test_matmul_skips_gradient_of_constant_operand(rng):
    x, w = rng.normal(size=(5, 3)), rng.normal(size=(3, 4))
    g = rng.normal(size=(5, 4))
    out = T.matmul(Tensor(x), Tensor(w, requires_grad=True))
    gx, gw = out._backward(g)
    assert gx is None and np.array_equal(gw, x.T @ g)
    gx, gw = T.matmul(Tensor(x, requires_grad=True), Tensor(w))._backward(g)
    assert np.array_equal(gx, g @ w.T) and gw is None
    # a first layer: bit-identical parameter gradients either way
    xs, ws = Tensor(x), Tensor(w, requires_grad=True)
    xp, wp = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    T.relu(T.matmul(xs, ws)).sum().backward()
    T.relu(T.matmul(xp, wp)).sum().backward()
    assert np.array_equal(ws.grad, wp.grad) and xs.grad is None


def test_identity_dense_layer_is_passthrough():
    x = np.random.default_rng(1).normal(size=(4, 5))
    w = Tensor(np.eye(5), requires_grad=True)
    b = Tensor(np.zeros(5), requires_grad=True)
    out = T.add(T.matmul(Tensor(x), w), b)
    assert np.allclose(out.data, x)


def test_l2_normalize_three_four():
    v = Tensor(np.array([[3.0, 4.0]]))
    out = T.l2_normalize(v, axis=1)
    assert np.allclose(out.data, [[0.6, 0.8]])


def test_l2_normalize_unit_norm_tight(rng):
    z = T.l2_normalize(Tensor(rng.normal(size=(40, 7))), axis=1)
    norms = np.linalg.norm(z.data, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_l2_normalize_rejects_degenerate():
    bad = np.ones((3, 4))
    bad[1] = 1e-13
    with pytest.raises(NormalizationError):
        T.l2_normalize(Tensor(bad), axis=1)
    for value in (np.nan, np.inf):
        bad = np.ones((3, 4))
        bad[2, 1] = value
        with pytest.raises(NormalizationError, match="not finite"):
            T.l2_normalize(Tensor(bad), axis=1)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(StateError):
        (x * 2.0).backward()


def test_backward_requires_graph():
    with pytest.raises(StateError):
        Tensor(np.array(1.0)).backward()


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_diamond_graph_reuses_node_once():
    # y = x*x + x  =>  dy/dx = 2x + 1
    x = Tensor(4.0, requires_grad=True)
    y = x * x + x
    y.backward()
    assert x.grad == pytest.approx(9.0)


def test_no_grad_leaves_are_pruned():
    x = Tensor(np.ones((2, 2)))
    w = Tensor(np.ones((2, 2)))
    out = T.matmul(x, w).sum()
    assert out._backward is None and not out.requires_grad


def test_index_rows_accumulates_repeats():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(3, 2), requires_grad=True)
    T.index_rows(x, [1, 1, 0]).sum().backward()
    assert np.array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


def test_two_layer_mlp_matches_hand_rolled(rng):
    """Forward pass cross-checked against raw numpy arithmetic."""
    x = rng.normal(size=(8, 5))
    w1, b1 = rng.normal(size=(5, 6)), rng.normal(size=6)
    w2, b2 = rng.normal(size=(6, 3)), rng.normal(size=3)

    h = np.maximum(x @ w1 + b1, 0.0)
    want = h @ w2 + b2

    out = T.add(
        T.matmul(T.relu(T.add(T.matmul(Tensor(x), Tensor(w1)), Tensor(b1))), Tensor(w2)),
        Tensor(b2),
    )
    assert np.allclose(out.data, want, atol=1e-12)


def test_softmax_cross_entropy_matches_log_softmax(rng):
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    ls = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    want = -ls[np.arange(6), labels].mean()
    got = T.softmax_cross_entropy(Tensor(logits), labels)
    assert got.item() == pytest.approx(want, rel=1e-12)


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ValueError):
        T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


# finite-difference sweeps over every differentiable op


def test_grad_matmul_add_bias(rng):
    check_grads(
        lambda ts: T.add(T.matmul(ts[0], ts[1]), ts[2]).sum(),
        [rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=5)],
    )


@pytest.mark.parametrize("relu", [True, False])
def test_grad_dense(rng, relu):
    x = rng.normal(size=(6, 4))
    w, c = rng.normal(size=(4, 5)), rng.normal(size=(6, 5))
    b = -(x @ w).mean(axis=0)  # rows on both sides of the ReLU kink
    assert np.abs(x @ w + b).min() > 1e-3
    # every leaf, x included, requires grad
    check_grads(lambda ts: (T.dense(ts[0], ts[1], ts[2], relu) * Tensor(c)).sum(),
                [x, w, b])
    # a constant input, as in a first layer
    check_grads(lambda ts: (T.dense(Tensor(x), ts[0], ts[1], relu) * Tensor(c)).sum(),
                [w, b])


def _with_edges(rng, *shape):
    """Normal draws with about a fifth of the cells set to 0.0, -0.0 or NaN."""
    a = rng.normal(size=shape)
    hit = rng.random(shape) < 0.2
    a[hit] = rng.choice(np.array([0.0, -0.0, np.nan]), size=int(hit.sum()))
    return a


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_dense_bytes_equal_unfused_ops(seed, relu):
    rng = np.random.default_rng(seed)
    x, w, b = _with_edges(rng, 6, 3), _with_edges(rng, 3, 4), _with_edges(rng, 4)
    x[0] = rng.choice(np.array([0.0, -0.0]), size=3)  # on the kink where b is 0
    c = _with_edges(rng, 6, 4)
    runs = []
    for fused in (True, False):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        if fused:
            out = T.dense(*leaves, relu)
        else:
            out = T.add(T.matmul(leaves[0], leaves[1]), leaves[2])
            out = T.relu(out) if relu else out
        T.tsum(T.mul(out, Tensor(c))).backward()
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves])
    assert runs[0] == runs[1]


def test_dense_shape_mismatch():
    with pytest.raises(ShapeError):
        T.dense(np.ones((2, 3)), np.ones((3, 4)), np.ones(3), relu=True)
    with pytest.raises(ShapeError):
        T.dense(np.ones((2, 3)), np.ones((2, 4)), np.ones(4), relu=False)


def test_grad_mul_and_scalar(rng):
    check_grads(
        lambda ts: (ts[0] * ts[1]).sum(),
        [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
    )
    check_grads(lambda ts: T.tmean(ts[0] * 3.5), [rng.normal(size=(2, 6))])


def test_grad_relu_off_kink(rng):
    x = nudge_off_kinks(rng.normal(size=(5, 4)))
    check_grads(lambda ts: T.relu(ts[0]).sum(), [x])


def test_grad_sub_mean(rng):
    check_grads(
        lambda ts: T.tmean(T.sub(ts[0], ts[1])),
        [rng.normal(size=(4, 4)), rng.normal(size=(4, 4))],
    )


def test_grad_sum_axes(rng):
    check_grads(lambda ts: ts[0].sum(axis=0).sum(), [rng.normal(size=(3, 5))])
    check_grads(
        lambda ts: (ts[0].sum(axis=1, keepdims=True) * ts[1]).sum(),
        [rng.normal(size=(3, 5)), rng.normal(size=(3, 1))],
    )


def test_grad_sqrt(rng):
    check_grads(lambda ts: T.sqrt(ts[0]).sum(), [rng.uniform(0.5, 3.0, size=(4, 3))])


def test_grad_l2_normalize(rng):
    check_grads(
        lambda ts: (T.l2_normalize(ts[0], axis=1) * ts[1]).sum(),
        [rng.normal(size=(5, 3)) + 0.5, rng.normal(size=(5, 3))],
    )


def test_grad_index_rows(rng):
    idx = [0, 2, 2, 1]
    check_grads(lambda ts: T.index_rows(ts[0], idx).sum(), [rng.normal(size=(3, 4))])


def test_grad_softmax_cross_entropy(rng):
    labels = rng.integers(0, 5, size=7)
    check_grads(
        lambda ts: T.softmax_cross_entropy(ts[0], labels),
        [rng.normal(size=(7, 5))],
        tol=1e-4,
    )


def test_grad_reshape(rng):
    check_grads(
        lambda ts: (T.reshape(ts[0], (2, 6)) * ts[1]).sum(),
        [rng.normal(size=(3, 4)), rng.normal(size=(2, 6))],
    )


def test_grad_full_embedding_stack(rng):
    """End-to-end: affine, ReLU, affine, row normalization, weighted sum."""
    x = rng.normal(size=(6, 4))
    w1, b1 = rng.normal(size=(4, 8)), rng.normal(size=8)
    w2, b2 = rng.normal(size=(8, 3)), rng.normal(size=3)
    probe = rng.normal(size=(6, 3))

    def build(ts):
        h = T.relu(T.add(T.matmul(ts[0], ts[1]), ts[2]))
        z = T.l2_normalize(T.add(T.matmul(h, ts[3]), ts[4]), axis=1)
        return (z * Tensor(probe)).sum()

    check_grads(build, [x, w1, b1, w2, b2], tol=2e-4)


def test_numeric_grad_oracle_sanity():
    # the checker itself, probed on a function with a known gradient
    x = np.array([1.0, 2.0, -3.0])
    g = numeric_grad(lambda v: float((v**2).sum()), x.copy())
    assert max_rel_err(2 * x, g) < 1e-8
