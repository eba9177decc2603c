"""Dense float64 tensors with reverse-mode differentiation.

The engine is deliberately small: dense arrays, a handful of ops (matmul,
ReLU, a fused dense layer, row gather, fused softmax cross-entropy, L2
normalization, elementwise arithmetic, reductions), and a tape built
dynamically as ops execute. An op none of whose operands requires grad
records nothing, so inference over plain arrays builds no tape. Gradients
accumulate into leaf tensors until explicitly zeroed, so a composite loss
may be driven either by one backward pass over a summed loss or by
several passes.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not line up for the requested op."""


class StateError(RuntimeError):
    """Operation called in a state that does not support it."""


class NormalizationError(ValueError):
    """A slice with (numerically) zero norm cannot be normalized."""


class Tensor:
    """A float64 array plus an optional gradient buffer.

    Leaf tensors created with ``requires_grad=True`` are parameters: their
    ``grad`` starts at zeros and accumulates across backward passes.
    Tensors produced by ops carry the local backward rule; their gradient
    is transient to each backward call.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def backward(self):
        """Propagate d(self)/d(leaf) into every reachable parameter's grad.

        ``self`` must be a scalar produced by ops of this engine (or a
        scalar parameter). Each contribution to a parameter is added to
        its ``grad`` as it arrives (see ``_accumulate``), so repeated
        calls keep accumulating.
        """
        if self.data.size != 1:
            raise StateError(
                f"backward requires a scalar, got shape {self.data.shape}"
            )
        if self._backward is None and not self.requires_grad:
            raise StateError("backward called on a tensor with no compute graph")

        if self._backward is None:  # a scalar parameter
            _accumulate(self, np.ones_like(self.data))
            return
        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(_toposort(self)):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if parent._backward is None:
                    _accumulate(parent, pg)
                else:
                    acc = flowing.get(id(parent))
                    flowing[id(parent)] = pg if acc is None else acc + pg

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all shape rules live in the op functions
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None):
        return tmean(self, axis=axis)

    def reshape(self, shape):
        return reshape(self, shape)


def _accumulate(leaf: Tensor, g: np.ndarray) -> None:
    """Add one gradient contribution straight into a leaf's ``grad``.

    Contributions land one at a time, in the order the backward pass
    meets them. From a zeroed ``grad`` that gives the same bits as adding
    their sum once: ``0.0 + x`` is ``x`` for every x but -0.0, and the
    sum-then-add result turns a -0.0 into +0.0 as well.
    """
    if leaf.grad is None:
        leaf.grad = np.zeros_like(leaf.data)
    leaf.grad += g


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root: Tensor) -> list[Tensor]:
    # iterative DFS; order is deterministic given construction order
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.grad = None  # transient; filled per backward call
        out._parents = parents
        out._backward = backward
    return out


def add(a, b) -> Tensor:
    """Elementwise add. Supports same-shape, [n,d]+[d] bias rows, and scalar."""
    a, b = astensor(a), astensor(b)
    if a.data.shape == b.data.shape:
        back = lambda g: (g, g)
    elif b.data.ndim == 0:
        back = lambda g: (g, g.sum())
    elif a.data.ndim == 2 and b.data.shape == (a.data.shape[1],):
        back = lambda g: (g, g.sum(axis=0))
    else:
        raise ShapeError(f"cannot add shapes {a.data.shape} and {b.data.shape}")
    return _make(a.data + b.data, (a, b), back)


def neg(a) -> Tensor:
    a = astensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    if a.data.shape == b.data.shape:
        back = lambda g: (g, -g)
    elif b.data.ndim == 0:
        back = lambda g: (g, -g.sum())
    else:
        raise ShapeError(f"cannot subtract shapes {a.data.shape} and {b.data.shape}")
    return _make(a.data - b.data, (a, b), back)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product; scalar operands broadcast."""
    a, b = astensor(a), astensor(b)
    if not (a.data.shape == b.data.shape or a.data.ndim == 0 or b.data.ndim == 0):
        raise ShapeError(f"cannot multiply shapes {a.data.shape} and {b.data.shape}")

    def back(g):
        ga = g * b.data
        gb = g * a.data
        if a.data.ndim == 0:
            ga = ga.sum()
        if b.data.ndim == 0:
            gb = gb.sum()
        return ga, gb

    return _make(a.data * b.data, (a, b), back)


def matmul(a, b) -> Tensor:
    """Matrix product of two 2-d tensors. The backward computes only the
    gradients of operands that require one: a first layer's input
    gradient would be thrown away."""
    a, b = astensor(a), astensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"cannot matmul shapes {a.data.shape} and {b.data.shape}")
    return _make(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T if a.requires_grad else None,
                   a.data.T @ g if b.requires_grad else None),
    )


def relu_values(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ReLU of a plain array; ``out`` may be ``x`` itself.

    It equals ``np.where(x > 0, x, 0.0)`` bit for bit, without its
    data-dependent branch, which costs as much as the GEMM before it on a
    random sign pattern. It is ``fmax(x, 0.0) + 0.0``: ``fmax`` maps NaN
    to 0 where ``np.maximum`` keeps NaN, and either may return -0.0 for
    -0.0, which adding 0.0 turns into +0.0. Every other value, inf and
    subnormals included, passes unchanged.
    """
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


def relu(a) -> Tensor:
    """Elementwise max(a, 0) by ``relu_values``; the gradient passes where a > 0."""
    a = astensor(a)
    return _make(relu_values(a.data), (a,), lambda g: (g * (a.data > 0),))


def dense_values(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """``x @ w + b`` over plain arrays, through ``relu_values`` in place when
    ``relu`` is set: the one layer formula of ``dense`` and ``models.layers_np``."""
    h = x @ w
    h += b
    return relu_values(h, out=h) if relu else h


def dense(x, w, b, relu: bool) -> Tensor:
    """``relu(add(matmul(x, w), b))``, or its affine part alone, as one tape
    node. The ReLU passes exactly the positive values, so its mask is read
    off the output; like ``matmul``, the backward skips the input gradient
    of an ``x`` that needs none."""
    x, w, b = astensor(x), astensor(w), astensor(b)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ShapeError(f"dense layer {w.data.shape} + {b.data.shape} on {x.data.shape}")
    h = dense_values(x.data, w.data, b.data, relu)

    def back(g):
        g = g * (h > 0) if relu else g
        return (g @ w.data.T if x.requires_grad else None, x.data.T @ g, g.sum(axis=0))

    return _make(h, (x, w, b), back)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = astensor(a)

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _make(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), back)


def tmean(a, axis=None) -> Tensor:
    a = astensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]

    def back(g):
        if axis is None:
            return (np.broadcast_to(g / n, a.data.shape).copy(),)
        gg = np.expand_dims(g, axis) / n
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _make(np.mean(a.data, axis=axis), (a,), back)


def sqrt(a) -> Tensor:
    """Elementwise square root; the derivative is clamped to 0 at the origin."""
    a = astensor(a)
    root = np.sqrt(np.maximum(a.data, 0.0))

    def back(g):
        safe = np.where(root > 0.0, root, 1.0)
        return (np.where(root > 0.0, 0.5 * g / safe, 0.0),)

    return _make(root, (a,), back)


def index_rows(a, idx) -> Tensor:
    """Gather rows of a 2-d tensor; repeated indices accumulate gradient."""
    a = astensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"index_rows needs a 2-d tensor, got {a.data.shape}")
    idx = np.asarray(idx, dtype=np.intp)

    def back(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(a.data[idx], (a,), back)


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    return _make(
        a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),)
    )


def l2_normalize(a, axis: int = 1) -> Tensor:
    """Scale slices along ``axis`` to unit Euclidean norm.

    Raises NormalizationError when any slice norm falls below 1e-12 or is
    not finite; a degenerate embedding would otherwise blow up silently.
    """
    a = astensor(a)
    norms = np.sqrt(np.sum(a.data * a.data, axis=axis, keepdims=True))
    if not 1e-12 <= np.min(norms) <= np.max(norms) < np.inf:  # NaN fails too
        raise NormalizationError(f"slice norms {np.min(norms):.3e}..{np.max(norms):.3e} "
                                 f"not finite or below 1e-12 along axis {axis}")
    out = a.data / norms

    def back(g):
        dot = np.sum(a.data * g, axis=axis, keepdims=True)
        return ((g - a.data * (dot / norms**2)) / norms,)

    return _make(out, (a,), back)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean negative log softmax probability of the true class (fused op)."""
    logits = astensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be [batch, classes], got {logits.data.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range for {k} classes")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=1))
    nll = logsumexp - shifted[np.arange(n), labels]

    def back(g):
        probs = np.exp(shifted - logsumexp[:, None])
        probs[np.arange(n), labels] -= 1.0
        return (probs * (float(g) / n),)

    return _make(np.mean(nll), (logits,), back)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain numpy softmax for inference paths (no gradient)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)
