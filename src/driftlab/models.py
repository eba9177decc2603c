"""Network definitions: a unit-norm embedding MLP and a multi-head softmax
classifier sharing the same trunk, plus task-boundary snapshots and one
tape-free inference path.

Both nets use the stack input -> hidden ReLU layers -> linear projection.
The taped forward (``_run_stack``, one ``dense`` node per layer) and the
tape-free one (``infer``) compute each layer with one function,
``tensor.dense_values``. The embedding net L2-normalizes the projection;
the softmax net feeds it to per-task heads. Sharing the trunk keeps
capacity identical across the two training regimes.

A snapshot is a tuple of read-only copies of an embedding net's parameter
arrays: the reference the regularizers anchor their penalties to.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ShapeError, StateError, Tensor


def _kaiming_uniform(rng, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _init_stack(rng, dims: tuple[int, ...]) -> list[Tensor]:
    """Trainable affine parameters for consecutive dim pairs: w1,b1,w2,b2,..."""
    params = []
    for din, dout in zip(dims[:-1], dims[1:]):
        params.append(Tensor(_kaiming_uniform(rng, din, dout), requires_grad=True))
        params.append(Tensor(np.zeros(dout), requires_grad=True))
    return params


def _run_stack(params, x) -> Tensor:
    """Affine/ReLU chain, one ``dense`` tape node per layer; the last layer
    stays linear. Inference runs ``layers_np``, over the same layer
    function, instead."""
    for i in range(0, len(params), 2):
        x = T.dense(x, params[i], params[i + 1], relu=i + 2 < len(params))
    return x


def _check_batch(x, input_dim: int) -> Tensor:
    x = T.astensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != input_dim:
        raise ShapeError(f"batch shape {x.data.shape}, expected [n, {input_dim}]")
    return x


def layers_np(params, x: np.ndarray):
    """Yield each layer's output of the affine/ReLU chain over plain
    parameter arrays; the last stays linear. Each layer is
    ``tensor.dense_values``, the function ``_run_stack``'s tape nodes
    compute, with no tape."""
    for i in range(0, len(params), 2):
        x = T.dense_values(x, params[i], params[i + 1], relu=i + 2 < len(params))
        yield x


# Rows per block of ``infer``, of the softmax heads and of NCM: bounds the
# [rows, width] and [rows, classes] temporaries they hold.
INFER_ROWS = 512


def infer(params, x, normalize: bool = False) -> np.ndarray:
    """Stack output for ``x`` over plain parameter arrays (a model's or a
    snapshot's), ``INFER_ROWS`` rows at a time, with no tape; ``normalize``
    puts each row on the unit sphere. The only tape-free forward."""
    x = _check_batch(x, params[0].shape[0]).data
    out = np.empty((len(x), len(params[-1])))
    for i in range(0, len(x), INFER_ROWS):
        for h in layers_np(params, x[i : i + INFER_ROWS]):
            pass  # only the last layer's output is kept
        out[i : i + len(h)] = T.l2_normalize(h, axis=1).data if normalize else h
    return out


class EmbeddingNet:
    """MLP whose output rows are L2-normalized: input -> hidden ReLU
    layers -> embedding_dim -> unit sphere."""

    kind = "embedding"

    def __init__(self, input_dim: int, embedding_dim: int, hidden=(256, 256), seed: int = 0):
        self.input_dim = input_dim
        self.embedding_dim = embedding_dim
        rng = np.random.default_rng(seed)
        self.params = _init_stack(rng, (input_dim, *hidden, embedding_dim))

    def forward_raw(self, x) -> Tensor:
        """Pre-normalization output; sensitivity estimates hang off this."""
        return _run_stack(self.params, _check_batch(x, self.input_dim))

    def embed(self, x) -> Tensor:
        return T.l2_normalize(self.forward_raw(x), axis=1)

    def embed_np(self, x) -> np.ndarray:
        """Inference helper: plain array out, no graph kept."""
        return infer([p.data for p in self.params], x, normalize=True)


class GrowingSoftmaxNet:
    """Shared trunk plus one linear head per task; heads map trunk features
    to that task's classes and record their global class ids."""

    kind = "softmax"

    def __init__(self, input_dim: int, feat_dim: int, hidden=(256, 256), seed: int = 0):
        self.input_dim = input_dim
        self.feat_dim = feat_dim
        self._rng = np.random.default_rng(seed)
        self.trunk = _init_stack(self._rng, (input_dim, *hidden, feat_dim))
        self.heads: list[tuple[Tensor, Tensor, tuple[int, ...]]] = []

    @property
    def params(self) -> list[Tensor]:
        out = list(self.trunk)
        for w, b, _ in self.heads:
            out.extend((w, b))
        return out

    def add_head(self, classes) -> None:
        """Append a randomly initialized head for the global class ids
        ``classes``."""
        ids = tuple(int(c) for c in classes)
        if not ids:
            raise ValueError("a head needs at least one class")
        w = Tensor(_kaiming_uniform(self._rng, self.feat_dim, len(ids)), requires_grad=True)
        b = Tensor(np.zeros(len(ids)), requires_grad=True)
        self.heads.append((w, b, ids))

    def features_np(self, x) -> np.ndarray:
        """Trunk features as a plain array, no graph kept."""
        return infer([p.data for p in self.trunk], x)

    def head_logits(self, x, head: int) -> Tensor:
        w, b, _ = self.heads[head]
        feats = _run_stack(self.trunk, _check_batch(x, self.input_dim))
        return T.dense(feats, w, b, relu=False)

    def predict_multihead(self, x) -> np.ndarray:
        """Global argmax over the concatenation of per-head softmax rows,
        ``INFER_ROWS`` rows at a time."""
        if not self.heads:
            raise StateError("no heads; train at least one task first")
        feats = self.features_np(x)
        ids = np.asarray([c for _, _, classes in self.heads for c in classes])
        pred = np.empty(len(feats), dtype=ids.dtype)
        for i in range(0, len(feats), INFER_ROWS):
            f = feats[i : i + INFER_ROWS]
            probs = [T.softmax(T.dense_values(f, w.data, b.data, relu=False), axis=1)
                     for w, b, _ in self.heads]
            pred[i : i + len(f)] = ids[np.concatenate(probs, axis=1).argmax(axis=1)]
        return pred


def snapshot(model) -> tuple[np.ndarray, ...]:
    """Read-only copies of an embedding net's parameter arrays."""
    if model.kind != EmbeddingNet.kind:
        raise StateError(f"cannot snapshot a {model.kind} model")
    frozen = tuple(p.data.copy() for p in model.params)
    for a in frozen:
        a.setflags(write=False)
    return frozen
