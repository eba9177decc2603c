"""Metric loss, classification loss, and the anti-forgetting regularizers.

The regularizers all reference a parameter snapshot taken at the previous
task boundary: an embedding-alignment term (Frobenius norm between current
and snapshot embeddings), and a shared quadratic penalty driven by either
a Fisher or a sensitivity importance map. Total training loss is
metric + gamma * regularizer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .models import INFER_ROWS, EmbeddingNet, infer, layers_np
from .tensor import ShapeError, Tensor

log = logging.getLogger(__name__)


class EstimationError(RuntimeError):
    """Importance estimation had nothing to work with."""


@dataclass
class TripletBatch:
    """Index triples into one mini-batch; empty arrays mean no valid triple."""

    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    margin: float = 0.2

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=np.intp)
        self.positives = np.asarray(self.positives, dtype=np.intp)
        self.negatives = np.asarray(self.negatives, dtype=np.intp)
        if not (len(self.anchors) == len(self.positives) == len(self.negatives)):
            raise ShapeError("anchor/positive/negative counts differ")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")

    def __len__(self):
        return len(self.anchors)


MINING_STRATEGIES = ("random", "semihard")
FISHER_VARIANTS = ("triplet", "squared_norm")
TRIPLET_BLOCK = 256  # triples per distance block: two [256, D] buffers


def _distances(z: np.ndarray, a: np.ndarray, *others: np.ndarray) -> list:
    """||z[a] - z[o]|| per row, for each index array ``o`` in ``others``.

    The rows go ``TRIPLET_BLOCK`` at a time through two buffers made once
    per call, so no [triples, D] temporary is allocated. Each row reduces
    as in ``np.sum((z[a] - z[o]) ** 2, axis=1)``, so the bits match it.
    Indices must already be in range: ``np.take`` in mode "raise" would
    buffer its output.
    """
    n = len(a)
    rows, diff = np.empty((2, min(TRIPLET_BLOCK, n), z.shape[1]))
    dists = [np.empty(n) for _ in others]
    for at in range(0, n, TRIPLET_BLOCK):
        m = min(TRIPLET_BLOCK, n - at)
        za, zo = rows[:m], diff[:m]
        np.take(z, a[at : at + m], axis=0, out=za, mode="wrap")
        for o, d in zip(others, dists):
            np.take(z, o[at : at + m], axis=0, out=zo, mode="wrap")
            np.subtract(za, zo, out=zo)
            np.square(zo, out=zo)
            np.sum(zo, axis=1, out=d[at : at + m])
    for d in dists:
        np.sqrt(np.maximum(d, 0.0, out=d), out=d)
    return dists


def triplet_loss(embeddings: Tensor, triplets: TripletBatch) -> Tensor:
    """Mean over triples of max(0, d_pos - d_neg + margin), one tape node.

    Its gradient is (diag(K 1) - K) @ Z for the [B,B] symmetrized weights K
    of the active triples' edges: w/d_pos on (anchor, positive), -w/d_neg on
    (anchor, negative), w = 1/len(triplets); a zero-length edge adds none.
    """
    if len(triplets) == 0:
        log.warning("triplet_loss: no valid triplets in batch, loss is 0")
        return Tensor(0.0)
    z, n = embeddings.data, len(embeddings.data)
    a, p, q = triplets.anchors, triplets.positives, triplets.negatives
    lo, hi = min(a.min(), p.min(), q.min()), max(a.max(), p.max(), q.max())
    if lo < 0 or hi >= n:
        raise ShapeError(f"triplet index {lo if lo < 0 else hi} out of range "
                         f"for batch of {n}")
    d_pos, d_neg = _distances(z, a, p, q)
    hinge = d_pos - d_neg + triplets.margin

    def back(g):
        w = np.where(hinge > 0, float(g) / len(a), 0.0)
        u = np.divide(w, d_pos, out=np.zeros_like(w), where=d_pos > 0)
        v = np.divide(-w, d_neg, out=np.zeros_like(w), where=d_neg > 0)
        k = np.bincount(np.r_[a * n + p, a * n + q], np.r_[u, v], n * n).reshape(n, n)
        k += k.T
        return (k.sum(axis=1)[:, None] * z - k @ z,)

    return T._make(np.mean(np.where(hinge > 0, hinge, 0.0)), (embeddings,), back)


def mine_triplets(labels, embeddings, strategy: str = "random",
                  margin: float = 0.2, rng=None) -> TripletBatch:
    """Build triples from one mini-batch.

    "random": every ordered same-label pair becomes (anchor, positive) with
    one uniformly drawn negative. "semihard": per pair, the negative with
    the smallest distance still exceeding d_pos; if none exists, the
    hardest (closest) negative overall. Pairs come in row-major order, and
    distance ties go to the lowest batch index.
    """
    labels = np.asarray(labels)
    z = embeddings.data if isinstance(embeddings, Tensor) else np.asarray(embeddings)
    if strategy not in MINING_STRATEGIES:
        raise ValueError(f"unknown mining strategy {strategy!r}")
    same = labels[:, None] == labels[None, :]
    n_neg = len(labels) - same.sum(axis=1)
    anchors, positives = np.nonzero(
        same & (n_neg > 0)[:, None] & ~np.eye(len(labels), dtype=bool))
    if len(anchors) == 0:
        negatives = anchors
    elif strategy == "random":
        rng = np.random.default_rng(0) if rng is None else rng
        # per pair, the k-th negative in batch order, as rng.choice(pool) drew it
        by_anchor = np.argsort(same, axis=1, kind="stable")
        negatives = by_anchor[anchors, rng.integers(0, n_neg[anchors])]
    else:
        sq = np.sum(z * z, axis=1)
        dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (z @ z.T), 0.0))
        negatives = np.empty_like(anchors)
        step = max(1, (1 << 15) // len(labels))  # [pairs, B] blocks of <= 256 KB
        for at in range(0, len(anchors), step):
            a, p = anchors[at : at + step], positives[at : at + step]
            neg, d = ~same[a], dist[a]
            beyond = neg & (d > dist[a, p][:, None])
            semi = np.where(beyond, d, np.inf).argmin(axis=1)
            hard = np.where(neg, d, np.inf).argmin(axis=1)
            negatives[at : at + step] = np.where(beyond.any(axis=1), semi, hard)
    return TripletBatch(anchors, positives, negatives, margin)


def lwf_align_loss(model: EmbeddingNet, snap: tuple, batch) -> Tensor:
    """Frobenius norm between current and snapshot embeddings of the batch.

    The snapshot side is a constant; gradient flows through the current
    model only.
    """
    d = T.sub(model.embed(batch), Tensor(infer(snap, batch, normalize=True)))
    return T.sqrt((d * d).sum())


@dataclass
class ImportanceMap:
    """Per-parameter nonnegative weights, aligned with model.params order:
    the sum of ``count`` maps (an estimate is one)."""

    kind: str
    weights: tuple
    count: int = 1

    def __post_init__(self):
        self.weights = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        if any(np.any(w < 0) for w in self.weights):
            raise ValueError("importance weights must be nonnegative")
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")

    def add(self, other: "ImportanceMap") -> "ImportanceMap":
        """This map, with ``other``'s weights and count added into it in place."""
        if other.kind != self.kind:
            raise ValueError(f"cannot add a {other.kind} map to a {self.kind} map")
        for w, o in zip(self.weights, other.weights):
            w += o
        self.count += other.count
        return self


def quadratic_penalty(model, snap: tuple, importance: ImportanceMap) -> Tensor:
    """Sum over parameters of 1/2 * w * (theta - theta_snapshot)^2, as one tape node.

    w is ``importance`` over its count: the mean of that many maps, given
    as their sum. Nothing parameter-sized outlives the call: the forward
    and the backward each form w and d = theta - theta_snapshot one
    parameter at a time, and each product rounds as ``0.5 * w * d * d``
    and ``g * w * d`` do on a stored mean map. Like every op's backward, it reads the
    parameters as they are when ``backward`` runs.
    """
    if len(importance.weights) != len(model.params):
        raise ShapeError(
            f"{len(importance.weights)} weight arrays for {len(model.params)} parameters"
        )
    count = importance.count
    terms = tuple(zip(model.params, snap, importance.weights))
    for p, old, w in terms:
        if w.shape != p.data.shape or old.shape != p.data.shape:
            raise ShapeError(
                f"importance/snapshot shape {w.shape}/{old.shape} vs parameter {p.data.shape}"
            )

    def half_wdd(p, old, w):
        d = p.data - old
        t = np.divide(w, count)
        t *= 0.5
        t *= d
        t *= d
        return np.sum(t)

    def back(g):  # one parameter's gradient alive at a time
        for p, old, w in terms:
            t = np.divide(w, count)
            t *= g
            t *= p.data - old
            yield t

    return T._make(sum(half_wdd(*term) for term in terms), tuple(model.params), back)


def _canonical_order(dataset) -> np.ndarray:
    """Input-order-independent sample order that also mixes classes.

    Samples are byte-sorted within each class, then ordered by that rank,
    then by label: classes interleave round-robin, so every mini-batch cut
    from the order sees several labels (a label-sorted order would starve
    triplet mining).
    """
    grouped = np.lexsort(([row.tobytes() for row in dataset.features], dataset.labels))
    labels = dataset.labels[grouped]
    rank = np.arange(len(labels)) - np.searchsorted(labels, labels)
    return grouped[np.lexsort((labels, rank))]


def estimate_fisher(model: EmbeddingNet, dataset, batch_size: int = 32,
                    variant: str = "triplet", margin: float = 0.2) -> ImportanceMap:
    """Diagonal empirical Fisher: mean over mini-batches of the squared
    parameter gradients of the training loss.

    ``variant`` picks the loss whose gradients are squared: "triplet"
    (default, deterministic semihard mining, hinged at ``margin`` as in
    training) or "squared_norm" (gradient of the summed squared
    pre-normalization output, mirroring the sensitivity estimator's
    structure); any other is a ValueError. A ``backward`` hook adds each
    finished gradient's square into the sums, so no parameter's ``grad``
    is read or written.
    """
    if variant not in FISHER_VARIANTS:
        raise ValueError(f"unknown fisher variant {variant!r}")
    order = _canonical_order(dataset)
    feats, labels = dataset.features[order], dataset.labels[order]
    acc = {p: np.zeros_like(p.data) for p in model.params}

    def add_square(p: Tensor, g: np.ndarray) -> None:
        acc[p] += g * g

    used = 0
    for at in range(0, len(labels), batch_size):
        xb, yb = feats[at : at + batch_size], labels[at : at + batch_size]
        if variant == "triplet":
            z = model.embed(xb)
            trip = mine_triplets(yb, z, strategy="semihard", margin=margin)
            if len(trip) == 0:
                continue
            loss = triplet_loss(z, trip)
        else:
            raw = model.forward_raw(xb)
            loss = (raw * raw).sum()
        loss.backward(add_square)
        used += 1

    if used == 0:
        raise EstimationError("no mini-batch produced a valid triplet")
    return ImportanceMap("fisher", tuple(np.divide(a, used, out=a) for a in acc.values()))


def estimate_mas_importance(model: EmbeddingNet, dataset) -> ImportanceMap:
    """Mean absolute parameter gradient of the squared output norm.

    Computed on the pre-normalization output: the normalized embedding has
    constant norm 1 and would give identically zero sensitivity. A dense
    layer's per-sample weight gradient is a d^T (its input row, its output
    gradient) and |a d^T| = |a| |d|^T, so one tape-free pass, ``INFER_ROWS``
    rows at a time, sums |A|^T |D| per weight and |D| over rows per bias.
    """
    if len(dataset.labels) == 0:
        raise EstimationError("empty dataset")
    feats = dataset.features[_canonical_order(dataset)]
    params = [p.data for p in model.params]
    acc = [np.zeros_like(w) for w in params]
    for at in range(0, len(feats), INFER_ROWS):
        x = feats[at : at + INFER_ROWS]
        *acts, raw = x, *layers_np(params, x)
        delta = 2.0 * raw  # d sum(raw^2) / d raw; acts[k] is layer k's input
        for k in range(len(acts) - 1, -1, -1):
            abs_delta = np.abs(delta)
            acc[2 * k] += np.abs(acts[k]).T @ abs_delta
            acc[2 * k + 1] += abs_delta.sum(axis=0)
            if k:
                delta = (delta @ params[2 * k].T) * (acts[k] > 0)
    return ImportanceMap("mas", tuple(np.divide(a, len(feats), out=a) for a in acc))
