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
from .models import EmbeddingNet, ModelSnapshot, embed_snapshot
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


def _pair_dist(emb: Tensor, i: np.ndarray, j: np.ndarray) -> Tensor:
    d = T.sub(T.index_rows(emb, i), T.index_rows(emb, j))
    return T.sqrt((d * d).sum(axis=1))


def triplet_loss(embeddings: Tensor, triplets: TripletBatch) -> Tensor:
    """Mean over triples of max(0, d_pos - d_neg + margin)."""
    if len(triplets) == 0:
        log.warning("triplet_loss: no valid triplets in batch, loss is 0")
        return Tensor(0.0)
    n = embeddings.data.shape[0]
    hi = max(triplets.anchors.max(), triplets.positives.max(), triplets.negatives.max())
    if hi >= n:
        raise ShapeError(f"triplet index {hi} out of range for batch of {n}")
    d_pos = _pair_dist(embeddings, triplets.anchors, triplets.positives)
    d_neg = _pair_dist(embeddings, triplets.anchors, triplets.negatives)
    return T.relu(T.add(T.sub(d_pos, d_neg), triplets.margin)).mean()


def mine_triplets(labels, embeddings, strategy: str = "random",
                  margin: float = 0.2, rng=None) -> TripletBatch:
    """Build triples from one mini-batch.

    "random": every ordered same-label pair becomes (anchor, positive) with
    one uniformly drawn negative. "semihard": per pair, the negative with
    the smallest distance still exceeding d_pos; if none exists, the
    hardest (closest) negative overall.
    """
    labels = np.asarray(labels)
    z = embeddings.data if isinstance(embeddings, Tensor) else np.asarray(embeddings)
    anchors, positives, negatives = [], [], []

    if strategy == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        for a in range(len(labels)):
            neg_pool = np.flatnonzero(labels != labels[a])
            if len(neg_pool) == 0:
                continue
            for p in np.flatnonzero(labels == labels[a]):
                if p == a:
                    continue
                anchors.append(a)
                positives.append(p)
                negatives.append(int(rng.choice(neg_pool)))
    elif strategy == "semihard":
        sq = np.sum(z * z, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (z @ z.T), 0.0)
        dist = np.sqrt(d2)
        for a in range(len(labels)):
            neg_pool = np.flatnonzero(labels != labels[a])
            if len(neg_pool) == 0:
                continue
            d_neg = dist[a, neg_pool]
            for p in np.flatnonzero(labels == labels[a]):
                if p == a:
                    continue
                beyond = d_neg > dist[a, p]
                if beyond.any():
                    pick = neg_pool[beyond][np.argmin(d_neg[beyond])]
                else:
                    pick = neg_pool[np.argmin(d_neg)]
                anchors.append(a)
                positives.append(p)
                negatives.append(int(pick))
    else:
        raise ValueError(f"unknown mining strategy {strategy!r}")

    return TripletBatch(np.array(anchors, dtype=np.intp),
                        np.array(positives, dtype=np.intp),
                        np.array(negatives, dtype=np.intp), margin)


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    return T.softmax_cross_entropy(logits, labels)


def lwf_align_loss(model: EmbeddingNet, snap: ModelSnapshot, batch) -> Tensor:
    """Frobenius norm between current and snapshot embeddings of the batch.

    The snapshot side is a constant; gradient flows through the current
    model only.
    """
    d = T.sub(model.embed(batch), Tensor(embed_snapshot(snap, batch)))
    return T.sqrt((d * d).sum())


@dataclass
class ImportanceMap:
    """Per-parameter nonnegative weights, aligned with model.params order."""

    kind: str
    weights: tuple

    def __post_init__(self):
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        for w in ws:
            if np.any(w < 0):
                raise ValueError("importance weights must be nonnegative")
        self.weights = ws

    @classmethod
    def average(cls, maps: list["ImportanceMap"]) -> "ImportanceMap":
        """Running-mean accumulation across tasks."""
        kinds = {m.kind for m in maps}
        if len(kinds) != 1:
            raise ValueError(f"cannot average maps of kinds {sorted(kinds)}")
        n = len(maps)
        weights = tuple(
            sum(m.weights[i] for m in maps) / n for i in range(len(maps[0].weights))
        )
        return cls(kind=maps[0].kind, weights=weights)


def quadratic_penalty(model, snap: ModelSnapshot, importance: ImportanceMap) -> Tensor:
    """Sum over parameters of 1/2 * w * (theta - theta_snapshot)^2."""
    if len(importance.weights) != len(model.params):
        raise ShapeError(
            f"{len(importance.weights)} weight arrays for {len(model.params)} parameters"
        )
    total = Tensor(0.0)
    for p, old, w in zip(model.params, snap.params, importance.weights):
        if w.shape != p.data.shape or old.shape != p.data.shape:
            raise ShapeError(
                f"importance/snapshot shape {w.shape}/{old.shape} vs parameter {p.data.shape}"
            )
        d = T.sub(p, Tensor(old))
        total = total + (Tensor(0.5 * w) * d * d).sum()
    return total


def combined_loss(metric_loss: Tensor, regularizer_loss: Tensor, gamma: float) -> Tensor:
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0.0:
        return metric_loss
    return metric_loss + Tensor(gamma) * regularizer_loss


def _canonical_order(dataset) -> np.ndarray:
    """Input-order-independent sample order that also mixes classes.

    Samples are byte-sorted within each class, then classes are interleaved
    round-robin so every mini-batch cut from the order sees several labels
    (a label-sorted order would starve triplet mining).
    """
    keys = [row.tobytes() for row in dataset.features]
    grouped = np.lexsort((keys, dataset.labels))
    labels = dataset.labels[grouped]
    queues = [grouped[labels == c] for c in np.unique(labels)]
    out = []
    i = 0
    while any(i < len(q) for q in queues):
        out.extend(q[i] for q in queues if i < len(q))
        i += 1
    return np.asarray(out, dtype=np.intp)


def estimate_fisher(model: EmbeddingNet, dataset, batch_size: int = 32,
                    variant: str = "triplet") -> ImportanceMap:
    """Diagonal empirical Fisher: mean over mini-batches of the squared
    parameter gradients of the training loss.

    ``variant`` picks the loss whose gradients are squared: "triplet"
    (default, deterministic semihard mining) or "squared_norm" (gradient of
    the summed squared pre-normalization output, mirroring the sensitivity
    estimator's structure).
    """
    order = _canonical_order(dataset)
    feats, labels = dataset.features[order], dataset.labels[order]
    saved = [None if p.grad is None else p.grad.copy() for p in model.params]

    acc = [np.zeros_like(p.data) for p in model.params]
    used = 0
    for at in range(0, len(labels), batch_size):
        xb, yb = feats[at : at + batch_size], labels[at : at + batch_size]
        if variant == "triplet":
            z = model.embed(xb)
            trip = mine_triplets(yb, z, strategy="semihard")
            if len(trip) == 0:
                continue
            loss = triplet_loss(z, trip)
        elif variant == "squared_norm":
            raw = model.forward_raw(xb)
            loss = (raw * raw).sum()
        else:
            raise ValueError(f"unknown fisher variant {variant!r}")
        for p in model.params:
            p.zero_grad()
        loss.backward()
        for a, p in zip(acc, model.params):
            a += p.grad * p.grad
        used += 1

    for p, g in zip(model.params, saved):
        p.grad = g
    if used == 0:
        raise EstimationError("no mini-batch produced a valid triplet")
    return ImportanceMap("fisher", tuple(a / used for a in acc))


def estimate_mas_importance(model: EmbeddingNet, dataset) -> ImportanceMap:
    """Mean absolute parameter gradient of the squared output norm.

    Computed on the pre-normalization output: the normalized embedding has
    constant norm 1 and would give identically zero sensitivity.
    """
    if len(dataset.labels) == 0:
        raise EstimationError("empty dataset")
    order = _canonical_order(dataset)
    feats = dataset.features[order]
    saved = [None if p.grad is None else p.grad.copy() for p in model.params]

    acc = [np.zeros_like(p.data) for p in model.params]
    for x in feats:
        raw = model.forward_raw(x[None, :])
        for p in model.params:
            p.zero_grad()
        (raw * raw).sum().backward()
        for a, p in zip(acc, model.params):
            a += np.abs(p.grad)

    for p, g in zip(model.params, saved):
        p.grad = g
    return ImportanceMap("mas", tuple(a / len(feats) for a in acc))
