"""Class prototypes, nearest-mean classification, and drift compensation.

A prototype is the per-class mean embedding, stored with the task index it
was learned at. Between tasks the embedding space moves under the feet of
old prototypes; the compensation step estimates that movement from the
drift of current-task data (embedded by the previous and the current
model) and nudges old prototypes along, recursively, task after task.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .models import embed_snapshot
from .tensor import ShapeError, StateError

log = logging.getLogger(__name__)


# Total kernel mass below which a query is out of reach of all evidence.
WEIGHT_FLOOR = 1e-12


class NonFiniteError(ValueError):
    """A prototype or an embedding holds NaN or inf."""


@dataclass
class KernelConfig:
    sigma: float = 0.3

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma!r}")


@dataclass
class DriftField:
    """Embeddings of current-task data under the previous model, and how far
    each moved under the current one."""

    positions: np.ndarray
    displacements: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.displacements = np.asarray(self.displacements, dtype=np.float64)
        if self.positions.shape != self.displacements.shape:
            raise ShapeError(
                f"positions {self.positions.shape} vs displacements "
                f"{self.displacements.shape}"
            )

    def __len__(self):
        return self.positions.shape[0]


@dataclass
class PrototypeEntry:
    vector: np.ndarray
    learned_at: int
    compensation: np.ndarray  # cumulative drift applied since learning

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        self.compensation = np.asarray(self.compensation, dtype=np.float64)


class PrototypeBook:
    """class id -> PrototypeEntry, mutated only at task boundaries."""

    def __init__(self):
        self.entries: dict[int, PrototypeEntry] = {}

    def __len__(self):
        return len(self.entries)

    def class_ids(self) -> list[int]:
        return sorted(self.entries)

    def add_task(self, protos: dict[int, np.ndarray], task_index: int):
        for c, vec in protos.items():
            if c in self.entries:
                raise StateError(f"class {c} already has a prototype")
            self.entries[int(c)] = PrototypeEntry(
                vector=np.array(vec, dtype=np.float64),
                learned_at=task_index,
                compensation=np.zeros(len(vec)),
            )

    def matrix(self) -> np.ndarray:
        return np.stack([self.entries[c].vector for c in self.class_ids()])

    def to_json(self) -> str:
        rows = [
            {
                "class_id": c,
                "learned_at": e.learned_at,
                "vector": list(e.vector),
                "compensation": list(e.compensation),
            }
            for c, e in sorted(self.entries.items())
        ]
        return json.dumps({"classes": rows}, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "PrototypeBook":
        book = cls()
        for row in json.loads(text)["classes"]:
            book.entries[int(row["class_id"])] = PrototypeEntry(
                vector=np.array(row["vector"]),
                learned_at=int(row["learned_at"]),
                compensation=np.array(row.get("compensation", np.zeros(len(row["vector"])))),
            )
        return book


def compute_prototypes(embeddings, labels, classes=None) -> dict[int, np.ndarray]:
    """Per-class mean embedding; means are NOT re-normalized."""
    z = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if classes is None:
        classes = np.unique(labels)
    out = {}
    for c in classes:
        rows = z[labels == c]
        if rows.shape[0] == 0:
            raise ValueError(f"class {c} has no samples")
        out[int(c)] = rows.mean(axis=0)
    return out


def ncm_classify(embeddings, book: PrototypeBook) -> np.ndarray:
    """Nearest prototype by Euclidean distance; ties go to the lowest
    class id. No task information is consulted. A NaN or inf prototype
    or embedding raises NonFiniteError."""
    if len(book) == 0:
        raise StateError("prototype book is empty")
    z = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(book.class_ids())
    protos = book.matrix()
    bad = ids[~np.isfinite(protos).all(axis=1)]
    if bad.size:
        raise NonFiniteError(f"prototypes of classes {bad.tolist()} are not finite")
    bad = np.flatnonzero(~np.isfinite(z).all(axis=1))
    if bad.size:
        raise NonFiniteError(f"{bad.size} embedding rows are not finite "
                             f"(first: row {bad[0]})")
    diff = z[:, None, :] - protos[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    return ids[np.argmin(d2, axis=1)]


def collect_drift(snapshot: tuple, current_model, task_data) -> DriftField:
    """Endpoint drift of the current task's training data: where the
    snapshot (the previous model's parameters) put each sample, and how
    far the current model moved it."""
    old = [a.shape for a in snapshot]
    new = [p.data.shape for p in current_model.params]
    if old != new:
        raise StateError(f"model mismatch: parameter shapes {old} vs {new}")
    before = embed_snapshot(snapshot, task_data.features)
    after = current_model.embed_np(task_data.features)
    return DriftField(before, after - before)


def interpolate_drift(field: DriftField, query, cfg: KernelConfig) -> np.ndarray:
    """Gaussian-kernel average of the drift field at one query point.

    Weights w_i = exp(-||pos_i - query||^2 / (2 sigma^2)). If the total
    weight underflows WEIGHT_FLOOR the query is out of reach of all
    evidence: return a zero vector and log the degenerate case.
    """
    if len(field) == 0:
        raise ValueError("empty drift field")
    q = np.asarray(query, dtype=np.float64)
    d2 = np.sum((field.positions - q) ** 2, axis=1)
    w = np.exp(-d2 / (2.0 * cfg.sigma**2))
    total = w.sum()
    if total < WEIGHT_FLOOR:
        log.warning(
            "degenerate kernel mass %.3e at query (nearest point %.3f away); "
            "leaving prototype in place",
            total,
            float(np.sqrt(d2.min())),
        )
        return np.zeros_like(q)
    return (w[:, None] * field.displacements).sum(axis=0) / total


def compensate(book: PrototypeBook, field: DriftField, cfg: KernelConfig,
               current_task: int) -> dict[int, np.ndarray]:
    """Move every prototype learned before ``current_task`` by the drift
    interpolated at its current (already-compensated) position; returns
    the applied delta by class id."""
    deltas = {}
    for c in book.class_ids():
        entry = book.entries[c]
        if entry.learned_at >= current_task:
            continue
        deltas[c] = delta = interpolate_drift(field, entry.vector, cfg)
        entry.vector = entry.vector + delta
        entry.compensation = entry.compensation + delta
    return deltas
