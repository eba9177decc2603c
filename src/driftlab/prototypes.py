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

from .models import INFER_ROWS
from .tensor import ShapeError, StateError

log = logging.getLogger(__name__)


# Total kernel mass below which a query is out of reach of all evidence.
WEIGHT_FLOOR = 1e-12

# Unit roundoff and smallest subnormal of float64, for NCM's error bound.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).smallest_subnormal


class NonFiniteError(ValueError):
    """A prototype or an embedding holds NaN or inf."""


@dataclass
class KernelConfig:
    sigma: float = 0.3

    def __post_init__(self):
        # the kernel divides by 2 sigma^2; one that underflows to 0 gives NaN
        # drift on a drift point and no weight anywhere else
        if not (0 < self.sigma and 0 < 2.0 * self.sigma * self.sigma < np.inf):
            raise ValueError(f"sigma must be finite and positive, with 2 sigma^2 "
                             f"in (0, inf), got {self.sigma!r}")


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
        # compact: with an indent CPython falls back to its pure-Python encoder
        return json.dumps({"classes": rows})

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


def _broadcast_d2(z: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """Squared distances summed coordinate by coordinate: the reference
    whose argmin, ties to the lowest index, defines an NCM prediction."""
    diff = z[:, None, :] - protos[None, :, :]
    return np.sum(diff * diff, axis=2)


def ncm_classify(embeddings, book: PrototypeBook) -> np.ndarray:
    """Nearest prototype by Euclidean distance; ties go to the lowest
    class id. No task information is consulted. A NaN or inf prototype
    or embedding raises NonFiniteError.

    Distances come from a GEMM, ||z||^2 - 2 z.p + ||p||^2, over
    ``INFER_ROWS`` rows at a time, so the ``[rows, classes]`` temporaries
    do not grow with the number of rows. That formula and the
    coordinate-wise sum of _broadcast_d2 are each within
    gamma_{D+4} * 2 (||z||^2 + max ||p||^2) + (4 D + 16) * tiny of the true
    squared distance (tiny: the smallest subnormal, for gradual
    underflow). A row whose two smallest GEMM distances are more than
    twice the sum of both bounds apart has the same argmin under both
    formulas. Every other row (near-ties, exact ties, overflow to inf or
    NaN) is recomputed with _broadcast_d2, so the prediction equals the
    coordinate-wise one whatever rows share its block. A row whose
    coordinate-wise distances all overflow to inf has no nearest
    prototype and raises NonFiniteError. Errors name rows by their
    position in ``embeddings``.
    """
    if len(book) == 0:
        raise StateError("prototype book is empty")
    z = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(book.class_ids())
    protos = book.matrix()
    bad = ids[~np.isfinite(protos).all(axis=1)]
    if bad.size:
        raise NonFiniteError(f"prototypes of classes {bad.tolist()} are not finite")
    blocks = [slice(at, at + INFER_ROWS) for at in range(0, z.shape[0], INFER_ROWS)]
    finite = np.empty(z.shape[0], dtype=bool)
    for rows in blocks:
        np.isfinite(z[rows]).all(axis=1, out=finite[rows])
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise NonFiniteError(f"{bad.size} embedding rows are not finite "
                             f"(first: row {bad[0]})")
    if len(ids) == 1:
        return np.full(z.shape[0], ids[0])
    dim = z.shape[1]
    gamma = (dim + 4) * _UNIT_ROUNDOFF / (1.0 - (dim + 4) * _UNIT_ROUNDOFF)
    best = np.empty(z.shape[0], dtype=np.intp)
    lost = []
    with np.errstate(over="ignore", invalid="ignore"):
        pp = np.einsum("ij,ij->i", protos, protos)
        pmax = pp.max()
        for rows in blocks:
            zb = z[rows]
            zz = np.einsum("ij,ij->i", zb, zb)
            d2 = zz[:, None] - 2.0 * (zb @ protos.T) + pp[None, :]
            pick = np.argmin(d2, axis=1)
            two = np.partition(d2, 1, axis=1)
            bound = 2.0 * (gamma * 2.0 * (zz + pmax) + (4 * dim + 16) * _TINY)
            # the comparison is False for a NaN or inf gap or bound
            certified = (two[:, 1] - two[:, 0] > 2.0 * bound) & np.isfinite(d2).all(axis=1)
            redo = np.flatnonzero(~certified)
            if redo.size:
                ref = _broadcast_d2(zb[redo], protos)
                lost.extend(rows.start + redo[~(ref < np.inf).any(axis=1)])
                pick[redo] = np.argmin(ref, axis=1)
            best[rows] = pick
    if lost:
        raise NonFiniteError(f"{len(lost)} embedding rows have every squared "
                             f"distance overflow to inf (first: row {lost[0]})")
    return ids[best]


def collect_drift(before, after) -> DriftField:
    """Endpoint drift of the current task's training data: ``before`` is
    where the previous model put each sample (the model's ``embed_np``
    before the task trained), ``after`` where the current model puts it."""
    if np.shape(before) != np.shape(after):
        raise ShapeError(f"embeddings before {np.shape(before)} vs after {np.shape(after)}")
    return DriftField(before, after - before)


def interpolate_drift(field: DriftField, query, cfg: KernelConfig) -> np.ndarray:
    """Gaussian-kernel average of the drift field at a query point ``[D]``,
    or at each row of a block of queries ``[C, D]`` (result ``[C, D]``).

    Weights w_i = exp(-||pos_i - query||^2 / (2 sigma^2)). If a query's
    total weight underflows WEIGHT_FLOOR it is out of reach of all
    evidence: its row is zero and the degenerate case is logged once for
    that query. Each query row comes out bit-identical to a call with
    that row alone: distances and weighted sums keep the coordinate-wise
    reduction order. Queries go in blocks whose ``[block, N, D]``
    temporaries hold at most 2^16 entries (512 KB), small enough to stay
    in cache: blocks of 2^18 entries were slower than one query at a time.
    """
    q = np.asarray(query, dtype=np.float64)
    return _kernel_pass(field, q.reshape(-1, q.shape[-1]), cfg)[0].reshape(q.shape)


@dataclass(frozen=True)
class Compensation:
    """One old prototype's move at a task boundary: the drift applied to
    it, the total kernel mass behind that estimate, and the distance from
    the prototype to the nearest drift evidence."""

    delta: np.ndarray
    mass: float
    nearest: float

    @property
    def fallback(self) -> bool:
        """Out of reach of all evidence: the prototype stayed in place."""
        return self.mass < WEIGHT_FLOOR


def _kernel_pass(field: DriftField, queries: np.ndarray, cfg: KernelConfig):
    """The kernel average at each row of ``queries`` ``[C, D]``, with each
    query's total kernel mass and its distance to the nearest evidence:
    ``(average [C, D], mass [C], nearest [C])``. See ``interpolate_drift``."""
    if len(field) == 0:
        raise ValueError("empty drift field")
    out = np.zeros_like(queries)
    mass = np.empty(len(queries))
    nearest = np.empty(len(queries))
    step = max(1, (1 << 16) // field.positions.size)
    for at in range(0, len(queries), step):
        block = queries[at : at + step]
        d2 = np.sum((field.positions - block[:, None, :]) ** 2, axis=2)
        w = np.exp(-d2 / (2.0 * cfg.sigma**2))
        total = w.sum(axis=1)
        mass[at : at + step] = total
        nearest[at : at + step] = np.sqrt(d2.min(axis=1))
        degenerate = total < WEIGHT_FLOOR
        for i in np.flatnonzero(degenerate):
            log.warning(
                "degenerate kernel mass %.3e at query (nearest point %.3f away); "
                "leaving prototype in place",
                total[i],
                nearest[at + i],
            )
        ok = ~degenerate
        weighted = (w[ok, :, None] * field.displacements).sum(axis=1)
        out[at : at + step][ok] = weighted / total[ok, None]
    return out, mass, nearest


def compensate(book: PrototypeBook, field: DriftField, cfg: KernelConfig,
               current_task: int) -> dict[int, Compensation]:
    """Move every prototype learned before ``current_task`` by the drift
    interpolated at its current (already-compensated) position; returns
    the applied move by class id. All old prototypes go through one
    kernel pass, the one ``interpolate_drift`` makes."""
    old = [c for c in book.class_ids() if book.entries[c].learned_at < current_task]
    if not old:
        return {}
    moved, mass, nearest = _kernel_pass(
        field, np.stack([book.entries[c].vector for c in old]), cfg)
    moves = {}
    for c, delta, m, d in zip(old, moved, mass, nearest):
        entry = book.entries[c]
        entry.vector = entry.vector + delta
        entry.compensation = entry.compensation + delta
        moves[c] = Compensation(delta, float(m), float(d))
    return moves
