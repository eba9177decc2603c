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

from .data import distinct_labels
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


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


_ENCODE = json.JSONEncoder(default=_jsonable).encode  # no indent: that is pure Python
_OPENED = frozenset((dict, list, tuple))
_PIECE = 1024  # values in a run of flat items, encoded in one call


def _nested(obj) -> bool:
    """A dict with a dict, list or tuple among its values, or a list or
    tuple whose first item is one: the lists this program writes are
    uniform, and one that is not is still written exactly, only whole."""
    if type(obj) is dict:
        return not _OPENED.isdisjoint(map(type, obj.values()))
    return type(obj) in _OPENED and len(obj) > 0 and type(obj[0]) in _OPENED


def json_pieces(obj):
    """The text of ``json.dumps(obj, default=_jsonable)``, piece by piece.

    A nested container is opened. Its other items, scalars and flat
    containers (a confusion row, an SDC event), are encoded in runs of
    about ``_PIECE`` values, one call each, so a piece holds at most that
    many values plus one flat container: the encoder's scratch memory is
    one piece's, whatever the size of the whole text.
    """
    if not _nested(obj):
        yield _ENCODE(obj)
        return
    is_dict = type(obj) is dict
    yield "{" if is_dict else "["
    sep, run, size = "", [], 0
    for item in obj.items() if is_dict else obj:
        value = item[1] if is_dict else item
        nested = _nested(value)
        if not nested:
            run.append(item)
            size += len(value) if type(value) in _OPENED else 1
        if run and (nested or size >= _PIECE):
            yield sep + _ENCODE(dict(run) if is_dict else run)[1:-1]
            sep, run, size = ", ", [], 0
        if nested:
            if is_dict:  # the key as json writes it: '{"k": null}' less '{' and 'null}'
                yield sep + _ENCODE({item[0]: None})[1:-5]
            elif sep:
                yield sep
            yield from json_pieces(value)
            sep = ", "
    if run:
        yield sep + _ENCODE(dict(run) if is_dict else run)[1:-1]
    yield "}" if is_dict else "]"


class PrototypeBook:
    """One row per class, in ascending class id: ``ids`` ``[C]``, the task
    each was ``learned_at`` ``[C]``, its ``vectors`` ``[C, D]`` and the
    cumulative drift applied since learning, ``compensation`` ``[C, D]``.
    Mutated only at task boundaries."""

    def __init__(self):
        self.ids = np.empty(0, dtype=np.int64)
        self.learned_at = np.empty(0, dtype=np.int64)
        self.vectors = self.compensation = np.empty((0, 0))

    def __len__(self):
        return len(self.ids)

    def add_task(self, protos: dict[int, np.ndarray], task_index: int):
        """Merge ``protos`` (class id -> vector) in as rows learned at
        ``task_index``, keeping ``ids`` ascending."""
        new = np.array(list(protos.values()), dtype=np.float64)
        if not len(self):  # the width is the first task's
            self.vectors = self.compensation = np.empty((0, new.shape[1]))
        ids = np.concatenate([self.ids, np.fromiter(protos, np.int64, len(protos))])
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        twice = ids[1:][ids[1:] == ids[:-1]]
        if twice.size:
            raise StateError(f"class {twice[0]} already has a prototype")
        vectors = np.concatenate([self.vectors, new])[order]
        self.compensation = np.concatenate([self.compensation, np.zeros_like(new)])[order]
        self.learned_at = np.concatenate([self.learned_at,
                                          np.full(len(new), task_index)])[order]
        self.ids, self.vectors = ids, vectors

    # bench/tracing.py wraps this name, and a traced run raises AttributeError without it
    def to_json(self) -> str:
        return _ENCODE({"classes": [
            {"class_id": c, "learned_at": t, "vector": v, "compensation": m}
            for c, t, v, m in zip(self.ids.tolist(), self.learned_at.tolist(),
                                  self.vectors.tolist(), self.compensation.tolist())]})


def compute_prototypes(embeddings, labels, classes=None) -> dict[int, np.ndarray]:
    """Per-class mean embedding; means are NOT re-normalized."""
    z = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if classes is None:
        classes = distinct_labels(labels)
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
    ids, protos = book.ids, book.vectors
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
               current_task: int):
    """Move every prototype learned before ``current_task`` by the drift
    interpolated at its current (already-compensated) position. All old
    prototypes go through one kernel pass, the one ``interpolate_drift``
    makes. Returns ``(ids [M], delta [M, D], mass [M], nearest [M])`` of the
    moved classes in class-id order: the drift applied, the total kernel
    mass behind it (below WEIGHT_FLOOR, the prototype stayed in place), and
    the distance to the nearest drift evidence."""
    old = book.learned_at < current_task
    ids, queries = book.ids[old], book.vectors[old]
    if not ids.size:
        return ids, queries, np.empty(0), np.empty(0)
    moved, mass, nearest = _kernel_pass(field, queries, cfg)
    book.vectors[old] += moved
    book.compensation[old] += moved
    return ids, moved, mass, nearest
