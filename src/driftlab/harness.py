"""Class-incremental experiment driver.

A run takes a task sequence (disjoint class groups with train/test data)
and a method configuration, trains task by task, maintains prototypes and
their compensation, and fills the lower-triangular accuracy matrix
a[k][j]: accuracy on task j's test data after training task k. Everything
downstream (metrics, plots, tables) reads the RunRecord this produces.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .data import LabeledDataset, distinct_labels
from .losses import (
    FISHER_VARIANTS,
    MINING_STRATEGIES,
    estimate_fisher,
    estimate_mas_importance,
    lwf_align_loss,
    mine_triplets,
    quadratic_penalty,
    triplet_loss,
)
from .models import EmbeddingNet, GrowingSoftmaxNet, snapshot
from .optim import Adam
from .prototypes import (
    Compensation,
    KernelConfig,
    PrototypeBook,
    collect_drift,
    compensate,
    compute_prototypes,
    json_pieces,
    ncm_classify,
)
from .tensor import Tensor, softmax_cross_entropy


@dataclass(frozen=True)
class MethodSpec:
    """Everything that sets one method apart from another. Rows hold
    strings and classes, never functions: code looks a function up by
    name when it runs, so a wrapper put on a module attribute sees it."""
    net: type  # EmbeddingNet or GrowingSoftmaxNet
    ncm_on: str | None = "embed_np"  # model method NCM classifies; None: the heads
    trains_through: int | None = None  # last task that trains the net; None: all
    pretrain: str | None = None  # None, "union" (all tasks) or "held-out"
    regularizer: str | None = None  # None, "lwf", "fisher" or "mas"
    gamma: float = 0.0  # default regularizer weight


METHOD_SPECS = {
    "E-FT": MethodSpec(EmbeddingNet),
    "E-LwF": MethodSpec(EmbeddingNet, regularizer="lwf", gamma=1.0),
    "E-EWC": MethodSpec(EmbeddingNet, regularizer="fisher", gamma=1e7),
    "E-MAS": MethodSpec(EmbeddingNet, regularizer="mas", gamma=1e6),
    "E-Fix": MethodSpec(EmbeddingNet, trains_through=1),
    "E-Pre-substitute": MethodSpec(EmbeddingNet, trains_through=0, pretrain="held-out"),
    "Joint": MethodSpec(EmbeddingNet, trains_through=0, pretrain="union"),
    "FT": MethodSpec(GrowingSoftmaxNet, ncm_on=None),
    "FT*": MethodSpec(GrowingSoftmaxNet, ncm_on="features_np"),
}
METHODS = tuple(METHOD_SPECS)
GAMMA_DEFAULTS = {m: s.gamma for m, s in METHOD_SPECS.items() if s.regularizer}
A_MATRIX_HEADER = "k,j,accuracy"


class TrainingError(RuntimeError):
    """A task could not be trained (no usable triplets, missing data)."""


@dataclass(frozen=True)  # its rows are fixed by the sequence's tables
class Task:
    index: int  # 1-based position in the sequence
    classes: tuple[int, ...]
    train: LabeledDataset  # a row range of the sequence's train table
    test: LabeledDataset  # a row range of its test table


def _task_of(labels: np.ndarray, groups) -> np.ndarray:
    """Each row's task position (0-based) by its label: the group that
    holds it, or ``len(groups)`` for a label in no group."""
    classes = np.array([c for g in groups for c in g], dtype=np.int64)
    task = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    by_class = np.argsort(classes)
    classes, task = classes[by_class], task[by_class]
    at = np.searchsorted(classes, labels).clip(max=len(classes) - 1)
    return np.where(classes[at] == labels, task[at], len(groups))


@dataclass
class TaskSequence:
    """Tasks over two tables whose rows run task by task, in the order of
    ``groups`` (each task's classes). A task's ``train`` and ``test`` are
    one row range of each table, read-only views, so the test rows of
    tasks 1..k are a prefix of ``test``. A class in two groups, a row of
    no group or out of task order, or a task without test rows is a
    ValueError."""
    train: LabeledDataset
    test: LabeledDataset
    groups: list
    pretrain: LabeledDataset | None = None  # held-out classes for E-Pre-substitute
    tasks: list[Task] = field(init=False)

    def __post_init__(self):
        self.groups = [tuple(int(c) for c in g) for g in self.groups]
        if not self.groups:
            raise ValueError("a sequence needs at least one task")
        seen: set[int] = set()
        for g in self.groups:
            overlap = seen & set(g)
            if overlap:
                raise ValueError(f"classes {sorted(overlap)} appear in two tasks")
            seen |= set(g)
        bounds = []
        for name in ("train", "test"):
            table = getattr(self, name).subset(slice(None))
            table.features.flags.writeable = table.labels.flags.writeable = False
            setattr(self, name, table)
            owner = _task_of(table.labels, self.groups)
            if np.any(owner[1:] < owner[:-1]) or np.any(owner == len(self.groups)):
                raise ValueError(f"{name} rows do not run task by task")
            bounds.append(np.searchsorted(owner, np.arange(len(self.groups) + 1)))
        tr, te = bounds
        self.tasks = []
        for i, ids in enumerate(self.groups):
            if te[i] == te[i + 1]:
                raise ValueError(f"task {i + 1} (classes {list(ids)}) has no test rows")
            self.tasks.append(Task(i + 1, ids, self.train.subset(slice(tr[i], tr[i + 1])),
                                   self.test.subset(slice(te[i], te[i + 1]))))

    def __len__(self):
        return len(self.tasks)

    @property
    def input_dim(self) -> int:
        return self.train.features.shape[1]


def split_tasks(dataset: LabeledDataset, n_tasks: int, first_task_fraction=None,
                seed: int = 0, test: LabeledDataset | None = None,
                test_fraction: float = 0.2) -> TaskSequence:
    """Partition classes into disjoint tasks with a seeded random order.

    The first task optionally takes ``first_task_fraction`` of the classes;
    the rest must divide evenly over the remaining tasks. With no separate
    ``test`` set, ``test_fraction`` of each class is held out (seeded).
    Each split is gathered once, into a table whose rows run task by task
    and keep their source order within a task (see ``TaskSequence``);
    ``test`` rows of no task's class are left out. A task with no test
    rows (an explicit ``test`` set that lacks all of its classes) is a
    ValueError, and so is ``n_tasks`` below 1, or below 2 with a
    ``first_task_fraction``.
    """
    least = 2 if first_task_fraction else 1
    if n_tasks < least:
        raise ValueError(f"n_tasks must be at least {least}, got {n_tasks}")
    classes = distinct_labels(dataset.labels)
    if n_tasks > len(classes):
        raise ValueError(f"{n_tasks} tasks but only {len(classes)} classes")
    rng = np.random.default_rng(seed)
    order = rng.permutation(classes)

    if first_task_fraction:
        n_first = int(round(first_task_fraction * len(classes)))
        if not 1 <= n_first <= len(classes) - (n_tasks - 1):
            raise ValueError(f"first task of {n_first} classes leaves too few behind")
        rest = len(classes) - n_first
        if rest % (n_tasks - 1):
            raise ValueError(
                f"{rest} remaining classes do not divide over {n_tasks - 1} tasks"
            )
        per = rest // (n_tasks - 1)
        groups = [order[:n_first]]
        groups += [order[n_first + i * per : n_first + (i + 1) * per]
                   for i in range(n_tasks - 1)]
    else:
        if len(classes) % n_tasks:
            raise ValueError(f"{len(classes)} classes do not divide into {n_tasks} tasks")
        per = len(classes) // n_tasks
        groups = [order[i * per : (i + 1) * per] for i in range(n_tasks)]

    if test is None:
        held = np.zeros(len(dataset.labels), dtype=bool)
        by_class = np.argsort(dataset.labels, kind="stable")  # each class's rows in order
        ends = np.searchsorted(dataset.labels[by_class], classes, side="right")
        for c, end, n in zip(classes, ends, np.diff(ends, prepend=0)):
            cut = max(1, int(round(test_fraction * n)))
            if cut >= n:
                raise ValueError(f"class {int(c)} has {n} rows; holding out "
                                 f"{cut} for testing leaves none for training")
            held[by_class[end - n : end][rng.permutation(n)[:cut]]] = True
        sources = ((dataset, np.flatnonzero(~held)), (dataset, np.flatnonzero(held)))
    else:
        sources = ((dataset, np.arange(len(dataset.labels))),
                   (test, np.arange(len(test.labels))))

    tables = []
    for src, idx in sources:
        owner = _task_of(src.labels[idx], groups)
        in_order = np.argsort(owner, kind="stable")[: np.count_nonzero(owner < n_tasks)]
        tables.append(src.subset(idx[in_order]))
    return TaskSequence(*tables, groups)


@dataclass
class MethodConfig:
    method: str
    sdc: bool = False
    gamma: float | None = None
    sigma: float = 0.3
    margin: float = 0.2
    lr: float = 1e-4
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    embedding_dim: int = 64
    hidden: tuple = (256, 256)
    mining: str = "semihard"
    fisher_variant: str = "triplet"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick from {METHODS}")
        spec = METHOD_SPECS[self.method]
        # SDC needs an embedding net that has not seen later tasks
        if self.sdc and (spec.net is not EmbeddingNet or spec.pretrain == "union"):
            raise ValueError(f"sdc is only valid for incremental embedding methods, "
                             f"not {self.method}")
        if self.mining not in MINING_STRATEGIES:
            raise ValueError(f"unknown mining strategy {self.mining!r}")
        if self.fisher_variant not in FISHER_VARIANTS:
            raise ValueError(f"unknown fisher_variant {self.fisher_variant!r}; "
                             f"pick from {FISHER_VARIANTS}")
        KernelConfig(self.sigma)  # the kernel's own sigma rule and message
        for key, ok, rule in (
            ("epochs", self.epochs >= 1, "at least 1"),
            ("batch_size", self.batch_size >= 2, "at least 2"),
            ("lr", 0 < self.lr < np.inf, "finite and positive"),
            ("margin", 0 <= self.margin < np.inf, "finite and nonnegative"),
            ("embedding_dim", self.embedding_dim >= 1, "at least 1"),
            ("hidden", all(h >= 1 for h in self.hidden), "widths of at least 1"),
            ("gamma", self.gamma is None or 0 <= self.gamma < np.inf,
             "finite and nonnegative"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")
        if self.gamma is None or spec.regularizer is None:
            self.gamma = spec.gamma  # 0.0, ignored, without a regularizer

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["hidden"] = list(self.hidden)
        return d


@dataclass
class RunRecord:
    method: str
    seed: int
    n_tasks: int
    task_classes: list[tuple[int, ...]]
    accuracy: dict = field(default_factory=dict)  # {k: {j: acc}}
    proto_distance: dict = field(default_factory=dict)  # {k: {class: dist}}
    confusions: dict = field(default_factory=dict)  # {k: {"classes": [...], "counts": [[...]]}}
    sdc_events: dict = field(default_factory=dict)  # {k: {class: _sdc_event scalars}}
    embed2d: dict = field(default_factory=dict)  # {k: plotting payload}, 2-d runs only
    param_digest: dict = field(default_factory=dict)  # {k: sha256 of all params}
    wall_time: float = 0.0
    config: dict = field(default_factory=dict)

    def set_acc(self, k: int, j: int, value: float):
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"accuracy {value} outside [0, 1]")
        if j < 1 or k < 1:
            raise ValueError(f"a[{k}][{j}]: task indices start at 1")
        if j > k:
            raise ValueError(f"a[{k}][{j}] above the diagonal")
        self.accuracy.setdefault(k, {})[j] = float(value)

    def a_matrix_csv(self) -> str:
        lines = [A_MATRIX_HEADER]
        for k in sorted(self.accuracy):
            for j in sorted(self.accuracy[k]):
                lines.append(f"{k},{j},{self.accuracy[k][j]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_a_matrix_csv(cls, text: str, method: str, seed) -> "RunRecord":
        """An ``a_matrix_csv`` text; each cell once, checked by ``set_acc``."""
        lines = text.strip().split("\n")
        if lines[0] != A_MATRIX_HEADER:
            raise ValueError("not an a_matrix.csv")
        if len(lines) == 1:
            raise ValueError("header only, no accuracy rows")
        record = cls(method=method, seed=seed, n_tasks=0, task_classes=[])
        for n, line in enumerate(lines[1:], start=2):
            try:
                k, j, v = line.split(",")
                if int(j) in record.accuracy.get(int(k), {}):
                    raise ValueError(f"a[{k}][{j}] given twice")
                record.set_acc(int(k), int(j), float(v))
            except ValueError as e:
                raise ValueError(f"line {n} {line!r}: {e}") from None
        record.n_tasks = max(record.accuracy)
        return record

    def json_pieces(self):
        """The text of ``record.json`` in pieces (see ``json_pieces``)."""
        return json_pieces({f.name: getattr(self, f.name) for f in fields(self)})

    def to_json(self) -> str:
        return "".join(self.json_pieces())

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        raw = json.loads(text)
        for name in ("method", "seed", "n_tasks", "task_classes", "accuracy"):
            if not isinstance(raw, dict) or name not in raw:
                raise ValueError(f"missing field {name!r}")
        if not (isinstance(raw["task_classes"], list)
                and all(isinstance(c, list) for c in raw["task_classes"])):
            raise ValueError("field 'task_classes' is not a list of lists")
        rec = cls(
            method=raw["method"], seed=raw["seed"], n_tasks=raw["n_tasks"],
            task_classes=[tuple(c) for c in raw["task_classes"]],
            wall_time=raw.get("wall_time", 0.0), config=raw.get("config", {}),
        )
        if not isinstance(raw["accuracy"], dict):
            raise ValueError("field 'accuracy' is not an object")
        for k, row in raw["accuracy"].items():  # set_acc checks each cell, as compare does
            if not isinstance(row, dict):
                raise ValueError(f"accuracy row {k!r} is not an object")
            for j, a in row.items():
                if not isinstance(a, (int, float, str)):  # null, a list or an object
                    raise ValueError(f"accuracy cell a[{k}][{j}] is {json.dumps(a)}, "
                                     "not a number")
                rec.set_acc(int(k), int(j), float(a))
        distances = _checkpoint_entries(raw, "proto_distance")
        rec.proto_distance = {k: {int(c): d for c, d in row.items()}
                              for k, row in distances.items()}
        rec.confusions = _checkpoint_entries(raw, "confusions", ("classes", "counts"))
        for k, entry in rec.confusions.items():  # plot draws these as they stand
            classes, counts = entry["classes"], entry["counts"]
            if not isinstance(classes, list):
                raise ValueError(f"confusions[{k}]: 'classes' is not a list")
            n = len(classes)
            if not (isinstance(counts, list) and len(counts) == n and all(
                    isinstance(row, list) and len(row) == n
                    and all(type(c) is int and c >= 0 for c in row) for row in counts)):
                raise ValueError(f"confusions[{k}]: 'counts' is not {n} rows of {n} "
                                 "non-negative ints")
        rec.sdc_events = {k: {int(c): e for c, e in row.items()}
                          for k, row in _checkpoint_entries(raw, "sdc_events").items()}
        rec.embed2d = _checkpoint_entries(raw, "embed2d", (
            "points", "labels", "prototypes", "compensation", "true_means"))
        rec.param_digest = {int(k): v for k, v in raw.get("param_digest", {}).items()}
        return rec


def _checkpoint_entries(raw: dict, name: str, keys: tuple = ()) -> dict:
    """A record's per-checkpoint field ``name``, keyed by int; each entry
    must be an object holding ``keys``, else a ValueError names it."""
    table = raw.get(name, {})
    if not isinstance(table, dict):
        raise ValueError(f"field {name!r} is not an object")
    for k, entry in table.items():
        if not isinstance(entry, dict):
            raise ValueError(f"{name}[{k}] is not an object")
        for key in keys:
            if key not in entry:
                raise ValueError(f"{name}[{k}] has no {key!r}")
    return {int(k): v for k, v in table.items()}


def avg_incremental_accuracy(record: RunRecord, k: int) -> float:
    """A_k: mean over tasks 1..k of a[k][j]."""
    row = record.accuracy.get(k, {})
    missing = [j for j in range(1, k + 1) if j not in row]
    if missing:
        raise ValueError(f"row {k} incomplete: missing tasks {missing}")
    return sum(row[j] for j in range(1, k + 1)) / k


def avg_forgetting(record: RunRecord, k: int) -> float:
    """F_k: mean over tasks j < k of max_{l<k} (a[l][j] - a[k][j])."""
    if k < 2:
        raise ValueError("forgetting needs at least two tasks")
    total = 0.0
    for j in range(1, k):
        drops = [record.accuracy[l][j] - record.accuracy[k][j]
                 for l in range(j, k) if j in record.accuracy.get(l, {})]
        if len(drops) != k - j:
            raise ValueError(f"rows {j}..{k - 1} incomplete for task {j}")
        total += max(drops)
    return total / (k - 1)


def prototype_distance_trace(record: RunRecord) -> dict[int, list[tuple[int, float]]]:
    """Pivot of per-checkpoint prototype-to-true-mean distances:
    class -> [(k, distance), ...]."""
    trace: dict[int, list[tuple[int, float]]] = {}
    for k in sorted(record.proto_distance):
        for c, d in record.proto_distance[k].items():
            trace.setdefault(int(c), []).append((k, float(d)))
    return trace


def _digest(model) -> str:
    h = hashlib.sha256()
    for p in model.params:
        h.update(p.data)
    return h.hexdigest()


def _batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _step(opt: Adam, loss, epoch: int) -> None:
    """One optimizer step on ``loss``; a NaN or inf loss stops the run."""
    if not np.isfinite(loss.data):
        raise TrainingError(f"non-finite loss {loss.item()} in epoch {epoch}")
    opt.step(loss)


def train_task(model, task_data: LabeledDataset, config: MethodConfig, rng,
               snap=None, importance=None, n_maps: int = 1) -> None:
    """One task's training loop on an embedding model.

    Metric loss per batch, plus gamma times the method's regularizer
    against ``snap`` (the previous task's parameters, from
    ``models.snapshot``) when gamma > 0; a quadratic penalty weighs by
    ``importance``, the sum of ``n_maps`` importance maps, over
    ``n_maps``. Raises TrainingError if a loss is NaN or inf, or if no
    batch in any epoch yields a valid triplet.
    """
    if len(task_data.labels) == 0:
        raise TrainingError("task has no training data")
    opt = Adam(model.params, lr=config.lr)  # fresh state every task
    any_triplets = False
    for epoch in range(1, config.epochs + 1):
        for idx in _batches(len(task_data.labels), config.batch_size, rng):
            xb, yb = task_data.features[idx], task_data.labels[idx]
            z = model.embed(xb)
            trip = mine_triplets(yb, z, config.mining, config.margin, rng=rng)
            if len(trip) == 0:
                continue
            any_triplets = True
            loss = triplet_loss(z, trip)
            if config.gamma > 0 and snap is not None:
                if METHOD_SPECS[config.method].regularizer == "lwf":
                    reg = lwf_align_loss(model, snap, xb)
                else:
                    reg = quadratic_penalty(model, snap, importance, n_maps)
                loss = loss + Tensor(config.gamma) * reg
            _step(opt, loss, epoch)
    if not any_triplets:
        raise TrainingError(
            "no batch produced a valid triplet; check class mix and batch size"
        )


def _train_softmax_task(model: GrowingSoftmaxNet, task: Task, config: MethodConfig,
                        rng) -> None:
    """Cross-entropy on the newest head only; older heads get no gradient.
    A NaN or inf loss raises TrainingError."""
    head = len(model.heads) - 1
    local = {c: i for i, c in enumerate(model.heads[head][2])}
    labels = np.array([local[c] for c in task.train.labels])
    params = list(model.trunk) + [model.heads[head][0], model.heads[head][1]]
    opt = Adam(params, lr=config.lr)
    for epoch in range(1, config.epochs + 1):
        for idx in _batches(len(labels), config.batch_size, rng):
            logits = model.head_logits(task.train.features[idx], head)
            _step(opt, softmax_cross_entropy(logits, labels[idx]), epoch)


def _embedding_eval(model, book: PrototypeBook, sequence: TaskSequence,
                    record: RunRecord, k: int, embed):
    """One pass over the test rows of tasks 1..k, read in place as a
    prefix of the test table, at checkpoint k (the forward and NCM each go
    ``INFER_ROWS`` rows at a time): fills row k and the confusion by NCM
    over ``book`` on ``embed``'s features, with prototype-to-true-mean
    distances and the 2-d capture, or by the heads when ``embed`` is
    None. Returns the means of the classes present."""
    tasks_seen = sequence.tasks[:k]
    ends = np.cumsum([len(t.test.labels) for t in tasks_seen])
    x, y = sequence.test.features[: ends[-1]], sequence.test.labels[: ends[-1]]
    z, means = None, {}
    if embed is None:
        pred = model.predict_multihead(x)
    else:
        z = embed(x)
        pred = ncm_classify(z, book)
        means = compute_prototypes(z, y)
        record.proto_distance[k] = {
            c: float(np.linalg.norm(book.entries[c].vector - m)) for c, m in means.items()}
    for task, hit in zip(tasks_seen, np.split(pred == y, ends[:-1])):
        record.set_acc(k, task.index, float(np.mean(hit)))
    seen = np.array(sorted(c for t in tasks_seen for c in t.classes))
    n = len(seen)
    cells = np.searchsorted(seen, y) * n + np.searchsorted(seen, pred)
    counts = np.bincount(cells, minlength=n * n).reshape(n, n)
    record.confusions[k] = {"classes": seen.tolist(), "counts": counts.tolist()}
    _capture_2d(model, book, tasks_seen[0], record, k, z, means)
    return means


def _sdc_event(move: Compensation, before, after) -> dict:
    """Scalars that explain one class's compensation at a checkpoint: the
    applied drift ``move.delta``, its kernel reach, and how it compares
    with the true change, the shift of the class's test-embedding mean
    from the previous checkpoint (``before``) to this one (``after``).
    ``before`` or ``after`` is None for a class without test rows, and
    the true change's three fields are then None. The cosine is also None
    where either norm is 0."""
    delta_norm = float(np.linalg.norm(move.delta))
    event = {"delta_norm": delta_norm, "mass": move.mass, "nearest": move.nearest,
             "fallback": move.fallback, "true_norm": None, "error_norm": None,
             "cosine": None}
    if before is not None and after is not None:
        true = after - before
        true_norm = float(np.linalg.norm(true))
        event["true_norm"] = true_norm
        event["error_norm"] = float(np.linalg.norm(true - move.delta))
        if true_norm > 0 and delta_norm > 0:
            event["cosine"] = float(true @ move.delta) / (true_norm * delta_norm)
    return event


def _capture_2d(model, book, task1: Task, record, k, z, means):
    """Keep task-1 test embeddings (``z``'s leading rows) and prototype state."""
    if z is None or z.shape[1] != 2 or model.kind != "embedding":
        return
    record.embed2d[k] = {
        "points": z[: len(task1.test.labels)].tolist(),
        "labels": task1.test.labels.tolist(),
        "prototypes": {c: book.entries[c].vector.tolist() for c in book.class_ids()},
        "compensation": {c: book.entries[c].compensation.tolist()
                         for c in book.class_ids()},
        "true_means": {c: means[c].tolist() for c in task1.classes if c in means},
    }


def run_sequence(config: MethodConfig, sequence: TaskSequence) -> RunRecord:
    """Drive one method over the whole task sequence; returns the filled
    RunRecord (with the final PrototypeBook attached as ``record.book``).

    Every method runs the same loop: an optional pretraining stage, then
    per task training, prototypes, drift compensation, importance, a
    snapshot (gamma > 0) and evaluation, after which each compensated
    class gets its ``_sdc_event`` diagnostics. The method's ``METHOD_SPECS``
    row sets the net, what NCM classifies (or the heads), which tasks
    train it, its pretraining and its regularizer. A net pretrained on the
    union of all tasks (Joint) is evaluated only after the last task.
    """
    start = time.perf_counter()
    record = RunRecord(
        method=config.method, seed=config.seed, n_tasks=len(sequence),
        task_classes=[t.classes for t in sequence.tasks], config=config.to_dict(),
    )
    rng = np.random.default_rng([config.seed, 101])
    spec = METHOD_SPECS[config.method]
    softmax = spec.net is GrowingSoftmaxNet
    model = spec.net(sequence.input_dim, config.embedding_dim, config.hidden,
                     seed=config.seed)
    embed = getattr(model, spec.ncm_on) if spec.ncm_on else None
    if spec.pretrain == "union":
        train_task(model, sequence.train, config, rng)
    elif spec.pretrain == "held-out":
        if sequence.pretrain is None:
            raise TrainingError(f"{config.method} needs held-out pretraining data "
                                "(dataset option pretrain_classes)")
        train_task(model, sequence.pretrain, config, rng)

    book = PrototypeBook()
    kcfg = KernelConfig(sigma=config.sigma)
    snap = None
    total, n_maps = None, 0  # running sum of the E-EWC/E-MAS maps, in task order
    means: dict = {}  # class -> test-embedding mean at the last checkpoint
    for task in sequence.tasks:
        t = task.index
        trains = spec.trains_through is None or t <= spec.trains_through
        sdc = config.sdc and t > 1
        # SDC's evidence: the task's rows under the model before it trains
        old_z = embed(task.train.features) if sdc and trains else None
        if softmax:
            model.add_head(task.classes)
        if trains and softmax:
            _train_softmax_task(model, task, config, rng)
        elif trains:
            train_task(model, task.train, config, rng, snap=snap, importance=total,
                       n_maps=n_maps)

        moves = None
        if embed is not None:  # sdc implies an embedding net: z is embed_np's
            z = embed(task.train.features)
            book.add_task(
                compute_prototypes(z, task.train.labels, classes=task.classes),
                task_index=t,
            )
            if sdc:  # a net that did not train has not moved: z is both sides
                moves = compensate(book, collect_drift(old_z if trains else z, z),
                                   kcfg, current_task=t)
            del z, old_z  # [train rows, D], not held through the next task

        if t < len(sequence):  # the next task's importance and reference
            if spec.regularizer == "fisher":
                new = estimate_fisher(model, task.train, config.batch_size,
                                      config.fisher_variant, config.margin)
            elif spec.regularizer == "mas":
                new = estimate_mas_importance(model, task.train)
            if spec.regularizer in ("fisher", "mas"):  # weights are >= +0: w1 is 0 + w1
                total, n_maps = new if total is None else total.add(new), n_maps + 1
                del new  # the task's map lives on only in the sum
            if config.gamma > 0:  # only a regularizer reads the snapshot
                snap = snapshot(model)

        if spec.pretrain == "union" and t < len(sequence):  # trained on later tasks
            continue
        record.param_digest[t] = _digest(model)
        before = means
        means = _embedding_eval(model, book, sequence, record, t, embed)
        if moves is not None:
            record.sdc_events[t] = {c: _sdc_event(m, before.get(c), means.get(c))
                                    for c, m in moves.items()}

    record.book = book
    record.wall_time = time.perf_counter() - start
    return record
