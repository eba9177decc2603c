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
    WEIGHT_FLOOR,
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


def check_plain_name(name, what: str) -> None:
    """Raise a ValueError naming ``what`` unless ``name`` can be the one
    directory ``results/<name>/``: a string, not empty, not . or .., and
    without /, \\ or NUL (a path there would write outside its parent, and
    no file name holds a NUL)."""
    if not isinstance(name, str) or name in ("", ".", "..") or any(
            c in name for c in "/\\\0"):
        raise ValueError(f"{what} {name!r} must be a plain name: not empty, "
                         "not . or .., and without /, \\ or NUL")


# a number a float holds: NaN and infinities too, and a bool as 0 or 1
NUMBER = (lambda v: isinstance(v, float) or isinstance(v, int) and abs(v) < 2**1023, "a number")
ANY, INT = (lambda v: True, "any value"), (lambda v: type(v) is int, "an int")  # no bool
POINT = (lambda v: isinstance(v, list) and len(v) >= 2 and all(map(NUMBER[0], v)), "a point")

# record.json's fields as every command can use them, nothing stricter: a leaf (test,
# what); (s, test, what), shape s then a test of the whole; [s], a list of s; {int: s},
# a map by checkpoint or class, keys read as ints; {"key": s, ...}, an object with them.
RECORD = {
    "method": (lambda v: check_plain_name(v, "field 'method'") is None, "a plain name"),
    "seed": INT,
    "n_tasks": (lambda v: type(v) is int and v >= 1, "an int of at least 1"),
    "task_classes": [[ANY]],
    "accuracy": {int: {int: ANY}},  # each cell then goes through set_acc
    "proto_distance": {int: {int: NUMBER}},
    "confusions": {int: (
        {"classes": [ANY], "counts": [[(lambda v: type(v) is int and v >= 0, "a count")]]},
        lambda e: [len(r) for r in e["counts"]] == [len(e["classes"])] * len(e["classes"]),
        "a square of counts, a row and a column per class")},
    "sdc_events": {int: {int: {}}},  # older records hold {"delta": [...]} per event
    "embed2d": {int: ({"points": [POINT], "labels": [INT], "prototypes": {int: POINT},
                       "compensation": {int: POINT}, "true_means": {int: POINT}},
                      lambda e: e["compensation"].keys() <= e["prototypes"].keys(),
                      "a capture whose compensated classes all have prototypes")},
    "param_digest": {int: (lambda v: isinstance(v, str), "a string")},
    "wall_time": NUMBER,
    "config": {},
}
REQUIRED = ("method", "seed", "n_tasks", "task_classes", "accuracy")


def _check(shape, value, where: str):
    """``value`` as ``shape`` declares it (maps keyed by ints), or a ValueError at ``where``."""
    name = f"field {where!r}" if where.isidentifier() else where
    if isinstance(shape, tuple):
        value = _check(shape[0], value, where) if len(shape) == 3 else value
        if not shape[-2](value):
            shown = "" if isinstance(value, (list, dict)) else f" {json.dumps(value)},"
            raise ValueError(f"{name} is{shown} not {shape[-1]}")
        return value
    if not isinstance(value, type(shape)):
        raise ValueError(f"{name} is not {'a list' if type(shape) is list else 'an object'}")
    if type(shape) is list:
        return [_check(shape[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if int in shape:
        if not all(k.isdecimal() for k in value):
            raise ValueError(f"{name} has a key that is not a whole number")
        return {int(k): _check(shape[int], v, f"{where}[{k}]") for k, v in value.items()}
    if missing := [key for key in shape if key not in value]:
        raise ValueError(f"{name} has no {missing[0]!r}")
    return value | {key: _check(s, value[key], f"{where}.{key}") for key, s in shape.items()}


@dataclass
class RunRecord:
    method: str
    seed: int
    n_tasks: int
    task_classes: list[list[int]]
    accuracy: dict = field(default_factory=dict)  # {k: {j: acc}}
    proto_distance: dict = field(default_factory=dict)  # {k: {class: dist}}
    confusions: dict = field(default_factory=dict)  # {k: {"classes": [...], "counts": [[...]]}}
    sdc_events: dict = field(default_factory=dict)  # {k: {class: _sdc_event scalars}}
    embed2d: dict = field(default_factory=dict)  # {k: plotting payload}, 2-d runs only
    param_digest: dict = field(default_factory=dict)  # {k: sha256 of all params}
    wall_time: float = 0.0
    config: dict = field(default_factory=dict)

    def set_acc(self, k: int, j: int, value):  # a number, or a numeric string as in a CSV
        value = float(value) if isinstance(value, str) else value
        if not NUMBER[0](value):  # null, a list or an object
            raise ValueError(f"accuracy cell a[{k}][{j}] is {json.dumps(value)}, not a number")
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
                record.set_acc(int(k), int(j), v)
            except ValueError as e:
                raise ValueError(f"line {n} {line!r}: {e}") from None
        record.n_tasks = max(record.accuracy)
        if record.n_tasks > len(lines) - 1:  # compare sizes its table by n_tasks
            raise ValueError(f"task {record.n_tasks} exceeds the {len(lines) - 1} "
                             f"cell(s) held; row {record.n_tasks} cannot be complete")
        return record

    def json_pieces(self):
        """The text of ``record.json`` in pieces (see ``json_pieces``)."""
        return json_pieces({f.name: getattr(self, f.name) for f in fields(self)})

    def to_json(self) -> str:
        return "".join(self.json_pieces())

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """A ``record.json`` text, checked by RECORD and, cell by cell, ``set_acc``."""
        raw = json.loads(text)
        if missing := [n for n in REQUIRED if not isinstance(raw, dict) or n not in raw]:
            raise ValueError(f"missing field {missing[0]!r}")
        values = {n: _check(shape, raw[n], n) for n, shape in RECORD.items() if n in raw}
        rec = cls(**values | {"accuracy": {}})
        for k, row in values["accuracy"].items():
            for j, a in row.items():
                rec.set_acc(k, j, a)
        return rec


def avg_incremental_accuracy(record: RunRecord, k: int) -> float:
    """A_k: mean over tasks 1..k of a[k][j]."""
    row = record.accuracy.get(k, {})
    if len(row) < k:  # set_acc keeps each j in 1..k, so a full row holds k cells
        raise ValueError(f"row {k} incomplete: missing tasks ({len(row)} of {k} held)")
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


def _digest(model) -> str:
    h = hashlib.sha256()
    for p in model.params:
        h.update(p.data)
    return h.hexdigest()


def train_task(model, task_data: LabeledDataset, config: MethodConfig, rng,
               penalty=None) -> None:
    """One task's training loop, for either kind of net.

    An embedding net steps every parameter on the mined-triplet loss; a
    batch with no triplet is skipped. A softmax net steps its trunk and
    newest head on cross-entropy over that head, so older heads get no
    gradient. Each batch adds gamma times ``penalty(xb)``, the method's
    regularizer on the batch's inputs, when a penalty is given. Raises
    TrainingError on empty data, if a loss is NaN or inf, or if no batch
    in any epoch yields a loss.
    """
    n = len(task_data.labels)
    if n == 0:
        raise TrainingError("task has no training data")
    labels = task_data.labels
    if model.kind == "embedding":
        params = model.params

        def batch_loss(xb, yb):
            z = model.embed(xb)
            trip = mine_triplets(yb, z, config.mining, config.margin, rng=rng)
            return triplet_loss(z, trip) if len(trip) else None
    else:
        w, b, classes = model.heads[-1]
        local = {c: i for i, c in enumerate(classes)}
        labels = np.array([local[c] for c in labels])  # head-local, made once
        params = [*model.trunk, w, b]

        def batch_loss(xb, yb):
            return softmax_cross_entropy(model.head_logits(xb, -1), yb)
    opt = Adam(params, lr=config.lr)  # fresh state every task
    trained = False
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for i in range(0, n, config.batch_size):
            idx = order[i : i + config.batch_size]
            xb = task_data.features[idx]
            loss = batch_loss(xb, labels[idx])
            if loss is None:
                continue
            trained = True
            if penalty is not None:
                loss = loss + Tensor(config.gamma) * penalty(xb)
            if not np.isfinite(loss.data):
                raise TrainingError(f"non-finite loss {loss.item()} in epoch {epoch}")
            opt.step(loss)
    if not trained:
        raise TrainingError(
            "no batch produced a valid triplet; check class mix and batch size"
        )


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
        record.proto_distance[k] = {c: float(np.linalg.norm(v - means[c]))
                                    for c, v in zip(book.ids.tolist(), book.vectors)
                                    if c in means}
    for task, hit in zip(tasks_seen, np.split(pred == y, ends[:-1])):
        record.set_acc(k, task.index, float(np.mean(hit)))
    seen = np.array(sorted(c for t in tasks_seen for c in t.classes))
    n = len(seen)
    cells = np.searchsorted(seen, y) * n + np.searchsorted(seen, pred)
    counts = np.bincount(cells, minlength=n * n).reshape(n, n)
    record.confusions[k] = {"classes": seen.tolist(), "counts": counts.tolist()}
    _capture_2d(model, book, tasks_seen[0], record, k, z, means)
    return means


def _sdc_event(delta, mass: float, nearest: float, before, after) -> dict:
    """Scalars that explain one class's compensation at a checkpoint: the
    applied drift ``delta``, its kernel reach (``mass`` below WEIGHT_FLOOR
    is a fallback: the prototype stayed in place), and how it compares
    with the true change, the shift of the class's test-embedding mean
    from the previous checkpoint (``before``) to this one (``after``).
    ``before`` or ``after`` is None for a class without test rows, and
    the true change's three fields are then None. The cosine is also None
    where either norm is 0."""
    delta_norm = float(np.linalg.norm(delta))
    event = {"delta_norm": delta_norm, "mass": mass, "nearest": nearest,
             "fallback": bool(mass < WEIGHT_FLOOR), "true_norm": None, "error_norm": None,
             "cosine": None}
    if before is not None and after is not None:
        true = after - before
        true_norm = float(np.linalg.norm(true))
        event["true_norm"] = true_norm
        event["error_norm"] = float(np.linalg.norm(true - delta))
        if true_norm > 0 and delta_norm > 0:
            event["cosine"] = float(true @ delta) / (true_norm * delta_norm)
    return event


def _capture_2d(model, book, task1: Task, record, k, z, means):
    """Keep task-1 test embeddings (``z``'s leading rows) and prototype state."""
    if z is None or z.shape[1] != 2 or model.kind != "embedding":
        return
    record.embed2d[k] = {
        "points": z[: len(task1.test.labels)].tolist(),
        "labels": task1.test.labels.tolist(),
        "prototypes": dict(zip(book.ids.tolist(), book.vectors.tolist())),
        "compensation": dict(zip(book.ids.tolist(), book.compensation.tolist())),
        "true_means": {c: means[c].tolist() for c in task1.classes if c in means},
    }


def run_sequence(config: MethodConfig, sequence: TaskSequence) -> RunRecord:
    """Drive one method over the whole task sequence; returns the filled RunRecord.

    Every method runs the same loop: an optional pretraining stage, then
    per task training, prototypes, drift compensation, importance, the
    next task's penalty (gamma > 0) and evaluation, after which each compensated
    class gets its ``_sdc_event`` diagnostics. The method's ``METHOD_SPECS``
    row sets the net, what NCM classifies (or the heads), which tasks
    train it, its pretraining and its regularizer. A net pretrained on the
    union of all tasks (Joint) is evaluated only after the last task.
    """
    start = time.perf_counter()
    record = RunRecord(
        method=config.method, seed=config.seed, n_tasks=len(sequence),
        task_classes=[list(t.classes) for t in sequence.tasks], config=config.to_dict(),
    )
    rng = np.random.default_rng([config.seed, 101])
    spec = METHOD_SPECS[config.method]
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
    penalty = None  # the regularizer against the last snapshot
    total = None  # running sum of the E-EWC/E-MAS maps, in task order
    means: dict = {}  # class -> test-embedding mean at the last checkpoint
    for task in sequence.tasks:
        t = task.index
        trains = spec.trains_through is None or t <= spec.trains_through
        sdc = config.sdc and t > 1
        # SDC's evidence: the task's rows under the model before it trains
        old_z = embed(task.train.features) if sdc and trains else None
        if spec.net is GrowingSoftmaxNet:
            model.add_head(task.classes)
        if trains:
            train_task(model, task.train, config, rng, penalty=penalty)

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
                total = new if total is None else total.add(new)
                del new  # the task's map lives on only in the sum
            if config.gamma > 0:  # the next task's penalty, against this snapshot
                snap = snapshot(model)  # both regularizers are looked up when called
                penalty = ((lambda xb: lwf_align_loss(model, snap, xb))
                           if spec.regularizer == "lwf"
                           else (lambda xb: quadratic_penalty(model, snap, total)))

        if spec.pretrain == "union" and t < len(sequence):  # trained on later tasks
            continue
        record.param_digest[t] = _digest(model)
        before = means
        means = _embedding_eval(model, book, sequence, record, t, embed)
        if moves is not None:
            ids, delta, mass, nearest = moves
            record.sdc_events[t] = {
                c: _sdc_event(d, m, n, before.get(c), means.get(c))
                for c, d, m, n in zip(ids.tolist(), delta, mass.tolist(), nearest.tolist())}

    record.wall_time = time.perf_counter() - start
    return record
