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

from .data import LabeledDataset
from .losses import (
    FISHER_VARIANTS,
    MINING_STRATEGIES,
    ImportanceMap,
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


@dataclass
class Task:
    index: int  # 1-based position in the sequence
    classes: tuple[int, ...]
    train: LabeledDataset
    test: LabeledDataset


@dataclass
class TaskSequence:
    tasks: list[Task]
    pretrain: LabeledDataset | None = None  # held-out classes for E-Pre-substitute

    def __post_init__(self):
        seen: set[int] = set()
        for t in self.tasks:
            overlap = seen & set(t.classes)
            if overlap:
                raise ValueError(f"classes {sorted(overlap)} appear in two tasks")
            seen |= set(t.classes)

    def __len__(self):
        return len(self.tasks)

    @property
    def input_dim(self) -> int:
        return self.tasks[0].train.features.shape[1]


def split_tasks(dataset: LabeledDataset, n_tasks: int, first_task_fraction=None,
                seed: int = 0, test: LabeledDataset | None = None,
                test_fraction: float = 0.2) -> TaskSequence:
    """Partition classes into disjoint tasks with a seeded random order.

    The first task optionally takes ``first_task_fraction`` of the classes;
    the rest must divide evenly over the remaining tasks. With no separate
    ``test`` set, ``test_fraction`` of each class is held out (seeded).
    A task with no test rows (an explicit ``test`` set that lacks all of
    its classes) is a ValueError, and so is ``n_tasks`` below 1, or below 2
    with a ``first_task_fraction``.
    """
    least = 2 if first_task_fraction else 1
    if n_tasks < least:
        raise ValueError(f"n_tasks must be at least {least}, got {n_tasks}")
    classes = np.unique(dataset.labels)
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
        groups = [tuple(order[:n_first])]
        groups += [tuple(order[n_first + i * per : n_first + (i + 1) * per])
                   for i in range(n_tasks - 1)]
    else:
        if len(classes) % n_tasks:
            raise ValueError(f"{len(classes)} classes do not divide into {n_tasks} tasks")
        per = len(classes) // n_tasks
        groups = [tuple(order[i * per : (i + 1) * per]) for i in range(n_tasks)]

    if test is None:
        train_idx, test_idx = [], []
        for c in classes:
            rows = np.flatnonzero(dataset.labels == c)
            rows = rows[rng.permutation(len(rows))]
            cut = max(1, int(round(test_fraction * len(rows))))
            if cut >= len(rows):
                raise ValueError(f"class {int(c)} has {len(rows)} rows; holding out "
                                 f"{cut} for testing leaves none for training")
            test_idx.extend(rows[:cut])
            train_idx.extend(rows[cut:])
        sources = ((dataset, np.sort(train_idx)), (dataset, np.sort(test_idx)))
    else:
        sources = ((dataset, np.arange(len(dataset.labels))),
                   (test, np.arange(len(test.labels))))

    tasks = []
    for i, group in enumerate(groups, start=1):
        # each task's rows straight from the source, in row order
        train, test_rows = (src.subset(idx[np.isin(src.labels[idx], group)])
                            for src, idx in sources)
        ids = tuple(int(c) for c in group)
        if len(test_rows.labels) == 0:
            raise ValueError(f"task {i} (classes {list(ids)}) has no test rows")
        tasks.append(Task(index=i, classes=ids, train=train, test=test_rows))
    return TaskSequence(tasks)


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

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        # compact: with an indent CPython falls back to its pure-Python encoder
        return json.dumps(payload, default=_jsonable)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        raw = json.loads(text)
        for name in ("method", "seed", "n_tasks", "task_classes", "accuracy"):
            if not isinstance(raw, dict) or name not in raw:
                raise ValueError(f"missing field {name!r}")
        rec = cls(
            method=raw["method"], seed=raw["seed"], n_tasks=raw["n_tasks"],
            task_classes=[tuple(c) for c in raw["task_classes"]],
            wall_time=raw.get("wall_time", 0.0), config=raw.get("config", {}),
        )
        for k, row in raw["accuracy"].items():  # set_acc checks each cell, as compare does
            for j, a in row.items():
                rec.set_acc(int(k), int(j), float(a))
        rec.proto_distance = {int(k): {int(c): d for c, d in row.items()}
                              for k, row in raw.get("proto_distance", {}).items()}
        rec.confusions = {int(k): v for k, v in raw.get("confusions", {}).items()}
        rec.sdc_events = {int(k): {int(c): e for c, e in row.items()}
                          for k, row in raw.get("sdc_events", {}).items()}
        rec.embed2d = {int(k): v for k, v in raw.get("embed2d", {}).items()}
        rec.param_digest = {int(k): v for k, v in raw.get("param_digest", {}).items()}
        return rec


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


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
    opt.zero_grad()
    loss.backward()
    opt.step()


def train_task(model, task_data: LabeledDataset, config: MethodConfig, rng,
               snap=None, importance=None) -> None:
    """One task's training loop on an embedding model.

    Metric loss per batch, plus gamma times the method's regularizer
    against ``snap`` (the previous task's parameters, from
    ``models.snapshot``) when gamma > 0. Raises TrainingError if a loss is
    NaN or inf, or if no batch in any epoch yields a valid triplet.
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
                    reg = quadratic_penalty(model, snap, importance)
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


def _embedding_eval(model, book: PrototypeBook, tasks_seen: list[Task],
                    record: RunRecord, k: int, embed):
    """One pass over all seen test rows at checkpoint k (the forward and
    NCM each go ``INFER_ROWS`` rows at a time): fills row k and the
    confusion by NCM over ``book`` on ``embed``'s features, with
    prototype-to-true-mean distances and the 2-d capture, or by the heads
    when ``embed`` is None. Returns the means of the classes present."""
    x = np.concatenate([t.test.features for t in tasks_seen])
    y = np.concatenate([t.test.labels for t in tasks_seen])
    z, means = None, {}
    if embed is None:
        pred = model.predict_multihead(x)
    else:
        z = embed(x)
        pred = ncm_classify(z, book)
        means = compute_prototypes(z, y)
        record.proto_distance[k] = {
            c: float(np.linalg.norm(book.entries[c].vector - m)) for c, m in means.items()}
    ends = np.cumsum([len(t.test.labels) for t in tasks_seen])
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
        train_task(model, LabeledDataset(
            np.concatenate([t.train.features for t in sequence.tasks]),
            np.concatenate([t.train.labels for t in sequence.tasks]),
        ), config, rng)
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
            importance = None if total is None else ImportanceMap(
                total.kind, tuple(w / n_maps for w in total.weights))
            train_task(model, task.train, config, rng, snap=snap, importance=importance)

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
        means = _embedding_eval(model, book, sequence.tasks[:t], record, t, embed)
        if moves is not None:
            record.sdc_events[t] = {c: _sdc_event(m, before.get(c), means.get(c))
                                    for c, m in moves.items()}

    record.book = book
    record.wall_time = time.perf_counter() - start
    return record
