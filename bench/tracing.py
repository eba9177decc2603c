"""Spans and work counters around driftlab's entry points.

The program carries no instrumentation of its own, so the traced run
replaces the entry points of each layer (package module) with wrappers
for the duration of one ``driftlab run`` and restores them afterwards.
A span records name, start, end and the span that was open when it
began; a layer's self time is its spans' duration minus the part their
child spans cover, so the self times of all spans add up to the time the
top-level spans cover. The rest of the run's wall time is the uncovered
share.

``svgplot`` is not wrapped: no workload renders figures.
"""

from __future__ import annotations

import contextlib
import logging
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import driftlab
from driftlab import cli, config, data, harness, losses, models, optim, prototypes, tensor

_MODULES = (driftlab, cli, config, data, harness, losses, models, optim, prototypes, tensor)

# (span name, owner, attribute). Module functions are replaced in every
# driftlab module that imported them by name. Underscored entry points are
# internals a refactor may remove; they are wrapped when present.
ENTRY_POINTS = (
    ("config.load", config, "load_config"),
    ("data.read", data, "read_csv_dataset"),
    ("harness.split", harness, "split_tasks"),
    ("harness.run", harness, "run_sequence"),
    ("harness.train", harness, "train_task"),
    ("harness.train", harness, "_train_softmax_task"),
    ("harness.eval", harness, "_embedding_eval"),
    ("harness.eval", harness, "_softmax_eval"),
    ("losses.mine", losses, "mine_triplets"),
    ("losses.triplet_loss", losses, "triplet_loss"),
    ("losses.regularizer", losses, "lwf_align_loss"),
    ("losses.regularizer", losses, "quadratic_penalty"),
    ("losses.importance", losses, "estimate_fisher"),
    ("losses.importance", losses, "estimate_mas_importance"),
    ("tensor.backward", tensor.Tensor, "backward"),
    ("optim.step", optim.Adam, "step"),
    ("models.embed", models.EmbeddingNet, "embed"),
    ("models.embed", models.GrowingSoftmaxNet, "head_logits"),
    ("models.embed_np", models.EmbeddingNet, "embed_np"),
    ("models.predict", models.GrowingSoftmaxNet, "predict_multihead"),
    ("prototypes.compute", prototypes, "compute_prototypes"),
    ("prototypes.ncm", prototypes, "ncm_classify"),
    ("prototypes.compensate", prototypes, "collect_drift"),
    ("prototypes.compensate", prototypes, "compensate"),
    ("cli.serialize", harness.RunRecord, "to_json"),
    ("cli.serialize", harness.RunRecord, "a_matrix_csv"),
    ("cli.serialize", prototypes.PrototypeBook, "to_json"),
)

# A forward inside embed_np is inference, part of the embed_np span.
_INFERENCE = {"models.embed_np"}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def top(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def summary(self) -> tuple[dict, dict, float]:
        """(self seconds by span name, calls by span name, seconds the
        top-level spans cover)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0:
                covered += end - start
        return dict(self_s), dict(calls), covered


def _hinge_active(embeddings, triplets) -> int:
    """Triples whose hinge d_pos - d_neg + margin is positive."""
    z = embeddings.data
    d_pos = np.linalg.norm(z[triplets.anchors] - z[triplets.positives], axis=1)
    d_neg = np.linalg.norm(z[triplets.anchors] - z[triplets.negatives], axis=1)
    return int(np.sum(d_pos - d_neg + triplets.margin > 0))


def _count_mined(counts, out, args, kwargs):
    counts["losses.triplets_mined"] += len(out)
    counts["losses.empty_batches"] += len(out) == 0


def _count_scored(counts, out, args, kwargs):
    z = args[0] if args else kwargs["embeddings"]
    trip = args[1] if len(args) > 1 else kwargs["triplets"]
    if len(trip):
        counts["losses.triplets_scored"] += len(trip)
        counts["losses.triplets_active"] += _hinge_active(z, trip)


_COUNTERS = {"losses.mine": _count_mined, "losses.triplet_loss": _count_scored}


def _spanned(tracer: Tracer, name: str, fn):
    count = _COUNTERS.get(name)

    def wrapper(*args, **kwargs):
        if name == "models.embed" and tracer.top() in _INFERENCE:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:  # its own span, so no layer's self time holds it
            index = tracer.open("trace.bookkeeping")
            try:
                count(tracer.counts, out, args, kwargs)
            finally:
                tracer.close(index)
        return out

    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


class _FallbackCounter(logging.Handler):
    """Counts the degenerate-kernel warnings ``interpolate_drift`` logs."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if "degenerate kernel" in record.msg:
            self.tracer.counts["prototypes.kernel_fallbacks"] += 1


def _bindings(obj) -> list[tuple[object, str]]:
    """Every (driftlab module, name) bound to ``obj``."""
    return [(m, k) for m in _MODULES for k, v in vars(m).items() if v is obj]


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.attr = new`` for each triple; restore on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every entry point in ENTRY_POINTS for the duration of the block."""
    repl = []
    for name, owner, attr in ENTRY_POINTS:
        if attr not in vars(owner):
            if attr.startswith("_"):
                print(f"trace: {owner.__name__}.{attr} not found, not traced",
                      file=sys.stderr)
                continue
            raise AttributeError(f"entry point {owner.__name__}.{attr} is gone")
        fn = vars(owner)[attr]
        wrapper = _spanned(tracer, name, fn)
        if isinstance(owner, type):
            repl.append((owner, attr, wrapper))
        else:
            repl += [(m, k, wrapper) for m, k in _bindings(fn)]
    for cls in (models.EmbeddingNet, models.GrowingSoftmaxNet):
        repl.append((cls, "__init__", _counted(tracer, "models.nets_built",
                                                vars(cls)["__init__"])))

    class TracedPath(type(cli.Path())):
        def write_text(self, *args, **kwargs):
            index = tracer.open("cli.write")
            try:
                return super().write_text(*args, **kwargs)
            finally:
                tracer.close(index)

    repl.append((cli, "Path", TracedPath))
    log = logging.getLogger(prototypes.__name__)
    handler = _FallbackCounter(tracer)
    log.addHandler(handler)
    try:
        with patched(repl):
            yield tracer
    finally:
        log.removeHandler(handler)
