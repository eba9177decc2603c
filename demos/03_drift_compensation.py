#!/usr/bin/env python3
"""Watch prototypes go stale when the embedding moves, then pull them
back with kernel-interpolated drift.

Two tasks on the digits set, embedded in 2-d so the geometry is easy to
draw. Task 1 trains and saves its prototypes; task 2 fine-tunes the
same net, which drags every embedding somewhere else. The saved task-1
prototypes now point at empty space. The drift of task-2 data between
the two model states is the only evidence available (task-1 data is
gone), and a gaussian-kernel average of that drift field at each stale
prototype estimates how far it should move.

Needs scikit-learn for the digits set: pip install driftlab[digits]
"""

import sys

import numpy as np

from driftlab.data import LabeledDataset
from driftlab.harness import MethodConfig, split_tasks, train_task
from driftlab.models import EmbeddingNet
from driftlab.prototypes import (
    KernelConfig,
    PrototypeBook,
    collect_drift,
    compensate,
    compute_prototypes,
    ncm_classify,
)
from driftlab.svgplot import embedding_figure

try:
    from sklearn.datasets import load_digits
except ImportError:
    sys.exit("this demo needs scikit-learn: pip install driftlab[digits]")

SEED = 6

bunch = load_digits()
data = LabeledDataset(bunch.data.astype(np.float64) / 16.0,
                      bunch.target.astype(np.int64))
sequence = split_tasks(data, 2, seed=SEED)
t1, t2 = sequence.tasks
print("task 1 classes:", t1.classes)
print("task 2 classes:", t2.classes)

rng = np.random.default_rng(SEED)
config = MethodConfig("E-FT", epochs=40, lr=1e-4, batch_size=64,
                      embedding_dim=2, hidden=(128,), mining="random")
model = EmbeddingNet(input_dim=64, embedding_dim=2, hidden=(128,), seed=SEED)

train_task(model, t1.train, config, rng)
book = PrototypeBook()
book.add_task(compute_prototypes(model.embed_np(t1.train.features),
                                 t1.train.labels), task_index=1)
# Task 2's rows under the task-1 model: SDC's only evidence of the drift.
before_task2 = model.embed_np(t2.train.features)

train_task(model, t2.train, config, rng)
z2 = model.embed_np(t2.train.features)
book.add_task(compute_prototypes(z2, t2.train.labels), task_index=2)

# How far did the saved task-1 prototypes fall from the classes' true
# means under the drifted model?
z1 = model.embed_np(t1.test.features)
def staleness(b):
    vectors = dict(zip(b.ids.tolist(), b.vectors))  # the book's rows by class id
    return {c: float(np.linalg.norm(vectors[c] - z1[t1.test.labels == c].mean(axis=0)))
            for c in t1.classes}

def accuracies(b):
    out = {}
    for t in (t1, t2):
        z = model.embed_np(t.test.features)
        out[t.index] = float(np.mean(ncm_classify(z, b) == t.test.labels))
    return out

err_stale = staleness(book)
acc_stale = accuracies(book)

# The drift field: where each task-2 training point sat under the
# task-1 model, and how far it moved. Task-1 prototypes get the
# kernel-weighted average of nearby displacements.
field = collect_drift(before_task2, z2)
compensate(book, field, KernelConfig(sigma=0.2), current_task=2)

err_comp = staleness(book)
acc_comp = accuracies(book)

print("\nmean task-1 prototype error:"
      f" {np.mean(list(err_stale.values())):.3f} stale ->"
      f" {np.mean(list(err_comp.values())):.3f} compensated")
print(f"task-1 accuracy: {acc_stale[1]:.3f} stale -> {acc_comp[1]:.3f} compensated")
print(f"task-2 accuracy: {acc_stale[2]:.3f} stale -> {acc_comp[2]:.3f} compensated")
print(f"mean accuracy:   {np.mean(list(acc_stale.values())):.3f} stale ->"
      f" {np.mean(list(acc_comp.values())):.3f} compensated")

# Draw the final state: dots are task-1 test points under the new model,
# circles the stale prototypes, triangles the corrected ones, stars the
# true means, dotted arrows the applied drift.
payload = {
    "points": z1.tolist(),
    "labels": t1.test.labels.tolist(),
    "prototypes": dict(zip(book.ids.tolist(), book.vectors.tolist())),
    "compensation": dict(zip(book.ids.tolist(), book.compensation.tolist())),
    "true_means": {c: z1[t1.test.labels == c].mean(axis=0).tolist()
                   for c in t1.classes},
}
with open("drift_compensation.svg", "w") as f:
    f.write(embedding_figure(payload, title="stale vs compensated prototypes"))
print("wrote drift_compensation.svg")
