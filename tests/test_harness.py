import dataclasses
import hashlib
import inspect
import logging
import re
import tracemalloc
import warnings
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftlab
from conftest import allocated_bytes
from driftlab import harness
from driftlab.data import LabeledDataset, gen_gaussian_clusters
from driftlab.losses import ImportanceMap
from driftlab.harness import (
    MethodConfig,
    RunRecord,
    TrainingError,
    avg_forgetting,
    avg_incremental_accuracy,
    run_sequence,
    split_tasks,
    train_task,
)
from driftlab.models import EmbeddingNet, GrowingSoftmaxNet
from driftlab.harness import _digest, _embedding_eval
from driftlab.prototypes import WEIGHT_FLOOR, PrototypeBook, ncm_classify


def quick(method, **kw):
    base = dict(epochs=8, batch_size=16, lr=3e-3, embedding_dim=2,
                hidden=(32,), seed=0)
    base.update(kw)
    return MethodConfig(method, **base)


def tiny_sequence(n_classes=4, n_tasks=2, seed=0, per_class=30, dim=6):
    ds = gen_gaussian_clusters(n_classes, per_class, dim, spread=0.25, seed=seed)
    return split_tasks(ds, n_tasks, seed=seed)


def sequence_lacking_test_rows_of_one_class():
    """``tiny_sequence(6, 3)`` with no test rows for one class of task 1."""
    held = tiny_sequence(n_classes=6, n_tasks=3)
    gone = held.tasks[0].classes[0]
    # the same seed draws the same groups: only task 1's test rows change
    seq = split_tasks(held.train, 3, seed=0, test=held.test.subset(held.test.labels != gone))
    assert seq.tasks[0].classes == held.tasks[0].classes
    assert gone not in seq.tasks[0].test.labels
    return seq, gone


# ---- task splitting


def test_split_equal_partition():
    ds = gen_gaussian_clusters(10, 8, 3, 0.1, seed=0)
    seq = split_tasks(ds, 5, seed=0)
    assert len(seq) == 5
    assert all(len(t.classes) == 2 for t in seq.tasks)
    all_classes = [c for t in seq.tasks for c in t.classes]
    assert sorted(all_classes) == list(range(10))


def test_split_large_first_task():
    ds = gen_gaussian_clusters(10, 8, 3, 0.1, seed=0)
    with pytest.raises(ValueError):
        split_tasks(ds, 5, first_task_fraction=0.5, seed=0)  # 5 left over 4 tasks
    seq = split_tasks(ds, 6, first_task_fraction=0.5, seed=0)
    assert [len(t.classes) for t in seq.tasks] == [5, 1, 1, 1, 1, 1]


def test_split_determinism_and_seed_sensitivity():
    ds = gen_gaussian_clusters(8, 10, 3, 0.1, seed=1)
    a = split_tasks(ds, 4, seed=7)
    b = split_tasks(ds, 4, seed=7)
    assert [t.classes for t in a.tasks] == [t.classes for t in b.tasks]
    for ta, tb in zip(a.tasks, b.tasks):
        assert np.array_equal(ta.train.features, tb.train.features)
        assert np.array_equal(ta.test.labels, tb.test.labels)
    c = split_tasks(ds, 4, seed=8)
    assert [t.classes for t in a.tasks] != [t.classes for t in c.tasks]


def test_split_too_many_tasks():
    ds = gen_gaussian_clusters(3, 5, 2, 0.1, seed=0)
    with pytest.raises(ValueError):
        split_tasks(ds, 4, seed=0)
    with pytest.raises(ValueError):
        split_tasks(ds, 2, seed=0)  # 3 classes over 2 tasks
    for n_tasks in (0, -1):
        with pytest.raises(ValueError, match=f"^n_tasks must be at least 1, got {n_tasks}$"):
            split_tasks(ds, n_tasks, seed=0)
    with pytest.raises(ValueError, match="^first_task_fraction needs n_tasks of at least 2$"):
        split_tasks(ds, 1, first_task_fraction=0.5, seed=0)


def test_split_with_explicit_test_set():
    train = gen_gaussian_clusters(4, 20, 3, 0.2, seed=2)
    test = gen_gaussian_clusters(4, 5, 3, 0.2, seed=3)
    seq = split_tasks(train, 2, seed=0, test=test)
    for t in seq.tasks:
        assert len(t.train.labels) == 40
        assert len(t.test.labels) == 10
        assert set(t.test.labels) == set(t.classes)
    # test_fraction is not read beside a test set, so no value of it is rejected
    bare = split_tasks(train, 2, seed=0, test=test, test_fraction=0.0)
    assert bare.test.labels.tobytes() == seq.test.labels.tobytes()


def test_split_holdout_fraction():
    ds = gen_gaussian_clusters(2, 20, 3, 0.2, seed=2)
    seq = split_tasks(ds, 2, seed=0, test_fraction=0.25)
    for t in seq.tasks:
        assert len(t.test.labels) == 5
        assert len(t.train.labels) == 15


def two_step_split(dataset, n_tasks, first_task_fraction=None, seed=0, test=None,
                   test_fraction=0.2):
    """split_tasks as it was written before it read each task's rows
    straight from the source: copy every train and test row first, then
    subset per task. The reference for the rows and their order."""
    classes = np.unique(dataset.labels)
    rng = np.random.default_rng(seed)
    order = rng.permutation(classes)
    if first_task_fraction:
        n_first = int(round(first_task_fraction * len(classes)))
        per = (len(classes) - n_first) // (n_tasks - 1)
        groups = [tuple(order[:n_first])]
        groups += [tuple(order[n_first + i * per : n_first + (i + 1) * per])
                   for i in range(n_tasks - 1)]
    else:
        per = len(classes) // n_tasks
        groups = [tuple(order[i * per : (i + 1) * per]) for i in range(n_tasks)]
    if test is None:
        train_idx, test_idx = [], []
        for c in classes:
            rows = np.flatnonzero(dataset.labels == c)
            rows = rows[rng.permutation(len(rows))]
            cut = max(1, int(round(test_fraction * len(rows))))
            test_idx.extend(rows[:cut])
            train_idx.extend(rows[cut:])
        train_ds = dataset.subset(np.array(sorted(train_idx)))
        test_ds = dataset.subset(np.array(sorted(test_idx)))
    else:
        train_ds, test_ds = dataset, test
    return [(tuple(int(c) for c in group),
             train_ds.subset(np.isin(train_ds.labels, group)),
             test_ds.subset(np.isin(test_ds.labels, group))) for group in groups]


@pytest.mark.parametrize("kwargs", [
    dict(n_tasks=4, seed=3), dict(n_tasks=4, seed=3, test_fraction=0.5),
    dict(n_tasks=3, seed=1, first_task_fraction=0.5), dict(n_tasks=2, seed=5, test=True),
])
def test_split_subsets_equal_the_two_step_copies(kwargs):
    ds = gen_gaussian_clusters(8, 25, 64, 0.3, seed=4)
    if kwargs.get("test"):
        kwargs = {**kwargs, "test": gen_gaussian_clusters(8, 6, 64, 0.3, seed=5)}
    seq = split_tasks(ds, **kwargs)
    want = two_step_split(ds, **kwargs)
    assert len(seq) == len(want)
    for task, (classes, train, test) in zip(seq.tasks, want):
        assert task.classes == classes
        for got, ref in ((task.train, train), (task.test, test)):
            assert got.features.tobytes() == ref.features.tobytes()
            assert got.labels.tobytes() == ref.labels.tobytes()
            assert got.original_labels == ref.original_labels
    # no full copy of the source before the per-task subsets
    assert allocated_bytes(lambda: split_tasks(ds, 4, seed=3)) < 1.25 * ds.features.nbytes


@pytest.mark.parametrize("key, value", [
    ("test_fraction", 0.0), ("test_fraction", -0.5), ("test_fraction", 1.0),
    ("test_fraction", float("nan")), ("first_task_fraction", 0.0),
    ("first_task_fraction", 1.5), ("first_task_fraction", float("nan")),
])
def test_split_rejects_a_fraction_outside_0_1(key, value):
    ds = gen_gaussian_clusters(4, 10, 3, 0.2, seed=0)
    message = f"{key} must be between 0 and 1 (exclusive), got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        split_tasks(ds, 2, seed=0, **{key: value})


def test_split_rejects_a_task_without_test_rows():
    ds = gen_gaussian_clusters(4, 10, 3, 0.2, seed=0)
    test = ds.subset(ds.labels == 0)  # every other class lacks test rows
    bare = next(t for t in split_tasks(ds, 2, seed=0, test=ds).tasks if 0 not in t.classes)
    message = f"task {bare.index} (classes {list(bare.classes)}) has no test rows"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        split_tasks(ds, 2, seed=0, test=test)


def _shuffled_clusters(n_classes, per_class, seed):
    ds = gen_gaussian_clusters(n_classes, per_class, 3, 0.3, seed=seed)
    return ds.subset(np.random.default_rng(seed).permutation(len(ds.labels)))


@pytest.mark.parametrize("explicit_test", [False, True])
@pytest.mark.parametrize("seed", [0, 5, 301])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_split_holds_out_the_highest_classes_for_pretraining(k, seed, explicit_test):
    """``pretrain_classes=k``: ``pretrain`` is every row of the k highest
    ids in source order, and the tasks and tables are byte for byte the
    split of the data without those classes."""
    ds = _shuffled_clusters(9, 7, seed)
    test = _shuffled_clusters(9, 3, seed + 1) if explicit_test else None
    seq = split_tasks(ds, 2, seed=seed, test=test, pretrain_classes=k)
    held = ds.labels >= 9 - k
    assert seq.pretrain.features.tobytes() == ds.features[held].tobytes()
    assert seq.pretrain.labels.tobytes() == ds.labels[held].tobytes()
    assert all(c < 9 - k for t in seq.tasks for c in t.classes)
    want = split_tasks(ds.subset(~held), 2, seed=seed, test=test)
    assert want.pretrain is None
    assert [t.classes for t in seq.tasks] == [t.classes for t in want.tasks]
    for got, ref in [(seq, want), *zip(seq.tasks, want.tasks)]:
        for name in ("train", "test"):
            for column in ("features", "labels"):
                assert (getattr(getattr(got, name), column).tobytes()
                        == getattr(getattr(ref, name), column).tobytes())


@pytest.mark.parametrize("k, message", [
    (4, "pretrain_classes = 4 leaves no task classes"),
    (-1, "pretrain_classes must be nonnegative, got -1"),
])
def test_split_rejects_a_pretrain_count_outside_the_classes(k, message):
    ds = gen_gaussian_clusters(4, 10, 3, 0.2, seed=0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        split_tasks(ds, 1, seed=0, pretrain_classes=k)


@settings(max_examples=40)
@given(n_tasks=st.integers(1, 4), per_task=st.integers(1, 3), n_first=st.integers(0, 3),
       per_class=st.integers(3, 9), test_fraction=st.floats(0.05, 0.6),
       explicit_test=st.booleans(), seed=st.integers(0, 2**16))
def test_split_rows_equal_the_two_step_copies_for_any_shape(n_tasks, per_task, n_first,
                                                            per_class, test_fraction,
                                                            explicit_test, seed):
    """Every task's rows, and their order, as the per-task ``subset`` of
    the whole split, over class counts, held-out fractions, first-task
    fractions and explicit test sets (one with a class no task has)."""
    n_first = n_first if n_tasks > 1 else 0
    n_classes = n_first + (n_tasks - (n_first > 0)) * per_task
    ds = _shuffled_clusters(n_classes, per_class, seed)
    test = _shuffled_clusters(n_classes + 1, 3, seed + 1) if explicit_test else None
    kwargs = dict(first_task_fraction=n_first / n_classes or None, seed=seed, test=test,
                  test_fraction=test_fraction)
    seq = split_tasks(ds, n_tasks, **kwargs)
    want = two_step_split(ds, n_tasks, **kwargs)
    assert [t.classes for t in seq.tasks] == [classes for classes, _, _ in want]
    for task, (_, train, test_rows) in zip(seq.tasks, want):
        for got, ref in ((task.train, train), (task.test, test_rows)):
            assert got.features.tobytes() == ref.features.tobytes()
            assert got.labels.tobytes() == ref.labels.tobytes()
    # the tasks' classes are disjoint and cover every class split
    split_classes = [c for t in seq.tasks for c in t.classes]
    assert sorted(split_classes) == np.unique(ds.labels).tolist()
    # the tasks' rows, concatenated, are the sequence's tables
    for name in ("train", "test"):
        table = getattr(seq, name)
        for column in ("features", "labels"):
            rows = np.concatenate([getattr(getattr(t, name), column) for t in seq.tasks])
            assert rows.tobytes() == getattr(table, column).tobytes()


@pytest.mark.parametrize("explicit_test", [False, True])
def test_split_tasks_are_read_only_views_of_one_table_per_split(explicit_test):
    ds = gen_gaussian_clusters(6, 10, 4, 0.3, seed=0)
    seq = split_tasks(ds, 3, seed=1, test=ds if explicit_test else None)
    for name in ("train", "test"):
        table = getattr(seq, name)
        rows = [getattr(t, name) for t in seq.tasks]
        assert np.concatenate([r.features for r in rows]).tobytes() == table.features.tobytes()
        for r in rows:
            assert np.shares_memory(r.features, table.features)
            assert np.shares_memory(r.labels, table.labels)
        # a write through one task's rows cannot reach another task's view
        with pytest.raises(ValueError, match="read-only"):
            rows[0].features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            rows[-1].labels[-1] = rows[0].labels[0]
    assert seq.input_dim == 4


# ---- method config


def test_config_validation():
    with pytest.raises(ValueError):
        MethodConfig("E-SGD")
    with pytest.raises(ValueError):
        MethodConfig("FT", sdc=True)
    with pytest.raises(ValueError):
        MethodConfig("Joint", sdc=True)
    with pytest.raises(ValueError):
        MethodConfig("E-FT", mining="hardest")
    for knob in ("renormalize_prototypes", "importance_mode", "weight_floor"):
        with pytest.raises(TypeError, match=knob):
            MethodConfig("E-EWC", **{knob: 1})


def test_config_gamma_defaults():
    assert MethodConfig("E-LwF").gamma == 1.0
    assert MethodConfig("E-EWC").gamma == 1e7
    assert MethodConfig("E-MAS").gamma == 1e6
    assert MethodConfig("E-FT").gamma == 0.0
    assert MethodConfig("FT", gamma=5.0).gamma == 0.0  # ignored
    assert MethodConfig("E-LwF", gamma=0.25).gamma == 0.25


def test_method_table_exports():
    assert driftlab.METHODS == ("E-FT", "E-LwF", "E-EWC", "E-MAS", "E-Fix",
                                "E-Pre-substitute", "Joint", "FT", "FT*")
    assert [(m, s.gamma) for m, s in harness.METHOD_SPECS.items() if s.regularizer] == [
        ("E-LwF", 1.0), ("E-EWC", 1e7), ("E-MAS", 1e6)]


@pytest.mark.parametrize("method", list(harness.METHOD_SPECS))
def test_method_table_rules(method):
    if method in ("FT", "FT*", "Joint"):
        with pytest.raises(ValueError, match="sdc is only valid"):
            MethodConfig(method, sdc=True)
    else:
        assert MethodConfig(method, sdc=True).sdc
    default = {"E-LwF": 1.0, "E-EWC": 1e7, "E-MAS": 1e6}.get(method, 0.0)
    assert MethodConfig(method).gamma == default
    assert MethodConfig(method, gamma=0.25).gamma == (0.25 if default else 0.0)


def test_readme_methods_table_names_every_method():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Methods\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    assert tuple(r.split("|")[1].strip() for r in rows[2:]) == driftlab.METHODS


def test_readme_record_table_names_every_record_field():
    """README's record.json table lists each RECORD field, in order, and
    marks exactly the REQUIRED ones as required."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### record.json\n", 1)[1].split("\n#", 1)[0]
    rows = [[c.strip() for c in line.split("|")[1:-1]]
            for line in section.splitlines() if line.startswith("| ")]
    assert tuple(r[0].strip("`") for r in rows[1:]) == tuple(harness.RECORD)
    assert tuple(r[0].strip("`") for r in rows[1:] if r[1] == "yes") == harness.REQUIRED


def test_readme_library_use_block_runs(capsys):
    """Every ``python`` block of README's "Library use" runs as written,
    each in its own scope: the first block's split_tasks, run_sequence and
    a_matrix_csv calls fill rows 1-3 of the matrix, and the second's SDC
    step moves the old classes by the kernel pass it prints."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("\n```", 1)[0] for b in section.split("```python\n")[1:]]
    assert len(blocks) == 2
    scopes = []
    for n, code in enumerate(blocks, start=1):
        scopes.append({})
        exec(compile(code, f"README.md, Library use, block {n}", "exec"), scopes[-1])
    out = capsys.readouterr().out
    record = scopes[0]["record"]
    assert {k: sorted(row) for k, row in record.accuracy.items()} == {
        1: [1], 2: [1, 2], 3: [1, 2, 3]}
    assert ("\n" + record.a_matrix_csv() + "\n") in out
    sdc = scopes[1]
    assert sdc["ids"].tolist() == [0, 1]
    assert sdc["delta"].tobytes() == sdc["drift"].tobytes()
    assert np.allclose(sdc["delta"], [0.1, -0.05], atol=1e-12)
    assert sdc["book"].compensation.tobytes() == np.concatenate(
        [sdc["drift"], [[0.0, 0.0]]]).tobytes()
    assert out.endswith(f"{sdc['ids']} {sdc['delta']}\n")


# ---- metrics against hand computation


def filled_record(matrix):
    rec = RunRecord(method="E-FT", seed=0, n_tasks=len(matrix), task_classes=[])
    for k, row in enumerate(matrix, start=1):
        for j, a in enumerate(row, start=1):
            rec.set_acc(k, j, a)
    return rec


def test_avg_accuracy_trivial_cases():
    rec = filled_record([[0.9], [0.8, 0.6]])
    assert avg_incremental_accuracy(rec, 1) == 0.9
    assert avg_incremental_accuracy(rec, 2) == pytest.approx(0.7)


def test_avg_accuracy_incomplete_row():
    rec = RunRecord(method="E-FT", seed=0, n_tasks=2, task_classes=[])
    rec.set_acc(2, 1, 0.5)
    with pytest.raises(ValueError, match="missing tasks"):
        avg_incremental_accuracy(rec, 2)


def test_forgetting_trivial_cases():
    rec = filled_record([[0.9], [0.5, 0.7]])
    assert avg_forgetting(rec, 2) == pytest.approx(0.4)
    flat = filled_record([[0.8], [0.8, 0.8], [0.8, 0.8, 0.8]])
    assert avg_forgetting(flat, 3) == 0.0
    with pytest.raises(ValueError):
        avg_forgetting(rec, 1)


def test_metrics_match_bruteforce_on_random_matrices(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        matrix = [[float(rng.uniform()) for _ in range(k + 1)] for k in range(n)]
        rec = filled_record(matrix)
        for k in range(1, n + 1):
            want = sum(matrix[k - 1][: k]) / k
            assert abs(avg_incremental_accuracy(rec, k) - want) < 1e-12
        for k in range(2, n + 1):
            total = 0.0
            for j in range(1, k):
                total += max(matrix[l - 1][j - 1] - matrix[k - 1][j - 1]
                             for l in range(j, k))
            assert abs(avg_forgetting(rec, k) - total / (k - 1)) < 1e-12


def test_record_bounds_and_triangularity():
    rec = RunRecord(method="E-FT", seed=0, n_tasks=2, task_classes=[])
    with pytest.raises(ValueError):
        rec.set_acc(1, 1, 1.2)
    with pytest.raises(ValueError):
        rec.set_acc(1, 2, 0.5)


def test_record_csv_and_json_round_trip():
    rec = filled_record([[0.875], [0.625, 1.0 / 3.0]])
    csv = rec.a_matrix_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "k,j,accuracy"
    assert lines[1] == "1,1,0.875"
    assert lines[3] == f"2,2,{1.0 / 3.0!r}"

    rec.proto_distance[1] = {0: 0.01}
    rec.sdc_events[2] = {0: {"delta": [0.1, 0.2]}}
    rec.param_digest[1] = "ab" * 32
    back = RunRecord.from_json(rec.to_json())
    assert back.accuracy == rec.accuracy
    assert back.proto_distance == {1: {0: 0.01}}
    assert back.sdc_events[2][0]["delta"] == [0.1, 0.2]
    assert back.param_digest == rec.param_digest
    assert back.a_matrix_csv() == csv


def test_record_json_round_trip_keeps_every_field_of_a_run():
    """A 2-d SDC run's record.json loads back with every field equal: int
    keys for checkpoints and classes, lists for JSON arrays."""
    rec = run_sequence(quick("E-FT", sdc=True, epochs=3), tiny_sequence())
    assert rec.embed2d and rec.sdc_events
    back = RunRecord.from_json(rec.to_json())
    for f in fields(RunRecord):
        assert getattr(back, f.name) == getattr(rec, f.name), f.name


def test_record_json_round_trip_sets_every_field():
    """Each RunRecord field, set away from its default, reads back through
    to_json and from_json: a field that from_json does not read fails here."""
    values = {
        "method": "E-FT", "seed": 3, "n_tasks": 2, "task_classes": [[0, 1], [2, 3]],
        "accuracy": {1: {1: 0.5}, 2: {1: 0.25, 2: 1.0}}, "proto_distance": {1: {0: 0.01}},
        "confusions": {1: {"classes": [0, 1], "counts": [[2, 0], [1, 1]]}},
        "sdc_events": {2: {0: {"delta_norm": 0.1, "cosine": None}}},
        "embed2d": {1: {"points": [[0.0, 1.0]], "labels": [0], "prototypes": {0: [0.5, 0.5]},
                        "compensation": {0: [0.0, 0.1]}, "true_means": {0: [0.4, 0.6]}}},
        "param_digest": {1: "ab" * 32}, "wall_time": 1.5, "config": {"sdc": True},
    }
    assert list(values) == [f.name for f in fields(RunRecord)] == list(harness.RECORD)
    bare = RunRecord("E-FT", 0, 1, [])
    assert all(values[n] != getattr(bare, n) for n in values if n not in harness.REQUIRED)
    rec = RunRecord(**values)
    assert RunRecord.from_json(rec.to_json()) == rec


@pytest.mark.parametrize("table", ["train", "test"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_rejects_a_table_out_of_task_order(table, seed):
    """A hand-made TaskSequence whose table does not lead with its tasks'
    rows is a named ValueError, not a wrong accuracy or a numpy error."""
    seq = split_tasks(gen_gaussian_clusters(4, 10, 3, 0.25, seed=0), 2, seed=0)
    rows = getattr(seq, table)
    shuffled = rows.subset(np.random.default_rng(seed).permutation(len(rows.labels)))
    assert not np.array_equal(shuffled.labels, rows.labels)
    with pytest.raises(ValueError, match=f"^sequence.{table} is not in task order"):
        run_sequence(quick("E-FT", epochs=1), dataclasses.replace(seq, **{table: shuffled}))
    assert run_sequence(quick("E-FT", epochs=1), seq).accuracy[2]


# ---- end-to-end runs on synthetic clusters


def test_single_task_sequence():
    seq = tiny_sequence(n_classes=2, n_tasks=1)
    rec = run_sequence(quick("E-FT", sdc=True), seq)
    assert set(rec.accuracy) == {1}
    assert set(rec.accuracy[1]) == {1}
    assert rec.sdc_events == {}
    assert 0.0 <= rec.accuracy[1][1] <= 1.0


def test_two_task_run_fills_triangle():
    seq = tiny_sequence()
    rec = run_sequence(quick("E-FT"), seq)
    assert set(rec.accuracy) == {1, 2}
    assert set(rec.accuracy[2]) == {1, 2}
    assert rec.wall_time > 0
    ids = rec.confusions[2]["classes"]
    counts = np.asarray(rec.confusions[2]["counts"])
    assert counts.sum() == sum(len(t.test.labels) for t in seq.tasks)
    # row sums = per-class test counts
    for i, c in enumerate(ids):
        n_c = sum(np.sum(t.test.labels == c) for t in seq.tasks)
        assert counts[i].sum() == n_c
    # trace/total equals overall accuracy
    total = counts.sum()
    pooled = sum(rec.accuracy[2][t.index] * len(t.test.labels) for t in seq.tasks)
    assert abs(np.trace(counts) / total - pooled / total) < 1e-12


def test_confusion_counts_match_per_sample_loop(rng):
    """Class ids out of order and with gaps; each row counts its class."""
    y = rng.choice([7, 2, 5, 11, 0], size=80)
    data = LabeledDataset(rng.normal(size=(80, 3)), y)
    seq = split_tasks(data, 2, first_task_fraction=0.4, seed=0, test=data)
    tasks = seq.tasks
    assert [len(t.classes) for t in tasks] == [2, 3]
    book = PrototypeBook()
    for t in tasks:
        book.add_task({c: rng.normal(size=3) for c in t.classes}, task_index=t.index)
    rec = RunRecord("E-FT", 0, 2, [t.classes for t in tasks])
    _embedding_eval(None, book, seq, rec, 2, embed=lambda x: x)

    ids = [0, 2, 5, 7, 11]
    want = np.zeros((5, 5), dtype=int)
    for t in tasks:
        for true, p in zip(t.test.labels, ncm_classify(t.test.features, book)):
            want[ids.index(true), ids.index(p)] += 1
    assert rec.confusions[2] == {"classes": ids, "counts": want.tolist()}
    assert want.sum() == 80 and len(set(want.ravel())) > 2


@pytest.mark.parametrize("method, cls, forward", [
    ("E-FT", EmbeddingNet, "embed_np"),
    ("FT*", GrowingSoftmaxNet, "features_np"),
    ("FT", GrowingSoftmaxNet, "predict_multihead"),
])
def test_one_forward_per_checkpoint_and_none_for_2d_capture(monkeypatch, method, cls,
                                                            forward):
    rows = []  # row count of each forward call
    inner = getattr(cls, forward)
    monkeypatch.setattr(cls, forward, lambda self, x: rows.append(len(x)) or inner(self, x))
    calls = {}  # phase -> forward calls made inside each of its calls
    for phase in ("_embedding_eval", "_capture_2d"):
        def counted(*args, _fn=getattr(harness, phase), _phase=phase):
            before = len(rows)
            out = _fn(*args)
            calls.setdefault(_phase, []).append(rows[before:])
            return out
        monkeypatch.setattr(harness, phase, counted)
    seq = tiny_sequence(n_classes=6, n_tasks=3)
    rec = run_sequence(quick(method, epochs=2), seq)
    seen = np.cumsum([len(t.test.labels) for t in seq.tasks])
    assert calls["_embedding_eval"] == [[n] for n in seen]
    assert calls["_capture_2d"] == [[], [], []]
    assert set(rec.embed2d) == ({1, 2, 3} if method == "E-FT" else set())


def test_true_means_match_per_task_reference(monkeypatch):
    """proto_distance and the embed2d true means equal, byte for byte, a
    per-task reference; a seen class with no test rows has no entry and
    raises no warning."""
    seq, gone = sequence_lacking_test_rows_of_one_class()
    t1 = seq.tasks[0]
    refs = {}
    inner = harness._embedding_eval

    def reference(model, book, sequence, record, k, embed):
        # one forward over all rows, as a row's last bit can depend on its
        # position in the BLAS call; the means are then taken task by task
        tasks_seen = sequence.tasks[:k]
        z_all = model.embed_np(np.concatenate([t.test.features for t in tasks_seen]))
        dists, means, at = {}, {}, 0
        for task in tasks_seen:
            y = task.test.labels
            z, at = z_all[at : at + len(y)], at + len(y)
            for c in task.classes:
                if c != gone:
                    means[c] = z[y == c].mean(axis=0)
                    row = np.searchsorted(book.ids, c)
                    dists[c] = float(np.linalg.norm(book.vectors[row] - means[c]))
        refs[k] = dists, means, z_all[: len(t1.test.labels)]
        return inner(model, book, sequence, record, k, embed)

    monkeypatch.setattr(harness, "_embedding_eval", reference)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run_sequence(quick("E-FT", sdc=True, epochs=2), seq)
    assert sorted(refs) == [1, 2, 3]
    for k, (dists, means, points) in refs.items():
        assert rec.proto_distance[k] == dists
        assert gone not in rec.proto_distance[k]
        got = rec.embed2d[k]
        assert sorted(got["true_means"]) == sorted(c for c in t1.classes if c != gone)
        for c, mean in got["true_means"].items():
            assert np.array(mean).tobytes() == means[c].tobytes()
        assert np.array(got["points"]).tobytes() == points.tobytes()


def test_joint_fills_final_row_only():
    seq = tiny_sequence(n_classes=4, n_tasks=2)
    rec = run_sequence(quick("Joint"), seq)
    assert set(rec.accuracy) == {2}
    assert set(rec.accuracy[2]) == {1, 2}


def test_determinism_same_seed_same_record():
    seq = tiny_sequence()
    a = run_sequence(quick("E-LwF", sdc=True), seq)
    b = run_sequence(quick("E-LwF", sdc=True), seq)
    assert a.a_matrix_csv() == b.a_matrix_csv()
    assert a.param_digest == b.param_digest
    assert a.proto_distance == b.proto_distance


def test_row_one_ignores_sdc_and_gamma():
    seq = tiny_sequence()
    plain = run_sequence(quick("E-FT"), seq)
    with_sdc = run_sequence(quick("E-FT", sdc=True), seq)
    lwf = run_sequence(quick("E-LwF", gamma=3.0), seq)
    assert plain.accuracy[1][1] == with_sdc.accuracy[1][1] == lwf.accuracy[1][1]
    assert plain.param_digest[1] == with_sdc.param_digest[1] == lwf.param_digest[1]


def test_gamma_zero_equals_plain_finetuning():
    seq = tiny_sequence()
    eft = run_sequence(quick("E-FT"), seq)
    lwf0 = run_sequence(quick("E-LwF", gamma=0.0), seq)
    ewc0 = run_sequence(quick("E-EWC", gamma=0.0), seq)
    assert eft.param_digest == lwf0.param_digest == ewc0.param_digest
    assert eft.a_matrix_csv() == lwf0.a_matrix_csv() == ewc0.a_matrix_csv()


def step_in_three_calls(self, loss):
    """Reference for ``Adam.step``: zeroed ``grad`` buffers, a plain
    backward into them, then the textbook update of every parameter."""
    for p in self.params:
        p.grad = np.zeros_like(p.data)
    loss.backward()
    self.t += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
    for p, m, v in zip(self.params, self.m, self.v):
        m[...] = b1 * m + (1.0 - b1) * p.grad
        v[...] = b2 * v + (1.0 - b2) * p.grad * p.grad
        p.data[...] = p.data - self.lr * (m / c1) / (np.sqrt(v / c2) + eps)


@pytest.mark.parametrize("method", ["E-FT", "E-LwF", "E-EWC", "E-MAS", "FT"])
def test_step_inside_backward_gives_the_bytes_of_three_calls(monkeypatch, method):
    """Updating each parameter inside the backward pass steps every
    parameter as zeroed ``grad`` buffers, backward and step did, over several tasks and
    epochs: E-LwF reads each parameter from two dense nodes, E-EWC and
    E-MAS from a dense node and the penalty, and FT's older heads get no
    gradient."""
    seq = tiny_sequence(n_classes=6, n_tasks=3)
    fused = run_sequence(quick(method, epochs=3), seq)
    monkeypatch.setattr(harness.Adam, "step", step_in_three_calls)
    three = run_sequence(quick(method, epochs=3), seq)
    assert fused.param_digest == three.param_digest
    assert fused.a_matrix_csv() == three.a_matrix_csv()


@pytest.mark.parametrize("method", ["E-FT", "FT"])
def test_training_leaves_no_gradient_buffers(method):
    seq = tiny_sequence()
    config = quick(method, epochs=2)
    if method == "FT":
        model = GrowingSoftmaxNet(6, 2, hidden=(32,), seed=0)
        model.add_head(seq.tasks[0].classes)
        train_task(model, seq.tasks[0].train, config, np.random.default_rng(0))
    else:
        model = EmbeddingNet(6, 2, hidden=(32,), seed=0)
        train_task(model, seq.tasks[0].train, config, np.random.default_rng(0))
    assert all(p.grad is None for p in model.params)


@pytest.mark.parametrize("method, estimator", [
    ("E-EWC", "estimate_fisher"), ("E-MAS", "estimate_mas_importance")])
def test_importance_skipped_after_last_task(monkeypatch, method, estimator):
    import driftlab.harness as H

    calls = []
    inner = getattr(H, estimator)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(H, estimator, counted)
    seq = tiny_sequence(n_classes=6, n_tasks=3)
    rec = run_sequence(quick(method, epochs=2), seq)
    assert len(calls) == len(seq) - 1
    assert sorted(rec.accuracy) == [1, 2, 3]


def test_ewc_fisher_scores_the_run_margin(monkeypatch):
    margins = []
    inner = harness.estimate_fisher

    def spy(*args, **kwargs):
        bound = inspect.signature(inner).bind(*args, **kwargs)
        bound.apply_defaults()
        margins.append(bound.arguments["margin"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(harness, "estimate_fisher", spy)
    run_sequence(quick("E-EWC", epochs=2, margin=0.5), tiny_sequence(n_classes=6, n_tasks=3))
    assert margins == [0.5, 0.5]


def test_efix_frozen_after_first_task():
    seq = tiny_sequence(n_classes=6, n_tasks=3)
    rec = run_sequence(quick("E-Fix"), seq)
    assert rec.param_digest[1] == rec.param_digest[2] == rec.param_digest[3]
    # frozen model, unmoved prototypes: each class's distance is constant
    per_class: dict = {}
    for row in rec.proto_distance.values():
        for c, d in row.items():
            per_class.setdefault(c, []).append(d)
    assert sorted(per_class) == sorted(c for t in seq.tasks for c in t.classes)
    for ds in per_class.values():
        assert max(ds) - min(ds) < 1e-15


def test_sdc_events_only_for_old_classes():
    seq = tiny_sequence()
    rec = run_sequence(quick("E-FT", sdc=True), seq)
    assert set(rec.sdc_events) == {2}
    assert set(rec.sdc_events[2]) == set(seq.tasks[0].classes)
    compensation = rec.embed2d[2]["compensation"]  # the final book's, a 2-d run
    for c, event in rec.sdc_events[2].items():  # one transition: delta == compensation
        assert list(event) == ["delta_norm", "mass", "nearest", "fallback",
                               "true_norm", "error_norm", "cosine"]
        assert event["delta_norm"] == np.linalg.norm(compensation[c])
    for c in seq.tasks[1].classes:
        assert compensation[c] == [0.0, 0.0]


C5_CONFIG = dict(epochs=40, lr=1e-4, batch_size=64, embedding_dim=2,
                 hidden=(128,), mining="random")  # criterion 5's protocol


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sdc_estimate_is_closer_to_the_true_change_than_no_compensation(seed):
    """Criterion 5's 2-d two-task protocol on Gaussian clusters: where
    compensation lowers the prototype distance, the estimated drift is
    nearer the true change of most old classes than no move at all."""
    seq = split_tasks(gen_gaussian_clusters(10, 100, 16, spread=0.35, seed=seed), 2,
                      seed=seed)
    old = seq.tasks[0].classes
    plain = run_sequence(MethodConfig("E-FT", seed=seed, **C5_CONFIG), seq)
    comp = run_sequence(MethodConfig("E-FT", sdc=True, sigma=0.2, seed=seed,
                                     **C5_CONFIG), seq)
    assert (np.mean([comp.proto_distance[2][c] for c in old])
            < np.mean([plain.proto_distance[2][c] for c in old]))
    events = comp.sdc_events[2]
    assert sorted(events) == sorted(old)
    closer = [c for c, e in events.items() if e["error_norm"] < e["true_norm"]]
    assert len(closer) > len(old) / 2
    for e in events.values():
        assert -1.0 - 1e-12 <= e["cosine"] <= 1.0 + 1e-12 and not e["fallback"]


def test_sdc_diagnostics_are_zero_when_the_model_is_frozen(monkeypatch):
    rows = []
    inner = EmbeddingNet.embed_np
    monkeypatch.setattr(EmbeddingNet, "embed_np",
                        lambda model, x: rows.append(len(x)) or inner(model, x))
    seq = tiny_sequence(n_classes=6, n_tasks=3)
    seq.pretrain = gen_gaussian_clusters(3, 30, 6, 0.25, seed=99)
    # a frozen task's rows are embedded once: for its prototypes, not for drift
    once = (sum(len(t.train.labels) for t in seq.tasks)
            + sum(len(t.test.labels) * (len(seq) - i) for i, t in enumerate(seq.tasks)))
    for method in ("E-Fix", "E-Pre-substitute"):
        rows.clear()
        rec = run_sequence(quick(method, sdc=True), seq)
        assert sum(rows) == once
        assert sorted(rec.sdc_events) == [2, 3]
        for t, events in rec.sdc_events.items():
            assert sorted(events) == sorted(c for task in seq.tasks[: t - 1]
                                            for c in task.classes)
            for e in events.values():
                assert e["delta_norm"] == 0.0 and e["mass"] > WEIGHT_FLOOR
                # a row's bits can depend on the other rows in its GEMM call
                assert e["true_norm"] < 1e-12 and e["error_norm"] == e["true_norm"]
                assert e["cosine"] is None


def test_sdc_fallback_flag_is_mass_below_the_floor(caplog):
    events = []
    with caplog.at_level(logging.WARNING, logger="driftlab.prototypes"):
        for sigma in (1.0, 0.05, 1e-3):
            rec = run_sequence(quick("E-FT", sdc=True, sigma=sigma),
                               tiny_sequence(n_classes=6, n_tasks=3))
            events += [e for row in rec.sdc_events.values() for e in row.values()]
    assert {e["fallback"] for e in events} == {True, False}
    for e in events:
        assert e["fallback"] == (e["mass"] < WEIGHT_FLOOR)
        assert e["fallback"] <= (e["delta_norm"] == 0.0)
    warned = [r for r in caplog.records if "degenerate kernel" in r.getMessage()]
    assert len(warned) == sum(e["fallback"] for e in events)


def test_sdc_true_change_is_null_without_test_rows():
    seq, gone = sequence_lacking_test_rows_of_one_class()
    rec = run_sequence(quick("E-FT", sdc=True, epochs=2), seq)
    for events in rec.sdc_events.values():
        for c, e in events.items():
            fields = (e["true_norm"], e["error_norm"], e["cosine"])
            assert (fields == (None, None, None)) == (c == gone)
            assert e["delta_norm"] > 0.0


def test_sdc_changes_only_prototypes_not_training():
    seq = tiny_sequence()
    plain = run_sequence(quick("E-FT"), seq)
    comp = run_sequence(quick("E-FT", sdc=True), seq)
    assert plain.param_digest == comp.param_digest  # same trajectory
    # but old-class prototypes moved
    moved = [c for c in seq.tasks[0].classes
             if not np.allclose(plain.embed2d[2]["prototypes"][c],
                                comp.embed2d[2]["prototypes"][c])]
    assert moved


@pytest.mark.parametrize("method, snapshots", [("E-FT", 0), ("E-Fix", 0), ("E-LwF", 2)])
def test_sdc_takes_a_snapshot_only_for_a_regularizer(monkeypatch, method, snapshots):
    """SDC embeds a task's rows before the task trains, so a parameter
    copy is made only where a regularizer (gamma > 0) reads it."""
    calls = []
    inner = harness.snapshot
    monkeypatch.setattr(harness, "snapshot", lambda model: calls.append(1) or inner(model))
    rec = run_sequence(quick(method, sdc=True, epochs=2), tiny_sequence(n_classes=6, n_tasks=3))
    assert len(calls) == snapshots
    assert sorted(rec.sdc_events) == [2, 3]


def test_lwf_penalty_looks_its_regularizer_up_in_harness(monkeypatch):
    """The E-LwF penalty calls ``harness.lwf_align_loss`` as it is when the
    penalty runs, so a wrapper put there later (as the benchmark's tracer
    does) sees every call, each against the last snapshot."""
    calls = []
    inner = harness.lwf_align_loss
    monkeypatch.setattr(harness, "lwf_align_loss",
                        lambda model, snap, xb: calls.append(snap) or inner(model, snap, xb))
    run_sequence(quick("E-LwF", epochs=2), tiny_sequence(n_classes=6, n_tasks=3))
    assert calls and len({id(snap) for snap in calls}) == 2  # tasks 2 and 3


def test_training_error_single_class_task():
    ds = gen_gaussian_clusters(2, 20, 4, 0.2, seed=0)
    seq = split_tasks(ds, 2, seed=0)  # one class per task
    with pytest.raises(TrainingError):
        run_sequence(quick("E-FT"), seq)


def test_pre_substitute_requires_pretrain_data():
    seq = tiny_sequence()
    with pytest.raises(TrainingError, match="pretrain"):
        run_sequence(quick("E-Pre-substitute"), seq)


def test_pre_substitute_never_trains_on_tasks():
    seq = tiny_sequence(n_classes=4, n_tasks=2, dim=6)
    seq.pretrain = gen_gaussian_clusters(3, 30, 6, 0.25, seed=99)
    rec = run_sequence(quick("E-Pre-substitute"), seq)
    assert rec.param_digest[1] == rec.param_digest[2]
    assert set(rec.accuracy) == {1, 2}


def test_ft_multihead_run():
    seq = tiny_sequence()
    rec = run_sequence(quick("FT"), seq)
    assert set(rec.accuracy) == {1, 2}
    assert rec.proto_distance == {}  # no prototypes in the softmax path
    counts = np.asarray(rec.confusions[2]["counts"])
    assert counts.sum() == sum(len(t.test.labels) for t in seq.tasks)


def test_ft_star_uses_ncm_over_features():
    seq = tiny_sequence()
    rec = run_sequence(quick("FT*"), seq)
    assert set(rec.accuracy) == {1, 2}
    assert set(rec.proto_distance[2]) == set(
        c for t in seq.tasks for c in t.classes
    )


def test_ft_old_head_gets_no_update():
    ds = gen_gaussian_clusters(4, 30, 6, 0.25, seed=0)
    seq = split_tasks(ds, 2, seed=0)
    cfg = quick("FT")
    rng = np.random.default_rng(0)
    m = GrowingSoftmaxNet(6, cfg.embedding_dim, cfg.hidden, seed=0)
    m.add_head(seq.tasks[0].classes)
    train_task(m, seq.tasks[0].train, cfg, rng)
    head1_w = m.heads[0][0].data.copy()
    head1_b = m.heads[0][1].data.copy()
    trunk_before = [p.data.copy() for p in m.trunk]

    m.add_head(seq.tasks[1].classes)
    train_task(m, seq.tasks[1].train, cfg, rng)
    assert np.array_equal(m.heads[0][0].data, head1_w)
    assert np.array_equal(m.heads[0][1].data, head1_b)
    assert any(not np.array_equal(p.data, b) for p, b in zip(m.trunk, trunk_before))


def test_softmax_training_stops_on_non_finite_loss():
    # 1e308-scaled inputs overflow the trunk to inf, and the loss to nan
    ds = gen_gaussian_clusters(4, 30, 6, 0.25, seed=0)
    seq = split_tasks(LabeledDataset(ds.features * 1e308, ds.labels), 2, seed=0)
    for method in ("FT", "FT*"):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingError, match="non-finite loss nan in epoch 1"):
            run_sequence(quick(method), seq)


@pytest.mark.parametrize("method", ["E-FT", "FT"])
def test_train_task_standalone_on_empty_data(method):
    """Either kind of net refuses a task with no rows: an FT head with
    nothing to learn from is an error, not a silent no-op."""
    from driftlab.data import LabeledDataset

    cfg = quick(method)
    if method == "FT":
        m = GrowingSoftmaxNet(3, 2, hidden=(8,), seed=0)
        m.add_head((0, 1))
    else:
        m = EmbeddingNet(3, 2, hidden=(8,), seed=0)
    empty = LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(TrainingError, match="task has no training data"):
        train_task(m, empty, cfg, np.random.default_rng(0))


def test_train_task_stops_on_non_finite_loss():
    from driftlab.losses import ImportanceMap, quadratic_penalty
    from driftlab.models import EmbeddingNet, snapshot

    m = EmbeddingNet(6, 2, hidden=(8,), seed=0)
    snap = snapshot(m)
    # inf * (theta - theta_snapshot)^2 is inf * 0 = nan on the first batch
    imp = ImportanceMap("mas", tuple(np.full(p.data.shape, np.inf) for p in m.params))
    with np.errstate(invalid="ignore"), \
            pytest.raises(TrainingError, match="non-finite loss nan in epoch 1"):
        train_task(m, tiny_sequence().tasks[0].train, quick("E-MAS"),
                   np.random.default_rng(0), penalty=lambda xb: quadratic_penalty(m, snap, imp))


def test_digest_hashes_parameter_buffers_without_copies():
    model = EmbeddingNet(64, 64, hidden=(256, 256), seed=0)
    want = hashlib.sha256(b"".join(p.data.tobytes() for p in model.params)).hexdigest()
    assert _digest(model) == want
    assert allocated_bytes(lambda: _digest(model)) < 4096  # the net holds 790 KB


@pytest.mark.parametrize("method", ["E-FT", "FT"])
def test_eval_peak_grows_only_with_the_rows_it_keeps(method):
    """With 100 classes, doubling the seen test rows from 1,500 to 3,000
    may add the extra feature rows, plus 10%: the inputs are read in place
    as a prefix of the test table, and the [rows, classes] temporaries of
    NCM and of the heads stay one block."""
    rng = np.random.default_rng(0)
    d_in, d_out, classes = 64, 64, np.arange(100)
    groups = np.split(classes, 10)
    if method == "FT":
        model, embed = GrowingSoftmaxNet(d_in, d_out, hidden=(64,), seed=0), None
        for g in groups:
            model.add_head(g)
    else:
        model = EmbeddingNet(d_in, d_out, hidden=(64,), seed=0)
        embed = model.embed_np
    book = PrototypeBook()
    book.add_task({c: rng.normal(size=d_out) for c in classes}, task_index=1)

    def peak(per_class):
        y = np.repeat(classes, per_class)
        data = LabeledDataset(rng.normal(size=(len(y), d_in)), y)
        seq = split_tasks(data, 10, seed=0, test=data)
        rec = RunRecord(method, 0, len(seq), [t.classes for t in seq.tasks])
        return allocated_bytes(lambda: _embedding_eval(model, book, seq, rec, 10, embed))

    features = 1500 * d_out * 8
    assert peak(30) - peak(15) <= 1.1 * features


# ---- memory held across tasks


@pytest.mark.parametrize("n_maps", [1, 2, 3, 4])
@pytest.mark.parametrize("method, estimator, kind", [
    ("E-EWC", "estimate_fisher", "fisher"), ("E-MAS", "estimate_mas_importance", "mas")])
def test_running_importance_sum_equals_the_mean_of_all_maps(monkeypatch, method, estimator,
                                                            kind, n_maps):
    """Each task's penalty weighs by the running sum of the earlier maps,
    byte for byte the builtin sum of the maps in task order, which counts
    them; ``quadratic_penalty`` divides it by that count (the byte check
    against a stored mean map is in test_losses.py)."""
    rng = np.random.default_rng(n_maps)
    shapes = [p.data.shape for p in EmbeddingNet(6, 2, hidden=(32,)).params]
    maps = [ImportanceMap(kind, tuple(rng.exponential(size=s) * 10.0 ** rng.uniform(-8, 8, s)
                                      for s in shapes)) for _ in range(n_maps)]
    handed = iter([ImportanceMap(kind, tuple(w.copy() for w in m.weights)) for m in maps])
    monkeypatch.setattr(harness, estimator, lambda *args, **kwargs: next(handed))
    got = []

    def penalty_of(model, snap, importance):  # the sum as it is now
        got.append((importance.kind, [w.copy() for w in importance.weights],
                    importance.count))

    def train(*args, penalty=None):
        if penalty is None:
            got.append(None)
        else:
            penalty(None)

    monkeypatch.setattr(harness, "quadratic_penalty", penalty_of)
    monkeypatch.setattr(harness, "train_task", train)
    run_sequence(quick(method), tiny_sequence(n_classes=n_maps + 1, n_tasks=n_maps + 1))
    assert got[0] is None and len(got) == n_maps + 1
    for k, (got_kind, weights, count) in enumerate(got[1:], start=1):
        assert got_kind == kind and count == k
        for i, w in enumerate(weights):
            assert w.tobytes() == sum(m.weights[i] for m in maps[:k]).tobytes()


def _live_at_last_training(monkeypatch, n_tasks):
    """Traced bytes live when the last task's ``train_task`` starts, on an
    E-EWC run of two classes per task through a 256-wide net."""
    seq = tiny_sequence(n_classes=2 * n_tasks, n_tasks=n_tasks, per_class=12)
    live = []
    inner = harness.train_task

    def traced(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(harness, "train_task", traced)
    tracemalloc.start()
    try:
        run_sequence(quick("E-EWC", epochs=1, hidden=(256, 256)), seq)
    finally:
        tracemalloc.stop()
    assert len(live) == n_tasks
    return live[-1]


def test_importance_memory_does_not_grow_with_tasks(monkeypatch):
    one_set = sum(p.data.nbytes for p in EmbeddingNet(6, 2, hidden=(256, 256)).params)
    grown = _live_at_last_training(monkeypatch, 6) - _live_at_last_training(monkeypatch, 3)
    assert grown < one_set  # a map per task would add three sets


@pytest.mark.parametrize("method", ["E-FT", "E-EWC"])
def test_checkpoint_embeddings_die_before_the_next_training(monkeypatch, method):
    """Every embedding array a task makes (its training rows' for the
    prototypes, its test rows' at the checkpoint) is gone when the next
    task's training starts."""
    refs = []
    inner_protos, inner_train = harness.compute_prototypes, harness.train_task

    def protos(z, *args, **kwargs):
        refs.append(weakref.ref(z))
        return inner_protos(z, *args, **kwargs)

    def train(*args, **kwargs):
        assert [r() for r in refs] == [None] * len(refs)
        return inner_train(*args, **kwargs)

    monkeypatch.setattr(harness, "compute_prototypes", protos)
    monkeypatch.setattr(harness, "train_task", train)
    run_sequence(quick(method, sdc=method == "E-FT", epochs=2),
                 tiny_sequence(n_classes=6, n_tasks=3))
    assert len(refs) == 6  # training and test embeddings of three tasks
