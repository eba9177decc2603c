import json
import os
import struct
import subprocess
import sys
import textwrap
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import write_csv_dataset
from driftlab import cli, config
from driftlab.cli import main
from driftlab.data import gen_gaussian_clusters, read_csv_dataset
from driftlab.harness import RunRecord, avg_incremental_accuracy
from driftlab.prototypes import PrototypeBook


def write_config(tmp_path, out_name="results", methods=None, dataset=None,
                 seeds="0 1", ini_name="exp.ini"):
    methods = methods or {"E-FT": {}}
    dataset = dataset or {}
    base_dataset = {"source": "synthetic", "n_classes": 4, "per_class": 24,
                    "dim": 5, "spread": 0.2, "n_tasks": 2}
    base_dataset.update(dataset)
    lines = [
        "[experiment]",
        f"output_dir = {tmp_path / out_name}",
        f"seeds = {seeds}",
        "",
        "[dataset]",
    ]
    lines += [f"{k} = {v}" for k, v in base_dataset.items()]
    for label, overrides in methods.items():
        opts = {"epochs": 6, "batch_size": 12, "lr": 0.003,
                "embedding_dim": 2, "hidden": 24}
        opts.update(overrides)
        lines.append("")
        lines.append(f"[method {label}]")
        lines += [f"{k} = {v}" for k, v in opts.items()]
    path = tmp_path / ini_name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_run_happy_path(tmp_path, capsys):
    cfg = write_config(tmp_path, methods={"E-FT": {}, "E-FT+SDC":
                                          {"method": "E-FT", "sdc": "true"}})
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "A_k by method" in out
    assert "A_1" in out and "A_2" in out
    for label in ("E-FT", "E-FT+SDC"):
        for seed in ("0", "1"):
            d = tmp_path / "results" / label / seed
            # written through temp siblings renamed into place; none is left
            assert sorted(f.name for f in d.iterdir()) == [
                "a_matrix.csv", "prototypes.json", "record.json"]
    rec = RunRecord.from_json(
        (tmp_path / "results" / "E-FT" / "0" / "record.json").read_text())
    assert rec.method == "E-FT" and rec.seed == 0
    protos = json.loads(
        (tmp_path / "results" / "E-FT+SDC" / "1" / "prototypes.json").read_text())
    assert len(protos["classes"]) == 4


def test_run_determinism_replay(tmp_path):
    cfg_a = write_config(tmp_path, out_name="a", seeds="0", ini_name="a.ini")
    cfg_b = write_config(tmp_path, out_name="b", seeds="0", ini_name="b.ini")
    assert main(["run", str(cfg_a)]) == 0
    assert main(["run", str(cfg_b)]) == 0
    csv_a = (tmp_path / "a" / "E-FT" / "0" / "a_matrix.csv").read_bytes()
    csv_b = (tmp_path / "b" / "E-FT" / "0" / "a_matrix.csv").read_bytes()
    assert csv_a == csv_b


def test_run_config_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(textwrap.dedent("""\
        [experiment]
        seeds = 0
        outdir = results

        [dataset]
        source = synthetic

        [method E-FT]
        """))
    assert main(["run", str(path)]) == 2
    assert "outdir" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_run_non_finite_gamma_exit_2(tmp_path, capsys, gamma):
    cfg = write_config(tmp_path, seeds="0", methods={"E-LwF": {"gamma": gamma}})
    assert main(["run", str(cfg)]) == 2
    assert "[method E-LwF]: gamma must be finite" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
def test_run_sigma_whose_kernel_width_is_not_finite_exit_2(tmp_path, capsys, sigma):
    """2 sigma^2 underflows to 0 at 1e-200 (NaN drift on a drift point,
    no compensation elsewhere) and overflows at 1e200."""
    cfg = write_config(tmp_path, seeds="0",
                       methods={"E-FT+SDC": {"method": "E-FT", "sdc": "true", "sigma": sigma}})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert ("[method E-FT+SDC]: sigma must be finite and positive, with 2 sigma^2 "
            f"in (0, inf), got {float(sigma)!r}") in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("dataset, expected", [
    ({"n_tasks": 0}, "n_tasks must be at least 1, got 0"),
    ({"n_tasks": -1}, "n_tasks must be at least 1, got -1"),
    ({"n_tasks": 1, "first_task_fraction": 0.5},
     "first_task_fraction needs n_tasks of at least 2"),
    ({"first_task_fraction": 1.0}, "first_task_fraction must be between 0 and 1"),
    ({"test_fraction": 1.5}, "test_fraction must be between 0 and 1"),
    ({"test_fraction": 0}, "test_fraction must be between 0 and 1"),
    ({"per_class": 1}, "class 0 has 1 rows; holding out 1 for testing leaves none"),
    ({"pretrain_classes": -2}, "pretrain_classes must be nonnegative, got -2"),
    ({"spread": -0.5}, "spread must be finite and nonnegative, got -0.5"),
    ({"spread": "nan"}, "spread must be finite and nonnegative, got nan"),
])
def test_run_bad_split_values_exit_2(tmp_path, capsys, dataset, expected):
    cfg = write_config(tmp_path, seeds="0", dataset=dataset)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and expected in err
    assert "Traceback" not in err
    assert list((tmp_path / "results").glob("*")) == []  # nothing trained


@pytest.mark.parametrize("case, expected", [
    ("missing file", "No such file or directory"),
    ("bad idx magic", "bad magic 0x03080000"),
    ("ragged row", "line 3: 2 cells, expected 3"),
    ("nan cell", "feature row 1 holds NaN or inf"),
    ("fractional label", "line 2: label '1.5' is not an integer"),
    ("non-ascii byte", "not an ASCII text file"),
    ("no feature column", "data.csv: no feature columns"),
    ("empty idx images", "images.idx: no feature columns"),
    ("negative idx rows", "images.idx: negative rows -1 in header"),
    ("negative idx count", "images.idx: negative count -1 in header"),
    ("negative idx label count", "labels.idx: negative count -2 in header"),
])
def test_run_bad_dataset_file_exit_2(tmp_path, capsys, case, expected):
    csv = tmp_path / "data.csv"
    dataset = {"source": "csv", "path": csv}
    if case == "missing file":
        dataset["path"] = tmp_path / "nope.csv"
    elif case == "bad idx magic":
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack("<4i", 0x803, 1, 2, 2) + bytes(4))
        labels.write_bytes(struct.pack(">2i", 0x801, 1) + bytes(1))
        dataset = {"source": "idx", "images": images, "labels": labels}
    elif case == "empty idx images":  # rows * cols = 0
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">4i", 0x803, 4, 0, 2))
        labels.write_bytes(struct.pack(">2i", 0x801, 4) + bytes([0, 0, 1, 1]))
        dataset = {"source": "idx", "images": images, "labels": labels}
    elif case.startswith("negative idx"):  # rows = cols = -1 loaded as 1-pixel images
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        n, side, n_lab = {"negative idx rows": (2, -1, 2), "negative idx count": (-1, 2, 8),
                          "negative idx label count": (2, 2, -2)}[case]
        images.write_bytes(struct.pack(">4i", 0x803, n, side, side) + bytes(64))
        labels.write_bytes(struct.pack(">2i", 0x801, n_lab) + bytes([0, 1] * 4))
        dataset = {"source": "idx", "images": images, "labels": labels}
    elif case == "non-ascii byte":
        csv.write_bytes(b"label,f0,f1\n0,\xff1.0,2.0\n")
    elif case == "no feature column":  # loaded as [n, 0] before, then failed in training
        csv.write_text("label\n" + "0\n1\n2\n3\n" * 24)
    else:
        rows = {"ragged row": "0,1.0,2.0\n1,3.0\n", "nan cell": "0,1.0,2.0\n1,nan,2.0\n",
                "fractional label": "1.5,1.0,2.0\n"}[case]
        csv.write_text("label,f0,f1\n" + rows)
    cfg = write_config(tmp_path, seeds="0", dataset=dataset)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and expected in err
    assert "Traceback" not in err
    assert list((tmp_path / "results").iterdir()) == []  # nothing trained


def test_run_task_without_test_rows_exit_2_before_training(tmp_path, capsys, monkeypatch):
    ds = gen_gaussian_clusters(4, 24, 4, 0.2, seed=0)
    pixels = np.clip(ds.features * 64 + 128, 0, 255).astype(np.uint8)
    dataset = {"source": "idx"}
    for key, rows in (("", slice(None)), ("test_", ds.labels == 0)):  # test: class 0 only
        images, labels = tmp_path / f"{key}images.idx", tmp_path / f"{key}labels.idx"
        n = len(ds.labels[rows])
        images.write_bytes(struct.pack(">4i", 0x803, n, 2, 2) + pixels[rows].tobytes())
        labels.write_bytes(struct.pack(">2i", 0x801, n) + ds.labels[rows].astype(np.uint8).tobytes())
        dataset.update({f"{key}images": images, f"{key}labels": labels})
    calls = []
    monkeypatch.setattr(cli, "run_sequence", lambda *args: calls.append(args))
    cfg = write_config(tmp_path, seeds="0 1", dataset=dataset)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: task ") and "has no test rows" in err
    assert calls == []  # nothing trained


def test_run_reads_a_csv_once_for_all_seeds(tmp_path, monkeypatch):
    csv = tmp_path / "data.csv"
    write_csv_dataset(csv, gen_gaussian_clusters(4, 24, 5, 0.2, seed=3))
    dataset = {"source": "csv", "path": csv}
    calls = []

    def counted(path):
        calls.append(path)
        return read_csv_dataset(path)

    monkeypatch.setattr(config, "read_csv_dataset", counted)
    cfg = write_config(tmp_path, seeds="0 1 2", dataset=dataset)
    assert main(["run", str(cfg)]) == 0
    assert len(calls) == 1
    for seed in ("0", "1", "2"):
        single = write_config(tmp_path, out_name=f"single{seed}", seeds=seed,
                              dataset=dataset, ini_name=f"single{seed}.ini")
        assert main(["run", str(single)]) == 0
        assert ((tmp_path / "results" / "E-FT" / seed / "a_matrix.csv").read_bytes()
                == (tmp_path / f"single{seed}" / "E-FT" / seed / "a_matrix.csv").read_bytes())
    assert len(calls) == 4


def test_result_json_is_compact_and_indented_files_still_read(tmp_path):
    cfg = write_config(tmp_path, seeds="0")
    assert main(["run", str(cfg)]) == 0
    run_dir = tmp_path / "results" / "E-FT" / "0"
    record = (run_dir / "record.json").read_text()
    book = (run_dir / "prototypes.json").read_text()
    assert "\n" not in record and "\n" not in book
    assert '"wall_time": ' in record  # default separators, as bench/measure.py expects
    # result directories written with indent=1 by earlier versions
    for name, text in (("record.json", record), ("prototypes.json", book)):
        (run_dir / name).write_text(json.dumps(json.loads(text), indent=1))
    rec = RunRecord.from_json((run_dir / "record.json").read_text())
    assert rec.to_json() == record
    assert PrototypeBook.from_json((run_dir / "prototypes.json").read_text()).to_json() == book
    assert main(["plot", str(tmp_path / "results"), "--kind", "curves"]) == 0


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_isolates_failures(tmp_path, capsys):
    # one class per task starves triplet mining for E-FT; FT still trains
    cfg = write_config(tmp_path, seeds="0",
                       methods={"E-FT": {}, "FT": {}},
                       dataset={"n_classes": 2})
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "[fail] E-FT seed 0" in err
    assert (tmp_path / "results" / "FT" / "0" / "a_matrix.csv").exists()
    assert not (tmp_path / "results" / "E-FT").exists()


@pytest.fixture(scope="module")
def results_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    cfg = write_config(tmp, methods={"E-FT": {}, "E-FT+SDC":
                                     {"method": "E-FT", "sdc": "true"}})
    assert main(["run", str(cfg)]) == 0
    return tmp / "results"


def test_plot_curves(results_dir, capsys):
    assert main(["plot", str(results_dir), "--kind", "curves"]) == 0
    out = results_dir / "plots" / "curves.svg"
    assert out.exists()
    root = ET.fromstring(out.read_text())
    texts = [t.text for t in root.iter() if t.tag.endswith("text")]
    assert "E-FT" in texts and "E-FT+SDC" in texts


def test_plot_embedding(results_dir):
    assert main(["plot", str(results_dir), "--kind", "embedding"]) == 0
    for label in ("E-FT", "E-FT+SDC"):
        for seed in ("0", "1"):
            out = results_dir / "plots" / f"{label}_seed{seed}_embedding_task2.svg"
            assert out.exists()
            ET.fromstring(out.read_text())


def test_plot_confusion(results_dir):
    assert main(["plot", str(results_dir), "--kind", "confusion"]) == 0
    for k in (1, 2):
        out = results_dir / "plots" / f"E-FT_seed0_confusion_task{k}.svg"
        assert out.exists()


def test_records_with_drift_vectors_still_load_and_plot(tmp_path):
    """A record.json written when each SDC event held the applied delta
    vector, {"delta": [...]}, in place of the diagnostic scalars."""
    text = (Path(__file__).parent / "data" / "record_with_drift_vectors.json").read_text()
    rec = RunRecord.from_json(text)
    assert sorted(rec.sdc_events) == [2]
    assert all(list(e) == ["delta"] and len(e["delta"]) == 3
               for e in rec.sdc_events[2].values())
    run_dir = tmp_path / "results" / "E-FT+SDC" / "0"
    run_dir.mkdir(parents=True)
    (run_dir / "record.json").write_text(text)
    plots = tmp_path / "results" / "plots"
    for kind, name in (("curves", "curves.svg"),
                       ("confusion", "E-FT+SDC_seed0_confusion_task2.svg")):
        assert main(["plot", str(tmp_path / "results"), "--kind", kind]) == 0
        ET.fromstring((plots / name).read_text())


def test_plot_single_run_dir(results_dir):
    run_dir = results_dir / "E-FT" / "0"
    assert main(["plot", str(run_dir), "--kind", "confusion"]) == 0
    assert (run_dir / "plots" / "E-FT_seed0_confusion_task2.svg").exists()


def test_plot_embedding_needs_2d(tmp_path, capsys):
    cfg = write_config(tmp_path, seeds="0",
                       methods={"E-FT": {"embedding_dim": 3}})
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["plot", str(tmp_path / "results"), "--kind", "embedding"]) == 1
    assert "embedding_dim = 2" in capsys.readouterr().err


def test_plot_missing_dir(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "void"), "--kind", "curves"]) == 1
    assert "no record.json" in capsys.readouterr().err


def test_plot_bad_kind_usage_error(results_dir):
    with pytest.raises(SystemExit) as exc:
        main(["plot", str(results_dir), "--kind", "pie"])
    assert exc.value.code == 2


def test_compare_matches_records(results_dir, capsys):
    assert main(["compare", str(results_dir)]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().split("\n") if l.startswith("|")]
    assert lines[0].startswith("| method | A_1 | A_2 |")

    recs = [RunRecord.from_json(
        (results_dir / "E-FT" / s / "record.json").read_text())
        for s in ("0", "1")]
    a2 = [avg_incremental_accuracy(r, 2) for r in recs]
    mean = sum(a2) / 2
    std = (sum((v - mean) ** 2 for v in a2) / 2) ** 0.5
    row = next(l for l in lines if l.startswith("| E-FT |"))
    cell = row.split("|")[3].strip()
    assert cell == f"{mean:.4f} ± {std:.4f}"


def test_compare_missing_dir(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "void")]) == 1
    assert "no a_matrix.csv" in capsys.readouterr().err


def test_compare_header_only_csv(tmp_path, capsys):
    run = tmp_path / "results" / "E-FT" / "0"
    run.mkdir(parents=True)
    (run / "a_matrix.csv").write_text("k,j,accuracy\n")
    assert main(["compare", str(tmp_path / "results")]) == 1
    assert "no accuracy rows" in capsys.readouterr().err


@pytest.mark.parametrize("row, cell", [
    ("1,1,nan", "accuracy nan outside [0, 1]"),
    ("1,1,1.5", "accuracy 1.5 outside [0, 1]"),
    ("1,2,0.3", "a[1][2] above the diagonal"),
])
def test_compare_rejects_bad_cell(tmp_path, capsys, row, cell):
    path = tmp_path / "results" / "E-FT" / "0" / "a_matrix.csv"
    path.parent.mkdir(parents=True)
    path.write_text(f"k,j,accuracy\n{row}\n2,1,0.8\n2,2,0.7\n")
    assert main(["compare", str(tmp_path / "results")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and f"line 2 '{row}'" in err and cell in err


def test_compare_inconsistent_tasks(results_dir, tmp_path, capsys):
    cfg = write_config(tmp_path, seeds="0", dataset={"n_classes": 6,
                                                     "n_tasks": 3})
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["compare", str(results_dir), str(tmp_path / "results")]) == 1
    assert "inconsistent task counts" in capsys.readouterr().err


def test_compare_multiple_dirs_prefixed(results_dir, tmp_path, capsys):
    other = tmp_path / "other"
    cfg = write_config(tmp_path, out_name="other", seeds="0")
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["compare", str(results_dir), str(other)]) == 0
    out = capsys.readouterr().out
    assert "| other:E-FT |" in out
    assert "| results:E-FT |" in out


@pytest.mark.parametrize("rows, line, message", [
    ("0,0,0.5", "line 2 '0,0,0.5'", "a[0][0]: task indices start at 1"),
    ("1,1,0.9\n2,-1,0.4\n2,1,0.8\n2,2,0.7", "line 3 '2,-1,0.4'",
     "a[2][-1]: task indices start at 1"),
    ("1,1,0.9\n1,1,0.1", "line 3 '1,1,0.1'", "a[1][1] given twice"),
])
def test_compare_rejects_bad_indices_and_repeated_cells(tmp_path, capsys, rows, line,
                                                        message):
    path = tmp_path / "results" / "E-FT" / "0" / "a_matrix.csv"
    path.parent.mkdir(parents=True)
    path.write_text(f"k,j,accuracy\n{rows}\n")
    assert main(["compare", str(tmp_path / "results")]) == 1
    assert capsys.readouterr().err == f"{path}: {line}: {message}\n"


@pytest.mark.parametrize("dataset", [{}, {"pretrain_classes": 0}])
def test_pre_substitute_without_pretrain_classes_exit_2(tmp_path, capsys, dataset):
    cfg = write_config(tmp_path, dataset=dataset, methods={
        "E-FT": {}, "Frozen": {"method": "E-Pre-substitute"}})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: [method Frozen] E-Pre-substitute needs" in err
    assert "pretrain_classes of at least 1" in err
    assert not (tmp_path / "results").exists()  # nothing trained, nothing written


@pytest.mark.parametrize("text, message", [
    ('{"method": "E-FT"}', "missing field 'seed'"),
    ("[1, 2]", "missing field 'method'"),
    ("not json", "Expecting value"),
])
def test_plot_malformed_record_exit_1(tmp_path, capsys, text, message):
    path = tmp_path / "results" / "E-FT" / "0" / "record.json"
    path.parent.mkdir(parents=True)
    path.write_text(text)
    for root in (tmp_path / "results", path.parent):
        assert main(["plot", str(root), "--kind", "curves"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and message in err


@pytest.mark.parametrize("accuracy, message", [
    ({"1": {"1": 7.5}}, "accuracy 7.5 outside [0, 1]"),
    ({"1": {"1": 0.5}, "2": {"1": 0.5, "2": 0.5, "3": 0.5}}, "a[2][3] above the diagonal"),
    ({"1": {"1": "x"}}, "could not convert string to float: 'x'"),
])
def test_plot_rejects_a_bad_accuracy_cell(tmp_path, capsys, accuracy, message):
    path = tmp_path / "results" / "E-FT" / "0" / "record.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"method": "E-FT", "seed": 0, "n_tasks": 2,
                                "task_classes": [[0, 1], [2, 3]], "accuracy": accuracy}))
    assert main(["plot", str(tmp_path / "results"), "--kind", "curves"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: ") and message in err
    assert not (tmp_path / "results" / "plots").exists()


@pytest.mark.parametrize("margin", ["inf", "1e400"])
def test_run_infinite_margin_exit_2(tmp_path, capsys, margin):
    cfg = write_config(tmp_path, seeds="0", methods={"E-FT": {"margin": margin}})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "[method E-FT]: margin must be finite and nonnegative, got inf" in err
    assert not (tmp_path / "results").exists()  # nothing trained


def test_run_drops_each_book_once_its_files_are_written(tmp_path, capsys, monkeypatch):
    """The A_k table reads only accuracy rows: no PrototypeBook lives on
    into the next run or the table, which prints what the written
    a_matrix.csv files give."""
    books = []
    inner_run, inner_table = cli.run_sequence, cli._ak_table

    def run(*args):
        assert [b() for b in books] == [None] * len(books)
        record = inner_run(*args)
        books.append(weakref.ref(record.book))
        return record

    def table(*args):
        assert [b() for b in books] == [None] * len(books)
        return inner_table(*args)

    monkeypatch.setattr(cli, "run_sequence", run)
    monkeypatch.setattr(cli, "_ak_table", table)
    cfg = write_config(tmp_path, methods={"E-FT": {}, "E-FT+SDC":
                                          {"method": "E-FT", "sdc": "true"}})
    assert main(["run", str(cfg)]) == 0
    assert len(books) == 4
    root = tmp_path / "results"
    from_csv = {label: {seed: RunRecord.from_a_matrix_csv(
        (root / label / seed / "a_matrix.csv").read_text(), label, seed)
        for seed in ("0", "1")} for label in ("E-FT", "E-FT+SDC")}
    out = capsys.readouterr().out
    assert out.endswith("\n\n" + inner_table(from_csv, 2, 2) + "\n")


def test_cli_import_loads_no_xml_or_http_stack():
    """``driftlab.cli`` adds none of ``xml``, ``urllib.request``,
    ``http.client``, ``ssl`` and ``email`` to ``sys.modules``; the
    comparison is before and after the import, since a site hook may
    preload some modules."""
    probe = ("import sys; before = set(sys.modules); import driftlab.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    added = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "driftlab.svgplot" in added
    heavy = ("xml", "urllib.request", "http.client", "ssl", "email")
    assert [m for m in added if any(m == h or m.startswith(h + ".") for h in heavy)] == []
