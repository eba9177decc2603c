import json
import os
import random
import signal
import struct
import subprocess
import sys
import textwrap
import weakref
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import allocated_bytes, write_csv_dataset
from driftlab import cli, config
from driftlab.cli import main
from driftlab.data import gen_gaussian_clusters, read_csv_dataset
from driftlab.harness import MethodConfig, RunRecord, avg_incremental_accuracy


def write_config(tmp_path, out_name="results", methods=None, dataset=None,
                 seeds="0 1", ini_name="exp.ini"):
    methods = methods or {"E-FT": {}}
    dataset = {"source": "synthetic", "n_tasks": 2, **(dataset or {})}
    if dataset["source"] == "synthetic":  # only that source reads these keys
        dataset = {"n_classes": 4, "per_class": 24, "dim": 5, "spread": 0.2, **dataset}
    lines = [
        "[experiment]",
        f"output_dir = {tmp_path / out_name}",
        f"seeds = {seeds}",
        "",
        "[dataset]",
    ]
    lines += [f"{k} = {v}" for k, v in dataset.items()]
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
    assert "\n\n| method | A_1 | A_2 |\n" in out
    for label in ("E-FT", "E-FT+SDC"):
        for seed in ("0", "1"):
            d = tmp_path / "results" / label / seed
            # written through temp siblings renamed into place; none is left
            assert sorted(f.name for f in d.iterdir()) == ["a_matrix.csv", "record.json"]
    rec = RunRecord.from_json(
        (tmp_path / "results" / "E-FT" / "0" / "record.json").read_text())
    assert rec.method == "E-FT" and rec.seed == 0
    sdc = RunRecord.from_json(
        (tmp_path / "results" / "E-FT+SDC" / "1" / "record.json").read_text())
    assert len(sdc.embed2d[2]["prototypes"]) == 4


def test_run_writes_only_the_a_matrix_and_the_record(tmp_path):
    """A run's results are its a_matrix.csv and record.json, whether its
    prototype book is empty (FT) or compensated (E-FT+SDC). What the book
    held is in the record: a class's task is its row in task_classes, each
    compensation step's size is an SDC event's delta_norm, and a 2-d run's
    final vectors and compensations are its last embed2d capture."""
    cfg = write_config(tmp_path, seeds="0", methods={
        "FT": {}, "E-FT+SDC": {"method": "E-FT", "sdc": "true"}})
    assert main(["run", str(cfg)]) == 0
    root = tmp_path / "results"
    assert sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()) == [
        os.path.join(label, "0", name) for label in ("E-FT+SDC", "FT")
        for name in ("a_matrix.csv", "record.json")]
    rec = RunRecord.from_json((root / "E-FT+SDC" / "0" / "record.json").read_text())
    final = rec.embed2d[rec.n_tasks]
    assert sorted(final["prototypes"]) == sorted(c for t in rec.task_classes for c in t)
    for c, event in rec.sdc_events[2].items():  # one step: its size is the final shift
        assert event["delta_norm"] == np.linalg.norm(final["compensation"][c])


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
    assert not (tmp_path / "results").exists()  # nothing trained, nothing written
    assert list(tmp_path.glob("*.driftlab.npz")) == []  # a bad file is never cached


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
    assert "\n" not in record
    assert '"wall_time": ' in record  # default separators, as bench/measure.py expects
    # result directories written with indent=1 by earlier versions
    (run_dir / "record.json").write_text(json.dumps(json.loads(record), indent=1))
    rec = RunRecord.from_json((run_dir / "record.json").read_text())
    assert rec.to_json() == record
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


@pytest.mark.parametrize("case", ["run dir is a file", "encoder fails mid-stream"])
def test_run_isolates_write_failures(tmp_path, capsys, monkeypatch, case):
    cfg = write_config(tmp_path, seeds="0", methods={"E-FT": {}, "FT": {}})
    root = tmp_path / "results"
    if case == "run dir is a file":
        root.mkdir()
        (root / "E-FT").write_text("")
        message = "cannot write results: [Errno 20] Not a directory"
    else:
        inner = cli.run_sequence

        def run(config, sequence):
            record = inner(config, sequence)
            if config.method == "E-FT":  # config is the last field: earlier pieces are out
                record.config["bad"] = object()
            return record

        monkeypatch.setattr(cli, "run_sequence", run)
        message = "cannot write results: cannot serialize <class 'object'>"
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert f"[fail] E-FT seed 0: {message}" in captured.err
    assert "[done] FT seed 0" in captured.out
    assert sorted(f.name for f in (root / "FT" / "0").iterdir()) == [
        "a_matrix.csv", "record.json"]
    assert not (root / "E-FT" / "0" / "record.json").exists()
    assert list(root.rglob("*.tmp")) == []


def _many_classes_record(n_classes=100, n_tasks=10):
    """A record of the shape of a 100-class, 10-task E-FT+SDC run, built
    by hand: every checkpoint's accuracy row, distances, confusion and SDC
    events."""
    rng = np.random.default_rng(0)
    per = n_classes // n_tasks
    tasks = [tuple(range(t * per, (t + 1) * per)) for t in range(n_tasks)]
    record = RunRecord("E-FT", 0, n_tasks, tasks,
                       config=MethodConfig("E-FT", sdc=True).to_dict())
    for k in range(1, n_tasks + 1):
        seen = [c for t in tasks[:k] for c in t]
        for j in range(1, k + 1):
            record.set_acc(k, j, float(rng.random()))
        record.proto_distance[k] = dict(zip(seen, rng.random(len(seen)).tolist()))
        record.confusions[k] = {"classes": seen, "counts": rng.integers(
            0, 30, (len(seen), len(seen))).tolist()}
        record.sdc_events[k] = {c: {"delta_norm": v[0], "mass": v[1], "nearest": v[2],
                                    "fallback": False, "true_norm": v[3],
                                    "error_norm": v[4], "cosine": v[5]}
                                for c, v in zip(seen[:-per], rng.random((len(seen), 6)).tolist())}
        record.param_digest[k] = f"{k:064x}"
    return record


def test_result_json_is_written_piece_by_piece(tmp_path):
    """cmd_run's write of a 100-class, 10-checkpoint record gives the
    bytes one json.dumps call gives, and peaks at about 0.14 MB traced on
    CPython 3.11: one json.dumps of the record alone peaks at
    3.5 MB, and encoding each confusion matrix whole at 0.73 MB."""
    record = _many_classes_record()

    def write():
        cli._write_whole(tmp_path / "record.json", record.json_pieces())

    assert allocated_bytes(write) <= 500_000
    payload = {f.name: getattr(record, f.name) for f in fields(record)}
    assert (tmp_path / "record.json").read_text(encoding="utf-8") == json.dumps(payload)


def _driftlab_in_c_locale(*args, timeout=120) -> subprocess.CompletedProcess:
    """``python -m driftlab *args`` where the locale's encoding is ASCII."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("PYTHONIOENCODING", None)
    return subprocess.run([sys.executable, "-m", "driftlab", *args], env=env,
                          capture_output=True, timeout=timeout)


def test_text_files_are_utf8_in_a_c_locale(tmp_path):
    cfg = write_config(tmp_path, seeds="0", methods={"E-FT": {"epochs": 2}})
    with open(cfg, "ab") as fh:
        fh.write("; σ is the kernel width\n".encode("utf-8"))
    done = _driftlab_in_c_locale("run", str(cfg))
    assert done.returncode == 0, done.stderr
    table = done.stdout.decode("utf-8").split("\n\n")[-1]  # its "±" as UTF-8
    assert table.startswith("| method | A_1 | A_2 |") and table.endswith(" ± 0.0000 |\n")
    # a label that an ASCII locale cannot make a directory of is a config error
    text = cfg.read_bytes().replace(b"[method E-FT]", "[method Ω-FT]\nmethod = E-FT".encode())
    bad = tmp_path / "omega.ini"
    bad.write_bytes(text)
    done = _driftlab_in_c_locale("run", str(bad))
    assert done.returncode == 2 and b"Traceback" not in done.stderr
    assert b"config error: method label" in done.stderr
    # results under a UTF-8 label (made in a UTF-8 locale) still plot
    root = tmp_path / "results"
    os.rename(os.fsencode(root / "E-FT"), os.fsencode(root) + "/Ω-FT".encode())
    done = _driftlab_in_c_locale("plot", str(root), "--kind", "curves")
    assert done.returncode == 0, done.stderr
    svg = ET.fromstring((root / "plots" / "curves.svg").read_bytes())
    assert "Ω-FT" in [t.text for t in svg.iter() if t.tag.endswith("text")]


def test_compare_prints_utf8_in_a_c_locale(tmp_path):
    run_dir = tmp_path / "results" / "E-FT" / "0"
    run_dir.mkdir(parents=True)
    (run_dir / "a_matrix.csv").write_text("k,j,accuracy\n1,1,0.75\n")
    done = _driftlab_in_c_locale("compare", str(tmp_path / "results"))
    assert done.returncode == 0, done.stderr
    row = next(line for line in done.stdout.decode("utf-8").split("\n")
               if line.startswith("| E-FT |"))
    assert row == "| E-FT | 0.7500 ± 0.0000 |"


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


def test_results_roots_with_a_prototypes_json_still_plot_and_compare(tmp_path, capsys):
    """Earlier versions also wrote each run's final prototype book to
    prototypes.json. No command reads that file, and a later run into the
    same root leaves it as it is."""
    cfg = write_config(tmp_path, methods={"FT": {}, "E-FT+SDC":
                                          {"method": "E-FT", "sdc": "true"}})
    assert main(["run", str(cfg)]) == 0
    root = tmp_path / "results"
    row = {"class_id": 0, "learned_at": 1, "vector": [0.5, -0.5], "compensation": [0.1, 0.0]}
    books = {run / "prototypes.json": json.dumps({"classes": [] if run.parent.name == "FT"
                                                  else [row]}) for run in root.glob("*/*")}
    assert len(books) == 4
    for path, text in books.items():
        path.write_text(text)
    capsys.readouterr()
    for kind in ("curves", "confusion", "embedding"):
        assert main(["plot", str(root), "--kind", kind]) == 0
    drawn = {p.name for p in (root / "plots").iterdir()}
    assert {"curves.svg", "FT_seed1_confusion_task2.svg",
            "E-FT+SDC_seed1_embedding_task2.svg"} <= drawn
    assert main(["compare", str(root)]) == 0
    table = capsys.readouterr().out.split("\n")
    assert [row.split(" |")[0] for row in table[-3:-1]] == ["| E-FT+SDC", "| FT"]
    assert main(["run", str(cfg)]) == 0
    assert {path: path.read_text() for path in books} == books


@pytest.mark.parametrize("kind, note", [
    ("confusion", "no confusions"),
    ("embedding", "no 2-d captures; embedding plots need embedding_dim = 2"),
], ids=["confusion", "embedding"])
def test_plot_notes_each_run_without_figures(tmp_path, capsys, kind, note):
    """Every per-run kind: a run whose record holds none of the kind's data
    gets one note on stderr, and only a root with none at all exits 1."""
    bare = {"method": "E-FT", "seed": 1, "n_tasks": 1, "task_classes": [[0, 1]],
            "accuracy": {"1": {"1": 1.0}}}  # the required fields only
    lone = tmp_path / "lone" / "E-FT" / "1" / "record.json"
    lone.parent.mkdir(parents=True)
    lone.write_text(json.dumps(bare))
    assert main(["plot", str(tmp_path / "lone"), "--kind", kind]) == 1
    assert capsys.readouterr().err == f"{lone}: {note}\n"
    assert not any((tmp_path / "lone" / "plots").iterdir())

    root = tmp_path / "mixed"
    drawn = {"confusion": {}, "embedding": {"embed2d": {"1": {
        "points": [[0.0, 1.0]], "labels": [0], "prototypes": {"0": [0.0, 1.0]},
        "compensation": {}, "true_means": {"0": [0.0, 1.0]}}}}}[kind]
    _write_record(root / "E-FT" / "0", **drawn)
    (root / "E-FT" / "1").mkdir()
    (root / "E-FT" / "1" / "record.json").write_text(json.dumps(bare))
    assert main(["plot", str(root), "--kind", kind]) == 0
    out, err = capsys.readouterr()
    assert out.split() == [str(root / "plots" / f"E-FT_seed0_{kind}_task1.svg")]
    assert err == f"{root / 'E-FT' / '1' / 'record.json'}: {note}\n"


def test_plot_single_run_dir(results_dir):
    run_dir = results_dir / "E-FT" / "0"
    assert main(["plot", str(run_dir), "--kind", "confusion"]) == 0
    assert (run_dir / "plots" / "E-FT_seed0_confusion_task2.svg").exists()


def test_a_single_run_is_named_by_its_directories(results_dir, capsys, monkeypatch):
    """A run directory given as a root, by its path or as ".", is the run
    ``<label>/<seed>`` its directories name: E-FT+SDC, whose records say
    method E-FT, keeps its label in compare's row and in plot's file names."""
    run_dir = results_dir / "E-FT+SDC" / "0"
    for root, where in [(results_dir, results_dir), (".", results_dir),
                        (run_dir, results_dir), (".", run_dir)]:
        monkeypatch.chdir(where)
        assert main(["compare", str(root)]) == 0
        assert "\n| E-FT+SDC | " in capsys.readouterr().out
    out = run_dir / "plots" / "E-FT+SDC_seed0_confusion_task1.svg"
    for root, where in [(run_dir, results_dir), (".", run_dir)]:
        monkeypatch.chdir(where)
        out.unlink(missing_ok=True)
        assert main(["plot", str(root), "--kind", "confusion"]) == 0
        ET.fromstring(out.read_text())


def test_plot_curves_of_dot_is_titled_by_the_roots_real_name(results_dir, monkeypatch):
    monkeypatch.chdir(results_dir)
    assert main(["plot", ".", "--kind", "curves"]) == 0
    svg = ET.fromstring((results_dir / "plots" / "curves.svg").read_text())
    assert "results" in [t.text for t in svg.iter() if t.tag.endswith("text")]


@pytest.mark.parametrize("command, name", [("plot", "record.json"),
                                           ("compare", "a_matrix.csv")])
def test_a_result_file_that_cannot_be_read_exit_1(tmp_path, capsys, command, name):
    """A directory in place of a result file is named on one stderr line,
    for a results root and for the run directory itself."""
    path = tmp_path / "results" / "E-FT" / "0" / name
    path.mkdir(parents=True)
    for root in (tmp_path / "results", path.parent):
        args = [command, str(root)] + (["--kind", "curves"] if command == "plot" else [])
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"{path}: Is a directory\n")


def test_plot_embedding_draws_each_run_with_captures(tmp_path, capsys):
    """A root that mixes 2-d and wider embeddings: every 2-d run is drawn,
    and each other run gets one note on stderr."""
    cfg = write_config(tmp_path, seeds="0", methods={
        "E-EWC": {"embedding_dim": 4}, "E-FT+SDC": {"method": "E-FT", "sdc": "true"}})
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    root = tmp_path / "results"
    assert main(["plot", str(root), "--kind", "embedding"]) == 0
    out, err = capsys.readouterr()
    drawn = sorted(p.name for p in (root / "plots").iterdir())
    assert drawn == ["E-FT+SDC_seed0_embedding_task2.svg"]
    assert out.split() == [str(root / "plots" / drawn[0])]
    assert err == (f"{root / 'E-EWC' / '0' / 'record.json'}: no 2-d captures; "
                   "embedding plots need embedding_dim = 2\n")


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
    (tmp_path / "loop").symlink_to("loop")  # naming it resolves no further
    assert main(["compare", str(tmp_path / "loop")]) == 1
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


def test_compare_multiple_dirs_prefixed(results_dir, tmp_path, capsys, monkeypatch):
    """Each row is prefixed by its root's resolved name, "." included."""
    other = tmp_path / "other"
    cfg = write_config(tmp_path, out_name="other", seeds="0")
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    monkeypatch.chdir(results_dir)
    for dirs in ([results_dir, other], [".", other]):
        assert main(["compare", *map(str, dirs)]) == 0
        out = capsys.readouterr().out
        assert "| other:E-FT |" in out
        assert "| results:E-FT |" in out


def test_compare_refuses_roots_with_one_name(results_dir, tmp_path, capsys, monkeypatch):
    """Rows of several roots are labelled <root name>:<label>, so two roots
    named alike that hold one label (or one root given twice, under any
    spelling) would pool their runs in one row."""
    other = tmp_path / "elsewhere" / "results"
    cfg = write_config(tmp_path, out_name="elsewhere/results", seeds="0",
                       methods={"E-FT": {"epochs": 2}})
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    monkeypatch.chdir(results_dir)
    for dirs in ([results_dir, other], [results_dir, results_dir], [".", "../results"]):
        assert main(["compare", *map(str, dirs)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"{dirs[0]} and {dirs[1]} both give the row results:E-FT; their "
                       "runs would pool under one label\n")


def test_compare_two_run_directories_of_one_seed(results_dir, tmp_path, capsys):
    """Two run directories are both named by their seed, yet their rows
    <seed>:<label> differ, so E-X against E-X+SDC compares; two runs of
    one label and seed from different roots would share a row and do not."""
    assert main(["compare", str(results_dir / "E-FT+SDC" / "0"),
                 str(results_dir / "E-FT" / "0")]) == 0
    out = capsys.readouterr().out
    assert "| 0:E-FT+SDC |" in out and "| 0:E-FT |" in out
    copy = tmp_path / "copy" / "E-FT" / "0"
    copy.mkdir(parents=True)
    (copy / "a_matrix.csv").write_bytes((results_dir / "E-FT" / "0" / "a_matrix.csv")
                                        .read_bytes())
    assert main(["compare", str(results_dir / "E-FT" / "0"), str(copy)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "both give the row 0:E-FT;" in err


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


def test_compare_reads_a_last_row_only_csv(tmp_path, capsys):
    """Joint evaluates its last row only: task 3 in 3 cells is complete."""
    path = tmp_path / "results" / "Joint" / "0" / "a_matrix.csv"
    path.parent.mkdir(parents=True)
    path.write_text("k,j,accuracy\n3,1,0.5\n3,2,0.25\n3,3,0.75\n")
    assert main(["compare", str(tmp_path / "results")]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "| Joint | - | - | 0.5000 ± 0.0000 |"


@pytest.mark.parametrize("k", [2**70, 10**7])
def test_compare_rejects_a_task_beyond_the_cells_held(tmp_path, k):
    """compare sizes its table by the largest task, so a row k no file can
    complete is an error at once: 2**70 raised OverflowError, and 10**7
    built a table of ten million columns."""
    path = tmp_path / "results" / "E-FT" / "0" / "a_matrix.csv"
    path.parent.mkdir(parents=True)
    path.write_text(f"k,j,accuracy\n{k},1,0.5\n")
    done = _driftlab_in_c_locale("compare", str(tmp_path / "results"), timeout=30)
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == os.fsencode(
        f"{path}: task {k} exceeds the 1 cell(s) held; row {k} cannot be complete\n")


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
    ('{"method": "E-FT", "seed": 0, "n_tasks": 1, "task_classes": 5, "accuracy": {}}',
     "field 'task_classes' is not a list"),
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
    ({"1": {"1": None}}, "accuracy cell a[1][1] is null, not a number"),
    ({"1": {"1": [0.5]}}, "accuracy cell a[1][1] is [0.5], not a number"),
    ({"1": {"1": {"v": 0.5}}}, 'accuracy cell a[1][1] is {"v": 0.5}, not a number'),
    ({"1": [0.5]}, "accuracy[1] is not an object"),
    ([[0.5]], "field 'accuracy' is not an object"),
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


@pytest.mark.parametrize("kind, field, entry, message", [
    ("confusion", "confusions", {"classes": [0, 1]}, "confusions[1] has no 'counts'"),
    ("confusion", "confusions", {"classes": [0, 1], "counts": [[2, 0], [0]]},
     "confusions[1] is not a square of counts, a row and a column per class"),
    ("confusion", "confusions", {"classes": [0, 1], "counts": [[2, -1], [0, 2]]},
     "confusions[1].counts[0][1] is -1, not a count"),
    ("embedding", "embed2d", {"points": [[0.0, 1.0]], "labels": [0],  # no "prototypes"
                              "compensation": {"0": [0.0, 0.0]},
                              "true_means": {"0": [0.0, 1.0]}},
     "embed2d[1] has no 'prototypes'"),
    ("curves", "sdc_events", [0.5], "sdc_events[1] is not an object"),
    ("curves", "proto_distance", 0.5, "proto_distance[1] is not an object"),
])
def test_plot_rejects_a_damaged_checkpoint_entry(tmp_path, capsys, kind, field, entry,
                                                 message):
    path = tmp_path / "results" / "E-FT" / "0" / "record.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"method": "E-FT", "seed": 0, "n_tasks": 1,
                                "task_classes": [[0, 1]], "accuracy": {"1": {"1": 1.0}},
                                field: {"1": entry}}))
    assert main(["plot", str(tmp_path / "results"), "--kind", kind]) == 1
    err = capsys.readouterr().err
    assert err == f"{path}: {message}\n"
    assert not (tmp_path / "results" / "plots").exists()


@pytest.mark.parametrize("field, value, message", [
    ("method", "../../escaped",
     "field 'method' '../../escaped' must be a plain name: not empty, not . or ..,"),
    ("method", "", "field 'method' '' must be a plain name"),
    ("method", 7, "field 'method' 7 must be a plain name"),
    ("seed", [1], "field 'seed' is not an int"),
    ("seed", True, "field 'seed' is true, not an int"),
    ("n_tasks", "2", 'field \'n_tasks\' is "2", not an int of at least 1'),
    ("n_tasks", 0, "field 'n_tasks' is 0, not an int of at least 1"),
    ("param_digest", ["ab"], "field 'param_digest' is not an object"),
    ("param_digest", {"1": 5}, "param_digest[1] is 5, not a string"),
], ids=["method-escapes", "method-empty", "method-int", "seed-list", "seed-bool",
        "n_tasks-str", "n_tasks-zero", "digest-list", "digest-int"])
def test_plot_rejects_a_bad_identity_field(tmp_path, capsys, field, value, message):
    """``plot`` names its files by a record's method and seed and counts
    its tasks by ``n_tasks``: a bad one exits 1 with ``<path>: ...``, for
    every kind and either root, and nothing is written."""
    path = tmp_path / "results" / "E-FT" / "0" / "record.json"
    path.parent.mkdir(parents=True)
    record = {"method": "E-FT", "seed": 0, "n_tasks": 2,
              "task_classes": [[0, 1], [2, 3]],
              "accuracy": {"1": {"1": 1.0}, "2": {"1": 0.5, "2": 0.5}},
              "confusions": {"1": {"classes": [0, 1], "counts": [[1, 0], [0, 1]]}},
              "param_digest": {"1": "ab", "2": "cd"}}
    path.write_text(json.dumps(dict(record, **{field: value})))
    for root in (tmp_path / "results", path.parent):
        for kind in ("curves", "confusion"):
            assert main(["plot", str(root), "--kind", kind]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"{path}: {message}") and err.count("\n") == 1
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]


def _write_record(run_dir: Path, **changes) -> Path:
    """A one-run directory whose record.json holds a small valid record,
    with the fields in ``changes`` in place of its own."""
    record = {"method": "E-FT", "seed": 0, "n_tasks": 1, "task_classes": [[0, 1]],
              "accuracy": {"1": {"1": 1.0}},
              "confusions": {"1": {"classes": [0, 1], "counts": [[1, 0], [0, 1]]}}}
    run_dir.mkdir(parents=True)
    (run_dir / "record.json").write_text(json.dumps(dict(record, **changes)))
    return run_dir / "record.json"


@pytest.mark.parametrize("kind, changes, message", [
    ("curves", {"accuracy": {}}, "curves.svg: no series to plot"),
    ("confusion", {"confusions": {"1": {"classes": [], "counts": []}}},
     "E-FT_seed0_confusion_task1.svg: empty confusion matrix"),
])
def test_plot_a_figure_that_cannot_be_drawn_exit_1(tmp_path, capsys, kind, changes, message):
    path = _write_record(tmp_path / "run" / "E-FT" / "0", **changes)
    assert main(["plot", str(path.parent), "--kind", kind]) == 1
    assert capsys.readouterr().err == f"{path.parent / 'plots'}/{message}\n"


def test_plot_a_record_nested_too_deep_for_the_decoder_exit_1(tmp_path, capsys):
    path = tmp_path / "run" / "record.json"
    path.parent.mkdir()
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["plot", str(path.parent), "--kind", "curves"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: maximum recursion depth exceeded") and err.count("\n") == 1


def test_plot_rejects_compensation_without_a_prototype(tmp_path, capsys):
    capture = {"points": [[0.0, 1.0]], "labels": [0], "prototypes": {"0": [0.0, 1.0]},
               "compensation": {"0": [0.0, 0.0], "9": [0.1, 0.0]}, "true_means": {}}
    path = _write_record(tmp_path / "run", embed2d={"1": capture})
    assert main(["plot", str(path.parent), "--kind", "embedding"]) == 1
    assert capsys.readouterr().err == (
        f"{path}: embed2d[1] is not a capture whose compensated classes all have prototypes\n")


def test_plot_into_an_unwritable_plots_dir_exit_1(tmp_path, capsys):
    path = _write_record(tmp_path / "run")
    (path.parent / "plots").write_text("a file, not a directory")
    for kind in ("curves", "confusion"):
        assert main(["plot", str(path.parent), "--kind", kind]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path.parent / 'plots'}: ") and err.count("\n") == 1


def test_a_run_directory_the_locale_cannot_decode_plots_and_compares(tmp_path):
    """Under an ASCII locale a run directory ``Ω-FT/0`` names its figures
    and its row: the name goes back out as the directory's own bytes."""
    run_dir = os.fsencode(tmp_path) + "/Ω-FT/0".encode()
    os.makedirs(run_dir)
    with open(run_dir + b"/record.json", "w", encoding="utf-8") as fh:
        json.dump({"method": "E-FT", "seed": 0, "n_tasks": 1, "task_classes": [[0, 1]],
                   "accuracy": {"1": {"1": 1.0}},
                   "confusions": {"1": {"classes": [0, 1], "counts": [[1, 0], [0, 1]]}}}, fh)
    with open(run_dir + b"/a_matrix.csv", "w", encoding="utf-8") as fh:
        fh.write("k,j,accuracy\n1,1,1.0\n")
    done = _driftlab_in_c_locale("plot", run_dir, "--kind", "confusion")
    assert done.returncode == 0, done.stderr
    assert os.listdir(run_dir + b"/plots") == ["Ω-FT_seed0_confusion_task1.svg".encode()]
    done = _driftlab_in_c_locale("compare", run_dir)
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode("utf-8").splitlines()[2] == "| Ω-FT | 1.0000 ± 0.0000 |"


@pytest.mark.parametrize("row, code", [(1, 0), (2**70, 1)])
def test_plot_curves_work_is_bounded_by_the_rows_held(tmp_path, row, code):
    """A record claiming 2**70 tasks plots at once: the curve runs over the
    accuracy rows a record holds, not up to n_tasks, and a row is complete
    when it holds k cells, not after a scan of tasks 1..k. Row 2**70
    holds one cell, so no curve has a point."""
    path = _write_record(tmp_path / "run", n_tasks=2**70, accuracy={str(row): {"1": 0.5}})
    done = _driftlab_in_c_locale("plot", str(path.parent), "--kind", "curves", timeout=30)
    assert done.returncode == code and b"Traceback" not in done.stderr
    assert (path.parent / "plots" / "curves.svg").exists() == (code == 0)


MUTANTS = [None, "x", -1, True, [], {}, [[1]], float("nan"), 2**70, {"9": [0.0, 1.0]}]


def _nodes(value, path=()):
    """The key path of every node of a JSON value, the root first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _nodes(child, path + (key,))


def _timed_out(signum, frame):
    raise TimeoutError("plot ran for more than 5 s")


def test_plot_survives_seeded_record_mutations(results_dir, tmp_path, capsys):
    """A 2-d E-FT+SDC record with one node (a leaf or a container, the
    root included) replaced by one of MUTANTS, in a fixed sample of 500:
    every plot kind exits 0, or exits 1 printing ``<path>: ...``. None
    raises, and none runs past 5 s (a SIGALRM stops it)."""
    text = (results_dir / "E-FT+SDC" / "0" / "record.json").read_text()
    record = json.loads(text)
    assert record["embed2d"] and record["sdc_events"]
    cases = [(path, m) for path in _nodes(record) for m in range(len(MUTANTS))]
    run_dir = tmp_path / "E-FT+SDC" / "0"
    run_dir.mkdir(parents=True)
    prefixes = (f"{run_dir / 'record.json'}: ", f"{run_dir / 'plots'}")
    failures = set()
    old = signal.signal(signal.SIGALRM, _timed_out)
    try:
        for path, m in random.Random(12).sample(cases, 500):
            mutant = json.loads(text)
            if path:
                parent = mutant
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = MUTANTS[m]
            else:
                mutant = MUTANTS[m]
            (run_dir / "record.json").write_text(json.dumps(mutant))
            where = ".".join("*" if isinstance(key, int) else key for key in path)
            for kind in ("curves", "embedding", "confusion"):
                signal.setitimer(signal.ITIMER_REAL, 5)
                try:
                    code = main(["plot", str(run_dir), "--kind", kind])
                except Exception as e:
                    failures.add((kind, type(e).__name__, where))
                    continue
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                err = capsys.readouterr().err
                if not (code == 0 or code == 1 and err.startswith(prefixes)):
                    failures.add((kind, f"exit {code}: {err}", where))
    finally:
        signal.signal(signal.SIGALRM, old)
    assert sorted(failures) == []


def test_plot_leaves_no_temp_file(results_dir):
    """Each SVG goes through the results' writer: written into a temp
    sibling and renamed into place, so plots/ ends with SVGs only."""
    for kind in ("curves", "embedding", "confusion"):
        assert main(["plot", str(results_dir), "--kind", kind]) == 0
    names = os.listdir(results_dir / "plots")
    assert "curves.svg" in names
    assert [n for n in names if not n.endswith(".svg")] == []


@pytest.mark.parametrize("margin", ["inf", "1e400"])
def test_run_infinite_margin_exit_2(tmp_path, capsys, margin):
    cfg = write_config(tmp_path, seeds="0", methods={"E-FT": {"margin": margin}})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "[method E-FT]: margin must be finite and nonnegative, got inf" in err
    assert not (tmp_path / "results").exists()  # nothing trained


def test_run_drops_each_book_once_its_files_are_written(tmp_path, capsys, monkeypatch):
    """The A_k table reads only accuracy rows: no returned record, with its
    confusions and SDC events, lives on into the next run or the table,
    and the table is the one ``compare`` prints from the written
    a_matrix.csv files. The prototype book never leaves ``run_sequence``."""
    records = []
    inner_run, inner_table = cli.run_sequence, cli._print_ak_table

    def run(*args):
        assert [r() for r in records] == [None] * len(records)
        record = inner_run(*args)
        records.append(weakref.ref(record))
        return record

    def table(*args):
        assert [r() for r in records] == [None] * len(records)
        inner_table(*args)

    monkeypatch.setattr(cli, "run_sequence", run)
    monkeypatch.setattr(cli, "_print_ak_table", table)
    cfg = write_config(tmp_path, methods={"E-FT": {}, "E-FT+SDC":
                                          {"method": "E-FT", "sdc": "true"}})
    assert main(["run", str(cfg)]) == 0
    assert len(records) == 4
    ran = capsys.readouterr().out
    assert main(["compare", str(tmp_path / "results")]) == 0
    table = capsys.readouterr().out
    assert table.startswith("| method | A_1 | A_2 |\n") and table.count("\n") == 4
    assert ran.endswith("\n\n" + table)


def _python(probe: str) -> str:
    """Stdout of ``probe``, read as UTF-8 whatever the locale, run by a
    fresh interpreter that imports this checkout's driftlab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, encoding="utf-8").stdout


def test_cli_import_loads_no_xml_or_http_stack():
    """``driftlab.cli`` adds none of ``xml``, ``urllib.request``,
    ``http.client``, ``ssl`` and ``email`` to ``sys.modules``; the
    comparison is before and after the import, since a site hook may
    preload some modules."""
    added = _python("import sys; before = set(sys.modules); import driftlab.cli; "
                    "print(' '.join(sorted(set(sys.modules) - before)))").split()
    assert "driftlab.svgplot" in added
    heavy = ("xml", "urllib.request", "http.client", "ssl", "email")
    assert [m for m in added if any(m == h or m.startswith(h + ".") for h in heavy)] == []


def test_run_never_imports_numpy_ma(tmp_path):
    """A run through every place that lists a dataset's distinct labels
    (the task split, ``pretrain_classes``, the E-EWC/E-MAS importance
    order, each checkpoint's prototypes) leaves numpy.ma unimported: a
    plain ``np.unique`` would import it, and the process would hold its
    memory until exit."""
    cfg = write_config(tmp_path, seeds="0", dataset={"n_classes": 6, "pretrain_classes": 2},
                       methods={"E-FT+SDC": {"method": "E-FT", "sdc": "true"},
                                "E-EWC": {}, "E-MAS": {}, "E-Pre-substitute": {},
                                "FT": {}})
    out = _python("import sys; from driftlab.cli import main; "
                  f"code = main(['run', {str(cfg)!r}]); "
                  "print(code, 'numpy.ma' in sys.modules)").split()
    assert out[-2:] == ["0", "False"]
