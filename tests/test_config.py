import re
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import write_csv_dataset
from driftlab.cli import main
from driftlab.config import ConfigError, build_sequences, load_config
from driftlab.data import gen_gaussian_clusters
from driftlab.harness import MethodConfig


def write_ini(tmp_path, body, name="exp.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(body))
    return str(p)


BASE = """\
    [experiment]
    output_dir = out
    seeds = 0 1 2

    [dataset]
    source = synthetic
    n_classes = 4
    per_class = 20
    dim = 5
    n_tasks = 2

    [method E-FT]
    epochs = 5
    """


def test_happy_path(tmp_path):
    cfg = load_config(write_ini(tmp_path, BASE))
    assert cfg.output_dir == "out"
    assert cfg.seeds == [0, 1, 2]
    assert cfg.dataset["source"] == "synthetic"
    assert cfg.dataset["n_tasks"] == 2
    assert cfg.methods == [("E-FT", {"epochs": 5, "method": "E-FT"})]


def test_comma_seeds_and_defaults(tmp_path):
    body = BASE.replace("seeds = 0 1 2", "seeds = 3,4").replace(
        "output_dir = out\n", "")
    cfg = load_config(write_ini(tmp_path, body))
    assert cfg.seeds == [3, 4]
    assert cfg.output_dir == "results"


def test_environment_does_not_replace_seeds(tmp_path, monkeypatch):
    """The INI's seeds list is the only one: no environment variable
    replaces it."""
    monkeypatch.setenv("DRIFTLAB_SEED_OVERRIDE", "7 8")
    cfg = load_config(write_ini(tmp_path, BASE))
    assert cfg.seeds == [0, 1, 2]


def test_duplicate_seeds_rejected(tmp_path, capsys):
    ini = write_ini(tmp_path, BASE.replace("seeds = 0 1 2", "seeds = 0 1 0"))
    with pytest.raises(ConfigError, match=r"\[experiment\] seeds lists 0 more than once"):
        load_config(ini)
    assert main(["run", ini]) == 2
    assert "config error:" in capsys.readouterr().err


def test_label_different_from_method(tmp_path):
    body = BASE + textwrap.dedent("""\

        [method E-FT+SDC]
        method = E-FT
        sdc = true
        """)
    cfg = load_config(write_ini(tmp_path, body))
    assert cfg.methods[1] == ("E-FT+SDC", {"method": "E-FT", "sdc": True})


@pytest.mark.parametrize("label", [".", "..", "../escaped", "a/b", "/abs", "a\\b"])
def test_path_like_label_rejected_at_load(tmp_path, monkeypatch, capsys, label):
    # the label names the results/<label>/ directory: a path there writes
    # outside output_dir, or deeper than compare and plot look
    monkeypatch.chdir(tmp_path)
    ini = write_ini(tmp_path, BASE.replace("[method E-FT]", f"[method {label}]")
                    + "method = E-FT\n")
    with pytest.raises(ConfigError, match="must be a plain name"):
        load_config(ini)
    assert main(["run", ini]) == 2
    assert "config error: method label" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


def test_config_is_read_as_utf8(tmp_path):
    body = textwrap.dedent(BASE) + "; σ is the kernel width\n"
    path = tmp_path / "exp.ini"
    path.write_bytes(body.encode("utf-8"))
    assert load_config(str(path)).methods == [("E-FT", {"epochs": 5, "method": "E-FT"})]
    path.write_bytes(body.encode("latin-1", "replace") + b"; caf\xe9\n")
    with pytest.raises(ConfigError, match="cannot parse .*utf-8"):
        load_config(str(path))


def test_hidden_parses_to_tuple(tmp_path):
    body = BASE + "hidden = 32 16\n"
    cfg = load_config(write_ini(tmp_path, body))
    assert cfg.methods[0][1]["hidden"] == (32, 16)


@pytest.mark.parametrize("word, value", [
    ("1", True), ("YES", True), ("True", True), ("on", True),
    ("0", False), ("No", False), ("FALSE", False), ("oFF", False), ("maybe", None),
])
def test_bool_words_in_any_case(tmp_path, word, value):
    ini = write_ini(tmp_path, BASE + f"sdc = {word}\n")
    if value is None:
        with pytest.raises(ConfigError, match=re.escape(
                f"[method E-FT] sdc = {word!r} is not a valid bool")):
            load_config(ini)
    else:
        assert load_config(ini).methods[0][1]["sdc"] is value


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/exp.ini")


def test_a_path_that_cannot_be_read_is_named(tmp_path, capsys):
    """A directory exists but cannot be read as a config: the error says
    so, instead of a missing [experiment] section."""
    with pytest.raises(ConfigError, match=re.escape(f"cannot read {tmp_path}: Is a directory")):
        load_config(str(tmp_path))
    assert main(["run", str(tmp_path)]) == 2
    assert f"config error: cannot read {tmp_path}" in capsys.readouterr().err


def test_unknown_keys_named(tmp_path):
    bad = BASE.replace("output_dir", "outdir")
    with pytest.raises(ConfigError, match="'outdir'"):
        load_config(write_ini(tmp_path, bad))
    bad = BASE.replace("per_class", "perclass")
    with pytest.raises(ConfigError, match="'perclass'"):
        load_config(write_ini(tmp_path, bad))
    bad = BASE.replace("epochs", "n_epochs")
    with pytest.raises(ConfigError, match="'n_epochs'"):
        load_config(write_ini(tmp_path, bad))


@pytest.mark.parametrize("key, value", [
    ("renormalize_prototypes", "true"), ("importance_mode", "latest"),
    ("weight_floor", "0"), ("weight_floor", "inf"), ("weight_floor", "1e-12"),
])
def test_removed_method_knobs_rejected_at_load(tmp_path, capsys, monkeypatch,
                                               key, value):
    # method knobs that no longer exist fail the run at load, by name
    monkeypatch.chdir(tmp_path)  # BASE writes to the relative output_dir "out"
    ini = write_ini(tmp_path, BASE.replace("[method E-FT]", "[method E-EWC]")
                    + f"{key} = {value}\n")
    assert main(["run", ini]) == 2
    assert f"unknown key {key!r} in [method E-EWC]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_section(tmp_path):
    bad = BASE + "\n    [plotting]\n    dpi = 100\n"
    with pytest.raises(ConfigError, match="plotting"):
        load_config(write_ini(tmp_path, bad))


def test_missing_required_sections(tmp_path):
    with pytest.raises(ConfigError, match="experiment"):
        load_config(write_ini(tmp_path, "[dataset]\nsource = synthetic\n"))
    with pytest.raises(ConfigError, match="dataset"):
        load_config(write_ini(tmp_path, "[experiment]\nseeds = 0\n"))


def test_no_methods(tmp_path):
    body = "\n".join(BASE.split("\n")[:11])  # drop the method section
    with pytest.raises(ConfigError, match="method"):
        load_config(write_ini(tmp_path, body))


def test_bad_values(tmp_path):
    bad = BASE.replace("seeds = 0 1 2", "seeds = 0 x")
    with pytest.raises(ConfigError, match="not a valid int"):
        load_config(write_ini(tmp_path, bad))
    bad = BASE.replace("source = synthetic", "source = imagenet")
    with pytest.raises(ConfigError, match="imagenet"):
        load_config(write_ini(tmp_path, bad))
    bad = BASE.replace("[method E-FT]", "[method E-SGD]")
    with pytest.raises(ConfigError, match="E-SGD"):
        load_config(write_ini(tmp_path, bad))


def test_method_validation_happens_at_load(tmp_path):
    body = BASE + "sdc = yes\n"  # sdc on the embedding method is fine
    load_config(write_ini(tmp_path, body))
    bad = BASE.replace("[method E-FT]", "[method FT]") + "sdc = yes\n"
    with pytest.raises(ConfigError, match="sdc"):
        load_config(write_ini(tmp_path, bad))


def test_fisher_variant_checked_at_load(tmp_path):
    ewc = BASE.replace("[method E-FT]", "[method E-EWC]")
    cfg = load_config(write_ini(tmp_path, ewc + "fisher_variant = squared_norm\n"))
    assert cfg.methods[0][1]["fisher_variant"] == "squared_norm"
    with pytest.raises(ConfigError, match="fisher_variant.*proto-softmax"):
        load_config(write_ini(tmp_path, ewc + "fisher_variant = proto-softmax\n"))


@pytest.mark.parametrize("key, value", [
    ("epochs", "0"), ("batch_size", "1"), ("lr", "-0.01"), ("lr", "0"),
    ("sigma", "-1"), ("margin", "-0.1"),
    ("embedding_dim", "0"), ("hidden", "256 0"), ("gamma", "-1"), ("gamma", "nan"),
    ("gamma", "inf"), ("lr", "inf"), ("sigma", "inf"), ("margin", "inf"),
    ("sigma", "1e-200"), ("sigma", "1e200"),  # 2 sigma^2 underflows to 0, overflows
])
def test_out_of_range_numbers_rejected_at_load(tmp_path, key, value):
    body = BASE.replace("epochs = 5\n", "") + f"{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"\[method E-FT\]: {key} must be"):
        load_config(write_ini(tmp_path, body))


@pytest.mark.parametrize("key, value", [
    ("pretrain_classes", "-2"), ("spread", "-0.1"), ("spread", "nan"), ("spread", "inf"),
])
def test_bad_dataset_numbers_rejected_at_load(tmp_path, key, value):
    body = BASE.replace("n_tasks = 2\n", f"n_tasks = 2\n    {key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"\[dataset\] {key} must be .*got {value}"):
        load_config(write_ini(tmp_path, body))


def test_source_required_keys(tmp_path):
    body = BASE.replace("source = synthetic", "source = idx")
    with pytest.raises(ConfigError, match="images"):
        load_config(write_ini(tmp_path, body))
    body = BASE.replace("source = synthetic", "source = csv")
    with pytest.raises(ConfigError, match="path"):
        load_config(write_ini(tmp_path, body))


SYNTHETIC_KEYS = "source = synthetic\n    n_classes = 4\n    per_class = 20\n    dim = 5\n"
OWN_KEYS = {"synthetic": SYNTHETIC_KEYS, "digits": "source = digits\n",
            "idx": "source = idx\n    images = a.idx\n    labels = b.idx\n",
            "csv": "source = csv\n    path = a.csv\n"}


def with_dataset(source, extra=""):
    """BASE with ``source`` and its own keys, plus ``extra`` [dataset] lines."""
    return BASE.replace(SYNTHETIC_KEYS, OWN_KEYS[source]).replace(
        "n_tasks = 2\n", "n_tasks = 2\n" + "".join(f"    {line}\n" for line in extra.splitlines()))


def test_negative_seed_rejected_before_the_data_is_read(tmp_path, capsys):
    data = tmp_path / "a.csv"
    write_csv_dataset(str(data), gen_gaussian_clusters(4, 10, 3, 0.2, seed=0))
    ini = write_ini(tmp_path, with_dataset("csv").replace(
        "seeds = 0 1 2", "seeds = 3 -2").replace("path = a.csv", f"path = {data}"))
    with pytest.raises(ConfigError, match=r"^\[experiment\] seeds must be nonnegative, got -2$"):
        load_config(ini)
    assert main(["run", ini]) == 2
    assert capsys.readouterr().err == ("config error: [experiment] seeds must be "
                                       "nonnegative, got -2\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "exp.ini"]  # no sidecar


@pytest.mark.parametrize("key", ["test_images", "test_labels"])
def test_idx_test_files_go_together(tmp_path, capsys, key):
    """A test file without its partner exits 2 at load: the run would
    otherwise score a held-out split of the training file."""
    ini = write_ini(tmp_path, with_dataset("idx", f"{key} = c.idx"))
    with pytest.raises(ConfigError, match="test_images and test_labels go together"):
        load_config(ini)
    assert main(["run", ini]) == 2
    assert "config error:" in capsys.readouterr().err
    both = with_dataset("idx", "test_images = c.idx\ntest_labels = d.idx")
    assert load_config(write_ini(tmp_path, both)).dataset["test_labels"] == "d.idx"


def test_test_fraction_beside_test_files_exits_2(tmp_path, capsys):
    """The split holds nothing out when test files are given, so a
    test_fraction there would be ignored: it exits 2 at load."""
    ini = write_ini(tmp_path, with_dataset(
        "idx", "test_images = c.idx\ntest_labels = d.idx\ntest_fraction = 0.3"))
    with pytest.raises(ConfigError, match="'test_fraction' is not read beside test_images"):
        load_config(ini)
    assert main(["run", ini]) == 2
    assert "config error: [dataset] 'test_fraction'" in capsys.readouterr().err
    alone = with_dataset("idx", "test_fraction = 0.3")
    assert load_config(write_ini(tmp_path, alone)).dataset["test_fraction"] == 0.3


@pytest.mark.parametrize("source, key, value", [
    ("synthetic", "path", "/nonexistent.csv"), ("synthetic", "images", "a.idx"),
    ("csv", "n_classes", "4"), ("digits", "spread", "0.1"), ("idx", "path", "a.csv"),
])
def test_key_of_another_source_rejected(tmp_path, capsys, source, key, value):
    assert load_config(write_ini(tmp_path, with_dataset(source))).dataset["source"] == source
    ini = write_ini(tmp_path, with_dataset(source, f"{key} = {value}"))
    with pytest.raises(ConfigError, match=f"'{key}' is not read by source = {source}"):
        load_config(ini)
    assert main(["run", ini]) == 2
    assert "config error:" in capsys.readouterr().err


# ---- dataset realization


def test_build_synthetic_sequence():
    opts = {"source": "synthetic", "n_classes": 4, "per_class": 20,
            "dim": 5, "n_tasks": 2, "test_fraction": 0.25}
    seq = build_sequences(opts, [0])[0]
    assert seq.pretrain is None
    assert len(seq) == 2
    assert all(len(t.test.labels) == 10 for t in seq.tasks)
    again = build_sequences(opts, [0])[0]
    assert np.array_equal(seq.tasks[0].train.features,
                          again.tasks[0].train.features)


def test_pretrain_carve_reserves_top_classes():
    opts = {"source": "synthetic", "n_classes": 6, "per_class": 20,
            "dim": 5, "n_tasks": 2, "pretrain_classes": 2}
    seq = build_sequences(opts, [3])[3]
    assert sorted(np.unique(seq.pretrain.labels)) == [4, 5]
    task_classes = sorted(c for t in seq.tasks for c in t.classes)
    assert task_classes == [0, 1, 2, 3]
    # reservation is seed-independent
    assert sorted(np.unique(build_sequences(opts, [9])[9].pretrain.labels)) == [4, 5]


def test_pretrain_carve_too_large():
    opts = {"source": "synthetic", "n_classes": 3, "per_class": 10,
            "dim": 4, "n_tasks": 2, "pretrain_classes": 3}
    with pytest.raises(ConfigError, match="pretrain"):
        build_sequences(opts, [0])[0]


def test_indivisible_split_is_config_error():
    opts = {"source": "synthetic", "n_classes": 5, "per_class": 10,
            "dim": 4, "n_tasks": 2}
    with pytest.raises(ConfigError, match="divide"):
        build_sequences(opts, [0])[0]


@pytest.mark.parametrize("key, value, message", [
    ("n_classes", 0, "must be positive"), ("per_class", 0, "must be positive"),
    ("dim", 0, "must be positive"), ("spread", float("nan"), "feature row 0 holds NaN"),
])
def test_bad_synthetic_values_are_config_errors(key, value, message):
    opts = {"source": "synthetic", "n_classes": 4, "per_class": 10, "dim": 3,
            "n_tasks": 2, key: value}
    with pytest.raises(ConfigError, match=message):
        build_sequences(opts, [0])[0]


def test_build_csv_sequence(tmp_path):
    ds = gen_gaussian_clusters(4, 15, 3, 0.2, seed=1)
    path = tmp_path / "data.csv"
    write_csv_dataset(str(path), ds)
    seq = build_sequences({"source": "csv", "path": str(path),
                              "n_tasks": 2}, [0])[0]
    assert len(seq) == 2
    assert sum(len(t.train.labels) + len(t.test.labels) for t in seq.tasks) == 60


def test_build_digits_sequence():
    pytest.importorskip("sklearn")
    seq = build_sequences({"source": "digits", "n_tasks": 5}, [0])[0]
    assert len(seq) == 5
    assert all(len(t.classes) == 2 for t in seq.tasks)
    assert seq.input_dim == 64
    feats = seq.tasks[0].train.features
    assert feats.min() >= 0.0 and feats.max() <= 1.0


# ---- method keys are MethodConfig's fields


def _ini_text(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


@pytest.mark.parametrize("name", [f.name for f in fields(MethodConfig) if f.name != "seed"])
def test_every_method_field_is_a_documented_key(tmp_path, name):
    default = getattr(MethodConfig("E-FT"), name)  # gamma: E-FT's 0.0, not None
    body = BASE.replace("epochs = 5\n", "") + f"{name} = {_ini_text(default)}\n"
    kwargs = load_config(write_ini(tmp_path, body)).methods[0][1]
    assert kwargs == {"method": "E-FT", name: default}
    assert MethodConfig(**kwargs) == MethodConfig("E-FT")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraphs = (" ".join(p.split()) for p in readme.split("\n\n"))
    knobs = next(p for p in paragraphs if "Knobs, with defaults" in p)
    assert f"`{name}`" in knobs
