"""Experiment configuration: INI files with three section kinds.

::

    [experiment]
    output_dir = results
    seeds = 0 1 2

    [dataset]
    source = synthetic          ; synthetic | digits | idx | csv
    n_classes = 10
    per_class = 100
    dim = 16
    spread = 0.15
    n_tasks = 5
    test_fraction = 0.2

    [method E-FT+SDC]
    method = E-FT               ; defaults to the section label
    sdc = true

Every unknown section or key is an error that names the offender.
``DRIFTLAB_SEED_OVERRIDE`` in the environment replaces the seeds list;
it exists for CI and is the only environment hook.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .data import LabeledDataset, gen_gaussian_clusters, read_csv_dataset, read_idx
from .harness import METHOD_SPECS, MethodConfig, TaskSequence, split_tasks

SEED_ENV = "DRIFTLAB_SEED_OVERRIDE"

SOURCES = ("synthetic", "digits", "idx", "csv")
_SEEDED_SOURCES = ("synthetic",)  # the others load the same data for every seed
_REQUIRED_BY_SOURCE = {"idx": ("images", "labels"), "csv": ("path",)}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    output_dir: str
    seeds: list
    dataset: dict
    methods: list = field(default_factory=list)  # [(label, kwargs), ...]


def _parse_value(section, key, raw, kind):
    if kind in (tuple, list):  # integers: hidden widths, or seeds that must differ
        return kind(_parse_int_list(section, key, raw, distinct=kind is list))
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}"
        ) from None


def _parse_int_list(section, key, raw, distinct=False):
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"[{section}] {key} must list at least one integer")
    values = [_parse_value(section, key, p, int) for p in parts]
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if distinct and repeated:  # two runs of one seed would share a directory
        raise ConfigError(f"[{section}] {key} lists {repeated[0]} more than once")
    return values


def _section(parser, name, types) -> dict:
    """Section ``name``'s keys, each parsed as its kind in ``types``; a key
    not in ``types`` is an error that names it."""
    values = {}
    for key in parser[name]:
        if key not in types:
            raise ConfigError(f"unknown key {key!r} in [{name}]")
        values[key] = _parse_value(name, key, parser[name][key], types[key])
    return values


# the parser of each MethodConfig annotation; an unmapped one fails at import
_PARSERS = {"bool": bool, "int": int, "float": float, "float | None": float,
            "str": str, "tuple": tuple}
_METHOD_TYPES = {f.name: _PARSERS[f.type] for f in fields(MethodConfig) if f.name != "seed"}

_DATASET_TYPES = {
    "source": str, "n_classes": int, "per_class": int, "dim": int,
    "spread": float, "n_tasks": int, "first_task_fraction": float,
    "test_fraction": float, "pretrain_classes": int,
    "images": str, "labels": str, "test_images": str, "test_labels": str,
    "path": str,
}

DATASET_KEYS = set(_DATASET_TYPES)
METHOD_KEYS = set(_METHOD_TYPES)  # MethodConfig's fields but the run's seed


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keep key case as written
    try:
        parser.read(path)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse {path}: {e}") from None

    for required in ("experiment", "dataset"):
        if required not in parser:
            raise ConfigError(f"missing [{required}] section")

    exp = _section(parser, "experiment", {"output_dir": str, "seeds": list})
    if "seeds" not in exp:
        raise ConfigError("[experiment] needs a seeds list")
    seeds = exp["seeds"]
    if SEED_ENV in os.environ:
        seeds = _parse_int_list("environment", SEED_ENV, os.environ[SEED_ENV],
                                distinct=True)
    output_dir = exp.get("output_dir", "results")

    dataset = _section(parser, "dataset", _DATASET_TYPES)
    source = dataset.setdefault("source", "synthetic")
    if source not in SOURCES:
        raise ConfigError(f"[dataset] source must be one of {SOURCES}, "
                          f"got {source!r}")
    for key in _REQUIRED_BY_SOURCE.get(source, ()):
        if key not in dataset:
            raise ConfigError(f"[dataset] source = {source} needs the {key!r} key")
    n_tasks = dataset.setdefault("n_tasks", 2)
    if n_tasks < 1:
        raise ConfigError(f"[dataset] n_tasks must be at least 1, got {n_tasks}")
    for key in ("test_fraction", "first_task_fraction"):
        if key in dataset and not 0 < dataset[key] < 1:
            raise ConfigError(f"[dataset] {key} must be between 0 and 1 "
                              f"(exclusive), got {dataset[key]!r}")
    if "first_task_fraction" in dataset and n_tasks < 2:
        raise ConfigError("[dataset] first_task_fraction needs n_tasks of at least 2")
    if dataset.get("pretrain_classes", 0) < 0:
        raise ConfigError("[dataset] pretrain_classes must be nonnegative, "
                          f"got {dataset['pretrain_classes']}")
    if not 0 <= dataset.get("spread", 0.0) < np.inf:  # NaN fails too
        raise ConfigError("[dataset] spread must be finite and nonnegative, "
                          f"got {dataset['spread']!r}")

    methods = []
    for name in parser.sections():
        if name in ("experiment", "dataset"):
            continue
        if not name.startswith("method "):
            raise ConfigError(f"unknown section [{name}]")
        label = name[len("method "):].strip()
        if not label:
            raise ConfigError("method section needs a label: [method NAME]")
        kwargs = _section(parser, name, _METHOD_TYPES)
        kwargs.setdefault("method", label)
        spec = METHOD_SPECS.get(kwargs["method"])  # an unknown name fails below
        if spec and spec.pretrain == "held-out" and dataset.get("pretrain_classes", 0) < 1:
            raise ConfigError(f"[{name}] {kwargs['method']} needs [dataset] "
                              "pretrain_classes of at least 1")
        try:  # surface bad method names/values as config errors, not at run time
            MethodConfig(**kwargs)
        except ValueError as e:
            raise ConfigError(f"[{name}]: {e}") from None
        if any(lab == label for lab, _ in methods):
            raise ConfigError(f"duplicate method label {label!r}")
        methods.append((label, kwargs))

    if not methods:
        raise ConfigError("config defines no [method ...] sections")
    return ExperimentConfig(output_dir=output_dir, seeds=seeds,
                            dataset=dataset, methods=methods)


def _load_source(dataset: dict, seed: int) -> tuple:
    """Returns (train, test-or-None) before any task splitting."""
    source = dataset["source"]
    if source == "synthetic":
        train = gen_gaussian_clusters(
            dataset.get("n_classes", 10), dataset.get("per_class", 100),
            dataset.get("dim", 16), dataset.get("spread", 0.15), seed=seed,
        )
        return train, None
    if source == "digits":
        try:
            from sklearn.datasets import load_digits
        except ImportError:
            raise ConfigError(
                "source = digits needs scikit-learn (pip install driftlab[digits])"
            ) from None
        bunch = load_digits()
        feats = bunch.data.astype(np.float64) / 16.0  # pixel range 0..16
        return LabeledDataset(feats, bunch.target.astype(np.int64)), None
    if source == "idx":
        train = read_idx(dataset["images"], dataset["labels"])
        test = None
        if "test_images" in dataset:
            if "test_labels" not in dataset:
                raise ConfigError("test_images given without test_labels")
            test = read_idx(dataset["test_images"], dataset["test_labels"])
        return train, test
    train = read_csv_dataset(dataset["path"])
    return train, None


def build_sequences(dataset: dict, seeds) -> dict:
    """Realize a dataset section into {seed: TaskSequence}, one entry per
    seed; a sequence carries its held-out pretraining data, if any.

    A seeded source is drawn once per seed; a file-backed or bundled one is
    loaded once and split per seed. ``pretrain_classes`` reserves the
    highest class ids for pretraining, independent of the seed, so every
    replicate pretrains on the same held-out classes and splits the rest.
    An unreadable or malformed dataset file, or synthetic counts a
    generator rejects, is a ConfigError.
    """
    sequences = {}
    loaded = None
    for seed in seeds:
        try:
            if loaded is None or dataset["source"] in _SEEDED_SOURCES:
                loaded = _load_source(dataset, seed)
        except (ValueError, OSError) as e:  # DatasetFormatError is a ValueError
            raise ConfigError(str(e)) from None
        sequences[seed] = _split(dataset, *loaded, seed)
    return sequences


def _split(dataset: dict, train, test, seed: int) -> TaskSequence:
    """The TaskSequence for one seed."""
    pretrain = None
    n_pre = dataset.get("pretrain_classes", 0)
    if n_pre:
        classes = np.unique(train.labels)
        if n_pre >= len(classes):
            raise ConfigError(f"pretrain_classes = {n_pre} leaves no task classes")
        reserved = classes[-n_pre:]
        held = np.isin(train.labels, reserved)
        pretrain = train.subset(held)
        train = train.subset(~held)
        if test is not None:
            test = test.subset(~np.isin(test.labels, reserved))
    try:
        seq = split_tasks(
            train, dataset.get("n_tasks", 2),
            first_task_fraction=dataset.get("first_task_fraction"),
            seed=seed, test=test,
            test_fraction=dataset.get("test_fraction", 0.2),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None
    seq.pretrain = pretrain
    return seq
