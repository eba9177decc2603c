"""Experiment configuration: an INI file with an ``[experiment]`` section
(``output_dir``, ``seeds``), a ``[dataset]`` one, whose keys ``SPLIT_KEYS``
and the ``SOURCE_SPECS`` rows declare, and ``[method LABEL]`` ones, whose
keys are ``MethodConfig``'s fields (``method`` defaults to the label).
Every unknown section or key is an error that names the offender, and so
is a ``[dataset]`` key that only another source reads."""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .data import LabeledDataset, check_spread, gen_gaussian_clusters, read_csv_dataset, read_idx
from .harness import METHOD_SPECS, MethodConfig, check_plain_name, check_split, split_tasks


class Key(NamedTuple):  # one [dataset] key
    kind: type  # the type its value parses as
    default: object = None  # fills the section where the key is left out; None: none
    required: bool = False  # the section must give it
    check: str | None = None  # a function here that raises ValueError on a bad value


# the keys of every source: they split the loaded data into tasks
SPLIT_KEYS = {"source": Key(str, "synthetic"), "n_tasks": Key(int, 2),
              "first_task_fraction": Key(float), "test_fraction": Key(float, 0.2),
              "pretrain_classes": Key(int, 0)}


@dataclass(frozen=True)
class SourceSpec:
    """One ``[dataset]`` source, naming functions of this module as
    ``METHOD_SPECS`` rows do: a wrapper put on one sees every call."""
    load: str  # called with the row's keys the section holds; returns train or (train, test)
    keys: dict = field(default_factory=dict)  # {key: Key}
    seeded: bool = False  # load takes the seed, which draws the data; else one load serves all
    rule: str | None = None  # a check of the section as written, run before the split's


SOURCE_SPECS = {
    "synthetic": SourceSpec("gen_gaussian_clusters", {
        "n_classes": Key(int, 10), "per_class": Key(int, 100), "dim": Key(int, 16),
        "spread": Key(float, 0.15, check="check_spread")}, seeded=True),
    "digits": SourceSpec("_load_digits"),
    "idx": SourceSpec("_load_idx", {
        "images": Key(str, required=True), "labels": Key(str, required=True),
        "test_images": Key(str), "test_labels": Key(str)}, rule="_check_test_files"),
    "csv": SourceSpec("read_csv_dataset", {"path": Key(str, required=True)}),
}
SOURCES = tuple(SOURCE_SPECS)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    output_dir: str
    seeds: list
    dataset: dict  # every default filled in
    methods: list = field(default_factory=list)  # [(label, kwargs), ...]


def _parse_value(section, key, raw, kind):
    if kind in (tuple, list):  # integers: hidden widths, or seeds that must differ
        return kind(_parse_int_list(section, key, raw, distinct=kind is list))
    try:
        if kind is bool:  # 1/yes/true/on or 0/no/false/off, in any case
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return kind(raw)
    except (KeyError, ValueError):
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

_DATASET_TYPES = {key: k.kind for keys in (SPLIT_KEYS, *(s.keys for s in SOURCE_SPECS.values()))
                  for key, k in keys.items()}


def _filled(dataset: dict) -> dict:
    """``dataset`` with each default of the split's and its source's keys filled in."""
    keys = SPLIT_KEYS | SOURCE_SPECS[dataset.get("source", SPLIT_KEYS["source"].default)].keys
    return {key: dataset.get(key, k.default) for key, k in keys.items()
            if key in dataset or k.default is not None}


def _checked(dataset: dict) -> dict:
    """``dataset`` filled in, or a ValueError naming its first fault."""
    source = dataset.get("source", SPLIT_KEYS["source"].default)
    if (spec := SOURCE_SPECS.get(source)) is None:
        raise ValueError(f"source must be one of {SOURCES}, got {source!r}")
    if missing := [key for key, k in spec.keys.items() if k.required and key not in dataset]:
        raise ValueError(f"source = {source} needs the {missing[0]!r} key")
    if foreign := [key for key in dataset if key not in SPLIT_KEYS | spec.keys]:
        raise ValueError(f"{foreign[0]!r} is not read by source = {source}")
    if spec.rule:
        globals()[spec.rule](dataset)
    dataset = _filled(dataset)
    check_split(dataset["n_tasks"], dataset.get("first_task_fraction"),
                dataset["test_fraction"], dataset["pretrain_classes"])
    for key, k in spec.keys.items():
        if k.check and key in dataset:
            globals()[k.check](dataset[key])
    return dataset


def _check_test_files(dataset: dict) -> None:  # idx's rule
    if ("test_images" in dataset) != ("test_labels" in dataset):
        raise ValueError("test_images and test_labels go together")
    if "test_images" in dataset and "test_fraction" in dataset:
        raise ValueError("'test_fraction' is not read beside test_images/test_labels")


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keep key case as written
    try:  # parser.read would skip a file it cannot open, a directory too
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e.strerror or e}") from None
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot parse {path}: {e}") from None

    for required in ("experiment", "dataset"):
        if required not in parser:
            raise ConfigError(f"missing [{required}] section")

    exp = _section(parser, "experiment", {"output_dir": str, "seeds": list})
    if "seeds" not in exp:
        raise ConfigError("[experiment] needs a seeds list")
    seeds = exp["seeds"]
    if min(seeds) < 0:  # numpy would reject it only once the data is read
        raise ConfigError(f"[experiment] seeds must be nonnegative, got {min(seeds)}")
    output_dir = exp.get("output_dir", "results")

    dataset = _section(parser, "dataset", _DATASET_TYPES)
    try:  # before any data is read
        dataset = _checked(dataset)
    except ValueError as e:
        raise ConfigError(f"[dataset] {e}") from None

    methods = []
    for name in parser.sections():
        if name in ("experiment", "dataset"):
            continue
        if not name.startswith("method "):
            raise ConfigError(f"unknown section [{name}]")
        label = name[len("method "):].strip()
        try:
            check_plain_name(label, "method label")
            os.fsencode(label)
        except UnicodeEncodeError as e:  # a C locale's file names are ASCII
            raise ConfigError(f"method label {label!r} cannot be a file name "
                              f"here: {e}") from None
        except ValueError as e:
            raise ConfigError(str(e)) from None
        kwargs = _section(parser, name, _METHOD_TYPES)
        kwargs.setdefault("method", label)
        spec = METHOD_SPECS.get(kwargs["method"])  # an unknown name fails below
        if spec and spec.pretrain == "held-out" and dataset["pretrain_classes"] < 1:
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


def _load_digits() -> LabeledDataset:
    try:
        from sklearn.datasets import load_digits
    except ImportError:
        raise ConfigError("source = digits needs scikit-learn "
                          "(pip install driftlab[digits])") from None
    bunch = load_digits()  # pixel range 0..16
    return LabeledDataset(bunch.data.astype(np.float64) / 16.0, bunch.target.astype(np.int64))


def _load_idx(images, labels, test_images=None, test_labels=None) -> tuple:
    train = read_idx(images, labels)
    return train, None if test_images is None else read_idx(test_images, test_labels)


def build_sequences(dataset: dict, seeds) -> dict:
    """Realize a dataset section, each key it leaves out at its default, into
    {seed: TaskSequence}: a seeded source is drawn per seed, another loaded
    once, and each split per seed by ``split_tasks`` (held-out pretraining data
    too). A bad dataset file, or values the loader or split rejects, is a ConfigError."""
    dataset = _filled(dataset)
    spec = SOURCE_SPECS[dataset["source"]]
    kwargs = {key: dataset[key] for key in spec.keys if key in dataset}
    sequences, loaded = {}, None
    for seed in seeds:
        try:  # DatasetFormatError and a split rule's error are ValueErrors
            if loaded is None or spec.seeded:
                loaded = globals()[spec.load](**kwargs, **({"seed": seed} if spec.seeded else {}))
            train, test = loaded if isinstance(loaded, tuple) else (loaded, None)
            sequences[seed] = split_tasks(
                train, dataset["n_tasks"], dataset.get("first_task_fraction"), seed,
                test, dataset["test_fraction"], dataset["pretrain_classes"])
        except (ValueError, OSError) as e:
            raise ConfigError(str(e)) from None
    return sequences
