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

Every unknown section or key is an error that names the offender, and so
is a ``[dataset]`` key that only another source reads.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .data import LabeledDataset, gen_gaussian_clusters, read_csv_dataset, read_idx
from .harness import METHOD_SPECS, MethodConfig, check_plain_name, check_split, split_tasks

# the [dataset] keys of every source: they split the loaded data into tasks
_SPLIT_TYPES = {"source": str, "n_tasks": int, "first_task_fraction": float,
                "test_fraction": float, "pretrain_classes": int}
# each source's own keys, as {key: (type, required)}
_SOURCE_KEYS = {
    "synthetic": {"n_classes": (int, False), "per_class": (int, False),
                  "dim": (int, False), "spread": (float, False)},
    "digits": {},
    "idx": {"images": (str, True), "labels": (str, True),
            "test_images": (str, False), "test_labels": (str, False)},
    "csv": {"path": (str, True)},
}
SOURCES = tuple(_SOURCE_KEYS)
_SEEDED_SOURCES = ("synthetic",)  # the others load the same data for every seed


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

_DATASET_TYPES = {**_SPLIT_TYPES, **{key: kind for keys in _SOURCE_KEYS.values()
                                      for key, (kind, _) in keys.items()}}


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
    source = dataset.setdefault("source", "synthetic")
    if source not in SOURCES:
        raise ConfigError(f"[dataset] source must be one of {SOURCES}, "
                          f"got {source!r}")
    own = _SOURCE_KEYS[source]
    for key, (_, required) in own.items():
        if required and key not in dataset:
            raise ConfigError(f"[dataset] source = {source} needs the {key!r} key")
    for key in dataset:
        if key not in own and key not in _SPLIT_TYPES:
            raise ConfigError(f"[dataset] {key!r} is not read by source = {source}")
    if ("test_images" in dataset) != ("test_labels" in dataset):
        raise ConfigError("[dataset] test_images and test_labels go together")
    if "test_images" in dataset and "test_fraction" in dataset:
        raise ConfigError("[dataset] 'test_fraction' is not read beside test_images/test_labels")
    n_tasks = dataset.setdefault("n_tasks", 2)
    try:  # split_tasks' own rules, before any data is read
        check_split(n_tasks, dataset.get("first_task_fraction"),
                    dataset.get("test_fraction"), dataset.get("pretrain_classes", 0))
    except ValueError as e:
        raise ConfigError(f"[dataset] {e}") from None
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
        try:
            check_plain_name(label, "method label")
        except ValueError as e:
            raise ConfigError(str(e)) from None
        try:
            os.fsencode(label)
        except UnicodeEncodeError as e:  # a C locale's file names are ASCII
            raise ConfigError(f"method label {label!r} cannot be a file name "
                              f"here: {e}") from None
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
        test = (read_idx(dataset["test_images"], dataset["test_labels"])
                if "test_images" in dataset else None)
        return train, test
    train = read_csv_dataset(dataset["path"])
    return train, None


def build_sequences(dataset: dict, seeds) -> dict:
    """Realize a dataset section into {seed: TaskSequence}, one entry per
    seed; a sequence carries its held-out pretraining data, if any.

    A seeded source is drawn once per seed; a file-backed or bundled one is
    loaded once and split per seed by ``split_tasks``. An unreadable or
    malformed dataset file, synthetic counts a generator rejects, or a
    split ``split_tasks`` rejects is a ConfigError.
    """
    sequences = {}
    loaded = None
    for seed in seeds:
        try:  # DatasetFormatError and a split rule's error are ValueErrors
            if loaded is None or dataset["source"] in _SEEDED_SOURCES:
                loaded = _load_source(dataset, seed)
            train, test = loaded
            sequences[seed] = split_tasks(
                train, dataset.get("n_tasks", 2),
                first_task_fraction=dataset.get("first_task_fraction"), seed=seed,
                test=test, test_fraction=dataset.get("test_fraction", 0.2),
                pretrain_classes=dataset.get("pretrain_classes", 0),
            )
        except (ValueError, OSError) as e:
            raise ConfigError(str(e)) from None
    return sequences
