"""The benchmark's workloads and the inputs it generates for them.

Each workload is a synthetic class-incremental problem written out as a
CSV dataset plus an INI config, the same two files a researcher hands to
``driftlab run``. The data come from this file's own generator and the
benchmark's ``--seed``, never from driftlab's, so a change to the program
cannot change its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIM = 64
# At 0.35 E-FT+SDC ends sdc-semihard near A_T = 0.55: well above chance
# (0.1) and short of saturation, so a_final can still move either way.
SPREAD = 0.35

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_classes: int
    per_class: int
    n_tasks: int
    methods: dict  # [method <label>] -> {key: value}, written as INI
    test_fraction: float = 0.2
    common: dict = field(default_factory=dict)  # keys shared by every method


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sdc-semihard",
            why="E-FT+SDC with semihard mining at batch 32: the paper's method, "
                "where the mining loop, backward and Adam (losses, tensor, optim) "
                "block each training step",
            n_classes=10, per_class=180, n_tasks=5,
            common={"epochs": 4, "batch_size": 32, "hidden": "256 256",
                    "mining": "semihard"},
            methods={"E-FT+SDC": {"method": "E-FT", "sdc": "yes"}},
        ),
        Workload(
            name="regularized-random",
            why="E-LwF, E-EWC and E-MAS with random mining: the only workload "
                "running the regularizers and importance estimates (losses); "
                "no semihard mining runs here",
            n_classes=10, per_class=180, n_tasks=5, test_fraction=0.5,
            common={"epochs": 1, "batch_size": 64, "hidden": "256 256",
                    "mining": "random"},
            # squared_norm: the default Fisher variant mines semihard triplets
            methods={"E-LwF": {}, "E-EWC": {"fisher_variant": "squared_norm"},
                     "E-MAS": {}},
        ),
        Workload(
            name="many-classes-eval",
            why="E-FT+SDC and FT on 100 classes in 10 tasks, 1 epoch: inference, "
                "NCM, SDC, CSV parsing and result writing (models, prototypes, "
                "data, cli) outweigh training",
            n_classes=100, per_class=60, n_tasks=10, test_fraction=0.5,
            common={"epochs": 1, "batch_size": 128, "hidden": "256 256", "lr": 1e-3},
            methods={"E-FT+SDC": {"method": "E-FT", "sdc": "yes"}, "FT": {}},
        ),
    )
}


def make_dataset(w: Workload, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Input ``index`` of a run: isotropic Gaussian clusters around seeded
    unit-sphere centres, rows grouped by class so CSV label order is 0..K-1."""
    rng = np.random.default_rng([seed, index, 7])
    centres = rng.normal(size=(w.n_classes, DIM))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    feats = np.repeat(centres, w.per_class, axis=0)
    feats += SPREAD * rng.normal(size=feats.shape)
    return feats, np.repeat(np.arange(w.n_classes), w.per_class)


def write_inputs(w: Workload, seed: int, index: int, workdir: Path) -> Path:
    """Write ``data.csv`` and ``exp.ini`` for input ``index`` of a run with
    this seed; returns the INI path. The INI's own seed list is the run's
    seed, so only the data differ between a run's inputs.

    Paths inside the INI are absolute so the run does not depend on the
    current directory.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    feats, labels = make_dataset(w, seed, index)
    csv = workdir / "data.csv"
    header = "label," + ",".join(f"f{i}" for i in range(DIM))
    np.savetxt(csv, np.column_stack([labels, feats]), delimiter=",",
               fmt=["%d"] + ["%.17g"] * DIM, header=header, comments="")
    lines = ["[experiment]", f"output_dir = {workdir / 'results'}", f"seeds = {seed}",
             "", "[dataset]", "source = csv", f"path = {csv}",
             f"n_tasks = {w.n_tasks}", f"test_fraction = {w.test_fraction}"]
    for label, keys in w.methods.items():
        lines += ["", f"[method {label}]"]
        lines += [f"{k} = {v}" for k, v in {**w.common, **keys}.items()]
    ini = workdir / "exp.ini"
    ini.write_text("\n".join(lines) + "\n")
    return ini
