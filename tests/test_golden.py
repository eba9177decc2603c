"""Golden bytes: a faster training step must leave a_matrix.csv unchanged.

Two tiny configs run end to end through ``driftlab run``: E-FT+SDC with
semihard mining, and E-LwF with random mining (the path that draws
negatives from the run's generator). The pinned sha256 values were taken
from the per-pair mining loop, the tape-composite triplet loss and the
out-of-place Adam step that preceded the vectorized versions. A change
that moves one of them changes the accuracy matrix a user gets back.
"""

import hashlib

import pytest

from driftlab.cli import main

GOLDEN = {
    ("E-FT+SDC", 0): "68904b23699321d1d236e624c01785fe3337ec905833653d7331c5d297dddeb8",
    ("E-FT+SDC", 1): "355113cd0aeac83e2cbb270aff7f2094114898191294727174108cc9fad10247",
    ("E-LwF", 0): "d23f9617e1cc509b08492f2dc002b08c4b7fec78156f74bfef6c34f83abbc1b6",
    ("E-LwF", 1): "13fbc2d08d3ed0830de7302fade3e6f0eedf33e1863e5737fb9e4faf1e0e68d9",
}

METHODS = {
    "E-FT+SDC": {"method": "E-FT", "sdc": "true", "mining": "semihard"},
    "E-LwF": {"mining": "random"},
}


@pytest.mark.parametrize("label", sorted(METHODS))
def test_a_matrix_bytes_pinned(tmp_path, label):
    lines = [
        "[experiment]", f"output_dir = {tmp_path / 'out'}", "seeds = 0 1", "",
        "[dataset]", "source = synthetic", "n_classes = 6", "per_class = 40",
        "test_fraction = 0.5", "dim = 8", "spread = 0.5", "n_tasks = 3", "",
        f"[method {label}]", "epochs = 3", "batch_size = 16", "lr = 0.003",
        "embedding_dim = 8", "hidden = 32",
    ]
    lines += [f"{k} = {v}" for k, v in METHODS[label].items()]
    ini = tmp_path / "exp.ini"
    ini.write_text("\n".join(lines) + "\n")
    assert main(["run", str(ini)]) == 0
    for seed in (0, 1):
        raw = (tmp_path / "out" / label / str(seed) / "a_matrix.csv").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == GOLDEN[(label, seed)], (
            f"{label} seed {seed}: a_matrix.csv changed:\n{raw.decode()}")
