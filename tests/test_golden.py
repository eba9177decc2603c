"""Golden bytes: a faster training step must leave a_matrix.csv unchanged.

Tiny configs run end to end through ``driftlab run``: E-FT+SDC with
semihard mining, and E-LwF, E-EWC and E-MAS with random mining (the path
that draws negatives from the run's generator). The E-FT+SDC and E-LwF
values were taken from the per-pair mining loop, the tape-composite
triplet loss and the out-of-place Adam step that preceded the vectorized
versions. At their default gamma (1e7, 1e6) E-EWC and E-MAS write the
same bytes as each other on this dataset (and, at seed 0, as E-LwF), so
they run at gamma 1e3 and 1: there E-LwF, E-EWC, E-MAS and E-FT with
random mining all write different bytes, and E-EWC's seed-0 value
depends on averaging the importance maps of all earlier tasks rather
than keeping the latest. A change that moves one of them changes the
accuracy matrix a user gets back.
"""

import hashlib

import pytest

from driftlab.cli import main

GOLDEN = {
    ("E-FT+SDC", 0): "68904b23699321d1d236e624c01785fe3337ec905833653d7331c5d297dddeb8",
    ("E-FT+SDC", 1): "355113cd0aeac83e2cbb270aff7f2094114898191294727174108cc9fad10247",
    ("E-LwF", 0): "d23f9617e1cc509b08492f2dc002b08c4b7fec78156f74bfef6c34f83abbc1b6",
    ("E-LwF", 1): "13fbc2d08d3ed0830de7302fade3e6f0eedf33e1863e5737fb9e4faf1e0e68d9",
    ("E-EWC", 0): "d33e41460cf392460ea6193d28b0132c8694ed7b30a68f1b379adb66da00e7b3",
    ("E-EWC", 1): "80164651a37c1adc92baa21acfedfd72f65fb854166981d5806979a081574d6e",
    ("E-MAS", 0): "26f057d49db597935f750bb7cf32f49dab3dd83fecd8ce3188c3772a4adeb19c",
    ("E-MAS", 1): "3563736d649e0e9325834b9be241d46aba5af5b4eed9fd02aec4241b559eb190",
}

METHODS = {
    "E-FT+SDC": {"method": "E-FT", "sdc": "true", "mining": "semihard"},
    "E-LwF": {"mining": "random"},
    "E-EWC": {"mining": "random", "gamma": "1e3"},
    "E-MAS": {"mining": "random", "gamma": "1"},
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
