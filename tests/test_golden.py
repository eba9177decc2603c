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

SDC is pinned where a regularizer's snapshot lives beside it (E-LwF+SDC,
at gamma 0.1: at gamma 1 E-LwF writes the same bytes with and without
SDC) and where the net is frozen after task 1 (E-Fix+SDC, whose drift is
exactly zero). Their values were taken while SDC still re-embedded a
task's rows through a snapshot after the task trained.

A second, 24-class config pins nearest-class-mean predictions where
they are hardest to keep exact: E-FT+SDC in a 2-D embedding, where
queries often sit near a tie between prototypes, and FT*, whose
prototypes are unnormalized trunk features. Its values were taken with
the [N, C, D] broadcast NCM and the per-class compensation loop.
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
    ("E-LwF+SDC", 0): "51ce0c313e404237b35f4a8279d61d3c9f13840078e1a8742032f1d1ccc72cb1",
    ("E-LwF+SDC", 1): "9886c2885fb33f8792183178e06f4e16a1e4e86bb8cab00379e1645cb424268a",
    ("E-Fix+SDC", 0): "f82bef24e3ad0c2385e5b26cbd5b0ea32ea605374262ed934cc286cb10f0c511",
    ("E-Fix+SDC", 1): "30b4b6cac7ffd716fc6645e6110d049a3e15af3b1438e4f3690db6153c2544b1",
}

GOLDEN_MANY = {
    ("E-FT+SDC", 0): "8b1e5b47646e969702b96c026095f27da030790cba364e5c74e2534f1a5e2d01",
    ("E-FT+SDC", 1): "f3396e3903c8ca3d809a98aa1d02722d409acda5c1a5213e88ce76f38b85e605",
    ("FT*", 0): "74a669adb278ae6a79a363b91cbb3242136fa4a533f0a36a0b3744db741fe615",
    ("FT*", 1): "15587e08ee0420df6cc0c284b433e45b89781201426e77f3351038f4ad486ce2",
}

METHODS = {
    "E-FT+SDC": {"method": "E-FT", "sdc": "true", "mining": "semihard"},
    "E-LwF": {"mining": "random"},
    "E-EWC": {"mining": "random", "gamma": "1e3"},
    "E-MAS": {"mining": "random", "gamma": "1"},
    "E-LwF+SDC": {"method": "E-LwF", "sdc": "true", "mining": "random", "gamma": "0.1"},
    "E-Fix+SDC": {"method": "E-Fix", "sdc": "true", "mining": "semihard"},
}


METHODS_MANY = {
    "E-FT+SDC": {"method": "E-FT", "sdc": "true", "mining": "semihard",
                 "embedding_dim": 2},
    "FT*": {"embedding_dim": 8},
}

DATASET = {"n_classes": 6, "per_class": 40, "spread": 0.5, "n_tasks": 3}
DATASET_MANY = {"n_classes": 24, "per_class": 20, "spread": 0.3, "n_tasks": 4}


def run_bytes(tmp_path, label, dataset, method):
    lines = [
        "[experiment]", f"output_dir = {tmp_path / 'out'}", "seeds = 0 1", "",
        "[dataset]", "source = synthetic", "test_fraction = 0.5", "dim = 8",
    ]
    lines += [f"{k} = {v}" for k, v in dataset.items()]
    lines += ["", f"[method {label}]", "batch_size = 16", "lr = 0.003", "hidden = 32"]
    lines += [f"{k} = {v}" for k, v in method.items()]
    ini = tmp_path / "exp.ini"
    ini.write_text("\n".join(lines) + "\n")
    assert main(["run", str(ini)]) == 0
    return {seed: (tmp_path / "out" / label / str(seed) / "a_matrix.csv").read_bytes()
            for seed in (0, 1)}


def assert_pinned(label, runs, golden):
    for seed, raw in runs.items():
        assert hashlib.sha256(raw).hexdigest() == golden[(label, seed)], (
            f"{label} seed {seed}: a_matrix.csv changed:\n{raw.decode()}")


@pytest.mark.parametrize("label", sorted(METHODS))
def test_a_matrix_bytes_pinned(tmp_path, label):
    method = {"epochs": 3, "embedding_dim": 8, **METHODS[label]}
    assert_pinned(label, run_bytes(tmp_path, label, DATASET, method), GOLDEN)


@pytest.mark.parametrize("label", sorted(METHODS_MANY))
def test_many_class_ncm_bytes_pinned(tmp_path, label):
    method = {"epochs": 3, **METHODS_MANY[label]}
    assert_pinned(label, run_bytes(tmp_path, label, DATASET_MANY, method), GOLDEN_MANY)
