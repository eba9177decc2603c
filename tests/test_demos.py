"""The demos run end to end: each exits 0 and writes its figure.

Every demo runs as its own process in a temporary directory, so the
figures it writes never land in the source tree. Demo 03 needs the
scikit-learn digits set; where scikit-learn is missing it runs against a
seeded stand-in ``sklearn.datasets.load_digits`` of the same shape.
"""

import importlib.util
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

# Seeded digits look-alike: 1,797 rows of 64 pixels in 0..16, classes
# 0-9 in round-robin order, each class around its own random template.
STAND_IN = '''\
import numpy as np


class _Bunch:
    def __init__(self, data, target):
        self.data, self.target = data, target


def load_digits():
    rng = np.random.default_rng(0)
    target = np.arange(1797) % 10
    templates = rng.uniform(0, 16, size=(10, 64))
    data = np.clip(np.round(templates[target] + rng.normal(0, 3, size=(1797, 64))), 0, 16)
    return _Bunch(data, target)
'''


@pytest.mark.parametrize("name, figure", [
    ("01_autodiff_basics.py", None),
    ("02_embeddings_and_prototypes.py", None),
    ("03_drift_compensation.py", "drift_compensation.svg"),
    ("04_incremental_benchmark.py", "benchmark_curves.svg"),
])
def test_demo_runs(tmp_path, name, figure):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    if name.startswith("03") and importlib.util.find_spec("sklearn") is None:
        stub = tmp_path / "stand_in" / "sklearn"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text("")
        (stub / "datasets.py").write_text(STAND_IN)
        path.insert(0, str(stub.parent))
    work = tmp_path / "work"
    work.mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=work, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in work.iterdir())
    assert written == ([figure] if figure else [])
    if figure:
        assert ET.parse(work / figure).getroot().tag.endswith("svg")
