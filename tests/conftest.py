"""Shared numerical oracles and helpers for the test suite.

The gradient checker below is the ground truth every backward rule is
measured against: symmetric finite differences on the raw numpy arrays,
no engine code involved.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from driftlab.tensor import Tensor

# Property tests draw the same examples on every run: a tier-1 failure
# replays, and a pass is not luck of the draw.
settings.register_profile("driftlab", deadline=None, derandomize=True)
settings.load_profile("driftlab")


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f at x, one coordinate at a time."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f(x)
        flat[i] = keep - h
        down = f(x)
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def nudge_off_kinks(x: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    """Push entries away from 0 so finite differences never straddle a
    ReLU (or sqrt-of-hinge) kink."""
    out = x.copy()
    small = np.abs(out) < margin
    out[small] = np.where(out[small] >= 0, margin, -margin)
    return out


def check_grads(build, arrays, h: float = 1e-5, tol: float = 1e-4) -> float:
    """Compare engine gradients against finite differences.

    ``build`` maps a list of Tensors to a scalar Tensor; ``arrays`` are the
    leaf values. Returns the worst relative error over all leaves and
    asserts it is under ``tol``.
    """
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(leaves)
    loss.backward()

    worst = 0.0
    for k, a in enumerate(arrays):
        def f(x, k=k):
            probe = [v.copy() for v in arrays]
            probe[k] = x
            return build([Tensor(v) for v in probe]).item()

        num = numeric_grad(f, a.copy(), h=h)
        worst = max(worst, max_rel_err(leaves[k].grad, num))
    assert worst < tol, f"gradient mismatch: max rel err {worst:.3e} >= {tol}"
    return worst


def write_csv_dataset(path, dataset) -> None:
    """Inverse of ``driftlab.data.read_csv_dataset``: ``%.17g`` floats read
    back bit for bit."""
    d = dataset.features.shape[1]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("label," + ",".join(f"f{i}" for i in range(d)) + "\n")
        for lab, row in zip(dataset.labels, dataset.features):
            fh.write(f"{int(lab)}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def allocated_bytes(fn) -> int:
    """Peak bytes that Python objects and numpy arrays allocated while
    ``fn()`` ran, above what was live when it started (tracemalloc)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
