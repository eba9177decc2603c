"""Measure one workload: repeated ``driftlab run`` calls, checks of their
outputs, and the end-to-end or (traced) per-layer metrics.

Every repetition calls ``driftlab.cli.main(["run", ini])`` in-process, the
path a user takes, on a CSV dataset and INI config this package wrote.

The shared host alternates between uncontended and contended periods that
last seconds to minutes; in a contended one the same run takes half again
as long or more. Times are therefore medians over many short repetitions
(about ten in 30 s), never single runs. The fastest repetition is printed
too, but as a rare event it spreads more between runs than the median.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import math
import os
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from driftlab import cli, losses
from driftlab import tensor as T

from tracing import Tracer, instrumented, patched
from workloads import Workload, write_inputs

# Distinct datasets per run, used in turn. a_final averages them, which
# keeps it from hanging on one draw of 36 test samples per class.
INPUTS = 3
MIN_REPS = INPUTS + 1  # every input, and one replay to check its bytes
SEED_ENV = "DRIFTLAB_SEED_OVERRIDE"  # documented in the README; replaces the seed list

# Units of every metric; keys must match BENCHMARK.json.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "train_samples_per_s": "samples/s",
    "peak_rss_mb": "MB", "a_final": "fraction",
}
PER_LAYER = {
    "losses.mine_s": "s", "losses.triplets_mined": "count",
    "losses.empty_batches": "count", "losses.active_triplet_ratio": "fraction",
    "losses.triplet_loss_s": "s", "losses.regularizer_s": "s",
    "losses.importance_s": "s",
    "tensor.backward_s": "s", "tensor.backward_calls": "count",
    "optim.step_s": "s", "optim.steps": "count",
    "models.embed_s": "s", "models.embed_np_s": "s", "models.predict_s": "s",
    "models.nets_built": "count",
    "prototypes.ncm_s": "s", "prototypes.compensate_s": "s",
    "prototypes.compute_s": "s", "prototypes.kernel_fallbacks": "count",
    "harness.train_s": "s", "harness.eval_s": "s", "harness.split_s": "s",
    "harness.self_s": "s",
    "data.read_s": "s", "config.load_s": "s",
    "cli.serialize_s": "s", "cli.write_s": "s", "cli.result_bytes": "bytes",
    "trace.uncovered_share": "fraction", "trace.overhead": "ratio",
    "tensor.matmul_us": "us", "tensor.relu_us": "us",
    "tensor.l2_normalize_us": "us", "tensor.index_rows_us": "us",
    "tensor.triplet_loss_us": "us",
}
# Work counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "losses.triplets_mined", "losses.empty_batches", "optim.steps",
    "tensor.backward_calls", "models.nets_built", "prototypes.kernel_fallbacks",
    "cli.result_bytes",
)
# Span whose self time a per-layer "<name>_s" metric reports, where the
# names differ.
_SPAN_OF = {"harness.self_s": "harness.run"}
_CALLS_OF = {"tensor.backward_calls": "tensor.backward", "optim.steps": "optim.step"}


@dataclass
class Rep:
    wall: float
    setup: float
    visits: int  # training sample-visits: epochs x train samples, all runs
    rc: int
    stderr: str
    digests: dict = field(default_factory=dict)
    finals: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    result_bytes: int = 0
    tracer: Tracer | None = None


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, or None if unreadable."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _invoke(ini: Path) -> Rep:
    """One ``driftlab run``; set-up ends at the first run_sequence call."""
    inner = cli.run_sequence
    marks: dict = {"visits": 0}

    def hook(config, sequence, *args, **kwargs):
        marks.setdefault("setup_end", time.perf_counter())
        marks["visits"] += config.epochs * sum(len(t.train.labels) for t in sequence.tasks)
        return inner(config, sequence, *args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    rc = -1
    with patched([(cli, "run_sequence", hook)]):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = cli.main(["run", str(ini)])
            end = time.perf_counter()
    setup_end = marks.get("setup_end", end)
    return Rep(wall=end - start, setup=setup_end - start, visits=marks["visits"],
               rc=rc, stderr=err.getvalue())


def _a_matrix_problem(text: str, n_tasks: int) -> str | None:
    lines = text.split("\n")
    if lines[0] != "k,j,accuracy" or lines[-1] != "":
        return "bad header or trailing line"
    cells = {}
    for line in lines[1:-1]:
        try:
            k, j, v = line.split(",")
            cells[(int(k), int(j))] = float(v)
        except ValueError:
            return f"malformed row {line!r}"
    want = {(k, j) for k in range(1, n_tasks + 1) for j in range(1, k + 1)}
    if set(cells) != want:
        return f"cells {sorted(set(cells) ^ want)} missing or extra"
    bad = [v for v in cells.values() if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    if bad:
        return f"accuracy values {bad} non-finite or outside [0, 1]"
    return None


def check_outputs(rep: Rep, w: Workload, seed: int, results: Path, reference: dict,
                  prefix: str) -> None:
    """Fills rep.digests, rep.finals and rep.failures, one entry per
    (method, seed) run: a failure is a run whose a_matrix.csv is missing,
    malformed, non-finite, out of [0, 1], incomplete below the diagonal,
    or not byte-identical to the first repetition's."""
    for label in w.methods:
        path = results / label / str(seed) / "a_matrix.csv"
        key = f"{prefix}/{label}/{seed}/a_matrix.csv"
        if not path.is_file():
            rep.failures.append(f"{key}: not written")
            continue
        raw = path.read_bytes()
        rep.digests[key] = hashlib.sha256(raw).hexdigest()
        problem = _a_matrix_problem(raw.decode("ascii", "replace"), w.n_tasks)
        if problem is None and key in reference and reference[key] != rep.digests[key]:
            problem = "bytes differ from the first repetition"
        if problem is not None:
            rep.failures.append(f"{key}: {problem}")
            continue
        rows = [line.split(",") for line in raw.decode().split("\n")[1:-1]]
        rep.finals.append(statistics.fmean(
            float(v) for k, _, v in rows if int(k) == w.n_tasks))
    if rep.rc != 0 and not rep.failures:
        rep.failures.append(f"driftlab run exited {rep.rc}")


def result_bytes(results: Path) -> int:
    """Bytes of every result file, less the digits of each record.json's
    own wall_time, the one field that differs between replays."""
    total = 0
    for path in results.rglob("*"):
        if path.is_file():
            total += path.stat().st_size
            if path.name == "record.json":
                m = re.search(rb'"wall_time": ([^,\n]*)', path.read_bytes())
                total -= len(m.group(1)) if m else 0
    return total


def full_rep(ini: Path, w: Workload, seed: int, reference: dict,
             tracer: Tracer | None = None) -> Rep:
    results = ini.parent / "results"
    shutil.rmtree(results, ignore_errors=True)
    if tracer is None:
        rep = _invoke(ini)
    else:
        with instrumented(tracer):
            rep = _invoke(ini)
        rep.tracer = tracer
        rep.result_bytes = result_bytes(results)
    check_outputs(rep, w, seed, results, reference, ini.parent.name)
    return rep


def _time_op(fn, blocks: int = 25, calls: int = 20) -> float:
    """Median over blocks of microseconds per call."""
    for _ in range(3):
        fn()
    per_call = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - start) / calls)
    return statistics.median(per_call) * 1e6


def op_timings(seed: int) -> dict:
    """Forward + backward (through ``.sum()``) per call, at sdc-semihard's
    shapes: batch 32, hidden 256, embedding 64, two classes per batch."""
    rng = np.random.default_rng([seed, 11])
    batch, hidden, emb = 32, 256, 64
    h = T.Tensor(rng.normal(size=(batch, hidden)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(hidden, hidden)) / 16.0, requires_grad=True)
    z = T.Tensor(rng.normal(size=(batch, emb)), requires_grad=True)
    labels = np.repeat([0, 1], batch // 2)
    trip = losses.mine_triplets(labels, z.data, "semihard")
    return {
        "tensor.matmul_us": _time_op(lambda: T.matmul(h, w).sum().backward()),
        "tensor.relu_us": _time_op(lambda: T.relu(h).sum().backward()),
        "tensor.l2_normalize_us": _time_op(lambda: T.l2_normalize(z).sum().backward()),
        "tensor.index_rows_us": _time_op(
            lambda: T.index_rows(z, trip.anchors).sum().backward()),
        "tensor.triplet_loss_us": _time_op(lambda: losses.triplet_loss(z, trip).backward()),
    }


def layer_metrics(traced: list[Rep]) -> dict:
    """Per-layer metrics of the traced repetitions: times and shares
    averaged, counts from the first (the caller checks they repeat)."""
    rows = []
    for rep in traced:
        self_s, calls, covered = rep.tracer.summary()
        c = rep.tracer.counts
        row = {}
        for name, unit in PER_LAYER.items():
            if name in _CALLS_OF:
                row[name] = calls.get(_CALLS_OF[name], 0)
            elif unit == "s":
                row[name] = self_s.get(_SPAN_OF.get(name, name[:-2]), 0.0)
            elif unit == "count":
                row[name] = c.get(name, 0)
        row["losses.active_triplet_ratio"] = (
            c["losses.triplets_active"] / c["losses.triplets_scored"]
            if c["losses.triplets_scored"] else 0.0)
        row["cli.result_bytes"] = rep.result_bytes
        row["trace.uncovered_share"] = (rep.wall - covered) / rep.wall
        rows.append(row)
    return {k: rows[0][k] if PER_LAYER[k] in ("count", "bytes")
            else statistics.fmean(r[k] for r in rows) for k in rows[0]}


def _timed(seconds: float, inis: list, run_rep) -> tuple:
    """Repeat the workload for ``seconds`` (at least MIN_REPS times),
    cycling through the inputs; returns (end-to-end values, report line)."""
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        ini = inis[len(reps) % INPUTS]
        reps.append(run_rep(ini))
        # At a fixed repetition: the heap grows by 1-2 MB with each one,
        # so a later reading would depend on the host's speed.
        if len(reps) == MIN_REPS:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls = [r.wall for r in reps]
    finals = [f for r in reps[:INPUTS] for f in r.finals]
    values = {
        "setup_s": statistics.median(r.setup for r in reps),
        "wall_s": statistics.median(walls),
        "train_samples_per_s": statistics.median(r.visits / (r.wall - r.setup)
                                                 for r in reps),
        "peak_rss_mb": peak_kb / 1024.0,
        "a_final": statistics.fmean(finals) if finals else 0.0,
    }
    line = (f"repetitions {len(reps)}: wall_s median {statistics.median(walls):.4f} "
            f"best {min(walls):.4f} max {max(walls):.4f}")
    return values, line


def _traced(seed: int, ini: Path, run_rep) -> tuple:
    """Two plain and two traced repetitions, alternating so both kinds see
    the same host; returns (per-layer values, names of counts that did not
    repeat)."""
    plain, traced = [], []
    for _ in range(2):
        plain.append(run_rep(ini))
        traced.append(run_rep(ini, Tracer()))
    values = layer_metrics(traced)
    values["trace.overhead"] = sum(r.wall for r in traced) / sum(r.wall for r in plain)
    values.update(op_timings(seed))
    first, second = layer_metrics(traced[:1]), layer_metrics(traced[1:])
    unrepeated = [f"{k}: {first[k]} then {second[k]}" for k in EXACT_COUNTS
                  if first[k] != second[k]]
    return values, unrepeated


def measure(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Returns (result dict for the last output line, report lines)."""
    if os.environ.pop(SEED_ENV, None) is not None:
        print(f"{SEED_ENV} cleared: --seed decides the workload", file=sys.stderr)
    inis = [write_inputs(w, seed, i, workdir / f"input{i}")
            for i in range(1 if trace else INPUTS)]
    reference: dict = {}  # a_matrix.csv key -> sha256 of its first repetition
    reps: list[Rep] = []

    def run_rep(ini: Path, tracer: Tracer | None = None) -> Rep:
        reps.append(full_rep(ini, w, seed, reference, tracer))
        for key, digest in reps[-1].digests.items():
            reference.setdefault(key, digest)
        for f in reps[-1].failures:
            print(f"[fail] {f}\n{reps[-1].stderr}", file=sys.stderr)
        return reps[-1]

    report, unrepeated = [], []
    if trace:
        values, unrepeated = _traced(seed, inis[0], run_rep)
        units = PER_LAYER
    else:
        values, line = _timed(seconds, inis, run_rep)
        report.append(line)
        units = END_TO_END
    for problem in unrepeated:
        print(f"[fail] {problem} on two traced runs of one seed", file=sys.stderr)

    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    attempted = len(reps) * len(w.methods)
    failed = sum(len(r.failures) for r in reps)
    report += [f"sha256 {digest}  {key}" for key, digest in sorted(reference.items())]
    report += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    report.append(f"fail_ratio {failed / attempted:.6g} fraction ({failed} of {attempted})")
    result = {"correct": failed == 0 and not unrepeated, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report
