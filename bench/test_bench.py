"""Smoke test of the benchmark at toy sizes: every metric BENCHMARK.json
names is reported with its unit, the outputs pass their checks, and the
benchmark refuses to run without the program's sources."""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _toy(name):
    w = WORKLOADS[name]
    return dataclasses.replace(
        w, n_classes=2 * w.n_tasks, per_class=10,
        common={**w.common, "epochs": 1, "hidden": "16"})


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == measure.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_toy_run_reports_every_metric(name, trace, tmp_path, monkeypatch):
    monkeypatch.setenv(measure.SEED_ENV, "99")  # must not replace --seed
    monkeypatch.setattr(measure, "_time_op",
                        functools.partial(measure._time_op, blocks=2, calls=2))
    result, report = measure.measure(_toy(name), seed=5, seconds=0.0,
                                     trace=trace, workdir=tmp_path)
    assert result["correct"], report
    assert result["failed"] == 0
    reps = 4 if trace else measure.MIN_REPS
    assert result["attempted"] == reps * len(WORKLOADS[name].methods)
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    inputs = 1 if trace else measure.INPUTS
    assert sum(line.startswith("sha256 ") for line in report) \
        == inputs * len(WORKLOADS[name].methods)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "sdc-semihard",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
