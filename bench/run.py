"""driftlab benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sdc-semihard --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats ``driftlab run`` on the workload for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` runs it twice plain and
twice traced, alternating, and reports per-layer metrics, the tracing
overhead and single-op timings. Both check every a_matrix.csv and print
its sha256. The last stdout line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the exit code is 0 only when ``correct`` is true. Workloads are listed in
``bench/workloads.py`` and, with their reasons, in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# Fixed before numpy loads: one BLAS thread keeps the small matrices of
# these workloads off thread hand-offs and away from the host's other
# tenants; it is never more than the cores available.
BLAS_THREADS = 1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "driftlab" / "__init__.py").is_file():
        print(f"no driftlab sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, report = measure.measure(WORKLOADS[args.workload], args.seed,
                                         args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"blas_threads {measure.blas_threads()} (set {BLAS_THREADS}, "
          f"cores available {len(os.sched_getaffinity(0))})")
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
