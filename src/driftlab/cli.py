"""Command line front end.

``driftlab run <config>`` executes every (method, seed) pair from an INI
config and writes ``results/<method>/<seed>/{a_matrix.csv, record.json,
prototypes.json}``. ``driftlab plot <dir> --kind ...`` renders SVGs from
those files, and ``driftlab compare <dirs...>`` prints a markdown table
of A_k recomputed from the emitted CSVs alone.

Exit codes: 0 ok, 1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, build_sequences, load_config
from .harness import (
    MethodConfig,
    RunRecord,
    avg_incremental_accuracy,
    run_sequence,
)
from .svgplot import confusion_figure, curves_figure, embedding_figure


def _complete_aks(records, k: int) -> list[float]:
    """A_k of each record whose row k is complete; a single-phase method
    evaluates its last row only."""
    out = []
    for record in records:
        with contextlib.suppress(ValueError):  # row k incomplete
            out.append(avg_incremental_accuracy(record, k))
    return out


def _ak_table(records: dict, n_tasks: int, n_seeds: int) -> str:
    lines = [f"A_k by method, mean over {n_seeds} seed(s)", ""]
    header = ["method".ljust(18)] + [f"A_{k}".rjust(8) for k in range(1, n_tasks + 1)]
    lines.append("".join(header))
    for label in sorted(records):
        cells = [label.ljust(18)]
        for k in range(1, n_tasks + 1):
            vals = _complete_aks(records[label].values(), k)
            cells.append((f"{np.mean(vals):.4f}" if vals else "-").rjust(8))
        lines.append("".join(cells))
    return "\n".join(lines)


def cmd_run(args) -> int:
    try:  # a dataset file's OSError surfaces as a ConfigError
        cfg = load_config(args.config)
        out_root = Path(cfg.output_dir)
        out_root.mkdir(parents=True, exist_ok=True)
        sequences = build_sequences(cfg.dataset, cfg.seeds)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"config error: cannot create output_dir: {e}", file=sys.stderr)
        return 2

    records: dict = {}
    failed = 0
    for label, kwargs in cfg.methods:
        for seed in cfg.seeds:
            try:
                record = run_sequence(MethodConfig(seed=seed, **kwargs), sequences[seed])
            except Exception as e:  # isolate per (method, seed)
                failed += 1
                print(f"[fail] {label} seed {seed}: {e}", file=sys.stderr)
                continue
            run_dir = out_root / label / str(seed)
            run_dir.mkdir(parents=True, exist_ok=True)
            for name, text in (("a_matrix.csv", record.a_matrix_csv()),
                               ("record.json", record.to_json()),
                               ("prototypes.json", record.book.to_json())):
                tmp = run_dir / f".{name}.tmp"  # renamed whole: never read half-written
                tmp.write_text(text)
                os.replace(tmp, run_dir / name)
            print(f"[done] {label} seed {seed} ({record.wall_time:.1f}s) -> {run_dir}")
            records.setdefault(label, {})[seed] = RunRecord(  # all the A_k table reads
                record.method, record.seed, record.n_tasks, [], record.accuracy)
            del record  # with its book, confusions and SDC events

    if records:
        n_tasks = max(r.n_tasks for by_seed in records.values()
                      for r in by_seed.values())
        print()
        print(_ak_table(records, n_tasks, len(cfg.seeds)))
    return 1 if failed else 0


def _read_record(path: Path) -> RunRecord:
    try:
        return RunRecord.from_json(path.read_text())
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"{path}: {e}") from None


def _find_records(root: Path):
    """(label, seed, record) triples under a results root, or the root
    itself when it holds a single run; each record.json is read once."""
    if (root / "record.json").exists():
        rec = _read_record(root / "record.json")
        return [(rec.method, str(rec.seed), rec)]
    hits = sorted(root.glob("*/*/record.json"))
    return [(p.parent.parent.name, p.parent.name, _read_record(p)) for p in hits]


def cmd_plot(args) -> int:
    root = Path(args.dir)
    try:
        found = _find_records(root)
    except ValueError as e:
        print(e, file=sys.stderr)
        return 1
    if not found:
        print(f"no record.json under {root}", file=sys.stderr)
        return 1
    plots = root / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    written = []

    if args.kind == "curves":
        by_label: dict = {}
        for label, seed, record in found:
            by_label.setdefault(label, []).append(record)
        series = []
        for label in sorted(by_label):
            recs = by_label[label]
            pts = []
            for k in range(1, max(r.n_tasks for r in recs) + 1):
                vals = _complete_aks(recs, k)
                if vals:
                    pts.append((k, float(np.mean(vals))))
            if pts:
                series.append((label, pts))
        out = plots / "curves.svg"
        out.write_text(curves_figure(series, title=root.name))
        written.append(out)

    elif args.kind == "embedding":
        for label, seed, record in found:
            if not record.embed2d:
                print(f"{label} seed {seed}: no 2-d captures; embedding plots need "
                      "embedding_dim = 2", file=sys.stderr)
                return 1
            checkpoints = sorted(record.embed2d)
            if len(checkpoints) > 1:
                checkpoints = [k for k in checkpoints if k > 1]
            for k in checkpoints:
                out = plots / f"{label}_seed{seed}_embedding_task{k}.svg"
                out.write_text(embedding_figure(
                    record.embed2d[k],
                    title=f"{label} seed {seed}, after task {k}"))
                written.append(out)

    else:  # confusion
        for label, seed, record in found:
            for k in sorted(record.confusions):
                entry = record.confusions[k]
                out = plots / f"{label}_seed{seed}_confusion_task{k}.svg"
                out.write_text(confusion_figure(
                    entry["classes"], entry["counts"],
                    title=f"{label} seed {seed}, after task {k}"))
                written.append(out)

    for path in written:
        print(path)
    return 0


def cmd_compare(args) -> int:
    rows: dict = {}
    n_tasks = None
    for dirname in args.dirs:
        root = Path(dirname)
        hits = sorted(root.glob("*/*/a_matrix.csv"))
        if not hits:
            print(f"no a_matrix.csv under {root}", file=sys.stderr)
            return 1
        for path in hits:
            try:
                record = RunRecord.from_a_matrix_csv(
                    path.read_text(), path.parent.parent.name, path.parent.name)
            except ValueError as e:
                print(f"{path}: {e}", file=sys.stderr)
                return 1
            label = record.method
            if len(args.dirs) > 1:
                label = f"{root.name}:{label}"
            if n_tasks is None:
                n_tasks = record.n_tasks
            elif record.n_tasks != n_tasks:
                print(f"inconsistent task counts: {path} has {record.n_tasks}, "
                      f"others have {n_tasks}", file=sys.stderr)
                return 1
            rows.setdefault(label, []).append(record)

    ks = list(range(1, n_tasks + 1))
    out = ["| method | " + " | ".join(f"A_{k}" for k in ks) + " |",
           "| --- | " + " | ".join("---" for _ in ks) + " |"]
    for label in sorted(rows):
        cells = []
        for k in ks:
            vals = _complete_aks(rows[label], k)
            if not vals:
                cells.append("-")
            else:
                cells.append(f"{np.mean(vals):.4f} ± {np.std(vals):.4f}")
        out.append(f"| {label} | " + " | ".join(cells) + " |")
    print("\n".join(out))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="class-incremental embedding experiments: run, plot, compare",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute all (method, seed) runs from a config")
    p_run.add_argument("config", help="path to an INI experiment config")

    p_plot = sub.add_parser("plot", help="render SVG figures from results")
    p_plot.add_argument("dir", help="results directory (from `driftlab run`)")
    p_plot.add_argument("--kind", required=True,
                        choices=("embedding", "curves", "confusion"))

    p_cmp = sub.add_parser("compare", help="markdown A_k table across results dirs")
    p_cmp.add_argument("dirs", nargs="+")

    args = parser.parse_args(argv)
    return {"run": cmd_run, "plot": cmd_plot, "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
