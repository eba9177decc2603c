"""Command line front end.

``driftlab run <config>`` executes every (method, seed) pair from an INI
config, writes ``results/<label>/<seed>/{a_matrix.csv, record.json}``
and prints the A_k table of the runs it wrote.
``driftlab plot <dir> --kind ...`` renders SVGs from the record.json files, and
``driftlab compare <dirs...>`` prints the same markdown A_k table from the
a_matrix.csv files alone. Both read a root one way: a results root, or one
run directory. A run's label and seed are its directory names, resolved for
the directory given ("." too); a result file that cannot be read exits 1, named.

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
from .data import write_whole
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


def _print_ak_table(rows: dict, n_tasks: int) -> None:
    """Print the markdown table of A_k, mean ± std over each label's
    records in ``rows``, for k in 1..n_tasks."""
    ks = list(range(1, n_tasks + 1))
    out = ["| method | " + " | ".join(f"A_{k}" for k in ks) + " |",
           "| --- | " + " | ".join("---" for _ in ks) + " |"]
    for label in sorted(rows):
        cells = []
        for k in ks:
            vals = _complete_aks(rows[label], k)
            cells.append(f"{np.mean(vals):.4f} ± {np.std(vals):.4f}" if vals else "-")
        out.append(f"| {label} | " + " | ".join(cells) + " |")
    text = "\n".join(out) + "\n"
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream, such as io.StringIO, takes the text
        sys.stdout.write(text)
        return
    # UTF-8 as the result files are, whatever the locale: an ASCII locale
    # cannot encode "±", and a label it could not decode goes back out as
    # the directory name's own bytes
    sys.stdout.flush()
    buffer.write(text.encode("utf-8", "surrogateescape"))
    buffer.flush()


def _write_whole(path: Path, pieces) -> None:
    """Write the text ``pieces`` as UTF-8 through ``write_whole``. A label
    or directory name that the locale could not decode (a C locale's
    ASCII) holds surrogates, which go back out as the name's own bytes."""
    write_whole(path, lambda fh: fh.writelines(
        p.encode("utf-8", "surrogateescape") for p in pieces))


def cmd_run(args) -> int:
    try:  # a dataset file's OSError surfaces as a ConfigError
        cfg = load_config(args.config)
        sequences = build_sequences(cfg.dataset, cfg.seeds)
        out_root = Path(cfg.output_dir)  # made only once the data is known good
        out_root.mkdir(parents=True, exist_ok=True)
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
            try:
                run_dir.mkdir(parents=True, exist_ok=True)
                for name, pieces in (("a_matrix.csv", [record.a_matrix_csv()]),
                                     ("record.json", record.json_pieces())):
                    _write_whole(run_dir / name, pieces)
            except (OSError, TypeError, ValueError) as e:  # the encoder raises the last two
                failed += 1
                print(f"[fail] {label} seed {seed}: cannot write results: {e}",
                      file=sys.stderr)
            else:
                print(f"[done] {label} seed {seed} ({record.wall_time:.1f}s) -> {run_dir}")
                records.setdefault(label, []).append(RunRecord(  # all the A_k table reads
                    record.method, record.seed, record.n_tasks, [], record.accuracy))
            del record  # with its confusions, SDC events and 2-d captures

    if records:
        print()
        _print_ak_table(records, max(r.n_tasks for recs in records.values() for r in recs))
    return 1 if failed else 0


def _name(path) -> str:
    """A directory's resolved name, "." too; realpath, unlike Path.resolve, takes a loop."""
    return os.path.basename(os.path.realpath(path))


def _runs(root: str, name: str, parse):
    """(path, label, seed, parse(text, label, seed)) of each run: ``root``
    itself if it holds ``name``, else each ``<label>/<seed>/<name>`` under it.
    A file that cannot be read or parsed, or a root with none, raises
    ValueError ``<path>: <reason>``."""
    here = Path(root)
    if os.path.exists(here / name):
        hits = [(here / name, _name(here / ".."), _name(here))]
    else:
        hits = [(p, p.parent.parent.name, p.parent.name)
                for p in sorted(here.glob(f"*/*/{name}"))]
    if not hits:
        raise ValueError(f"no {name} under {here}")
    runs = []
    for path, label, seed in hits:
        try:
            text = path.read_text(encoding="utf-8")
            runs.append((path, label, seed, parse(text, label, seed)))
        except (OSError, ValueError, RecursionError) as e:  # RecursionError: nesting too deep
            # an OSError's own text repeats the path; its strerror is the reason alone
            raise ValueError(f"{path}: {getattr(e, 'strerror', None) or e}") from None
    return runs


# per-run figure kinds: a run's figures as (checkpoint, figure arguments), the figure
# function and the note for a run with none; embedding skips task 1 if later ones exist
_PER_RUN = {
    "embedding": (lambda r: [(k, (e,)) for k, e in sorted(r.embed2d.items())
                             if k > 1 or len(r.embed2d) == 1],
                  embedding_figure, "no 2-d captures; embedding plots need embedding_dim = 2"),
    "confusion": (lambda r: [(k, (e["classes"], e["counts"]))
                             for k, e in sorted(r.confusions.items())],
                  confusion_figure, "no confusions"),
}


def cmd_plot(args) -> int:
    try:
        found = _runs(args.dir, "record.json", lambda text, *_: RunRecord.from_json(text))
    except ValueError as e:
        print(e, file=sys.stderr)
        return 1
    out = plots = Path(args.dir) / "plots"
    try:  # a figure that cannot be drawn or written (a UnicodeError is a ValueError)
        plots.mkdir(parents=True, exist_ok=True)
        if args.kind == "curves":
            by_label: dict = {}
            for _, label, _, record in found:
                by_label.setdefault(label, []).append(record)
            series = []
            for label in sorted(by_label):
                recs = by_label[label]
                last = max(r.n_tasks for r in recs)  # rows held, not 1..n_tasks
                ks = sorted({k for r in recs for k in r.accuracy if k <= last})
                pts = [(k, float(np.mean(v))) for k in ks if (v := _complete_aks(recs, k))]
                if pts:
                    series.append((label, pts))
            out = plots / "curves.svg"
            _write_whole(out, [curves_figure(series, title=_name(args.dir))])
            print(out)
        else:  # a per-run kind: draw each run that has figures, note each other run
            figures_of, figure, note = _PER_RUN[args.kind]
            drawn = 0
            for path, label, seed, record in found:
                figures = figures_of(record)
                if not figures:
                    print(f"{path}: {note}", file=sys.stderr)
                for k, data in figures:
                    out = plots / f"{label}_seed{seed}_{args.kind}_task{k}.svg"
                    title = f"{label} seed {seed}, after task {k}"
                    _write_whole(out, [figure(*data, title=title)])
                    print(out)
                    drawn += 1
            if not drawn:
                return 1
    except (OSError, ValueError) as e:
        print(f"{out}: {e}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    rows: dict = {}
    given: dict = {}  # row key -> the index of the root that gave it: one key, one root
    n_tasks = None
    for i, root in enumerate(args.dirs):
        try:
            runs = _runs(root, "a_matrix.csv", RunRecord.from_a_matrix_csv)
        except ValueError as e:
            print(e, file=sys.stderr)
            return 1
        prefix = f"{_name(root)}:" if len(args.dirs) > 1 else ""
        for path, label, _, record in runs:
            if n_tasks is None:
                n_tasks = record.n_tasks
            elif record.n_tasks != n_tasks:
                print(f"inconsistent task counts: {path} has {record.n_tasks}, "
                      f"others have {n_tasks}", file=sys.stderr)
                return 1
            key = prefix + label
            if given.setdefault(key, i) != i:  # a root given twice gives its keys twice
                print(f"{args.dirs[given[key]]} and {root} both give the row {key}; "
                      "their runs would pool under one label", file=sys.stderr)
                return 1
            rows.setdefault(key, []).append(record)
    _print_ak_table(rows, n_tasks)
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
    p_plot.add_argument("--kind", required=True, choices=("curves", *_PER_RUN))

    p_cmp = sub.add_parser("compare", help="markdown A_k table across results dirs")
    p_cmp.add_argument("dirs", nargs="+")

    args = parser.parse_args(argv)
    return {"run": cmd_run, "plot": cmd_plot, "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
