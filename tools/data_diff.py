"""Differences between the data sections that two source trees write.

    python3 tools/data_diff.py --parent DIR --change DIR [--preset P ...]
        [--config PATH ...] [--workload W ...] [--seed N]
        [--override KEY=VALUE ...] [--threads N]

DIR is the root of a source tree (a checkout or an unpacked ``git
archive``). Each ``--preset`` is run as ``python3 -m spinbus.cli scan
--preset P --threads 1``, once writing CSV and once plotdata, in both
trees, with ``PYTHONPATH=DIR/src`` and the tables written to a temporary
directory. Each ``--config`` runs the config file at PATH the same way, as
``scan --config PATH``. Each ``--workload`` runs the CLI
invocations of one repetition of that ``perfbench`` workload, generated at
``--seed`` by the change tree's ``perfbench/workloads.py``, in both trees.
``--override`` is passed to every run; ``--threads`` sets the thread count
of the change tree's runs (so ``--parent D --change D --threads 2`` checks
that a pool run writes what a serial run writes).

Every table is compared on its data section: the lines that do not start
with ``#``. Per CSV table the script prints the rows that changed out of
the total; for a spectra table (one with an ``S`` column) also the largest
|dS| relative to the peak S of its scan point (the first column); for a
peaks table (one with an ``n_peaks`` column) the columns that changed. A
plotdata table is reported as identical or not. The exit status is 1 when
any data section differs and 0 when all are identical. Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True


def data_rows(text: str) -> list[list[str]]:
    """The cells of a CSV data section: its header row first."""
    return [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]


def _column(header: list[str], name: str) -> int | None:
    for k, cell in enumerate(header):
        if cell.split(" (")[0] == name:
            return k
    return None


def compare_tables(parent: str, change: str) -> dict:
    """Rows changed, and for spectra the largest |dS| over the peak of the
    point, or for peaks tables the changed columns, of two CSV texts."""
    old, new = data_rows(parent), data_rows(change)
    if not old or not new or old[0] != new[0] or len(old) != len(new):
        return {"layout_differs": True}
    header, old, new = old[0], old[1:], new[1:]
    changed = [k for k, (a, b) in enumerate(zip(old, new)) if a != b]
    result = {"rows": len(old), "changed": len(changed)}
    s = _column(header, "S")
    if s is not None:
        peaks: dict[str, float] = {}
        for row in old:
            peaks[row[0]] = max(peaks.get(row[0], 0.0), abs(float(row[s])))
        result["max_rel_dS"] = max(
            (abs(float(new[k][s]) - float(old[k][s])) / peaks[old[k][0]]
             if peaks[old[k][0]] else float("inf") for k in changed),
            default=0.0)
    if _column(header, "n_peaks") is not None:
        result["changed_columns"] = [
            name for j, name in enumerate(header)
            if any(old[k][j] != new[k][j] for k in changed)]
    return result


def describe(name: str, result: dict) -> str:
    if result.get("layout_differs"):
        return f"{name}: header or row count differs"
    line = f"{name}: {result['changed']} of {result['rows']} rows changed"
    if "max_rel_dS" in result:
        line += f", max |dS|/peak {result['max_rel_dS']:.2e}"
    if result.get("changed_columns"):
        line += ", columns " + ", ".join(result["changed_columns"])
    return line


def _workload_invocations(tree: str, workload: str, seed: int,
                          work: str) -> list[list[str]]:
    """The CLI argv lists of one repetition of a perfbench workload."""
    path = os.path.join(tree, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return module.WORKLOADS[workload](seed, work).invocations
    finally:
        del sys.modules[spec.name]


def _redirect(argv: list[str], out_dir: str, threads: int) -> list[str]:
    """argv with its --out file moved into out_dir and --threads set."""
    argv = list(argv)
    k = argv.index("--out") + 1
    argv[k] = os.path.join(out_dir, os.path.basename(argv[k]))
    return argv + ["--threads", str(threads)]


def run_tree(tree: str, invocations: list[list[str]], out_dir: str,
             threads: int, overrides: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    extra = [arg for ov in overrides for arg in ("--override", ov)]
    os.makedirs(out_dir)
    for argv in invocations:
        cmd = ([sys.executable, "-m", "spinbus.cli"]
               + _redirect(argv, out_dir, threads) + extra)
        proc = subprocess.run(cmd, cwd=out_dir, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"data_diff: {' '.join(argv)} failed in {tree}")


def diff_run(label: str, invocations: list[list[str]], args,
             work: str) -> bool:
    """Runs the invocations in both trees, prints one line per table and
    returns whether any data section differs."""
    work = tempfile.mkdtemp(dir=work)   # a label may repeat or be a path
    dirs = []
    for side, tree, threads in (("parent", args.parent, 1),
                                ("change", args.change, args.threads)):
        dirs.append(os.path.join(work, side))
        run_tree(os.path.abspath(tree), invocations, dirs[-1], threads,
                 args.override)
    differs = False
    for name in sorted(os.listdir(dirs[0])):
        texts = []
        for d in dirs:
            with open(os.path.join(d, name), encoding="utf-8") as fh:
                texts.append(fh.read())
        if name.endswith(".csv"):
            result = compare_tables(*texts)
            print(describe(f"{label} {name}", result))
            same = not result.get("layout_differs") and not result["changed"]
        else:
            same = data_rows(texts[0]) == data_rows(texts[1])
            print(f"{label} {name}: data section "
                  + ("identical" if same else "differs"))
        differs = differs or not same
    return differs


def input_parser(description: str) -> argparse.ArgumentParser:
    """A parser of the two trees and the inputs to run in both."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--parent", required=True, metavar="DIR")
    ap.add_argument("--change", required=True, metavar="DIR")
    ap.add_argument("--preset", action="append", default=[])
    ap.add_argument("--config", action="append", default=[], metavar="PATH")
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--override", action="append", default=[],
                    metavar="KEY=VALUE")
    return ap


def inputs(args, outputs: list[list[str]], work: str):
    """(label, CLI argv lists) of each input of the parsed args: a preset or
    config scan once per argument list in `outputs`, then each workload's
    invocations, generated in `work` by the change tree."""
    scans = ([(preset, ["--preset", preset]) for preset in args.preset]
             + [(path, ["--config", os.path.abspath(path)])
                for path in args.config])
    for label, source in scans:
        yield label, [["scan", *source, *output] for output in outputs]
    for workload in args.workload:
        generated = os.path.join(work, workload + "-inputs")
        os.makedirs(generated)
        yield (f"{workload}:{args.seed}",
               _workload_invocations(args.change, workload, args.seed,
                                     generated))


def main(argv: list[str] | None = None) -> int:
    ap = input_parser(__doc__.splitlines()[0])
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args(argv)
    differs = False
    with tempfile.TemporaryDirectory() as work:
        for label, invocations in inputs(
                args, [["--out", "out.csv"],
                       ["--format", "plotdata", "--out", "out.dat"]], work):
            differs |= diff_run(label, invocations, args, work)
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
