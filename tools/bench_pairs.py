"""Alternating parent/change benchmark pairs, written as a BENCH_*.json record.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W
        [--workload W ...] --seed N [--trace] [--claim WORKLOAD:METRIC]
        [--label TEXT] --out BENCH_name.json

DIR is the root of a source tree (a checkout or an unpacked ``git
archive``) that holds ``perfbench/run.py``. For each workload, pair i of
the ten pairs runs ``python3 perfbench/run.py --workload W --seed N
--trace 0`` in the parent tree first when i is even and in the change tree
first when i is odd, and reads the JSON object on the last line of each
run; run.py uses its own run budget. ``--trace`` adds one traced pair per
workload (``--trace 1``) whose per-layer metrics are recorded side by side.

The record holds, under ``workloads[W][N]`` for workload W and seed N, each
run's ``attempted`` count (scan points or map cells over all repetitions,
so the number of repetitions a run fitted in its budget can be read off)
and its value of every end-to-end metric, the median and quartiles of each
side (inclusive method), the number of pairs the change wins (ties count
for neither; "better" and the regression bound are read from the parent's
BENCHMARK.json), the ratio of the medians and whether the change's median
is inside the bound, or "unresolved" where the parent's spread is wider
than the bound (see ``compare``). ``machine`` holds the last machine line
run.py printed in each tree, which names its commit and source digest.
``--claim`` names the metric a gain is claimed on, at seed N: it is met
when the change wins at least nine of the ten pairs and the medians differ
by more than the parent's interquartile range. A claim whose workload is
neither a ``--workload`` nor in the record at seed N, or whose metric is
not an end-to-end metric of BENCHMARK.json, exits 2 before any run. An
existing record at
``--out`` is updated in place, so workloads and seeds can be run in
separate invocations. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10


def run_once(tree: str, workload: str, seed: int,
             trace: bool) -> tuple[dict, dict | None]:
    """One benchmark run in `tree`: its result line and machine line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_pairs: run failed in {tree} ({workload})")
    machine = None
    for line in lines:
        if line.startswith("machine: "):
            machine = json.loads(line[len("machine: "):])
    return json.loads(lines[-1]), machine


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], spec: dict) -> dict:
    """Both sides of one metric, the wins of the change and its bound.

    The bound check is "unresolved" instead of a within_bound flag when the
    parent's interquartile range is wider than bound x median, unless every
    change run reads better than every parent run: a spread wider than the
    bound cannot show that the change stayed inside it."""
    lower = spec.get("better", "lower") == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    entry = {"parent": p, "change": c, "change_wins": wins,
             "median_ratio": c["median"] / p["median"] if p["median"] else None}
    if "bound" in spec:
        bound = spec["bound"]
        beats_all = (max(change) < min(parent) if lower
                     else min(change) > max(parent))
        if p["q3"] - p["q1"] > bound * abs(p["median"]) and not beats_all:
            entry["unresolved"] = True
        else:
            limit = p["median"] * (1 + bound if lower else 1 - bound)
            entry["within_bound"] = (c["median"] <= limit if lower
                                     else c["median"] >= limit)
    return entry


def claim_verdict(entry: dict) -> dict:
    """A gain holds when the change wins at least nine of the ten pairs and
    the medians differ by more than the parent's interquartile range. The
    relative median change is None when the parent's median is zero."""
    p, c = entry["parent"], entry["change"]
    gap = abs(p["median"] - c["median"])
    iqr = p["q3"] - p["q1"]
    return {"change_wins": entry["change_wins"], "pairs": PAIRS,
            "median_change": (c["median"] / p["median"] - 1.0
                              if p["median"] else None),
            "median_gap": gap, "parent_iqr": iqr,
            "met": entry["change_wins"] >= 9 and gap > iqr}


def check_claim(claim: str, workloads: list[str], record: dict, seed: str,
                specs: dict) -> tuple[str, str]:
    """(workload, metric) of a --claim, or ValueError saying what is wrong:
    the workload must be run now or be in the record at this seed, and the
    metric must be an end-to-end metric of BENCHMARK.json."""
    workload, colon, metric = claim.partition(":")
    if not colon:
        raise ValueError(f"--claim {claim!r} is not WORKLOAD:METRIC")
    recorded = [w for w, seeds in record.get("workloads", {}).items()
                if seed in seeds]
    if workload not in workloads + recorded:
        raise ValueError(f"--claim workload {workload!r} is neither a "
                         f"--workload nor in the record at seed {seed}")
    if metric not in specs:
        raise ValueError(f"--claim metric {metric!r} is not an end-to-end "
                         f"metric: {sorted(specs)}")
    return workload, metric


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent tree")
    ap.add_argument("--change", required=True, help="root of the change tree")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true",
                    help="add one traced pair per workload")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--label", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    record: dict = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    seed = str(args.seed)
    if args.claim:
        try:
            claimed = check_claim(args.claim, args.workload, record, seed, specs)
        except ValueError as exc:
            ap.error(str(exc))
    if args.label:
        record["label"] = args.label
    record["method"] = (
        "alternating pairs: pair i runs the parent first when i is even and "
        "the change first when i is odd; each value is one run's median "
        "over its repetitions; quartiles are over runs (inclusive method); "
        "change_wins counts pairs where the change reads better (ties count "
        "for neither); within_bound compares the change's median with the "
        "parent's and the BENCHMARK.json bound; unresolved replaces it when "
        "the parent's interquartile range exceeds bound x median and not "
        "every change run reads better than every parent run")
    trees = {"parent": args.parent, "change": args.change}
    machines = record.setdefault("machine", {})
    workloads = record.setdefault("workloads", {})
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                line, machine = run_once(trees[side], workload, args.seed, False)
                runs[side].append(line)
                if machine:
                    machines[side] = machine
            print(f"{workload} pair {i}: " + ", ".join(
                f"{side} {runs[side][-1]['metrics']['scan_wall_s']['value']:.4f} s"
                for side in order), file=sys.stderr)
        metrics = {}
        for name in runs["parent"][0]["metrics"]:
            values = {side: [round(r["metrics"][name]["value"], 4)
                             for r in runs[side]] for side in runs}
            metrics[name] = compare(values["parent"], values["change"],
                                    specs.get(name, {}))
        entry = {
            "pairs": PAIRS,
            "command": f"python3 perfbench/run.py --workload {workload} "
                       f"--seed {args.seed} --trace 0",
            "all_correct": all(r["correct"] and r["failed"] == 0
                               for side in runs.values() for r in side),
            "attempted": {side: [r["attempted"] for r in runs[side]]
                          for side in runs},
            "metrics": metrics,
        }
        if args.trace:
            traced = {side: run_once(trees[side], workload, args.seed, True)[0]
                      for side in trees}
            entry["trace"] = {
                "correct": {s: traced[s]["correct"] for s in traced},
                "failed": {s: traced[s]["failed"] for s in traced},
                **{s: {k: v["value"] for k, v in traced[s]["metrics"].items()}
                   for s in traced},
            }
        workloads.setdefault(workload, {})[seed] = entry
    if args.claim:
        workload, metric = claimed
        entry = workloads[workload][seed]["metrics"][metric]
        record["claim"] = {"workload": workload, "seed": args.seed,
                           "metric": metric, **claim_verdict(entry)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload in args.workload:
        for name, entry in workloads[workload][seed]["metrics"].items():
            bound = ("unresolved" if entry.get("unresolved")
                     else entry.get("within_bound"))
            print(f"{workload} {name}: {entry['parent']['median']:.4f} -> "
                  f"{entry['change']['median']:.4f} "
                  f"(wins {entry['change_wins']}/{PAIRS}, "
                  f"within bound: {bound})")
    if "claim" in record:
        print("claim:", json.dumps(record["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
