"""spinbus benchmark: seeded scan workloads timed as fresh CLI processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``). One run generates the workload's config from the seed, then
repeats the workload's CLI invocations, each in a fresh process, while the
``--seconds`` budget lasts (at least once). Afterwards, outside the timed
region, it checks the outputs against the oracle, checks that the oracle
rejects a perturbed copy, and prints the machine description, a readable
summary and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of BENCHMARK.json from the traced ones. A workload with a
pool probe (sectors_rloop) then also runs its inputs once with
``--threads 2``, traced, for the worker-pool metrics; its output must be
byte-identical to the serial one.

``failed_ratio`` (failed / attempted scan points or sampled map cells) is
printed in the summary and reported as ``oracle.failed_ratio`` with
``--trace 1``; it is 0 when the program is correct, so it is not an
end-to-end metric with a relative bound. Scratch files go to
``.perfbench_work/`` in the checkout; a JSON record of each run, with the
machine description, stays in ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# Every child process is killed at this many seconds after start-up, so a
# run ends within its time limit even when the program hangs.
DEADLINE = time.monotonic() + 150.0
MIN_SETUP_SAMPLES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, SRC)
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# one fresh CLI process

class TreeRss:
    """Peak resident memory of a process's descendants (pool workers), from
    the kernel's per-process high-water mark VmHWM, sampled every 100 ms."""

    def __init__(self, pid: int):
        self.pid = pid
        self.peak_kb: dict[int, int] = {}
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _descendants(self) -> set[int]:
        parent = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parent[int(entry)] = int(stat.rpartition(")")[2].split()[1])
        found, frontier = set(), {self.pid}
        while frontier:
            frontier = {p for p, pp in parent.items() if pp in frontier} - found
            found |= frontier
        return found

    def _loop(self) -> None:
        while not self.done.wait(0.1):
            for pid in self._descendants():
                try:
                    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                        for line in fh:
                            if line.startswith("VmHWM:"):
                                self.peak_kb[pid] = int(line.split()[1])
                except OSError:
                    continue

    def stop(self) -> int:
        self.done.set()
        self.thread.join()
        return sum(self.peak_kb.values())


def invoke(cli_argv: list[str], cfg: str, overrides: list[str], tag: str,
           work: str, trace_dir: str | None = None,
           setup_only: bool = False, pool: bool = False) -> dict:
    """Run child.py once and return its timings and peak RSS. With pool=True
    the RSS of the worker processes is sampled too and added."""
    result = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
           "--config", cfg, "--result", result]
    for ov in overrides:
        cmd += ["--override", ov]
    if trace_dir:
        cmd += ["--trace", trace_dir]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--"] + cli_argv
    with open(os.path.join(work, f"{tag}.log"), "w", encoding="utf-8") as log:
        # In a new process group, so that a timeout kills the pool workers too.
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        tree = TreeRss(proc.pid) if pool else None
        try:
            proc.wait(timeout=max(1.0, DEADLINE - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        finally:
            workers_kb = tree.stop() if tree else 0
    if proc.returncode != 0 or not os.path.exists(result):
        return {"rc": proc.returncode if proc.returncode else -1}
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    out["rss_mb"] = (out["maxrss_kb"] + workers_kb) / 1024.0
    return out


def repetition(inputs, work: str, tag: str, trace_dir: str | None = None) -> dict:
    """One timed repetition: every CLI invocation of the workload once."""
    calls = [invoke(argv, inputs.config, inputs.overrides, f"{tag}-{k}", work,
                    trace_dir)
             for k, argv in enumerate(inputs.invocations)]
    ok = all(c.get("rc") == 0 for c in calls)
    rep = {"ok": ok, "calls": calls}
    if ok:
        rep.update(
            scan_wall_s=sum(c["scan_wall_s"] for c in calls),
            setup_s=[c["setup_s"] for c in calls],
            import_s=[c["import_s"] for c in calls],
            peak_rss_mb=max(c["rss_mb"] for c in calls),
            data=[_data_section(p) for p in inputs.outputs])
    return rep


def _data_section(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        return "".join(line for line in fh if not line.startswith("#"))


# ---------------------------------------------------------------------------
# correctness

def oracle_verdicts(inputs, seed: int, perturb: bool = False) -> list[bool]:
    # Imported here: the harness loads numpy and spinbus only after timing.
    import oracle

    if inputs.kind == "map":
        return oracle.check_map_run(inputs.config, inputs.outputs[0],
                                    inputs.outputs[1], seed, perturb)
    verdicts = oracle.check_spectrum_run(inputs.config, inputs.overrides,
                                         inputs.outputs[0], inputs.axis_values,
                                         seed, perturb)
    if not perturb and not oracle.check_peaks_file(inputs.outputs[1],
                                                   len(inputs.axis_values)):
        verdicts = [False] * len(verdicts)
    return verdicts


def points_per_rep(inputs) -> int:
    import oracle

    return oracle.MAP_CELLS if inputs.kind == "map" else len(inputs.axis_values)


def count_failures(reps: list[dict], verdicts: list[bool]) -> tuple[int, int]:
    """(attempted, failed) over all repetitions. The oracle checks the
    first one; every other one, traced or threaded, must reproduce its data
    sections byte for byte or all of its points count as failed."""
    per_rep = len(verdicts)
    first = reps[0].get("data")
    failed = 0
    for rep in reps:
        if not rep["ok"] or rep["data"] != first or None in rep["data"]:
            failed += per_rep
        else:
            failed += verdicts.count(False)
    return per_rep * len(reps), failed


# ---------------------------------------------------------------------------
# machine description

def machine(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError) as exc:  # numpy < 1.26 has no dict mode
        blas = {"error": repr(exc)}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_digest() -> str:
    """Content hash of the program sources; identifies the code where the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "spinbus")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# the run

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK, f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    inputs = WORKLOADS[workload](seed, work)
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(SRC, "spinbus")], check=True,
                   stdout=subprocess.DEVNULL)

    # Start repetitions while the budget lasts; in trace mode each is an
    # untraced and a traced invocation back to back.
    reps, traced = [], []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        reps.append(repetition(inputs, work, f"rep{len(reps)}"))
        if trace:
            traced.append(traced_repetition(inputs, work, f"traced{len(traced)}"))
    probe = None
    if trace and inputs.pool_probe is not None:
        probe = traced_repetition(inputs, work, "pool", inputs.pool_probe)

    setup = [s for r in reps + traced if r["ok"] for s in r["setup_s"]]
    imports = [s for r in reps + traced if r["ok"] for s in r["import_s"]]
    for k in range(MIN_SETUP_SAMPLES - len(setup)):
        extra = invoke([], inputs.config, inputs.overrides, f"setup{k}", work,
                       setup_only=True)
        if extra.get("rc") != 0:
            break
        setup.append(extra["setup_s"])
        imports.append(extra["import_s"])

    if reps[0]["ok"]:
        verdicts = oracle_verdicts(inputs, seed)
        self_test = not any(oracle_verdicts(inputs, seed, perturb=True))
    else:
        verdicts = [False] * points_per_rep(inputs)
        self_test = True
    attempted, failed = count_failures(reps + traced + ([probe] if probe else []),
                                       verdicts)

    good = [r for r in reps if r["ok"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "repetitions": len(reps), "traced_repetitions": len(traced),
        "setup_samples": len(setup),
        "oracle_self_test_caught_perturbation": self_test,
        "correct": failed == 0 and self_test,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "end_to_end": {
            "scan_wall_s": _median([r["scan_wall_s"] for r in good]),
            "setup_s": _median(setup),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in good]),
        },
        "scan_wall_samples_s": [r["scan_wall_s"] for r in good],
        "setup_samples_s": setup,
    }
    if trace:
        record["per_layer"] = per_layer(good, [r for r in traced if r["ok"]],
                                        probe, imports, record["failed_ratio"])
    return record


def traced_repetition(inputs, work: str, tag: str,
                      argv: list[str] | None = None) -> dict:
    """A traced repetition, or with argv a traced run of that one invocation
    (the worker-pool probe, whose workers' memory is sampled as well)."""
    span_dir = os.path.join(work, f"{tag}-spans")
    os.makedirs(span_dir)
    if argv is None:
        rep = repetition(inputs, work, tag, span_dir)
    else:
        call = invoke(argv, inputs.config, inputs.overrides, tag, work,
                      span_dir, pool=True)
        out = argv[argv.index("--out") + 1]
        rep = {"ok": call.get("rc") == 0, "calls": [call],
               "data": [_data_section(out),
                        _data_section(out.rpartition(".")[0] + "_peaks.csv")]}
        if rep["ok"]:
            rep.update(scan_wall_s=call["scan_wall_s"], peak_rss_mb=call["rss_mb"])
    rep["spans"] = spans.load_spans(span_dir)
    return rep


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def per_layer(untraced: list[dict], traced: list[dict], probe: dict | None,
              imports: list[float], failed_ratio: float) -> dict[str, float]:
    """Medians over traced repetitions of each layer total; point times
    pooled over all traced repetitions. The worker-pool metrics come from
    the pool probe and are 0 for workloads without one."""
    summaries = [spans.summarize(r["spans"]) for r in traced]
    layers = {name: _median([s[name] for s in summaries])
              for name in (summaries[0] if summaries else {})}
    points = [t for r in traced for t in spans.point_times(r["spans"])]
    pool_ok = probe is not None and probe["ok"]
    layers.update({
        "sweeps.compute_point_spectrum.s_p50": spans.percentile(points, 50),
        "sweeps.compute_point_spectrum.s_p90": spans.percentile(points, 90),
        "sweeps.compute_point_spectrum.samples": len(points),
        "sweeps.pool.efficiency": (spans.summarize(probe["spans"])["sweeps.pool.efficiency"]
                                   if pool_ok else 0.0),
        "sweeps.pool.scan_wall_s": probe["scan_wall_s"] if pool_ok else 0.0,
        "sweeps.pool.peak_rss_mb": probe["peak_rss_mb"] if pool_ok else 0.0,
        "cli.import.s": _median(imports),
        "trace.overhead_s": (_median([r["scan_wall_s"] for r in traced])
                             - _median([r["scan_wall_s"] for r in untraced])),
        "oracle.failed_ratio": failed_ratio,
    })
    return layers


# ---------------------------------------------------------------------------
# output

def result_line(record: dict, spec: dict, trace: bool) -> dict:
    """The final JSON line: every metric BENCHMARK.json lists for the mode."""
    kind = "per_layer" if trace else "end_to_end"
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record[kind][m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "spinbus", "cli.py")):
        print(f"perfbench: no spinbus sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["machine"] = machine(args.seed)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time())}.json"
    with open(os.path.join(WORK, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("machine:", json.dumps(record["machine"], sort_keys=True))
    e2e = record["end_to_end"]
    print(f"{args.workload} seed={args.seed}: scan_wall_s={e2e['scan_wall_s']:.4f} s "
          f"setup_s={e2e['setup_s']:.4f} s peak_rss_mb={e2e['peak_rss_mb']:.1f} MB "
          f"failed_ratio={record['failed_ratio']:.4g} "
          f"({record['failed']}/{record['attempted']}) "
          f"repetitions={record['repetitions']} "
          f"oracle_self_test={'ok' if record['oracle_self_test_caught_perturbation'] else 'FAILED'}")
    if args.trace:
        for key, value in record["per_layer"].items():
            print(f"  {key} = {value:.6g}")
    print(json.dumps(result_line(record, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
