"""Outside-in layer tracing for the benchmark's traced run.

``install`` wraps public functions of the ``spinbus`` modules where their
callers look them up (``spinbus.spectrum.build_liouvillian`` is the name
``sector_problem`` calls, for instance), so nothing under ``src/`` changes.
Each call records a span (name, start, end, parent, run id, counters) in
memory. The CLI process writes its spans once, after ``cli.main`` returns;
every pool worker writes its own once, when it exits. ``summarize`` merges
the span files into the per-layer metrics.

``model`` and ``operators`` are not wrapped: their work is counted inside
the ``spectrum.sector_problem`` and ``liouvillian.build_liouvillian`` spans.
"""

from __future__ import annotations

import concurrent.futures
import functools
import glob
import importlib
import json
import os
import statistics
import sys
import time
from multiprocessing import util as mp_util


class Tracer:
    """Span recorder of one process. Times are CLOCK_MONOTONIC seconds, so
    spans of the CLI process and of its workers share one time axis."""

    def __init__(self, out_dir: str, run_id: str):
        self.out_dir = out_dir
        self.run_id = run_id
        self.reset(parent=None)

    def reset(self, parent: str | None) -> None:
        self.spans: list[dict] = []
        self.stack: list[str | None] = [parent]
        self.count = 0

    def open(self, name: str, **attrs) -> dict:
        self.count += 1
        span = {"name": name, "id": f"{os.getpid()}.{self.count}",
                "parent": self.stack[-1], "run": self.run_id,
                "start": time.perf_counter(), "end": None, **attrs}
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.remove(span["id"])
        self.spans.append(span)

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


TRACER: Tracer | None = None


def _resolvent_counts(span, args, kwargs, _result):
    lio = args[0] if args else kwargs["lio"]
    grid = args[3] if len(args) > 3 else kwargs["omega_grid"]
    dim = int(lio.matrix.shape[0])
    freqs = len(grid)
    # Dense complex LU per frequency: (8/3) n^3 real flops; computed, not measured.
    span.update(freqs=freqs, dim=dim, gflop=freqs * 8.0 / 3.0 * dim**3 / 1e9)


def _map_counts(span, _args, _kwargs, result):
    span["cells"] = len(result)


def _emit_counts(span, args, kwargs, _result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    span["bytes"] = os.path.getsize(path)


def _truncation_counts(span, _args, _kwargs, result):
    span["n_fock"] = int(result)


def _counting_metric(span, args, kwargs):
    """Count the probes an adaptive truncation makes through its metric."""
    metric = args[0] if args else kwargs.pop("metric_fn")
    span["probes"] = 0

    def probe(n):
        span["probes"] += 1
        return metric(n)

    return (probe,) + tuple(args[1:]), kwargs


# (module, attribute, span name, extra span fields, counter hook, argument hook)
TARGETS = [
    ("spinbus.cli", "load_config", "config.load_config", {}, None, None),
    ("spinbus.cli", "emit_csv", "sweeps.emit", {}, _emit_counts, None),
    ("spinbus.cli", "emit_plotdata", "sweeps.emit", {}, _emit_counts, None),
    ("spinbus.sweeps", "_point_job", "sweeps.point_job", {}, None, None),
    ("spinbus.sweeps", "compute_point_spectrum", "sweeps.compute_point_spectrum",
     {}, None, None),
    ("spinbus.sweeps", "adaptive_truncation", "liouvillian.adaptive_truncation",
     {}, _truncation_counts, _counting_metric),
    # Problems built for truncation probes feed no final spectrum.
    ("spinbus.sweeps", "sector_problem", "spectrum.sector_problem",
     {"useful": False}, None, None),
    ("spinbus.spectrum", "sector_problem", "spectrum.sector_problem",
     {"useful": True}, None, None),
    ("spinbus.sweeps", "spectrum_resolvent", "spectrum.spectrum_resolvent",
     {}, _resolvent_counts, None),
    ("spinbus.spectrum", "spectrum_resolvent", "spectrum.spectrum_resolvent",
     {}, _resolvent_counts, None),
    ("spinbus.spectrum", "build_liouvillian", "liouvillian.build_liouvillian",
     {}, None, None),
    ("spinbus.spectrum", "steady_state", "liouvillian.steady_state", {}, None, None),
    ("spinbus.sweeps", "find_spectral_peaks", "spectrum.find_spectral_peaks",
     {}, None, None),
    ("spinbus.sweeps", "coupling_map", "couplings.coupling_map", {}, _map_counts, None),
]


def _wrap(fn, name, fields, count, adapt):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = TRACER.open(name, **fields)
        try:
            if adapt is not None:
                args, kwargs = adapt(span, args, kwargs)
            result = fn(*args, **kwargs)
            if count is not None:
                count(span, args, kwargs, result)
            return result
        finally:
            TRACER.close(span)

    wrapper.__perfbench_wrapped__ = True
    return wrapper


class TracedPool(concurrent.futures.ProcessPoolExecutor):
    """The sweeps worker pool, with a span over its lifetime and a worker
    initializer that lets each worker record and write its own spans."""

    def __init__(self, max_workers=None, *args, **kwargs):
        self._span = TRACER.open("sweeps.pool", workers=max_workers or os.cpu_count())
        user_init = kwargs.pop("initializer", None)
        user_args = kwargs.pop("initargs", ())
        kwargs["initializer"] = worker_init
        kwargs["initargs"] = (TRACER.out_dir, TRACER.run_id, self._span["id"],
                              user_init, user_args)
        super().__init__(max_workers, *args, **kwargs)

    def shutdown(self, *args, **kwargs):
        try:
            super().shutdown(*args, **kwargs)
        finally:
            if self._span["end"] is None:
                TRACER.close(self._span)


def worker_init(out_dir, run_id, parent, user_init, user_args):
    """Pool-worker start: forked workers inherit the wrapped modules,
    spawned ones wrap them here; both start an empty span list under the
    pool span and write it when the worker exits normally."""
    global TRACER
    if TRACER is None:
        install(out_dir, run_id)
    TRACER.reset(parent=parent)
    mp_util.Finalize(None, TRACER.flush, exitpriority=100)
    if user_init is not None:
        user_init(*user_args)


def install(out_dir: str, run_id: str | None = None) -> Tracer:
    """Wrap the TARGETS in this process and return the process's tracer.

    A target that no longer exists is reported on stderr and skipped, so a
    renamed function shows up as zeros in its layer instead of a crash."""
    global TRACER
    TRACER = Tracer(out_dir, run_id or str(os.getpid()))
    for module_name, attr, name, fields, count, adapt in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"perfbench: no {module_name}.{attr} to trace", file=sys.stderr)
            continue
        if not getattr(fn, "__perfbench_wrapped__", False):
            setattr(module, attr, _wrap(fn, name, fields, count, adapt))
    sweeps = importlib.import_module("spinbus.sweeps")
    if getattr(sweeps, "ProcessPoolExecutor", None) is not None:
        sweeps.ProcessPoolExecutor = TracedPool
    return TRACER


# ---------------------------------------------------------------------------
# summary

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def load_spans(span_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.load(fh))
    return spans


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced CLI invocation.

    Self time is a span's duration minus the union of its children's
    intervals clipped to it; children may run in worker processes."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def self_time(s):
        kids = [(max(k["start"], s["start"]), min(k["end"], s["end"]))
                for k in children.get(s["id"], [])]
        return (s["end"] - s["start"]) - _covered([k for k in kids if k[1] > k[0]])

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key=None):
        if key is None:
            return sum(s["end"] - s["start"] for s in named(name))
        return sum(s.get(key, 0) for s in named(name))

    resolvent = named("spectrum.spectrum_resolvent")
    problems = named("spectrum.sector_problem")
    truncations = named("liouvillian.adaptive_truncation")
    pools = named("sweeps.pool")
    pool_ids = {p["id"] for p in pools}
    busy = sum(s["end"] - s["start"] for s in named("sweeps.point_job")
               if s["parent"] in pool_ids)
    capacity = sum((p["end"] - p["start"]) * p["workers"] for p in pools)
    return {
        "spectrum.spectrum_resolvent.s": sum(self_time(s) for s in resolvent),
        "spectrum.spectrum_resolvent.calls": len(resolvent),
        "spectrum.spectrum_resolvent.freqs": total("spectrum.spectrum_resolvent", "freqs"),
        "spectrum.spectrum_resolvent.max_superop_dim": max(
            (s["dim"] for s in resolvent), default=0),
        "spectrum.spectrum_resolvent.lu_gflop_computed": total(
            "spectrum.spectrum_resolvent", "gflop"),
        "liouvillian.build_liouvillian.s": sum(
            self_time(s) for s in named("liouvillian.build_liouvillian")),
        "liouvillian.build_liouvillian.calls": len(named("liouvillian.build_liouvillian")),
        "liouvillian.steady_state.s": sum(
            self_time(s) for s in named("liouvillian.steady_state")),
        "liouvillian.steady_state.calls": len(named("liouvillian.steady_state")),
        "spectrum.sector_problem.calls": len(problems),
        "spectrum.sector_problem.useful_ratio": (
            sum(1 for s in problems if s["useful"]) / len(problems) if problems else 0.0),
        "liouvillian.adaptive_truncation.s": total("liouvillian.adaptive_truncation"),
        "liouvillian.adaptive_truncation.probes": total(
            "liouvillian.adaptive_truncation", "probes"),
        "liouvillian.adaptive_truncation.n_fock_max": max(
            (s["n_fock"] for s in truncations if "n_fock" in s), default=0),
        "couplings.coupling_map.s": total("couplings.coupling_map"),
        "couplings.coupling_map.cells": total("couplings.coupling_map", "cells"),
        "sweeps.emit.s": total("sweeps.emit"),
        "sweeps.emit.bytes": total("sweeps.emit", "bytes"),
        "sweeps.pool.efficiency": busy / capacity if capacity > 0 else 0.0,
        "config.load_config.s": total("config.load_config"),
        "spectrum.find_spectral_peaks.s": total("spectrum.find_spectral_peaks"),
    }


def point_times(spans: list[dict]) -> list[float]:
    return [s["end"] - s["start"] for s in spans
            if s["name"] == "sweeps.compute_point_spectrum"]


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles; the value itself
    for a single sample, 0 for none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
