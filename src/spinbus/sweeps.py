"""Scan orchestration: coupling maps and spectrum sweeps over config axes.

Every scan point is a pure function of the config, so points can run in a
worker pool; results are merged in axis order regardless of completion
order, keeping output deterministic.
"""

from __future__ import annotations

import csv
import datetime
import functools
import io
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, _blas
from .config import ScanConfig
from .couplings import (
    LoopParams,
    coupling_map,
    nv_pcq_coupling,
    pcq_cpw_coupling,
    pcq_frequency,
)
from .errors import IoError, SpinbusError, ValidationError
from .liouvillian import adaptive_truncation
from .model import DecoherenceRates, ModelParams
from .spectrum import (
    PeakReport,
    Spectrum,
    find_spectral_peaks,
    full_liouvillian_spectrum,
    nv_sector_spectrum,
)
# Not called here: the benchmark's layer trace (perfbench/spans.py) looks
# these two up on this module as well as on spinbus.spectrum.
from .spectrum import sector_problem, spectrum_resolvent  # noqa: F401
from .units import TWO_PI, format_in, to_unit


@dataclass(frozen=True)
class ResultTable:
    """Column-schema'd rows plus the provenance needed to reproduce them."""

    columns: tuple[tuple[str, str], ...]   # (name, unit)
    rows: tuple[tuple, ...]
    provenance: dict

    @property
    def header(self) -> tuple[str, ...]:
        return tuple(f"{name} ({unit})" for name, unit in self.columns)


def _provenance(cfg: ScanConfig) -> dict:
    return {
        "spinbus": __version__,
        "created": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "config_hash": cfg.config_hash,
        "solver_tolerances": f"truncation_tol={cfg.solver.truncation_tol:g}",
    }


def run_couplings_scan(cfg: ScanConfig) -> ResultTable:
    """Coupling-strength map over r_loop and/or I_p axes.

    Axes not scanned fall back to the base loop value; rows run
    r_loop-major so declaring the axes in either order yields the same
    table.
    """
    allowed = {"r_loop", "I_p"}
    by_name = {a.name: a for a in cfg.axes}
    bad = set(by_name) - allowed
    if bad:
        raise ValidationError(
            f"couplings scan supports axes r_loop and I_p only, got {sorted(bad)}")
    r_vals = by_name["r_loop"].values if "r_loop" in by_name else (cfg.loop.r_loop,)
    i_vals = by_name["I_p"].values if "I_p" in by_name else (cfg.loop.I_p,)
    try:
        table = coupling_map(
            cfg.resonator, cfg.nv, r_vals, i_vals,
            d_rule=cfg.solver.distance_for,
            loop_template=cfg.loop,
        )
    except SpinbusError:
        raise
    except ValueError as exc:   # the first cell's LoopParams, or the grids
        raise ValidationError(str(exc)) from None
    columns = (("r_loop", "um"), ("I_p", "nA"), ("g_over_2pi", "MHz"),
               ("eta_over_2pi", "kHz"), ("gbar_over_2pi", "kHz"))
    rows = tuple(zip(*(
        to_unit(table[field], unit).tolist()
        for field, (_, unit) in zip(table.dtype.names, columns)
    )))
    return ResultTable(columns, rows, _provenance(cfg))


def _loop_at(cfg: ScanConfig, axis_name: str, value: float) -> LoopParams:
    """The base loop with the axis value applied; a value LoopParams
    rejects (a non-integer n_turns, T2 > 2 T1, ...) is a ValidationError."""
    loop = cfg.loop
    if axis_name in ("r_loop", "I_p", "n_turns", "T1_pcq", "T2_pcq"):
        changes = {axis_name: value}
    elif axis_name == "tau":
        changes = {"T1_pcq": value, "T2_pcq": value}
    elif axis_name == "epsilon":
        changes = {"T2_pcq": value * loop.T1_pcq}
    elif axis_name == "d":
        return loop
    else:
        raise ValidationError(
            f"axis {axis_name!r} not usable in a spectrum scan")
    try:
        return replace(loop, **changes)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _point_model(cfg: ScanConfig, loop: LoopParams, d: float, n_fock: int
                 ) -> tuple[ModelParams, DecoherenceRates, float]:
    """(model, rates, frame_offset) for one scan point; frame is the upper
    Rabi peak omega_g = g."""
    g_cyc = pcq_cpw_coupling(cfg.resonator, loop, d)
    eta_cyc = nv_pcq_coupling(loop, cfg.nv)
    omega_0 = pcq_frequency(loop)
    model = ModelParams(
        omega_r=cfg.resonator.omega_r, omega_0=omega_0,
        g=TWO_PI * g_cyc, eta=TWO_PI * eta_cyc,
        zeta=cfg.resonator.zeta, N_fock=n_fock,
    )
    rates = DecoherenceRates.from_times(
        cfg.resonator.kappa, loop.T1_pcq, loop.T2_pcq,
        cfg.nv.T1_nv, cfg.nv.T2_nv, cfg.solver.rate_convention,
    )
    return model, rates, model.g


def _point_spectrum(cfg: ScanConfig, loop: LoopParams, d: float, n_fock: int,
                    grid: np.ndarray, problems: dict | None) -> Spectrum:
    """Spectrum of one scan point at truncation n_fock, in the configured
    nv_mode, on a grid relative to the upper Rabi peak. Sector problems are
    shared through `problems` (see nv_sector_spectrum)."""
    model, rates, offset = _point_model(cfg, loop, d, n_fock)
    solver = cfg.solver
    if solver.nv_mode == "sectors":
        return nv_sector_spectrum(model, rates, solver.weights, grid, offset,
                                  solver.spectrum_mode, solver.pcq_relaxation,
                                  problems=problems)
    return full_liouvillian_spectrum(model, rates, grid, offset,
                                     solver.spectrum_mode, solver.nv_relaxation,
                                     solver.pcq_relaxation, problems=problems)


def _truncation_metric(cfg: ScanConfig, loop: LoopParams, d: float,
                       problems: dict | None):
    """Metric for adaptive truncation: weighted steady-state cavity
    populations (padded to n_fock_max) plus the normalized shape of a
    coarse spectrum. The probes' sector problems are kept in `problems`."""
    solver = cfg.solver
    span = solver.grid_span_kappa * cfg.resonator.kappa
    coarse = np.linspace(-span, span, 33)

    def metric(n_fock: int) -> np.ndarray:
        s = _point_spectrum(cfg, loop, d, n_fock, coarse, problems)
        pops = np.zeros(solver.n_fock_max + 1)
        for sector in s.metadata["sectors"].values():
            pops[:n_fock] += sector["weight"] * sector["cavity_populations"]
        peak = s.values.max()
        shape = s.values / peak if peak > 0 else s.values
        return np.concatenate([pops, shape])

    return metric


def resolve_n_fock(cfg: ScanConfig, loop: LoopParams, d: float,
                   problems: dict | None = None) -> int:
    """The configured n_fock, or the adaptive truncation's choice. The
    probes' sector problems are added to `problems` when it is given."""
    if cfg.solver.n_fock is not None:
        return cfg.solver.n_fock
    return adaptive_truncation(
        _truncation_metric(cfg, loop, d, problems),
        start=cfg.solver.n_fock_start,
        tolerance=cfg.solver.truncation_tol,
        n_max=cfg.solver.n_fock_max,
    )


def compute_point_spectrum(cfg: ScanConfig, axis_name: str, value: float
                           ) -> tuple[Spectrum, PeakReport]:
    """Spectrum and peak report at one axis point (pure; used by workers)."""
    loop = _loop_at(cfg, axis_name, value)
    d = value if axis_name == "d" else cfg.solver.distance_for(loop.r_loop)
    problems = {}   # the probe's problems at the chosen N serve the spectrum
    n_fock = resolve_n_fock(cfg, loop, d, problems)
    span = cfg.solver.grid_span_kappa * cfg.resonator.kappa
    grid = np.linspace(-span, span, cfg.solver.grid_points)
    spec = _point_spectrum(cfg, loop, d, n_fock, grid, problems)
    spec.metadata.update(axis=axis_name, axis_value=value, n_fock=n_fock,
                         config_hash=cfg.config_hash)
    report = find_spectral_peaks(spec, cfg.solver.dip_fraction)
    return spec, report


def _point_job(args):
    cfg, axis, value = args
    try:
        return compute_point_spectrum(cfg, axis.name, value)
    except SpinbusError as exc:
        raise exc.in_context(
            f"at scan point {axis.name}={format_in(value, axis.unit)}") from exc


def _khz(omega):
    """Angular frequency in the spectrum tables' cyclic kHz."""
    return to_unit(omega / TWO_PI, "kHz")


@dataclass(frozen=True)
class SpectrumScanResult:
    spectra: ResultTable
    peaks: ResultTable | None


def run_spectrum_scan(cfg: ScanConfig, threads: int = 1) -> SpectrumScanResult:
    """Long-format spectrum table over the single configured axis.

    Columns: axis value (config unit), detuning from the tracked peak
    (cyclic kHz), S, log10 S. The analysis frame is centred on the upper
    vacuum-Rabi peak omega_g = g recomputed at each point. A peaks table is
    attached when the config requests the "peaks" product.

    The points run on min(threads, points) worker processes, each with BLAS
    pinned to one thread (see _blas); the caller's BLAS thread counts are
    restored on return.
    """
    if len(cfg.axes) != 1:
        raise ValidationError("spectrum scan needs exactly one axis")
    axis = cfg.axes[0]
    jobs = [(cfg, axis, v) for v in axis.values]
    workers = max(1, min(threads, len(jobs)))
    previous = _blas.pin()
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_blas.pin) as pool:
                results = list(pool.map(_point_job, jobs))
        else:
            results = [_point_job(j) for j in jobs]
    finally:
        _blas.restore(previous)
    provenance = dict(_provenance(cfg),
                      blas_threads=1 if previous else "unpinned",
                      workers=workers)

    axis_col = (axis.name, axis.unit or "1")
    rows = []
    peak_rows = []
    for value, (spec, report) in zip(axis.values, results):
        shown = to_unit(value, axis.unit)
        rows.extend(zip(itertools.repeat(shown), _khz(spec.omega_grid),
                        spec.values, spec.log10_values()))
        peak_rows.append((
            shown,
            len(report.peaks),
            str(report.resolved).lower(),
            report.dip_depth,
            ";".join(f"{_khz(p):.6g}" for p, _, _ in report.peaks),
            ";".join(f"{_khz(w):.6g}" for _, _, w in report.peaks),
        ))

    spectra = ResultTable(
        (axis_col, ("delta_omega_over_2pi", "kHz"), ("S", "s"),
         ("log10_S", "1")),
        tuple(rows), provenance,
    )
    peaks = None
    if "peaks" in cfg.products:
        peaks = ResultTable(
            (axis_col, ("n_peaks", "1"), ("resolved", "bool"),
             ("dip_depth", "1"), ("peak_positions_over_2pi", "kHz"),
             ("peak_fwhm_over_2pi", "kHz")),
            tuple(peak_rows), provenance,
        )
    return SpectrumScanResult(spectra=spectra, peaks=peaks)


# ---------------------------------------------------------------------------
# emission

# Joins a row's formatted cells so that one split recovers the csv fields.
_FIELD_SEP = "\x1f"   # ASCII unit separator


@functools.lru_cache(maxsize=64)
def _row_format(types: tuple[type, ...], sep: str) -> str:
    """One %-format for a row with these cell types: %.17g for floats, str
    (%s) for anything else, joined by sep."""
    return sep.join("%.17g" if issubclass(t, float) else "%s" for t in types)


def _format_row(row, sep: str) -> str:
    """The row's cells formatted and joined by sep, in one %-operation."""
    row = tuple(row)
    return _row_format(tuple(map(type, row)), sep) % row


def _csv_fields(row) -> list[str]:
    """The row's formatted cells, split apart again for csv.writer."""
    fields = _format_row(row, _FIELD_SEP).split(_FIELD_SEP)
    if len(fields) != len(row):   # a text cell holds the separator itself
        fields = [_format_row((x,), "") for x in row]
    return fields


def _provenance_lines(t: ResultTable) -> list[str]:
    return [f"# {k} = {v}" for k, v in t.provenance.items()]


def emit_csv(t: ResultTable, path: str) -> None:
    """RFC-4180 CSV with LF endings and a leading # provenance block."""
    buf = io.StringIO()
    for line in _provenance_lines(t):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(t.header)
    writer.writerows(map(_csv_fields, t.rows))
    _write_text(path, buf.getvalue())


def emit_plotdata(t: ResultTable, path: str) -> None:
    """Gnuplot-style whitespace-delimited blocks, one per leading-axis value
    (blocks separated by two blank lines for `index` addressing)."""
    buf = io.StringIO()
    for line in _provenance_lines(t):
        buf.write(line + "\n")
    buf.write("# columns: " + " ".join(t.header) + "\n")
    current = object()
    first = True
    for row in t.rows:
        if row[0] != current:
            if not first:
                buf.write("\n\n")
            current = row[0]
            buf.write(f"# block {t.columns[0][0]} = "
                      f"{_format_row((current,), '')}\n")
            first = False
        buf.write(_format_row(row, " ") + "\n")
    _write_text(path, buf.getvalue())


def _write_text(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from None


def read_csv(path: str) -> tuple[list[str], list[list[str]], dict]:
    """Parse an emit_csv file back into (header, rows, provenance)."""
    provenance = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    data_lines = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            provenance[key.strip()] = value.strip()
        else:
            data_lines.append(line)
    reader = csv.reader(io.StringIO("\n".join(data_lines)))
    parsed = list(reader)
    return parsed[0], parsed[1:], provenance


def data_section(path: str) -> str:
    """Everything except the # provenance block; the determinism contract
    compares these bytes."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return "".join(line for line in fh if not line.startswith("#"))
