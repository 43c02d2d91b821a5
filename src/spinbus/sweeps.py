"""Scan orchestration: coupling maps and spectrum sweeps over config axes.

Every scan point is a pure function of the config (ScanConfig.point gives
its loop and distance), so points can run in a worker pool; results merge
in axis order regardless of completion order, keeping output deterministic.
"""

from __future__ import annotations

import csv
import datetime
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
    """A table's columns plus the provenance needed to reproduce them.

    `data` holds one sequence per column, all of one length: a float
    ndarray for a numeric column, a list otherwise.
    """

    columns: tuple[tuple[str, str], ...]   # (name, unit)
    data: tuple
    provenance: dict

    @property
    def header(self) -> tuple[str, ...]:
        return tuple(f"{name} ({unit})" for name, unit in self.columns)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The table row by row (a read-only view of `data`)."""
        return tuple(zip(*self.data))


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
        table = coupling_map(cfg.resonator, cfg.nv, cfg.loop, r_vals, i_vals,
                             d_rule=cfg.solver.distance_for)
    except SpinbusError:
        raise
    except ValueError as exc:   # the first cell's LoopParams, or the grids
        raise ValidationError(str(exc)) from None
    columns = (("r_loop", "um"), ("I_p", "nA"), ("g_over_2pi", "MHz"),
               ("eta_over_2pi", "kHz"), ("gbar_over_2pi", "kHz"))
    data = tuple(to_unit(table[field], unit)
                 for field, (_, unit) in zip(table.dtype.names, columns))
    return ResultTable(columns, data, _provenance(cfg))


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
    """Metric for adaptive truncation, as the parts (populations, shape):
    the weighted steady-state cavity populations (padded to n_fock_max),
    and a callable for the normalized shape of a coarse spectrum, evaluated
    only where the populations agree. The populations come from
    _point_spectrum on an empty grid, which builds the sector problems of
    the nv_mode and weights and projects nothing. The probes' problems are
    kept in `problems`; the final grid continues their shape projection."""
    solver = cfg.solver
    span = solver.grid_span_kappa * cfg.resonator.kappa
    coarse = np.linspace(-span, span, 33)

    def metric(n_fock: int) -> tuple:
        s = _point_spectrum(cfg, loop, d, n_fock, coarse[:0], problems)
        pops = np.zeros(solver.n_fock_max + 1)
        for sector in s.metadata["sectors"].values():
            pops[:n_fock] += sector["weight"] * sector["cavity_populations"]

        def shape() -> np.ndarray:
            s = _point_spectrum(cfg, loop, d, n_fock, coarse, problems)
            peak = s.values.max()
            return s.values / peak if peak > 0 else s.values

        return pops, shape

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
    loop, d = cfg.point(axis_name, value)
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
    shown = [to_unit(value, axis.unit) for value in axis.values]
    spectra = ResultTable(
        (axis_col, ("delta_omega_over_2pi", "kHz"), ("S", "s"),
         ("log10_S", "1")),
        (np.repeat(shown, [len(spec.values) for spec, _ in results]),
         np.concatenate([_khz(spec.omega_grid) for spec, _ in results]),
         np.concatenate([spec.values for spec, _ in results]),
         np.concatenate([spec.log10_values() for spec, _ in results])),
        provenance,
    )
    peaks = None
    if "peaks" in cfg.products:
        reports = [report for _, report in results]
        peaks = ResultTable(
            (axis_col, ("n_peaks", "1"), ("resolved", "bool"),
             ("dip_depth", "1"), ("peak_positions_over_2pi", "kHz"),
             ("peak_fwhm_over_2pi", "kHz")),
            (shown,
             [len(r.peaks) for r in reports],
             [str(r.resolved).lower() for r in reports],
             [r.dip_depth for r in reports],
             [";".join(f"{_khz(p):.6g}" for p, _, _ in r.peaks)
              for r in reports],
             [";".join(f"{_khz(w):.6g}" for _, _, w in r.peaks)
              for r in reports]),
            provenance,
        )
    return SpectrumScanResult(spectra=spectra, peaks=peaks)


# ---------------------------------------------------------------------------
# emission

# Rows per %-operation: bounds the memory of the stacked run and the text
# that one operation builds.
_RUN_ROWS = 4096


def _cell(x) -> str:
    """The one cell rule: %.17g for a float, str for anything else."""
    return "%.17g" % x if isinstance(x, float) else str(x)


def _write_rows(buf: io.StringIO, data, sep: str, text_row) -> None:
    """Write the rows of the columns in data, one per line, their cells
    formatted by _cell and joined by sep.

    When every column is a float array, each run of at most _RUN_ROWS rows
    is stacked and written with one %-operation: a float never needs csv
    quoting. Any other table goes row by row, as a list of cell strings, to
    text_row.
    """
    if all(isinstance(c, np.ndarray) and c.dtype == float for c in data):
        line = sep.join(["%.17g"] * len(data)) + "\n"
        for k in range(0, len(data[0]), _RUN_ROWS):
            run = np.column_stack([c[k:k + _RUN_ROWS] for c in data])
            buf.write(line * len(run) % tuple(run.ravel().tolist()))
    else:
        for row in zip(*data):
            text_row([_cell(x) for x in row])


def _block_starts(lead) -> list[int]:
    """Rows whose leading cell differs from the previous row's; row 0 too."""
    if isinstance(lead, np.ndarray):
        changes = (np.flatnonzero(lead[1:] != lead[:-1]) + 1).tolist()
    else:
        changes = [i for i in range(1, len(lead)) if lead[i] != lead[i - 1]]
    return [0, *changes] if len(lead) else []


def _provenance_lines(t: ResultTable) -> list[str]:
    return [f"# {k} = {v}" for k, v in t.provenance.items()]


def emit_csv(t: ResultTable, path: str) -> None:
    """RFC-4180 CSV with LF endings and a leading # provenance block."""
    buf = io.StringIO()
    for line in _provenance_lines(t):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(t.header)
    _write_rows(buf, t.data, ",", writer.writerow)
    _write_text(path, buf.getvalue())


def emit_plotdata(t: ResultTable, path: str) -> None:
    """Gnuplot-style whitespace-delimited blocks, one per run of equal
    leading-axis values (blocks separated by two blank lines for `index`
    addressing)."""
    buf = io.StringIO()
    for line in _provenance_lines(t):
        buf.write(line + "\n")
    buf.write("# columns: " + " ".join(t.header) + "\n")
    lead = t.data[0]
    starts = _block_starts(lead)
    for i, (start, stop) in enumerate(zip(starts, starts[1:] + [len(lead)])):
        if i:
            buf.write("\n\n")
        buf.write(f"# block {t.columns[0][0]} = {_cell(lead[start])}\n")
        _write_rows(buf, [c[start:stop] for c in t.data], " ",
                    lambda cells: buf.write(" ".join(cells) + "\n"))
    _write_text(path, buf.getvalue())


def _write_text(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from None

