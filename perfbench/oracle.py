"""Correctness oracle for the benchmark's outputs, run outside the timed region.

Spectra: S(omega) at seeded spot frequencies is recomputed from the
library entry points (parameter objects, ``build_interaction_hamiltonian``,
``build_collapse_operators``, ``build_liouvillian``) with a dense bordered
steady-state solve and a dense ``numpy.linalg.solve`` of
(i omega - L) x = b per spot frequency. The program picks the Fock
truncation adaptively and does not print it, so a point passes when the
spot values match at some truncation N = n_fock_start, +2, ... up to a cap.

Coupling maps: seeded cells are recomputed with the scalar
``pcq_cpw_coupling``, ``nv_pcq_coupling`` and ``direct_nv_cpw_coupling``,
in both the CSV and the plotdata output.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import replace

import numpy as np

from spinbus import (
    DecoherenceRates,
    ModelParams,
    SpaceLayout,
    build_collapse_operators,
    build_interaction_hamiltonian,
    build_liouvillian,
    direct_nv_cpw_coupling,
    embed,
    full_layout,
    nv_pcq_coupling,
    pcq_cpw_coupling,
    pcq_frequency,
)
from spinbus.config import load_config
from spinbus.operators import fock_annihilation_matrix

TWO_PI = 2.0 * math.pi
SPOTS_PER_POINT = 6
SPECTRUM_RTOL = 1e-7      # of the point's spectral peak
MAP_RTOL = 1e-12
MAP_CELLS = 64
AXIS_UNIT = 1e-6          # the spectrum workloads write r_loop in um, tau in us
N_CAP = {"sectors": 14, "full": 6}


def read_table(path: str) -> list[list[str]]:
    """Data rows of an emitted CSV (provenance and header dropped)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[1:]


# ---------------------------------------------------------------------------
# spectra

def _dense_spectrum(model: ModelParams, rates: DecoherenceRates, layout,
                    solver, omegas: np.ndarray) -> np.ndarray:
    """(1/pi) Re u^dag (i w - L)^{-1} b at absolute frame frequencies."""
    h = build_interaction_hamiltonian(model, layout)
    c_ops = build_collapse_operators(rates, layout, solver.nv_relaxation,
                                     solver.pcq_relaxation)
    lmat = build_liouvillian(h, c_ops).matrix.toarray()
    d = layout.total_dim
    # Steady state: L x = 0 with the first diagonal row replaced by the trace.
    bordered = lmat.copy()
    bordered[0, :] = np.eye(d).reshape(-1, order="F")
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(bordered, rhs).reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    a = embed(fock_annihilation_matrix(model.N_fock), "cavity", layout).matrix
    if solver.spectrum_mode == "incoherent":
        a = a - np.trace(a @ rho) * np.eye(d)
    b = (a @ rho).reshape(-1, order="F")
    u = a.reshape(-1, order="F").conj()
    eye = np.eye(d * d)
    return np.array([np.real(u @ np.linalg.solve(1j * w * eye - lmat, b)) / np.pi
                     for w in omegas])


def _oracle_values(cfg, axis: str, value_si: float, n_fock: int,
                   omegas_rel: np.ndarray) -> np.ndarray:
    loop = cfg.loop
    if axis == "r_loop":
        loop = replace(loop, r_loop=value_si)
    elif axis == "tau":
        loop = replace(loop, T1_pcq=value_si, T2_pcq=value_si)
    else:
        raise ValueError(f"oracle does not cover axis {axis!r}")
    d = cfg.solver.distance_for(loop.r_loop)
    g = TWO_PI * pcq_cpw_coupling(cfg.resonator, loop, d)
    eta = TWO_PI * nv_pcq_coupling(loop, cfg.nv)
    omega_0 = pcq_frequency(loop)
    rates = DecoherenceRates.from_times(
        cfg.resonator.kappa, loop.T1_pcq, loop.T2_pcq, cfg.nv.T1_nv,
        cfg.nv.T2_nv, cfg.solver.rate_convention)
    omegas = omegas_rel + g           # the frame follows the upper Rabi peak
    solver = cfg.solver
    if solver.nv_mode == "full":
        model = ModelParams(cfg.resonator.omega_r, omega_0, g, eta,
                            cfg.resonator.zeta, n_fock)
        return np.clip(_dense_spectrum(model, rates, full_layout(n_fock),
                                       solver, omegas), 0.0, None)
    # Sectors: the spin frozen at m_s shifts the qubit by eta*m_s and its own
    # channels are off; the spectrum is the weighted sum over sectors.
    layout = SpaceLayout((n_fock, 2), ("cavity", "pcq"))
    frozen = DecoherenceRates(kappa=rates.kappa, gamma_pcq=rates.gamma_pcq,
                              gamma_phi_pcq=rates.gamma_phi_pcq)
    total = np.zeros(omegas.size)
    for m_s, weight in zip((1, 0, -1), solver.weights):
        if weight == 0.0:
            continue
        model = ModelParams(cfg.resonator.omega_r, omega_0 + eta * m_s, g, 0.0,
                            cfg.resonator.zeta, n_fock)
        total += weight * np.clip(
            _dense_spectrum(model, frozen, layout, solver, omegas), 0.0, None)
    return total


def spectrum_points(csv_path: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Axis value (as printed) -> (relative angular grid, S values)."""
    points: dict[str, tuple[list, list]] = {}
    for row in read_table(csv_path):
        grid, vals = points.setdefault(row[0], ([], []))
        grid.append(TWO_PI * 1e3 * float(row[1]))
        vals.append(float(row[2]))
    return {k: (np.array(g), np.array(v)) for k, (g, v) in points.items()}


def spot_indices(rng: random.Random, values: np.ndarray) -> list[int]:
    """The peak sample plus seeded random samples of one spectrum."""
    picks = {int(np.argmax(values))}
    while len(picks) < min(SPOTS_PER_POINT, values.size):
        picks.add(rng.randrange(values.size))
    return sorted(picks)


def check_spectrum_point(cfg, axis: str, value_si: float, grid: np.ndarray,
                         values: np.ndarray, spots: list[int]) -> bool:
    """True when the spot values match the dense oracle at some N."""
    solver = cfg.solver
    span = solver.grid_span_kappa * cfg.resonator.kappa
    expect_grid = np.linspace(-span, span, solver.grid_points)
    if grid.shape != expect_grid.shape or not np.allclose(
            grid, expect_grid, rtol=1e-12, atol=1e-9 * span):
        return False
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        return False
    peak = float(values.max())
    for n_fock in range(solver.n_fock or solver.n_fock_start,
                        N_CAP[solver.nv_mode] + 1, 2):
        expect = _oracle_values(cfg, axis, value_si, n_fock, grid[spots])
        if np.all(np.abs(expect - values[spots]) <= SPECTRUM_RTOL * peak):
            return True
        if solver.n_fock is not None:
            break
    return False


def check_spectrum_run(cfg_path: str, overrides: list[str], csv_path: str,
                       axis_values: list[float], seed: int,
                       perturb: bool = False) -> list[bool]:
    """Per-point verdicts for one spectrum output file. With perturb=True
    the peak sample of the first point is scaled by 1 + 1e-4 before the
    check (the oracle self-test), and only that point is checked."""
    cfg = load_config(cfg_path, overrides)
    axis = cfg.axes[0]
    points = spectrum_points(csv_path)
    rng = random.Random(seed)
    if len(points) != len(axis_values):
        return [False] * len(axis_values)
    verdicts = []
    for (shown, (grid, values)), value in zip(points.items(), axis_values):
        if not math.isclose(float(shown), value, rel_tol=1e-9):
            verdicts.append(False)
            continue
        spots = spot_indices(rng, values)
        if perturb:
            values = values.copy()
            values[int(np.argmax(values))] *= 1 + 1e-4
        verdicts.append(check_spectrum_point(
            cfg, axis.name, value * AXIS_UNIT, grid, values, spots))
        if perturb:
            break
    return verdicts


def check_peaks_file(path: str, n_points: int) -> bool:
    try:
        return len(read_table(path)) == n_points
    except OSError:
        return False


# ---------------------------------------------------------------------------
# coupling maps

def _plotdata_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh
                if line.strip() and not line.startswith("#")]


def check_map_run(cfg_path: str, csv_path: str, dat_path: str, seed: int,
                  perturb: bool = False) -> list[bool]:
    """Per-cell verdicts for MAP_CELLS seeded cells of a coupling map. With
    perturb=True the first sampled cell's g is scaled by 1 + 1e-9 and only
    that cell is checked."""
    cfg = load_config(cfg_path)
    axes = {a.name: a.values for a in cfg.axes}
    r_vals, i_vals = axes["r_loop"], axes["I_p"]
    rows = read_table(csv_path)
    dat = _plotdata_rows(dat_path)
    n = len(r_vals) * len(i_vals)
    if len(rows) != n or len(dat) != n:
        return [False] * MAP_CELLS
    rng = random.Random(seed)
    cells = rng.sample(range(n), MAP_CELLS)
    verdicts = []
    for k in cells:
        row = [float(x) for x in rows[k]]
        if perturb:
            row[2] *= 1 + 1e-9
        r_loop, i_p = r_vals[k // len(i_vals)], i_vals[k % len(i_vals)]
        loop = replace(cfg.loop, r_loop=r_loop, I_p=i_p)
        d = cfg.solver.distance_for(r_loop)
        expect = (r_loop / 1e-6, i_p / 1e-9,
                  pcq_cpw_coupling(cfg.resonator, loop, d) / 1e6,
                  nv_pcq_coupling(loop, cfg.nv) / 1e3,
                  direct_nv_cpw_coupling(cfg.resonator, cfg.nv, d) / 1e3)
        same_dat = [float(x) for x in dat[k]] == [float(x) for x in rows[k]]
        verdicts.append(same_dat and all(
            math.isclose(got, want, rel_tol=MAP_RTOL)
            for got, want in zip(row, expect)))
        if perturb:
            break
    return verdicts
