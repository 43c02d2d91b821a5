"""Seeded inputs for the benchmark workloads.

Every workload turns a seed into one generated ``.cfg`` file plus the CLI
invocations that make up one timed repetition. The program sees only the
config file and its command-line arguments. Each seed changes the physical
inputs but keeps the amount of work the same (same point count, same grid,
values drawn from bands of equal cost), so that run-to-run spread measures
the program rather than the draw.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

_RESONATOR = """\
[resonator]
omega_r = 6 GHz
L_r     = 2 nH
kappa   = 26 kHz
zeta    = {zeta}
"""

_NV = """\
[nv]
D      = 2870 MHz
slope  = 28 GHz/T
T1_nv  = 4 ms
T2_nv  = 600 us
"""

# fig4a physics: spectrum versus loop radius, no qubit pure dephasing.
_RLOOP_CFG = _RESONATOR.format(zeta="52 kHz") + """
[loop]
r_loop  = 0.4 um
I_p     = 800 nA
Delta   = 6 GHz
T1_pcq  = 20 us
T2_pcq  = 40 us

""" + _NV + """
[solver]
nv_mode = sectors
weights = 1/3 1/3 1/3
grid_points = 2001
grid_span_kappa = 20

[scan]
axis r_loop = list {values} um

[output]
products = spectrum, peaks
"""

# fig7 design point: spectrum versus tau with T1 = T2 = tau.
_TAU_CFG = _RESONATOR.format(zeta="{zeta}") + """
[loop]
r_loop  = 0.2 um
I_p     = 880 nA
Delta   = 6 GHz
T1_pcq  = 20 us
T2_pcq  = 20 us

""" + _NV + """
[solver]
nv_mode = sectors
weights = 1/3 1/3 1/3
grid_points = {grid}
grid_span_kappa = 20
dip_fraction = 0.1

[scan]
axis tau = list {values} us

[output]
products = spectrum, peaks
"""

# fig3 physics: coupling map over (r_loop, I_p).
_MAP_CFG = _RESONATOR.format(zeta="52 kHz") + """
[loop]
r_loop  = 0.4 um
I_p     = 600 nA
Delta   = 5.2 GHz
T1_pcq  = 20 us
T2_pcq  = 2 us

""" + _NV + """
[scan]
axis r_loop = linspace {r_lo} um to {r_hi} um points {n}
axis I_p    = linspace {i_lo} nA to {i_hi} nA points {n}

[output]
products = couplings
"""

FIG7_TAUS_US = (0.5, 5.0, 10.0, 15.0, 20.0)

# Strong-drive tau bands (us), each inside one plateau of the adaptive
# truncation (N = 10, 8 and 6 at zeta = 1.4 MHz), kept clear of the plateau
# edges so that every draw builds the same superoperator sizes.
STRONG_TAU_BANDS_US = ((8.2, 8.9), (10.0, 12.5), (14.5, 20.0))

RLOOP_POINTS = 3
POOL_THREADS = 2
MAP_SIDE = 300


@dataclass
class Inputs:
    """Generated inputs of one workload run."""

    kind: str                          # "spectrum" or "map"
    config: str                        # path of the generated .cfg
    invocations: list[list[str]]       # CLI argv lists of one repetition
    outputs: list[str]                 # files one repetition writes
    overrides: list[str] = field(default_factory=list)
    axis_values: list[float] = field(default_factory=list)  # config units
    pool_probe: list[str] | None = None  # --threads argv of the traced pool probe


def _fmt(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal sub-intervals of [lo, hi]."""
    step = (hi - lo) / n
    return [round(lo + (k + rng.random()) * step, 4) for k in range(n)]


def _spectrum_argv(work: str, cfg: str, stem: str, threads: int,
                   overrides: list[str]) -> list[str]:
    extra = [arg for ov in overrides for arg in ("--override", ov)]
    return ["spectrum", "--config", cfg, "--out", os.path.join(work, stem + ".csv"),
            "--threads", str(threads)] + extra


def _spectrum_inputs(work: str, text: str, values,
                     overrides: list[str] | None = None) -> Inputs:
    cfg = os.path.join(work, "input.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    overrides = overrides or []
    return Inputs("spectrum", cfg,
                  [_spectrum_argv(work, cfg, "spectrum", 1, overrides)],
                  [os.path.join(work, "spectrum.csv"),
                   os.path.join(work, "spectrum_peaks.csv")],
                  overrides, list(values))


def sectors_rloop(seed: int, work: str) -> Inputs:
    rng = random.Random(seed)
    radii = _stratified(rng, 0.1, 1.0, RLOOP_POINTS)
    inputs = _spectrum_inputs(work, _RLOOP_CFG.format(values=_fmt(radii)), radii)
    inputs.pool_probe = _spectrum_argv(work, inputs.config, "pool", POOL_THREADS, [])
    return inputs


def full_tau(seed: int, work: str) -> Inputs:
    tau = random.Random(seed).choice(FIG7_TAUS_US)
    text = _TAU_CFG.format(zeta="52 kHz", grid=401, values=_fmt([tau]))
    return _spectrum_inputs(work, text, [tau], overrides=["solver.nv_mode=full"])


def strong_drive(seed: int, work: str) -> Inputs:
    rng = random.Random(seed)
    taus = [round(rng.uniform(lo, hi), 4) for lo, hi in STRONG_TAU_BANDS_US]
    text = _TAU_CFG.format(zeta="1.4 MHz", grid=201, values=_fmt(taus))
    return _spectrum_inputs(work, text, taus)


def design_map(seed: int, work: str) -> Inputs:
    rng = random.Random(seed)
    text = _MAP_CFG.format(
        r_lo=f"{rng.uniform(0.1, 0.2):.4f}", r_hi=f"{rng.uniform(0.9, 1.0):.4f}",
        i_lo=f"{rng.uniform(100, 200):.2f}", i_hi=f"{rng.uniform(900, 1000):.2f}",
        n=MAP_SIDE)
    cfg = os.path.join(work, "input.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    csv_out = os.path.join(work, "map.csv")
    dat_out = os.path.join(work, "map.dat")
    return Inputs("map", cfg, [
        ["couplings", "--config", cfg, "--out", csv_out],
        ["couplings", "--config", cfg, "--format", "plotdata", "--out", dat_out],
    ], [csv_out, dat_out])


WORKLOADS = {
    "sectors_rloop": sectors_rloop,
    "full_tau": full_tau,
    "strong_drive": strong_drive,
    "design_map": design_map,
}
