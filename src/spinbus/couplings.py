"""Closed-form coupling strengths for the resonator / loop / spin chain.

The geometry: a coplanar-waveguide (CPW) resonator, a persistent-current
loop a distance d from its central conductor, and a single spin-1 defect
at the loop centre. Three couplings matter:

  g     loop <-> resonator, via the loop's magnetic moment in the
        resonator's vacuum field:  g = (I_p*mu0/hbar) (r_loop^2/d) I_rms,
        I_rms = sqrt(hbar*omega_r / 2 L_r)
  eta   spin <-> loop, via the field the circulating current produces at
        the loop centre: the spin transition shifts by
        delta_nu = B_loop * slope per circulation branch, eta = 2*(2*pi)*delta_nu
  gbar  spin <-> resonator directly, via the vacuum field at distance d:
        gbar/2pi = B_rms(d) * slope

All three scale linearly with the number of turns except gbar, which does
not involve the loop at all. Functions return cyclic frequencies (Hz)
where noted; parameter objects store angular frequencies (rad/s). Every
formula takes its physical constants from units.CONSTANTS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyGrid, NonpositiveDistance, UnphysicalT2
from .units import CONSTANTS, DEFAULT_TRANSITION_SLOPE, TWO_PI


@dataclass(frozen=True)
class ResonatorParams:
    """CPW resonator: frequency, inductance, linewidth, resonant drive.

    omega_r, kappa, zeta are angular (rad/s). If Q is given
    it must equal omega_r/kappa to 1 ppm.
    """

    omega_r: float          # rad/s
    L_r: float              # H
    kappa: float            # rad/s, energy decay rate
    zeta: float = 0.0       # rad/s, drive amplitude
    Q: float | None = None

    def __post_init__(self):
        if self.omega_r <= 0.0:
            raise ValueError("omega_r must be positive")
        if self.L_r <= 0.0:
            raise ValueError("L_r must be positive")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.zeta < 0.0:
            raise ValueError("zeta must be nonnegative")
        if self.Q is not None:
            if abs(self.kappa - self.omega_r / self.Q) > 1e-6 * self.kappa:
                raise ValueError("Q and kappa disagree: kappa != omega_r/Q")


def check_coherence_times(T1: float, T2: float, suffix: str = "") -> None:
    """The one coherence-time rule: both times positive and T2 <= 2*T1 (to
    1e-12 relative), as T2 > 2*T1 would need a negative pure-dephasing
    rate. `suffix` completes the names in the message, as in T2_pcq."""
    if T1 <= 0.0 or T2 <= 0.0:
        raise ValueError("coherence times must be positive")
    if T2 > 2.0 * T1 * (1.0 + 1e-12):
        raise UnphysicalT2(f"UnphysicalT2: T2{suffix}={T2!r} "
                           f"exceeds 2*T1{suffix}={2 * T1!r}")


@dataclass(frozen=True)
class LoopParams:
    """Persistent-current loop: geometry, current, gap, flux bias, coherence.

    The loop is circular with n_turns identical concentric turns; area is
    pi*r_loop^2 per turn.
    """

    r_loop: float            # m
    I_p: float               # A
    Delta: float             # rad/s, gap at the symmetry point
    n_turns: int = 1
    Phi_x: float | None = None   # Wb, defaults to half a flux quantum
    T1_pcq: float = 20e-6    # s
    T2_pcq: float = 2e-6     # s

    def __post_init__(self):
        if self.r_loop <= 0.0:
            raise ValueError("r_loop must be positive")
        if self.I_p < 0.0:
            raise ValueError("I_p must be nonnegative")
        if self.n_turns < 1 or int(self.n_turns) != self.n_turns:
            raise ValueError("n_turns must be a positive integer")
        check_coherence_times(self.T1_pcq, self.T2_pcq, "_pcq")
        if self.Phi_x is None:
            object.__setattr__(self, "Phi_x", CONSTANTS.flux_quantum / 2.0)

    @property
    def area(self) -> float:
        """Single-turn loop area, m^2."""
        return math.pi * self.r_loop**2

    @property
    def magnetic_moment(self) -> float:
        """|mu| = n * I_p * A, A*m^2."""
        return self.n_turns * self.I_p * self.area


@dataclass(frozen=True)
class NVParams:
    """Spin-1 defect: zero-field splitting, transition slope, bias, coherence.

    slope is |d(nu)/dB_z| of the microwave transitions in Hz/T (magnitude;
    the m_s -> +1 / -1 branch sign is chosen by the caller).
    """

    D: float = TWO_PI * 2.87e9        # rad/s
    slope: float = DEFAULT_TRANSITION_SLOPE  # Hz/T
    B_bias: float = 0.0               # T
    T1_nv: float = 4e-3               # s
    T2_nv: float = 600e-6             # s

    def __post_init__(self):
        if self.D <= 0.0:
            raise ValueError("D must be positive")
        if self.slope <= 0.0:
            raise ValueError("slope must be positive")
        check_coherence_times(self.T1_nv, self.T2_nv, "_nv")


def rms_vacuum_current(r: ResonatorParams) -> float:
    """Zero-point RMS current in the resonator, sqrt(hbar*omega_r/2L_r), A."""
    return math.sqrt(CONSTANTS.hbar * r.omega_r / (2.0 * r.L_r))


def cpw_field_at(r: ResonatorParams, d: float) -> float:
    """RMS vacuum magnetic field a distance d from the centre conductor, T.

    Thin-strip surface-current model: B = mu0 * I_rms / (pi * d).
    """
    if d <= 0.0:
        raise NonpositiveDistance(f"d must be positive, got {d!r}")
    return CONSTANTS.mu0 * rms_vacuum_current(r) / (math.pi * d)


def direct_nv_cpw_coupling(r: ResonatorParams, nv: NVParams, d: float) -> float:
    """Direct spin-resonator coupling gbar/2pi in Hz at distance d.

    The Zeeman response of the spin transition to the vacuum field:
    independent of any loop parameters.
    """
    return cpw_field_at(r, d) * nv.slope


def pcq_cpw_coupling(r: ResonatorParams, loop: LoopParams, d: float) -> float:
    """Loop-resonator coupling g/2pi in Hz, loop centre a distance d away.

    Magnetic moment n*I_p*A in the vacuum field gradient of the strip:
    g = n * (I_p*mu0/hbar) * (r_loop^2/d) * I_rms. Linear in I_p and
    n_turns, quadratic in r_loop, inverse in d.
    """
    if d <= 0.0:
        raise NonpositiveDistance(f"d must be positive, got {d!r}")
    return float(_g_cyclic(loop.n_turns, loop.I_p, loop.r_loop, d,
                           rms_vacuum_current(r)))


def loop_center_field(loop: LoopParams) -> float:
    """|B| at the loop centre from the circulating current, T.

    On-axis dipole field 2*mu0*A*I_p/(4pi r^3) = mu0*I_p/(2r) per turn;
    the +/- branch with the circulation direction is handled by the sigma_z
    coupling downstream, so the magnitude is returned.
    """
    return float(_center_field(loop.n_turns, loop.I_p, loop.r_loop))


def nv_pcq_coupling(loop: LoopParams, nv: NVParams) -> float:
    """Spin-loop coupling eta/2pi in Hz.

    The circulation-dependent field shifts the spin transition by
    delta_nu = |B_loop| * slope, and eta/(4pi) = delta_nu, hence
    eta/2pi = 2 * |B_loop| * slope.
    """
    return float(_eta_cyclic(loop.n_turns, loop.I_p, loop.r_loop, nv.slope))


# g/2pi, |B_loop| and eta/2pi, once each for the scalar functions and for
# coupling_map's broadcast arrays, so a map cell equals the scalar value.

def _g_cyclic(n_turns, I_p, r_loop, d, i_rms):
    return (n_turns * (I_p * CONSTANTS.mu0 / CONSTANTS.hbar)
            * (np.float_power(r_loop, 2) / d) * i_rms / TWO_PI)


def _center_field(n_turns, I_p, r_loop):
    return n_turns * CONSTANTS.mu0 * I_p / (2.0 * r_loop)


def _eta_cyclic(n_turns, I_p, r_loop, slope):
    return 2.0 * _center_field(n_turns, I_p, r_loop) * slope


def static_bias_field(loop: LoopParams) -> float:
    """Static field at the loop centre from the half-flux-quantum bias, T.

    Bias flux Phi0/2 through the single-turn area A gives B_s = Phi0/(2A).
    """
    return CONSTANTS.flux_quantum / (2.0 * loop.area)


def pcq_frequency(loop: LoopParams) -> float:
    """Two-level splitting omega_0 = sqrt(Delta^2 + eps^2), rad/s.

    eps = (2 I_p/hbar)(Phi_x - Phi0/2); at the symmetry point omega_0 = Delta.
    """
    eps = (2.0 * loop.I_p / CONSTANTS.hbar) * (
        loop.Phi_x - CONSTANTS.flux_quantum / 2.0
    )
    return math.hypot(loop.Delta, eps)


def d_rule_loop_radius(r_loop: float) -> float:
    """Default distance rule: the loop sits one radius from the conductor.

    The headline coupling figures are only reproduced with d = r_loop; any
    other rule can be passed wherever a d_rule is accepted.
    """
    return r_loop


def coupling_map(
    r: ResonatorParams,
    nv: NVParams,
    loop: LoopParams,
    r_loop_grid: Sequence[float],
    I_p_grid: Sequence[float],
    d_rule: Callable[[float], float] = d_rule_loop_radius,
) -> np.ndarray:
    """Dense scan of (g/2pi, eta/2pi, gbar/2pi) over (r_loop, I_p), Hz.

    Every cell is `loop` with that r_loop and I_p, so the couplings take
    loop.n_turns. Returns a structured array with one row per grid point,
    r_loop-major. Grids must be nonempty and monotone nondecreasing.
    """
    r_vals = np.asarray(r_loop_grid, dtype=float)
    i_vals = np.asarray(I_p_grid, dtype=float)
    if r_vals.size == 0 or i_vals.size == 0:
        raise EmptyGrid("both r_loop and I_p grids must be nonempty")
    if np.any(np.diff(r_vals) < 0) or np.any(np.diff(i_vals) < 0):
        raise ValueError("grids must be monotone nondecreasing")

    n = loop.n_turns
    d = np.empty(r_vals.size)
    gbar = np.empty(r_vals.size)
    for k, r_loop in enumerate(r_vals):
        d[k] = d_k = d_rule(r_loop)
        gbar[k] = direct_nv_cpw_coupling(r, nv, d_k)
        if k == 0:
            # The grids are nondecreasing, so the first cell is the only one
            # LoopParams can reject; it is checked after its row's d.
            replace(loop, r_loop=r_loop, I_p=i_vals[0])

    r_col = r_vals[:, None]
    g = _g_cyclic(n, i_vals, r_col, d[:, None], rms_vacuum_current(r))
    eta = _eta_cyclic(n, i_vals, r_col, nv.slope)

    rows = np.empty(
        r_vals.size * i_vals.size,
        dtype=[("r_loop", float), ("I_p", float),
               ("g", float), ("eta", float), ("gbar", float)],
    )
    rows["r_loop"] = np.repeat(r_vals, i_vals.size)
    rows["I_p"] = np.tile(i_vals, r_vals.size)
    rows["g"] = g.ravel()
    rows["eta"] = eta.ravel()
    rows["gbar"] = np.repeat(gbar, i_vals.size)
    return rows
