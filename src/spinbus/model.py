"""Assemble Hamiltonians and collapse operators from physical parameters.

All Hamiltonians are returned divided by hbar, i.e. in angular-frequency
units (rad/s); the Liouvillian then reads rho_dot = -i[H, rho] + dissipators
with no further hbar anywhere.

Conventions that materially change numbers, pinned here:

  rate_convention = "cyclic" (default): decay rates are defined through
      gamma/2pi = 1/T1 and gamma_phi/2pi = 1/T_phi with
      1/T_phi = 1/T2 - 1/(2 T1), so the angular rates carry a factor 2pi.
      "plain" drops that factor (gamma = 1/T1 in rad/s).

  nv_relaxation = "as_printed" (default): the spin relaxation collapse
      operator is sqrt(gamma_nv) * S_plus, a raising operator whose unique
      fixed point is m_s = +1 ("as_printed" names the raising variant, the
      channel as written in the convention where sigma_minus excites).
      "lowering" uses S_minus instead. Both are provided because a raising
      relaxation channel is physically unusual; neither is asserted as the
      intended physics.

  pcq_relaxation = "lowering" (default): the loop-qubit T1 channel
      de-excites (sigma_minus). The raising variant ("as_printed",
      sigma_plus) turns T1 into an incoherent pump; for pump rates above
      kappa the strongly coupled cavity then lases (photon number
      ~ gamma/kappa), which is outside every truncation this toolkit
      targets, so the pump variant is kept for inspection only. Under the
      swapped basis labelling in which sigma_minus "excites", the two
      variants exchange roles and spectra are unchanged.

  Dephasing channels enter with weight sqrt(gamma_phi/2) * sigma_z. With
  gamma = 2pi/T1 and gamma_phi = 2pi*(1/T2 - 1/(2 T1)) this makes the total
  qubit coherence decay exactly 2pi/T2 (the 1/T2 relation that defines T2),
  which the tests pin so the convention cannot drift silently. Without the
  1/2 the coherence would decay at 2pi*(2/T2 - 1/(2 T1)), breaking the
  1/T2 relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Literal, Sequence, get_args

import numpy as np

from .couplings import NVParams
from .errors import LayoutMismatch, UnphysicalT2, WeightsInvalid
from .operators import (
    LabeledOperator,
    SpaceLayout,
    cavity_qubit_operators,
    embed,
    fock_annihilation_matrix,
    pauli_matrices,
    spin1_matrices,
)
from .units import TWO_PI

RateConvention = Literal["cyclic", "plain"]
NVRelaxation = Literal["as_printed", "lowering"]
PCQRelaxation = Literal["as_printed", "lowering"]
NVMode = Literal["sectors", "full"]
SpectrumMode = Literal["full", "incoherent"]


def check_convention(name: str, value: str, convention) -> None:
    """ValueError unless value is one of the names the Literal alias
    `convention` allows, so a misspelt name never selects the other
    variant."""
    allowed = get_args(convention)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


def validate_weights(weights: Sequence[float]) -> np.ndarray:
    """The three sector weights (m_s = +1, 0, -1) as an array; WeightsInvalid
    unless they are nonnegative and sum to one."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (3,):
        raise WeightsInvalid("need exactly three sector weights (+1, 0, -1)")
    if np.any(w < 0.0):
        raise WeightsInvalid("sector weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise WeightsInvalid(
            f"sector weights sum to {float(w.sum()):.12g}, not 1")
    return w


@dataclass(frozen=True)
class ModelParams:
    """Rotating-frame model inputs, all angular (rad/s)."""

    omega_r: float
    omega_0: float
    g: float
    eta: float
    zeta: float
    N_fock: int
    delta: float = field(init=False)   # omega_0 - omega_r

    def __post_init__(self):
        if self.N_fock < 2:
            raise ValueError("N_fock must be at least 2")
        if self.g < 0.0 or self.eta < 0.0 or self.zeta < 0.0:
            raise ValueError("g, eta, zeta must be nonnegative")
        object.__setattr__(self, "delta", self.omega_0 - self.omega_r)


@dataclass(frozen=True)
class DecoherenceRates:
    """Angular decay/dephasing rates (rad/s) for the five collapse channels."""

    kappa: float
    gamma_pcq: float = 0.0
    gamma_nv: float = 0.0
    gamma_phi_pcq: float = 0.0
    gamma_phi_nv: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0.0:
                raise ValueError(f"{f.name} must be nonnegative")

    @classmethod
    def from_times(cls, kappa: float, T1_pcq: float, T2_pcq: float,
                   T1_nv: float, T2_nv: float,
                   convention: RateConvention = "cyclic") -> "DecoherenceRates":
        g_p, gp_p = rates_from_times(T1_pcq, T2_pcq, convention)
        g_n, gp_n = rates_from_times(T1_nv, T2_nv, convention)
        return cls(kappa=kappa, gamma_pcq=g_p, gamma_nv=g_n,
                   gamma_phi_pcq=gp_p, gamma_phi_nv=gp_n)


def rates_from_times(T1: float, T2: float,
                     convention: RateConvention = "cyclic"
                     ) -> tuple[float, float]:
    """(gamma, gamma_phi) in rad/s from lifetimes.

    gamma/2pi = 1/T1 and gamma_phi/2pi = 1/T_phi = 1/T2 - 1/(2 T1) under
    the default convention; "plain" omits the 2pi. T2 > 2*T1 is rejected
    because it would need a negative pure-dephasing rate.
    """
    if T1 <= 0.0 or T2 <= 0.0:
        raise ValueError("T1 and T2 must be positive")
    if T2 > 2.0 * T1 * (1.0 + 1e-12):
        raise UnphysicalT2(f"T2={T2!r} exceeds 2*T1={2 * T1!r}")
    inv_tphi = max(1.0 / T2 - 1.0 / (2.0 * T1), 0.0)
    check_convention("rate_convention", convention, RateConvention)
    scale = TWO_PI if convention == "cyclic" else 1.0
    return scale / T1, scale * inv_tphi


@dataclass(frozen=True)
class DriveDescriptor:
    """Time-dependent drive zeta*(e^{-i w t} a_dag + e^{+i w t} a).

    Carried separately from the static Hamiltonian so rotating-frame code
    can absorb it exactly.
    """

    op_raise: LabeledOperator    # a_dag, embedded
    op_lower: LabeledOperator    # a, embedded
    amplitude: float             # zeta, rad/s
    frequency: float             # omega, rad/s

    def at(self, t: float) -> np.ndarray:
        phase = np.exp(-1j * self.frequency * t)
        return self.amplitude * (phase * self.op_raise.matrix
                                 + np.conj(phase) * self.op_lower.matrix)


def build_nv_lab_hamiltonian(nv: NVParams, B_z: float) -> LabeledOperator:
    """Lab-frame spin-1 Hamiltonian, 3x3, rad/s.

    H = 2pi*slope*B_z*S_z + D*(S_z^2 - (2/3) I). The Zeeman coefficient is
    the transition-slope magnitude; the m_s -> +1 transition moves up and
    m_s -> -1 down with B_z, and the branch sign is the caller's choice.
    At B_z = 0 both microwave transitions sit at D.
    """
    s_z, _, _ = spin1_matrices()
    zeeman = TWO_PI * nv.slope * B_z * s_z
    zfs = nv.D * (s_z @ s_z - (2.0 / 3.0) * np.eye(3))
    return LabeledOperator(zeeman + zfs, SpaceLayout((3,), ("nv",)),
                           hermitian_hint=True)


def build_full_hamiltonian(p: ModelParams, nv: NVParams, layout: SpaceLayout
                           ) -> tuple[LabeledOperator, DriveDescriptor]:
    """Lab-frame Hamiltonian on cavity (x) qubit (x) spin, plus the drive.

    Static part: omega_r*(a_dag a + 1/2) + (omega_0/2) sigma_z
                 + 2pi*slope*B_bias*S_z + D*(S_z^2 - 2/3)
                 + g*(a_dag sigma_- + a sigma_+) + (eta/2) sigma_z S_z.
    The drive term is returned as a descriptor at the cavity frequency
    omega_r: the drive is resonant.
    """
    if layout.labels != ("cavity", "pcq", "nv"):
        raise LayoutMismatch("full Hamiltonian needs the cavity/pcq/nv layout")
    if layout.dims[0] != p.N_fock:
        raise LayoutMismatch(
            f"layout N_fock {layout.dims[0]} != ModelParams N_fock {p.N_fock}"
        )
    a = embed(fock_annihilation_matrix(p.N_fock), "cavity", layout)
    ad = a.dag()
    sz, sp, sm = pauli_matrices()
    sigma_z = embed(sz, "pcq", layout)
    sigma_p = embed(sp, "pcq", layout)
    sigma_m = embed(sm, "pcq", layout)
    Sz3, _, _ = spin1_matrices()
    S_z = embed(Sz3, "nv", layout)
    eye = np.eye(layout.total_dim)

    h = (
        p.omega_r * (ad.matrix @ a.matrix + 0.5 * eye)
        + 0.5 * p.omega_0 * sigma_z.matrix
        + TWO_PI * nv.slope * nv.B_bias * S_z.matrix
        + nv.D * (S_z.matrix @ S_z.matrix - (2.0 / 3.0) * eye)
        + p.g * (ad.matrix @ sigma_m.matrix + a.matrix @ sigma_p.matrix)
        + 0.5 * p.eta * sigma_z.matrix @ S_z.matrix
    )
    drive = DriveDescriptor(op_raise=ad, op_lower=a,
                            amplitude=p.zeta, frequency=p.omega_r)
    return LabeledOperator(h, layout, hermitian_hint=True), drive


def build_interaction_hamiltonian(p: ModelParams, layout: SpaceLayout
                                  ) -> LabeledOperator:
    """Rotating-frame Hamiltonian at resonant drive (omega = omega_r), rad/s.

    H_I = (delta/2) sigma_z + zeta (a + a_dag)
          + g (a_dag sigma_- + a sigma_+) + (eta/2) sigma_z S_z

    Valid on the full layout or the reduced cavity+qubit layout (where the
    eta term needs an explicit spin sector; see sector_interaction_hamiltonian).
    The spin's free Zeeman/ZFS terms are frame-shifted away; they commute
    with every term retained here, so cavity spectra are unaffected.
    """
    if layout.dims[0] != p.N_fock:
        raise LayoutMismatch(
            f"layout N_fock {layout.dims[0]} != ModelParams N_fock {p.N_fock}"
        )
    ops = cavity_qubit_operators(layout)
    h = (
        0.5 * p.delta * ops.sigma_z
        + p.zeta * (ops.a + ops.a.conj().T)
        + p.g * (ops.ad_sigma_minus + ops.a_sigma_plus)
    )
    if "nv" in layout.labels:
        Sz3, _, _ = spin1_matrices()
        S_z = embed(Sz3, "nv", layout)
        h = h + 0.5 * p.eta * ops.sigma_z @ S_z.matrix
    elif p.eta != 0.0:
        raise LayoutMismatch(
            "eta coupling needs the nv factor; use sector_interaction_hamiltonian"
        )
    return LabeledOperator(h, layout, hermitian_hint=True)


def sector_interaction_hamiltonian(p: ModelParams, layout: SpaceLayout,
                                   m_s: int) -> LabeledOperator:
    """Cavity+qubit Hamiltonian with the spin frozen in sector m_s.

    sigma_z S_z evaluated at S_z = m_s turns the eta coupling into a qubit
    detuning shift: delta -> delta + eta*m_s.
    """
    if m_s not in (-1, 0, 1):
        raise ValueError("m_s must be one of -1, 0, +1")
    if layout.labels != ("cavity", "pcq"):
        raise LayoutMismatch("sector Hamiltonian lives on the cavity+pcq layout")
    shifted = replace(p, omega_0=p.omega_0 + p.eta * m_s, eta=0.0)
    return build_interaction_hamiltonian(shifted, layout)


def build_collapse_operators(d: DecoherenceRates, layout: SpaceLayout,
                             nv_relaxation: NVRelaxation = "as_printed",
                             pcq_relaxation: PCQRelaxation = "lowering"
                             ) -> list[LabeledOperator]:
    """The five collapse operators, embedded, in fixed order.

    [sqrt(kappa) a, sqrt(gamma_pcq) sigma_+/-, sqrt(gamma_nv) S_+/-,
     sqrt(gamma_phi_pcq/2) sigma_z, sqrt(gamma_phi_nv/2) S_z]

    Zero-rate entries are kept as zero operators so the list length is
    stable. The relaxation-direction switches and the dephasing 1/2 are
    discussed in the module docstring. On the reduced cavity+qubit layout
    only the first, second and fourth are meaningful and the spin rates
    must be zero.
    """
    check_convention("nv_relaxation", nv_relaxation, NVRelaxation)
    check_convention("pcq_relaxation", pcq_relaxation, PCQRelaxation)
    has_nv = "nv" in layout.labels
    if not has_nv and (d.gamma_nv != 0.0 or d.gamma_phi_nv != 0.0):
        raise LayoutMismatch("spin rates nonzero but layout has no nv factor")

    ops = cavity_qubit_operators(layout)
    a = LabeledOperator(ops.a, layout)
    sigma_relax = LabeledOperator(
        ops.sigma_plus if pcq_relaxation == "as_printed" else ops.sigma_minus,
        layout)
    sigma_z = LabeledOperator(ops.sigma_z, layout)
    zero = LabeledOperator(np.zeros((layout.total_dim,) * 2), layout)

    if has_nv:
        Sz3, Sp3, Sm3 = spin1_matrices()
        s_relax = embed(Sp3 if nv_relaxation == "as_printed" else Sm3, "nv", layout)
        S_z = embed(Sz3, "nv", layout)
    else:
        s_relax = S_z = zero

    return [
        np.sqrt(d.kappa) * a,
        np.sqrt(d.gamma_pcq) * sigma_relax,
        np.sqrt(d.gamma_nv) * s_relax,
        np.sqrt(d.gamma_phi_pcq / 2.0) * sigma_z,
        np.sqrt(d.gamma_phi_nv / 2.0) * S_z,
    ]


def sector_collapse_operators(d: DecoherenceRates, layout: SpaceLayout,
                              pcq_relaxation: PCQRelaxation = "lowering"
                              ) -> list[LabeledOperator]:
    """Cavity+qubit channels only (spin frozen): kappa, gamma_pcq, gamma_phi_pcq."""
    reduced = replace(d, gamma_nv=0.0, gamma_phi_nv=0.0)
    ops = build_collapse_operators(reduced, layout,
                                   pcq_relaxation=pcq_relaxation)
    return [ops[0], ops[1], ops[3]]
