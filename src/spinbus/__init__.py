"""spinbus: superconducting-resonator / persistent-current-loop / single-spin
coupling calculators and Lindblad steady-state spectra."""

__version__ = "0.1.0"

from .couplings import (
    LoopParams,
    NVParams,
    ResonatorParams,
    coupling_map,
    cpw_field_at,
    direct_nv_cpw_coupling,
    loop_center_field,
    nv_pcq_coupling,
    pcq_cpw_coupling,
    pcq_frequency,
    rms_vacuum_current,
    static_bias_field,
)
from .liouvillian import (
    Superoperator,
    adaptive_truncation,
    build_liouvillian,
    propagate,
    steady_state,
)
from .model import (
    DecoherenceRates,
    ModelParams,
    build_collapse_operators,
    build_full_hamiltonian,
    build_interaction_hamiltonian,
    build_nv_lab_hamiltonian,
    rates_from_times,
)
from .operators import (
    DensityMatrix,
    LabeledOperator,
    SpaceLayout,
    embed,
    fock_annihilation,
    full_layout,
    pauli_operators,
    spin1_operators,
)
from .spectrum import (
    PeakReport,
    Spectrum,
    find_spectral_peaks,
    full_liouvillian_spectrum,
    nv_sector_spectrum,
    spectrum_fft_crosscheck,
    spectrum_resolvent,
    two_time_correlation,
)
from .units import CONSTANTS, PhysicalConstants

__all__ = [
    "__version__",
    "CONSTANTS", "PhysicalConstants",
    "ResonatorParams", "LoopParams", "NVParams",
    "rms_vacuum_current", "cpw_field_at", "direct_nv_cpw_coupling",
    "pcq_cpw_coupling", "loop_center_field", "nv_pcq_coupling",
    "static_bias_field", "pcq_frequency", "coupling_map",
    "SpaceLayout", "LabeledOperator", "DensityMatrix",
    "fock_annihilation", "spin1_operators", "pauli_operators", "embed",
    "full_layout",
    "ModelParams", "DecoherenceRates", "rates_from_times",
    "build_nv_lab_hamiltonian", "build_full_hamiltonian",
    "build_interaction_hamiltonian", "build_collapse_operators",
    "Superoperator", "build_liouvillian", "steady_state", "propagate",
    "adaptive_truncation",
    "Spectrum", "PeakReport", "spectrum_resolvent", "spectrum_fft_crosscheck",
    "nv_sector_spectrum", "full_liouvillian_spectrum", "find_spectral_peaks",
    "two_time_correlation",
]
