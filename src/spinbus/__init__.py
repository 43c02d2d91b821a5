"""spinbus: superconducting-resonator / persistent-current-loop / single-spin
coupling calculators and Lindblad steady-state spectra.

A public name is imported from its module on first use (PEP 562), so
`import spinbus` and the coupling calculators load no SciPy until an engine
name (liouvillian, spectrum) is used.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, in __all__ order
_NAMES = {
    "units": ("CONSTANTS", "PhysicalConstants"),
    "couplings": (
        "ResonatorParams", "LoopParams", "NVParams",
        "rms_vacuum_current", "cpw_field_at", "direct_nv_cpw_coupling",
        "pcq_cpw_coupling", "loop_center_field", "nv_pcq_coupling",
        "static_bias_field", "pcq_frequency", "coupling_map",
    ),
    "operators": (
        "SpaceLayout", "LabeledOperator", "DensityMatrix",
        "fock_annihilation", "spin1_operators", "pauli_operators", "embed",
        "full_layout",
    ),
    "model": (
        "ModelParams", "DecoherenceRates", "rates_from_times",
        "build_nv_lab_hamiltonian", "build_full_hamiltonian",
        "build_interaction_hamiltonian", "build_collapse_operators",
    ),
    "liouvillian": (
        "Superoperator", "build_liouvillian", "steady_state", "propagate",
        "adaptive_truncation",
    ),
    "spectrum": (
        "Spectrum", "PeakReport", "spectrum_resolvent",
        "spectrum_fft_crosscheck", "nv_sector_spectrum",
        "full_liouvillian_spectrum", "find_spectral_peaks",
        "two_time_correlation",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    # Only public names resolve here; any other name raises AttributeError,
    # which lets `from spinbus import cli` fall back to the submodule.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
