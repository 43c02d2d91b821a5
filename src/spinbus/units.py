"""Physical constants and the one unit table.

All internal computation is carried out in SI; presentation code converts
to the device-friendly units (GHz, MHz, kHz, gauss, nA, um) at the edge,
through UNIT_TABLE. The table's frequencies are cyclic (Hz): the 2*pi to
angular frequency is written out as TWO_PI where it applies, never implied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA constants used throughout (SI).

    bohr_magneton_over_h is mu_B/h in Hz/T; the electron-spin transition
    slope used elsewhere defaults to |g_e| times this value (~28 GHz/T).
    """

    hbar: float = 1.054571817e-34          # J*s
    mu0: float = 1.25663706212e-6          # T*m/A
    flux_quantum: float = 2.067833848e-15  # Wb, h/(2e)
    bohr_magneton_over_h: float = 1.39962449361e10  # Hz/T

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0.0:
                raise ValueError(f"constant {f.name} must be strictly positive")
        # Pin flux_quantum = h/(2e) to 6 significant figures; h derived from
        # hbar, e exact since the 2019 SI redefinition.
        h = TWO_PI * self.hbar
        expected = h / (2.0 * 1.602176634e-19)
        if abs(self.flux_quantum - expected) > 5e-6 * expected:
            raise ValueError("flux_quantum inconsistent with h/(2e)")


CONSTANTS = PhysicalConstants()

# unit token -> (dimension, factor to SI). Config files, --echo and the
# output tables all convert through this table.
UNIT_TABLE: dict[str, tuple[str, float]] = {
    "Hz": ("frequency", 1.0), "kHz": ("frequency", 1e3),
    "MHz": ("frequency", 1e6), "GHz": ("frequency", 1e9),
    "s": ("time", 1.0), "ms": ("time", 1e-3),
    "us": ("time", 1e-6), "ns": ("time", 1e-9),
    "m": ("length", 1.0), "mm": ("length", 1e-3),
    "um": ("length", 1e-6), "nm": ("length", 1e-9),
    "A": ("current", 1.0), "mA": ("current", 1e-3),
    "uA": ("current", 1e-6), "nA": ("current", 1e-9),
    "H": ("inductance", 1.0), "mH": ("inductance", 1e-3),
    "uH": ("inductance", 1e-6), "nH": ("inductance", 1e-9),
    "pH": ("inductance", 1e-12),
    "T": ("field", 1.0), "mT": ("field", 1e-3), "uT": ("field", 1e-6),
    "nT": ("field", 1e-9), "G": ("field", 1e-4), "mG": ("field", 1e-7),
    "Wb": ("flux", 1.0), "Phi0": ("flux", CONSTANTS.flux_quantum),
    "Hz/T": ("slope", 1.0), "kHz/T": ("slope", 1e3),
    "MHz/T": ("slope", 1e6), "GHz/T": ("slope", 1e9),
}


def to_unit(value_si, unit: str):
    """value_si (a float or an array) expressed in `unit`, a UNIT_TABLE
    token; the empty unit of a dimensionless value leaves it unchanged."""
    return value_si / UNIT_TABLE[unit][1] if unit else value_si


def format_in(value_si: float, unit: str) -> str:
    """value_si in `unit` to 6 significant digits, followed by the unit."""
    return f"{to_unit(value_si, unit):.6g}" + (f" {unit}" if unit else "")


# Default |d(nu)/dB| of the spin microwave transitions, Hz/T.
DEFAULT_TRANSITION_SLOPE = 2.8e10

