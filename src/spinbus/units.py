"""Physical constants and unit-tagged quantities.

All internal computation is carried out in SI; presentation code converts
to the device-friendly units (GHz, MHz, kHz, gauss, nA, um) at the edge.
Cyclic frequency (Hz) and angular frequency (rad/s) carry distinct tags:
the 2*pi is never implicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DimensionMismatch

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
        for name in ("hbar", "mu0", "flux_quantum", "bohr_magneton_over_h"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"constant {name} must be strictly positive")
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


class Unit(Enum):
    """Dimension tags for the quantities this toolkit handles."""

    HZ = "Hz"                  # cyclic frequency
    RAD_PER_S = "rad/s"        # angular frequency
    TESLA = "T"
    GAUSS = "G"
    AMPERE = "A"
    METER = "m"
    SECOND = "s"
    HENRY = "H"
    WEBER = "Wb"
    TESLA_M2 = "T*m^2"         # flux written as field times area
    DIMENSIONLESS = "1"


# Legal conversions: (source, target) -> multiplicative factor.
# Hz <-> rad/s (x 2*pi) and Wb <-> T*m^2 are definitions, not unit prefixes;
# the gauss factor is UNIT_TABLE's.
_CONVERSIONS: dict[tuple[Unit, Unit], float] = {
    (Unit.HZ, Unit.RAD_PER_S): TWO_PI,
    (Unit.RAD_PER_S, Unit.HZ): 1.0 / TWO_PI,
    (Unit.TESLA, Unit.GAUSS): 1.0 / UNIT_TABLE["G"][1],
    (Unit.GAUSS, Unit.TESLA): UNIT_TABLE["G"][1],
    (Unit.WEBER, Unit.TESLA_M2): 1.0,
    (Unit.TESLA_M2, Unit.WEBER): 1.0,
}


@dataclass(frozen=True)
class Quantity:
    """A real value tagged with a dimension.

    Addition, subtraction and comparison require identical tags; scaling by
    a bare number is allowed. Cross-dimension arithmetic is rejected rather
    than inferred -- this is not a general units library.
    """

    value: float
    unit: Unit

    def _require_same(self, other: "Quantity") -> None:
        if not isinstance(other, Quantity) or other.unit is not self.unit:
            raise DimensionMismatch(
                f"operands have units {self.unit.value!r} and "
                f"{getattr(other, 'unit', None)!r}"
            )

    def __add__(self, other: "Quantity") -> "Quantity":
        self._require_same(other)
        return Quantity(self.value + other.value, self.unit)

    def __sub__(self, other: "Quantity") -> "Quantity":
        self._require_same(other)
        return Quantity(self.value - other.value, self.unit)

    def __mul__(self, factor: float) -> "Quantity":
        if isinstance(factor, Quantity):
            raise DimensionMismatch("multiply a Quantity by a bare number only")
        return Quantity(self.value * float(factor), self.unit)

    __rmul__ = __mul__

    def __lt__(self, other: "Quantity") -> bool:
        self._require_same(other)
        return self.value < other.value

    def to(self, target: Unit) -> "Quantity":
        return convert(self, target)


def convert(q: Quantity, target_unit: Unit) -> Quantity:
    """Convert between dimensionally compatible tags; exact rescale.

    Raises DimensionMismatch for every pair not in the legal table
    (e.g. seconds to tesla, or any tag to dimensionless).
    """
    if q.unit is target_unit:
        return Quantity(q.value, target_unit)
    try:
        factor = _CONVERSIONS[(q.unit, target_unit)]
    except KeyError:
        raise DimensionMismatch(
            f"no conversion from {q.unit.value!r} to {target_unit.value!r}"
        ) from None
    return Quantity(q.value * factor, target_unit)


# Default |d(nu)/dB| of the spin microwave transitions, Hz/T.
DEFAULT_TRANSITION_SLOPE = 2.8e10


def cyclic_to_angular(f_hz: float) -> float:
    return TWO_PI * f_hz


def angular_to_cyclic(w_rad_s: float) -> float:
    return w_rad_s / TWO_PI
