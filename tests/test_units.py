import numpy as np
import pytest

from spinbus.units import (
    CONSTANTS,
    TWO_PI,
    UNIT_TABLE,
    PhysicalConstants,
    to_unit,
)


def test_constants_positive_and_flux_quantum_codata():
    c = CONSTANTS
    assert c.hbar > 0 and c.mu0 > 0 and c.flux_quantum > 0
    assert c.bohr_magneton_over_h > 0
    # Phi0 = h/(2e) to 6 significant figures
    h = TWO_PI * c.hbar
    expected = h / (2 * 1.602176634e-19)
    assert abs(c.flux_quantum - expected) / expected < 5e-7


def test_bohr_magneton_slope_scale():
    # mu_B/h ~ 1.4e10 Hz/T
    assert abs(CONSTANTS.bohr_magneton_over_h - 1.4e10) / 1.4e10 < 0.01


def test_bad_constants_rejected():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1e-34)
    with pytest.raises(ValueError):
        PhysicalConstants(flux_quantum=2.1e-15)  # inconsistent with h/2e


def test_convert_frequency_definition():
    # Table frequencies are cyclic: GHz is 1e9 Hz, with no 2*pi.
    assert UNIT_TABLE["GHz"] == ("frequency", 1e9)
    assert to_unit(6e9, "GHz") == 6.0


def test_convert_tesla_gauss():
    assert to_unit(5.17e-4, "G") == pytest.approx(5.17, rel=1e-12)


def test_convert_identity():
    # SI units and the empty unit of a dimensionless value leave it unchanged.
    for unit in ("Hz", "s", "m", "A", "H", "T", "Wb", "Hz/T", ""):
        assert to_unit(1.25, unit) == 1.25


def test_convert_flux_alias():
    assert UNIT_TABLE["Phi0"] == ("flux", CONSTANTS.flux_quantum)
    assert to_unit(2 * CONSTANTS.flux_quantum, "Phi0") == 2.0


def test_roundtrip_exact_machine_precision():
    rng = np.random.default_rng(0)
    for unit, (_, factor) in UNIT_TABLE.items():
        for v in rng.uniform(1e-12, 1e12, 20):
            assert to_unit(v * factor, unit) == pytest.approx(v, rel=1e-15)
