"""The package's table of public names: each name resolves to its module's
object on first use, so the coupling side loads no SciPy."""

import importlib
import os
import subprocess
import sys

import pytest

import spinbus

# spinbus.__all__ in the order the package has always listed it
PUBLIC = [
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

FRESH_IMPORTS = """
import sys
def scipy():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
import numpy as np
import spinbus
print(set(spinbus.__all__) <= set(dir(spinbus)), scipy())
from spinbus import coupling_map, LoopParams, NVParams, ResonatorParams, CONSTANTS
r = ResonatorParams(omega_r=2 * np.pi * 6e9, L_r=2e-9, kappa=2 * np.pi * 26e3)
loop = LoopParams(r_loop=0.4e-6, I_p=600e-9, Delta=r.omega_r)
rows = coupling_map(r, NVParams(), loop, [0.2e-6, 0.4e-6], [500e-9, 600e-9])
print(len(rows), scipy())
from spinbus import steady_state
print('scipy.sparse.linalg' in scipy())
"""


def test_all_keeps_the_public_names_in_order():
    assert spinbus.__all__ == PUBLIC


def test_each_name_is_its_modules_object():
    for module, names in spinbus._NAMES.items():
        owner = importlib.import_module(f"spinbus.{module}")
        for name in names:
            assert getattr(spinbus, name) is getattr(owner, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        spinbus.no_such_name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from spinbus import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)


def test_coupling_side_loads_no_scipy_until_an_engine_name_is_used():
    src = os.path.dirname(os.path.dirname(spinbus.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORTS],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True []", "4 []", "True"]
