import logging

import pytest

import spinbus.sweeps as sweeps
from spinbus import _blas
from spinbus.config import load_config_text
from spinbus.errors import DegenerateSteadyState, SpinbusError

TWO_POINTS = """
[resonator]
omega_r = 6 GHz
L_r = 2 nH
kappa = 26 kHz

[loop]
r_loop = 0.2 um
I_p = 880 nA
Delta = 6 GHz
T1_pcq = 20 us
T2_pcq = 20 us

[solver]
n_fock = 4
grid_points = 101
grid_span_kappa = 8

[scan]
axis tau = list 15, 20 us

[output]
products = spectrum, peaks
"""


def _counts() -> list[int]:
    return [get() for get, _ in _blas._libraries()]


@pytest.fixture
def two_blas_threads():
    """Every found OpenBLAS set to two threads for the test, then reset."""
    libraries = _blas._libraries()
    if not libraries:
        pytest.skip("no OpenBLAS thread-count setter on this host")
    before = _counts()
    for _, set_ in libraries:
        set_(2)
    yield _counts()
    for (_, set_), count in zip(libraries, before):
        set_(count)


def test_scan_runs_on_one_blas_thread_and_restores(two_blas_threads,
                                                   monkeypatch):
    seen = []
    compute = sweeps.compute_point_spectrum

    def recording(cfg, axis_name, value):
        seen.append(_counts())
        return compute(cfg, axis_name, value)

    monkeypatch.setattr(sweeps, "compute_point_spectrum", recording)
    result = sweeps.run_spectrum_scan(load_config_text(TWO_POINTS))
    assert seen == [[1] * len(two_blas_threads)] * 2
    assert _counts() == two_blas_threads
    assert result.spectra.provenance["blas_threads"] == 1
    assert result.spectra.provenance["workers"] == 1


def test_blas_counts_restored_after_a_failing_scan(two_blas_threads,
                                                   monkeypatch):
    def failing(cfg, axis_name, value):
        assert _counts() == [1] * len(two_blas_threads)
        raise DegenerateSteadyState(2)

    monkeypatch.setattr(sweeps, "compute_point_spectrum", failing)
    with pytest.raises(SpinbusError):
        sweeps.run_spectrum_scan(load_config_text(TWO_POINTS))
    assert _counts() == two_blas_threads


def test_no_setter_found_warns_once_and_runs(monkeypatch, caplog):
    monkeypatch.setattr(_blas, "_setters", lambda: [])
    monkeypatch.setattr(_blas, "_found", None)
    with caplog.at_level(logging.WARNING, logger="spinbus._blas"):
        result = sweeps.run_spectrum_scan(load_config_text(TWO_POINTS))
    warnings = [r for r in caplog.records if r.name == "spinbus._blas"]
    assert len(warnings) == 1 and "no OpenBLAS" in warnings[0].getMessage()
    assert len(result.spectra.rows) == 2 * 101
    assert result.spectra.provenance["blas_threads"] == "unpinned"


def test_pool_is_sized_to_the_points_and_pins_its_workers(monkeypatch):
    pools = []

    class RecordingPool(sweeps.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append((max_workers, kwargs.get("initializer")))
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", RecordingPool)
    result = sweeps.run_spectrum_scan(load_config_text(TWO_POINTS), threads=8)
    assert pools == [(2, _blas.pin)]
    assert result.spectra.provenance["workers"] == 2
    assert result.peaks.provenance["workers"] == 2
