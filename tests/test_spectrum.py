import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import curve_fit

import spinbus.liouvillian as liouvillian_module
import spinbus.spectrum as spectrum_module
from spinbus.cli import preset_path
from spinbus.config import load_config

from spinbus.errors import (
    DegenerateSteadyState,
    GridTooCoarse,
    SingularResolvent,
    WeightsInvalid,
    WindowTooShort,
)
from spinbus.liouvillian import (
    DENSE_SOLVE_CAP,
    build_liouvillian,
    steady_state,
    trace_row,
    vectorize,
)
from spinbus.model import (
    DecoherenceRates,
    ModelParams,
    build_collapse_operators,
    build_interaction_hamiltonian,
    validate_weights,
)
from spinbus.operators import (
    DensityMatrix,
    LabeledOperator,
    SpaceLayout,
    basis_state,
    embed,
    fock_annihilation_matrix,
    full_layout,
    pauli_matrices,
)
from spinbus.spectrum import (
    PeakReport,
    SectorProblem,
    Spectrum,
    _hessenberg_solve,
    find_spectral_peaks,
    full_liouvillian_spectrum,
    nv_sector_spectrum,
    sector_problem,
    spectrum_fft_crosscheck,
    spectrum_resolvent,
    two_time_correlation,
)
from spinbus.sweeps import _point_model
from spinbus.units import TWO_PI

# Every nan or inf on the pole path stays inside np.errstate.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

KAPPA = TWO_PI * 26e3
WR = TWO_PI * 6e9


def bare_cavity(n_fock, kappa=KAPPA, zeta=0.0):
    layout = SpaceLayout((n_fock,), ("cavity",))
    a = embed(fock_annihilation_matrix(n_fock), "cavity", layout)
    h = LabeledOperator(zeta * (a.matrix + a.matrix.conj().T), layout,
                        hermitian_hint=True)
    return layout, a, build_liouvillian(h, [np.sqrt(kappa) * a])


def lorentzian(w, amp, center, fwhm):
    return amp / (1.0 + (2.0 * (w - center) / fwhm) ** 2)


def jc_problem(g, kappa=KAPPA, zeta=2 * KAPPA, n_fock=3, delta=0.0,
               gamma=0.0, gamma_phi=0.0):
    p = ModelParams(omega_r=WR, omega_0=WR + delta, g=g, eta=0.0, zeta=zeta,
                    N_fock=n_fock)
    rates = DecoherenceRates(kappa=kappa, gamma_pcq=gamma,
                             gamma_phi_pcq=gamma_phi)
    problem = sector_problem(p, rates, 0)
    return problem.lio, problem.a_op, problem.rho_ss


# ---------------------------------------------------------------- lorentzian

def test_damped_cavity_lorentzian_both_routes():
    layout, a, lio = bare_cavity(3)
    ket = basis_state(layout, {"cavity": 1})
    rho = DensityMatrix(np.outer(ket, ket.conj()), layout)

    s_fft = spectrum_fft_crosscheck(lio, a, rho, tmax=16 / KAPPA,
                                    dt=0.004 / KAPPA, mode="full")
    inside = np.abs(s_fft.omega_grid) <= 6 * KAPPA
    grid = s_fft.omega_grid[inside]
    s_res = spectrum_resolvent(lio, a, rho, grid, mode="full")
    for values in (s_res.values, s_fft.values[inside]):
        popt, _ = curve_fit(lorentzian, grid, values,
                            p0=[values.max(), 0.0, KAPPA])
        assert popt[2] == pytest.approx(KAPPA, rel=0.02)
        assert popt[1] == pytest.approx(0.0, abs=KAPPA / 100)


def test_analytic_correlation_of_seeded_cavity():
    # g(tau) = exp(-kappa tau / 2) * <n> for the undriven cavity; 46 levels
    # (d^2 = 2116) take the sparse branch of expm_action_grid.
    for n_fock in (3, 46):
        layout, a, lio = bare_cavity(n_fock)
        assert (lio.matrix.shape[0] > DENSE_SOLVE_CAP) == (n_fock == 46)
        ket = basis_state(layout, {"cavity": 1})
        rho = DensityMatrix(np.outer(ket, ket.conj()), layout)
        taus = np.linspace(0.0, 4 / KAPPA, 41)
        g = two_time_correlation(lio, a, rho, taus, mode="full")
        assert np.allclose(g, np.exp(-KAPPA * taus / 2), rtol=1e-8,
                           atol=1e-10)


@pytest.mark.parametrize("taus, message", [
    ([0.0], "taus needs at least two points"),
    ([], "taus needs at least two points"),
    ([1e-6, 2e-6], "taus must start at 0 and increase"),
    ([0.0, 2e-6, 1e-6], "taus must start at 0 and increase"),
    ([0.0, 1e-6, 3e-6], "taus must be uniform"),
])
def test_correlation_rejects_a_bad_tau_grid(taus, message):
    layout, a, lio = bare_cavity(3)
    ket = basis_state(layout, {"cavity": 1})
    rho = DensityMatrix(np.outer(ket, ket.conj()), layout)
    with pytest.raises(ValueError, match=f"^{message}$"):
        two_time_correlation(lio, a, rho, np.array(taus))


# ---------------------------------------------------------------- modes

def test_mode_distinction_driven_cavity():
    zeta = KAPPA / 10
    layout, a, lio = bare_cavity(8, zeta=zeta)
    rho_ss = steady_state(lio)
    taus = np.linspace(0.0, 2 / KAPPA, 21)
    g_full = two_time_correlation(lio, a, rho_ss, taus, mode="full")
    g_inc = two_time_correlation(lio, a, rho_ss, taus, mode="incoherent")
    n_ss = rho_ss.expect(a.dag() @ a).real
    assert g_full[0].real == pytest.approx(n_ss, rel=1e-10)
    assert abs(g_full[0]) == pytest.approx((2 * zeta / KAPPA) ** 2, rel=1e-3)
    # coherent steady state: fluctuation correlation is numerically nothing
    assert np.max(np.abs(g_inc)) < 1e-8 * abs(g_full[0])

    grid = np.linspace(0.25 * KAPPA, 4 * KAPPA, 101)  # avoid the carrier
    s_inc = spectrum_resolvent(lio, a, rho_ss, grid, mode="incoherent")
    assert np.max(s_inc.values) < 1e-8 * n_ss / KAPPA


def test_full_mode_coherent_delta_peak_reported():
    zeta = KAPPA / 10
    layout, a, lio = bare_cavity(8, zeta=zeta)
    rho_ss = steady_state(lio)
    with pytest.raises(SingularResolvent):
        spectrum_resolvent(lio, a, rho_ss, np.array([0.0]), mode="full")
    # incoherent mode is fine at the carrier
    s = spectrum_resolvent(lio, a, rho_ss, np.array([0.0]), mode="incoherent")
    assert s.values[0] >= 0.0


def test_unknown_spectrum_mode_is_rejected():
    layout, a, lio = bare_cavity(3)
    rho_ss = steady_state(lio)
    with pytest.raises(ValueError, match="^unknown spectrum mode 'coherent'$"):
        spectrum_resolvent(lio, a, rho_ss, np.array([KAPPA]),
                           mode="coherent")


# ---------------------------------------------------------------- JC doublet

def test_vacuum_rabi_doublet_positions_and_oracle():
    g = TWO_PI * 14e6
    lio, a_op, rho_ss = jc_problem(g, zeta=KAPPA / 5)  # genuinely weak drive
    span = 20 * KAPPA
    measured = []
    for sign in (+1.0, -1.0):
        grid = np.linspace(-span, span, 2001)
        s = spectrum_resolvent(lio, a_op, rho_ss, grid, "incoherent",
                               frame_offset=sign * g)
        report = find_spectral_peaks(s, 0.1)
        assert len(report.peaks) == 1
        measured.append(report.peaks[0][0] + sign * g)
    step = 2 * span / 2000
    assert abs(measured[0] - g) <= step
    assert abs(measured[1] + g) <= step

    # independent oracle: eigenvalues of H_eff = H - (i/2) sum C^dag C in the
    # one-excitation sector, built directly from 2x2/1x1 blocks
    h_eff = np.array([[-1j * KAPPA / 2, g], [g, 0.0]])  # {|1,g>, |0,e>}
    lam = np.linalg.eigvals(h_eff)
    upper = lam[np.argmax(lam.real)]
    linewidth = -2 * upper.imag + KAPPA  # conservative linewidth scale
    assert abs(measured[0] - upper.real) < linewidth / 2


# ------------------------------------------------------- route equivalence

def test_resolvent_and_quadrature_routes_agree():
    g = TWO_PI * 2e6
    lio, a_op, rho_ss = jc_problem(g, zeta=2 * KAPPA, n_fock=3)
    tmax = 400e-6  # slowest coherences decay at kappa/4
    s_td = spectrum_fft_crosscheck(lio, a_op, rho_ss, tmax=tmax, dt=10e-9,
                                   mode="incoherent", frame_offset=g)
    inside = np.abs(s_td.omega_grid) <= 15 * KAPPA
    s_res = spectrum_resolvent(lio, a_op, rho_ss, s_td.omega_grid[inside],
                               "incoherent", frame_offset=g)
    scale = s_res.values.max()
    assert np.max(np.abs(s_td.values[inside] - s_res.values)) / scale < 1e-4


def test_quadrature_stable_under_dt_halving():
    g = TWO_PI * 2e6
    lio, a_op, rho_ss = jc_problem(g, zeta=2 * KAPPA, n_fock=3)
    kwargs = dict(mode="incoherent", frame_offset=g)
    s1 = spectrum_fft_crosscheck(lio, a_op, rho_ss, 260e-6, 16e-9, **kwargs)
    s2 = spectrum_fft_crosscheck(lio, a_op, rho_ss, 260e-6, 8e-9, **kwargs)
    # The bin spacing pi / tmax does not depend on dt: both grids hold the
    # same bins inside the window.
    in1 = np.abs(s1.omega_grid) <= 10 * KAPPA
    in2 = np.abs(s2.omega_grid) <= 10 * KAPPA
    assert np.allclose(s1.omega_grid[in1], s2.omega_grid[in2], rtol=0.0,
                       atol=1e-9 * g)
    assert np.max(np.abs(s1.values[in1] - s2.values[in2])) \
        / s1.values[in1].max() < 1e-6


def test_fft_grid_route_matches_resolvent_at_peak():
    layout, a, lio = bare_cavity(3)
    ket = basis_state(layout, {"cavity": 1})
    rho = DensityMatrix(np.outer(ket, ket.conj()), layout)
    s_fft = spectrum_fft_crosscheck(lio, a, rho, tmax=16 / KAPPA,
                                    dt=0.002 / KAPPA, mode="full")
    inside = np.abs(s_fft.omega_grid) < 5 * KAPPA
    s_res = spectrum_resolvent(lio, a, rho, s_fft.omega_grid[inside], "full")
    assert np.max(np.abs(s_fft.values[inside] - s_res.values)) \
        / s_res.values.max() < 1e-3


def test_window_too_short_raises():
    layout, a, lio = bare_cavity(3)
    ket = basis_state(layout, {"cavity": 1})
    rho = DensityMatrix(np.outer(ket, ket.conj()), layout)
    with pytest.raises(WindowTooShort):
        spectrum_fft_crosscheck(lio, a, rho, tmax=1 / KAPPA, dt=0.01 / KAPPA,
                                mode="full")


# ------------------------------------------------- factor-once resolvent

def dense_oracle(problem, omegas, mode="incoherent"):
    """S at absolute frame frequencies by one np.linalg.solve per frequency."""
    a, rho = problem.a_op.matrix, problem.rho_ss.matrix
    if mode == "incoherent":
        a = a - np.trace(a @ rho) * np.eye(a.shape[0])
    b = vectorize(a @ rho)
    u = vectorize(a).conj()
    lmat = problem.lio.matrix.toarray()
    eye = np.eye(lmat.shape[0])
    raw = np.array([u @ np.linalg.solve(1j * w * eye - lmat, b) for w in omegas])
    return np.clip(raw.real / np.pi, 0.0, None)


def preset_point(name, n_fock, overrides=(), **loop_changes):
    cfg = load_config(preset_path(name), list(overrides))
    loop = replace(cfg.loop, **loop_changes)
    model, rates, offset = _point_model(
        cfg, loop, cfg.solver.distance_for(loop.r_loop), n_fock)
    span = cfg.solver.grid_span_kappa * cfg.resonator.kappa
    return cfg, model, rates, offset, span


def test_krylov_matches_direct_solve_fig4a_cancellation():
    # The peak is tiny against ||u|| ||b|| / kappa here, so the spectrum is a
    # large cancellation: diagonalizing the projected Krylov matrix instead
    # of solving with it misses it by ~5e-10 of the peak.
    cfg, model, rates, offset, span = preset_point("fig4a", 4,
                                                   r_loop=0.6542e-6)
    grid = np.linspace(-span, span, cfg.solver.grid_points)
    for m_s in (1, 0, -1):
        problem = sector_problem(model, rates, m_s)
        s = problem.spectrum(grid, frame_offset=offset)
        ref = dense_oracle(problem, grid + offset)
        assert np.max(np.abs(s.values - ref)) <= 1e-10 * ref.max()


def test_krylov_growth_resolves_a_fig4a_scan_point():
    # At fig4a axis index 2 (r_loop = 0.187 um) the m_s = +1 and -1 sectors
    # have residuals below 1e-10 at the starting Krylov dimension, yet their
    # spectra are 8e-11 and 1.2e-10 of the peak off there: the residual
    # does not see the cancellation in u^dag x. The growth rule must take m
    # past that. At index 16 (r_loop = 0.5645 um) the m_s = 0 sector stops
    # at the starting dimension on the Arnoldi residual.
    radii = load_config(preset_path("fig4a")).axes[0].values
    for r_loop in (radii[2], radii[16]):
        cfg, model, rates, offset, span = preset_point("fig4a", 4,
                                                       r_loop=r_loop)
        grid = np.linspace(-span, span, cfg.solver.grid_points)
        for m_s in (1, 0, -1):
            problem = sector_problem(model, rates, m_s)
            s = problem.spectrum(grid, frame_offset=offset)
            ref = dense_oracle(problem, grid + offset)
            assert np.max(np.abs(s.values - ref)) <= 1e-11 * ref.max()


@pytest.mark.parametrize("n_fock", [3, 4])
@pytest.mark.parametrize("spectrum_mode", ["incoherent", "full"])
@pytest.mark.parametrize("nv_relaxation", ["as_printed", "lowering"])
def test_schur_route_matches_direct_solve_fig7_full_mode(
        monkeypatch, nv_relaxation, spectrum_mode, n_fock):
    # Full mode is evaluated as the pinned spin sector; the reference is the
    # unreduced cavity (x) qubit (x) spin Liouvillian.
    cfg, model, rates, offset, span = preset_point(
        "fig7", n_fock, ["solver.nv_mode=full",
                         f"solver.nv_relaxation={nv_relaxation}",
                         f"solver.spectrum_mode={spectrum_mode}"],
        T1_pcq=20e-6, T2_pcq=20e-6)
    grid = np.linspace(-span, span, 101)
    solver = cfg.solver
    dims = []
    spectrum = SectorProblem.spectrum

    def recording_spectrum(problem, *args, **kwargs):
        dims.append(problem.lio.matrix.shape[0])
        return spectrum(problem, *args, **kwargs)

    monkeypatch.setattr(SectorProblem, "spectrum", recording_spectrum)
    s = full_liouvillian_spectrum(model, rates, grid, offset,
                                  solver.spectrum_mode, solver.nv_relaxation,
                                  solver.pcq_relaxation)
    assert max(dims) == (2 * n_fock) ** 2
    layout = full_layout(n_fock)
    lio = build_liouvillian(
        build_interaction_hamiltonian(model, layout),
        build_collapse_operators(rates, layout, solver.nv_relaxation,
                                 solver.pcq_relaxation))
    a_op = embed(fock_annihilation_matrix(n_fock), "cavity", layout)
    ref = dense_oracle(SectorProblem(lio, a_op, steady_state(lio)),
                       grid + offset, solver.spectrum_mode)
    assert np.max(np.abs(s.values - ref)) <= 1e-10 * ref.max()


def test_full_mode_without_spin_relaxation_is_degenerate():
    cfg, model, rates, offset, span = preset_point(
        "fig7", 3, ["solver.nv_mode=full"], T1_pcq=20e-6, T2_pcq=20e-6)
    with pytest.raises(DegenerateSteadyState) as exc:
        full_liouvillian_spectrum(model, replace(rates, gamma_nv=0.0),
                                  np.linspace(-span, span, 33), offset)
    assert exc.value.kernel_dim == 3


def test_full_mode_rejects_an_unknown_nv_relaxation():
    # a misspelt name used to pin m_s = -1, the "lowering" sector
    cfg, model, rates, offset, span = preset_point(
        "fig7", 3, ["solver.nv_mode=full"], T1_pcq=20e-6, T2_pcq=20e-6)
    with pytest.raises(ValueError, match=r"^nv_relaxation must be one of "
                       r"\('as_printed', 'lowering'\), got 'As_printed'$"):
        full_liouvillian_spectrum(model, rates, np.linspace(-span, span, 33),
                                  offset, nv_relaxation="As_printed")


def test_short_and_long_grids_agree_where_they_meet(monkeypatch):
    densified = []

    def counting_toarray(self, *args, **kwargs):
        densified.append(1)
        return toarray(self, *args, **kwargs)

    g = TWO_PI * 2e6
    lio, a_op, rho_ss = jc_problem(g, zeta=2 * KAPPA, n_fock=4)
    toarray = type(lio.matrix).toarray
    monkeypatch.setattr(type(lio.matrix), "toarray", counting_toarray)
    short = np.linspace(-16 * KAPPA, 16 * KAPPA, 33)
    long = np.linspace(-16 * KAPPA, 16 * KAPPA, 129)   # every 4th is in short
    s_short = spectrum_resolvent(lio, a_op, rho_ss, short, frame_offset=g)
    s_long = spectrum_resolvent(lio, a_op, rho_ss, long, frame_offset=g)
    assert not densified
    for s in (s_short, s_long):
        assert 0.0 < s.metadata["max_relative_residual"] <= 1e-8
    assert np.array_equal(long[::4], short)
    peak = s_short.values.max()
    assert np.max(np.abs(s_long.values[::4] - s_short.values)) <= 1e-10 * peak


# (preset, N, overrides, loop changes, sectors) on the 33-point grid of the
# truncation probes: strong-drive sectors, and the fig4a point whose
# spectrum is a cancellation.
STRONG = (["resonator.zeta=1.4 MHz"], {"T1_pcq": 11e-6, "T2_pcq": 11e-6})
PROBE_CASES = {
    "zeta-1.4MHz-N4": ("fig7", 4, *STRONG, (1,)),
    "zeta-1.4MHz-N6": ("fig7", 6, *STRONG, (1,)),
    "zeta-1.4MHz-N10": ("fig7", 10, *STRONG, (1,)),
    "zeta-1.4MHz-N12": ("fig7", 12, *STRONG, (1,)),
    "fig4a-cancellation-N4": ("fig4a", 4, [], {"r_loop": 0.6542e-6},
                              (1, 0, -1)),
}


@pytest.mark.parametrize("case", list(PROBE_CASES))
def test_banded_route_matches_direct_solve(case):
    preset, n_fock, overrides, loop_changes, sectors = PROBE_CASES[case]
    cfg, model, rates, offset, span = preset_point(preset, n_fock, overrides,
                                                   **loop_changes)
    grid = np.linspace(-span, span, 33)
    for m_s in sectors:
        problem = sector_problem(model, rates, m_s)
        s = problem.spectrum(grid, frame_offset=offset)
        ref = dense_oracle(problem, grid + offset)
        assert np.max(np.abs(s.values - ref)) <= 1e-10 * ref.max()


def test_krylov_block_width_is_invisible(monkeypatch):
    # Blocks of one frequency, of 64 (which split the 201 frequencies
    # 64/64/64/9) and the whole grid in one block, for the small solves and
    # the residual columns alike, give the same Krylov dimension and the
    # same spectrum, on strong-drive sectors of every final size (d^2 = 144,
    # 256 and 400; blocks of one frequency at 144 only, to bound the run
    # time). Each width grows its own projection: spectrum_resolvent
    # continues none.
    overrides, loop_changes = STRONG
    factored = []
    splu = liouvillian_module.spla.splu

    def counting_splu(a, *args, **kwargs):
        factored.append(a)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(liouvillian_module.spla, "splu", counting_splu)
    for n_fock, widths in ((6, (1, 64, 201)), (8, (64, 201)), (10, (64, 201))):
        cfg, model, rates, offset, span = preset_point("fig7", n_fock, overrides,
                                                       **loop_changes)
        problem = sector_problem(model, rates, 1)
        d2 = problem.lio.matrix.shape[0]
        assert d2 == (2 * n_fock) ** 2
        grid = np.linspace(-span, span, 201)
        spectra, dims = [], set()
        for width in widths:
            monkeypatch.setattr(spectrum_module, "_CHUNK_ELEMENTS", width * d2)
            factored.clear()
            s = spectrum_resolvent(problem.lio, problem.a_op, problem.rho_ss,
                                   grid, frame_offset=offset)
            assert len(factored) == 1
            assert s.metadata["route"] == "krylov"
            dims.add(s.metadata["krylov_dim"])
            spectra.append(s.values)
        assert len(dims) == 1
        ref = dense_oracle(problem, grid + offset)
        peak = ref.max()
        for values in spectra:
            assert np.max(np.abs(values - spectra[0])) <= 1e-12 * peak
            assert np.max(np.abs(values - ref)) <= 1e-10 * peak


def test_krylov_on_a_large_liouvillian_gives_the_lorentzian():
    # 46 Fock levels: D^2 = 2116. The undriven cavity seeded with one photon
    # has S = (1/pi) (kappa/2) / (w^2 + kappa^2/4).
    layout, a, lio = bare_cavity(46)
    assert lio.matrix.shape[0] == 2116
    ket = basis_state(layout, {"cavity": 1})
    rho = DensityMatrix(np.outer(ket, ket.conj()), layout)
    grid = np.linspace(-3 * KAPPA, 3 * KAPPA, 7)
    s = spectrum_resolvent(lio, a, rho, grid, mode="full")
    assert s.metadata["route"] == "krylov"
    assert s.metadata["max_relative_residual"] <= 1e-8
    exact = (KAPPA / 2) / (grid**2 + KAPPA**2 / 4) / np.pi
    assert np.max(np.abs(s.values - exact)) <= 1e-10 * exact.max()


@pytest.mark.parametrize("tilt, points", [
    pytest.param(0.0, 33, id="0.0"),
    pytest.param(0.75, 33, id="0.75"),
    pytest.param(0.0, 65, id="0.0-65points"),
])
def test_krylov_reports_undamped_pole(tilt, points):
    # H = (Delta/2)(sigma_z + tilt sigma_x), undamped: a pole at
    # Delta sqrt(1 + tilt^2) (1.25 Delta for tilt 0.75), on the middle
    # sample of the grid. The projected system is singular there only to
    # rounding, so the residual check alone sees the failure.
    delta = TWO_PI * 1e6
    layout = SpaceLayout((2,), ("pcq",))
    sz, s_plus, s_minus = pauli_matrices()
    h = LabeledOperator(0.5 * delta * (sz + tilt * (s_plus + s_minus)), layout,
                        hermitian_hint=True)
    lio = build_liouvillian(h, [])
    sigma_minus = LabeledOperator(s_minus, layout)
    rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
                        layout)
    pole = delta * np.sqrt(1.0 + tilt**2)
    grid = pole * np.linspace(0.5, 1.5, points)
    assert grid[points // 2] == pole
    with pytest.raises(SingularResolvent) as exc:
        spectrum_resolvent(lio, sigma_minus, rho, grid, mode="full")
    assert exc.value.omega == pole


def test_exactly_singular_projection_reports_undamped_pole():
    # With rho diagonal, b = vec(sigma_- rho) is one coherence of the
    # undamped qubit: the Krylov space is invariant at m = 1 and the
    # projected system is exactly singular at the pole. The small solve
    # leaves that frequency non-finite, and the residual guard names it.
    delta = TWO_PI * 1e6
    layout = SpaceLayout((2,), ("pcq",))
    sz, _, s_minus = pauli_matrices()
    lio = build_liouvillian(
        LabeledOperator(0.5 * delta * sz, layout, hermitian_hint=True), [])
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex), layout)
    grid = delta * np.linspace(0.5, 1.5, 33)
    assert grid[16] == delta
    # The one-frequency grid at the pole is the shift's floor case: with a
    # zero half-span, s0 I - L stays nonsingular only through the floor.
    for omegas in (grid, grid[16:17]):
        with pytest.raises(SingularResolvent) as exc:
            spectrum_resolvent(lio, LabeledOperator(s_minus, layout), rho,
                               omegas, mode="full")
        assert exc.value.omega == delta


def test_spectrum_imports_no_scipy_and_no_private_liouvillian_name():
    # liouvillian builds and factors every matrix derived from L; spectrum
    # reaches the factors through Superoperator's public methods. It still
    # imports build_liouvillian and steady_state by name, the names the
    # benchmark's layer timers wrap on this module.
    tree = ast.parse(Path(spectrum_module.__file__).read_text())
    from_liouvillian = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if modules[0].split(".")[-1] == "liouvillian":
                from_liouvillian |= {alias.name for alias in node.names}
        else:
            continue
        assert not [m for m in modules if m.split(".")[0] == "scipy"]
    assert from_liouvillian
    assert not [name for name in from_liouvillian if name.startswith("_")]
    assert {"build_liouvillian", "steady_state"} <= from_liouvillian


def test_every_grid_takes_one_krylov_projection(monkeypatch):
    # On a freshly built problem each grid factors s0 I - L once, with
    # Re s0 an eighth of the grid's span, on a probe grid and on final grids
    # alike, and never densifies L. A second grid over the same L, b and
    # window continues that projection and factors nothing. The
    # strong-drive probe sector needs more than the starting Krylov
    # dimension.
    cfg, model, rates, offset, span = preset_point("fig4a", 4,
                                                   r_loop=0.6542e-6)
    overrides, loop_changes = STRONG
    cfg, s_model, s_rates, s_offset, s_span = preset_point(
        "fig7", 4, overrides, **loop_changes)
    factored, densified = [], []
    splu = liouvillian_module.spla.splu
    matrix_type = type(sector_problem(model, rates, 0).lio.matrix)
    toarray = matrix_type.toarray

    def counting_splu(a, *args, **kwargs):
        factored.append(a)
        return splu(a, *args, **kwargs)

    def counting_toarray(self, *args, **kwargs):
        densified.append(1)
        return toarray(self, *args, **kwargs)

    monkeypatch.setattr(liouvillian_module.spla, "splu", counting_splu)
    monkeypatch.setattr(matrix_type, "toarray", counting_toarray)
    runs = [(lambda: sector_problem(model, rates, 0),
             np.linspace(-span, span, points), offset)
            for points in (33, 201, 2001)]
    runs.append((lambda: sector_problem(s_model, s_rates, 1),
                 np.linspace(-s_span, s_span, 33), s_offset))
    for build, grid, frame in runs:
        problem = build()
        factored.clear()
        s = problem.spectrum(grid, frame_offset=frame)
        assert len(factored) == 1
        shifted = factored[0] + problem.lio.matrix
        s0 = shifted.diagonal()[0]
        assert s0.real == pytest.approx((grid[-1] - grid[0]) / 8, rel=1e-9)
        assert abs(shifted - s0 * sp.identity(problem.lio.matrix.shape[0])).max() \
            <= 1e-12 * abs(s0)
        assert s.metadata["route"] == "krylov"
        assert s.metadata["krylov_dim"] >= spectrum_module._KRYLOV_STEP
        assert 0.0 < s.metadata["max_relative_residual"] <= 1e-8
        factored.clear()
        again = problem.spectrum(np.linspace(grid[0], grid[-1], 101),
                                 frame_offset=frame)
        assert not factored
        assert again.metadata["krylov_dim"] == s.metadata["krylov_dim"]
        assert 0.0 < again.metadata["max_relative_residual"] <= 1e-8
    assert not densified
    assert s.metadata["krylov_dim"] > spectrum_module._KRYLOV_STEP


def test_sector_problem_and_one_probe_grid_factor_twice(monkeypatch):
    # A truncation probe's whole sparse-LU cost: one bordered factor for the
    # steady state and its uniqueness cross-check (the sector problem), one
    # shifted factor for the 33-point grid. On fig4a and on the strong-drive
    # sector.
    factored = []
    splu = liouvillian_module.spla.splu

    def counting_splu(a, *args, **kwargs):
        factored.append(a)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(liouvillian_module.spla, "splu", counting_splu)
    overrides, loop_changes = STRONG
    for name, over, changes in (("fig4a", (), {"r_loop": 0.6542e-6}),
                                ("fig7", overrides, loop_changes)):
        cfg, model, rates, offset, span = preset_point(name, 4, over,
                                                       **changes)
        factored.clear()
        problem = sector_problem(model, rates, 1)
        assert len(factored) == 1, name
        problem.spectrum(np.linspace(-span, span, 33), frame_offset=offset)
        assert len(factored) == 2, name


def test_later_grid_continues_the_kept_projection(monkeypatch):
    # fig4a m_s = 0 over the window from -5 to 3 preset spans, off the
    # centre of its spectrum: the window's two ends stop at m = 8, a
    # 201-point grid over the same window needs m = 16. The second grid
    # extends the first grid's projection to exactly what a fresh one gives;
    # another window or another b on the same L starts a fresh projection.
    cfg, model, rates, offset, span = preset_point("fig4a", 4,
                                                   r_loop=0.6542e-6)
    ends = np.array([-5.0 * span, 3.0 * span])
    grid = np.linspace(-5.0 * span, 3.0 * span, 201)
    factored = []
    splu = liouvillian_module.spla.splu

    def counting_splu(a, *args, **kwargs):
        factored.append(a)
        return splu(a, *args, **kwargs)

    def fresh(grid, mode="incoherent"):
        return sector_problem(model, rates, 0).spectrum(grid, mode, offset)

    monkeypatch.setattr(liouvillian_module.spla, "splu", counting_splu)
    problem = sector_problem(model, rates, 0)
    first = problem.spectrum(ends, frame_offset=offset)
    assert first.metadata["krylov_dim"] == 8
    factored.clear()
    later = problem.spectrum(grid, frame_offset=offset)
    assert len(factored) == 1     # to extend the kept projection
    reference = fresh(grid)
    assert later.metadata["krylov_dim"] == reference.metadata["krylov_dim"]
    assert later.metadata["krylov_dim"] == 16
    assert np.array_equal(later.values, reference.values)
    # the ends again: the kept m = 16 passes, nothing is factored
    factored.clear()
    again = problem.spectrum(ends, frame_offset=offset)
    assert not factored and again.metadata["krylov_dim"] == 16
    for other, mode in ((np.linspace(-span, span, 201), "incoherent"),
                        (grid, "full")):
        problem = sector_problem(model, rates, 0)
        problem.spectrum(grid, frame_offset=offset)
        factored.clear()
        s = problem.spectrum(other, mode, offset)
        assert len(factored) == 1
        reference = fresh(other, mode)
        assert s.metadata["krylov_dim"] == reference.metadata["krylov_dim"]
        assert np.array_equal(s.values, reference.values)


def test_krylov_growth_checks_the_true_residual_once(monkeypatch):
    # The strong-drive probe sector grows m from 8 through 16 to 24. The
    # growth test reads the Arnoldi residual, whose sparse product takes one
    # vector; the true residual takes L Q_m. So L multiplies one block, of
    # the accepted m columns, once per call: on the probe grid and on a
    # longer grid that continues its projection.
    overrides, loop_changes = STRONG
    cfg, model, rates, offset, span = preset_point("fig7", 4, overrides,
                                                   **loop_changes)
    problem = sector_problem(model, rates, 1)
    block_columns = []
    matmul = type(problem.lio.matrix).__matmul__

    def recording_matmul(self, other):
        if np.ndim(other) == 2:
            block_columns.append(np.shape(other)[1])
        return matmul(self, other)

    monkeypatch.setattr(type(problem.lio.matrix), "__matmul__",
                        recording_matmul)
    for points in (33, 201):
        block_columns.clear()
        s = problem.spectrum(np.linspace(-span, span, points),
                             frame_offset=offset)
        assert s.metadata["krylov_dim"] == 24
        assert block_columns == [24]


def test_krylov_dimension_grows_by_8(monkeypatch):
    # The strong-drive N = 10 probe sector (d^2 = 400) extends its Arnoldi
    # basis to 8, 16, 24 and 32 columns: 8 columns per step from 8.
    overrides, loop_changes = STRONG
    cfg, model, rates, offset, span = preset_point("fig7", 10, overrides,
                                                   **loop_changes)
    problem = sector_problem(model, rates, 1)
    assert problem.lio.matrix.shape[0] == 400
    targets = []
    extend_arnoldi = spectrum_module._extend_arnoldi

    def recording_extend_arnoldi(lu, q, h, target):
        targets.append(target)
        return extend_arnoldi(lu, q, h, target)

    monkeypatch.setattr(spectrum_module, "_extend_arnoldi",
                        recording_extend_arnoldi)
    s = problem.spectrum(np.linspace(-span, span, 33), frame_offset=offset)
    assert targets == [8, 16, 24, 32]
    assert s.metadata["krylov_dim"] == 32


def test_continued_projection_grows_by_8_from_the_kept_m(monkeypatch):
    # fig4a N = 6 (d^2 = 144), m_s = +1, over the window from -40 to 8
    # preset spans: the window's two ends stop at m = 16, a 201-point grid
    # over it needs m = 24. Continuing the kept m = 16 extends the basis
    # once, to 24 columns, and gives a fresh projection's values.
    cfg, model, rates, offset, span = preset_point("fig4a", 6,
                                                   r_loop=0.6542e-6)
    ends = np.array([-40.0 * span, 8.0 * span])
    grid = np.linspace(-40.0 * span, 8.0 * span, 201)
    problem = sector_problem(model, rates, 1)
    assert problem.spectrum(ends, frame_offset=offset).metadata[
        "krylov_dim"] == 16
    targets = []
    extend_arnoldi = spectrum_module._extend_arnoldi

    def recording_extend_arnoldi(lu, q, h, target):
        targets.append(target)
        return extend_arnoldi(lu, q, h, target)

    monkeypatch.setattr(spectrum_module, "_extend_arnoldi",
                        recording_extend_arnoldi)
    s = problem.spectrum(grid, frame_offset=offset)
    assert targets == [24]
    assert s.metadata["krylov_dim"] == 24
    reference = sector_problem(model, rates, 1).spectrum(
        grid, frame_offset=offset)
    assert np.array_equal(s.values, reference.values)


def test_true_residual_guard_sees_a_perturbed_small_solution(monkeypatch):
    # One frequency's small solution off by 1e-6 relative still satisfies
    # the Arnoldi relation's residual estimate up to that factor; only L
    # acting on the basis sees it, and the guard names that frequency.
    overrides, loop_changes = STRONG
    cfg, model, rates, offset, span = preset_point("fig7", 4, overrides,
                                                   **loop_changes)
    grid = np.linspace(-span, span, 33)
    hessenberg_solve = spectrum_module._hessenberg_solve

    def perturbed_solve(h, mu, beta):
        y = hessenberg_solve(h, mu, beta)
        y[:, 7] *= 1.0 + 1e-6
        return y

    monkeypatch.setattr(spectrum_module, "_hessenberg_solve", perturbed_solve)
    with pytest.raises(SingularResolvent) as exc:
        sector_problem(model, rates, 1).spectrum(grid, frame_offset=offset)
    assert exc.value.omega == grid[7] + offset


def recording_residual_norms(monkeypatch):
    """Patch _residual_norms to record (R factor or None, norms relative to
    ||b||) of every block."""
    calls = []
    residual_norms = spectrum_module._residual_norms

    def recording(basis, l_basis, b, r, omegas, y):
        norms = residual_norms(basis, l_basis, b, r, omegas, y)
        calls.append((r, norms / np.linalg.norm(b)))
        return norms

    monkeypatch.setattr(spectrum_module, "_residual_norms", recording)
    return calls


def test_true_residual_guard_sees_a_perturbed_small_solution_on_a_long_grid(
        monkeypatch):
    # The 2001-point twin of the test above, on a fig4a final (d^2 = 64):
    # the residual is taken through the R factor of [Q_m, L Q_m, b], which
    # has 2m + 1 rows, and sees one frequency's small solution off by 1e-6
    # relative, in the third of the grid's blocks.
    cfg, model, rates, offset, span = preset_point("fig4a", 4,
                                                   r_loop=0.6542e-6)
    grid = np.linspace(-span, span, 2001)
    m = sector_problem(model, rates, 1).spectrum(
        grid, frame_offset=offset).metadata["krylov_dim"]
    assert grid.size > spectrum_module._QR_POINTS_PER_DIM * m
    assert 2 * m + 1 < 64
    target = 1234
    hessenberg_solve = spectrum_module._hessenberg_solve
    seen = [0]

    def perturbed_solve(h, mu, beta):
        y = hessenberg_solve(h, mu, beta)
        start = seen[0] % grid.size     # each growth step sweeps the grid
        seen[0] += mu.size
        if start <= target < start + mu.size:
            y[:, target - start] *= 1.0 + 1e-6
        return y

    monkeypatch.setattr(spectrum_module, "_hessenberg_solve", perturbed_solve)
    calls = recording_residual_norms(monkeypatch)
    with pytest.raises(SingularResolvent) as exc:
        sector_problem(model, rates, 1).spectrum(grid, frame_offset=offset)
    assert exc.value.omega == grid[target] + offset
    assert len(calls) == 3 and calls[0][0].shape == (2 * m + 1, 2 * m + 1)
    assert np.max(np.concatenate([norms for _, norms in calls])[:target]) \
        <= 1e-8


@pytest.mark.parametrize("n_fock, points", [(4, 2001), (6, 201)])
def test_both_residual_orders_agree(monkeypatch, n_fock, points):
    # The direct product W z and the R factor's R z give the same relative
    # residuals within 1e-11 at every frequency, on a fig4a final (d^2 = 64,
    # 2001 points) and a strong-drive final (d^2 = 144, 201 points).
    if n_fock == 4:
        cfg, model, rates, offset, span = preset_point("fig4a", 4,
                                                       r_loop=0.6542e-6)
    else:
        overrides, loop_changes = STRONG
        cfg, model, rates, offset, span = preset_point(
            "fig7", n_fock, overrides, **loop_changes)
    grid = np.linspace(-span, span, points)
    calls = recording_residual_norms(monkeypatch)
    relative, values = {}, {}
    for order, ratio in (("direct", 10**9), ("qr", 0)):
        monkeypatch.setattr(spectrum_module, "_QR_POINTS_PER_DIM", ratio)
        calls.clear()
        s = sector_problem(model, rates, 1).spectrum(grid, frame_offset=offset)
        m = s.metadata["krylov_dim"]
        shapes = {None if r is None else r.shape for r, _ in calls}
        assert shapes == ({None} if order == "direct"
                          else {(2 * m + 1, 2 * m + 1)})
        relative[order] = np.concatenate([norms for _, norms in calls])
        values[order] = s.values
    assert relative["qr"].size == points
    assert np.max(relative["qr"]) <= 1e-8
    assert np.max(np.abs(relative["qr"] - relative["direct"])) <= 1e-11
    assert np.array_equal(values["qr"], values["direct"])


def dense_small_solves(h, mu, beta):
    """beta (I + mu_k H)^{-1} e_1 by np.linalg.solve, as columns."""
    eye = np.eye(h.shape[0])
    return np.stack([np.linalg.solve(eye + mu_k * h, beta * eye[:, 0])
                     for mu_k in mu], axis=1)


def seeded_hessenberg(m, seed):
    rng = np.random.default_rng(seed)
    h = np.triu(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)), -1)
    return h, rng


@pytest.mark.parametrize("points", [1, 2001])
@pytest.mark.parametrize("m", [1, 2, 8, 33])
def test_hessenberg_solve_matches_dense_solve(m, points):
    # Indices from 0. With h_00 = 2, (I + mu H)_00 = 0 at mu = -1/2, so
    # elimination from the top needs a row swap at column 0 there. With
    # h_{m-1,m-1} = 4, (I + mu H)_{m-1,m-1} = 0 at mu = -1/4, so the
    # elimination from the bottom needs a column swap at row m - 1 there.
    h, rng = seeded_hessenberg(m, 10 * m + points)
    mu = rng.normal(size=points) + 1j * rng.normal(size=points)
    if m > 1:
        h[0, 0], h[-1, -1] = 2.0, 4.0
        mu[0], mu[-1] = -0.5, -0.25
    y = _hessenberg_solve(h, mu, 2.5)
    assert y.shape == (m, points)
    ref = dense_small_solves(h, mu, 2.5)
    err = np.linalg.norm(y - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert np.max(err) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 8, 33])
def test_hessenberg_solve_leaves_only_a_singular_frequency_non_finite(m):
    # h_00 = 2 with h_10 = 0: column 0 of I + mu H vanishes at mu = -1/2,
    # the middle of 2001 frequencies.
    h, rng = seeded_hessenberg(m, m)
    h[0, 0] = 2.0
    if m > 1:
        h[1, 0] = 0.0
    mu = rng.normal(size=2001) + 1j * rng.normal(size=2001)
    mu[1000] = -0.5
    y = _hessenberg_solve(h, mu, 2.5)
    assert not np.all(np.isfinite(y[:, 1000]))
    rest = np.arange(2001) != 1000
    ref = dense_small_solves(h, mu[rest], 2.5)
    err = np.linalg.norm(y[:, rest] - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert np.max(err) <= 1e-12


def test_long_grid_through_carrier(monkeypatch):
    carrier_solves = []

    def counting_carrier_solve(*args):
        carrier_solves.append(1)
        return carrier_solve(*args)

    carrier_solve = spectrum_module._carrier_solve
    monkeypatch.setattr(spectrum_module, "_carrier_solve",
                        counting_carrier_solve)
    lio, a_op, rho_ss = jc_problem(TWO_PI * 2e6, zeta=2 * KAPPA)
    grid = np.linspace(-4 * KAPPA, 4 * KAPPA, 65)
    assert grid[32] == 0.0
    with pytest.raises(SingularResolvent) as exc:
        spectrum_resolvent(lio, a_op, rho_ss, grid, mode="full")
    assert exc.value.omega == 0.0
    s = spectrum_resolvent(lio, a_op, rho_ss, grid, mode="incoherent")
    assert len(carrier_solves) == 2
    near = spectrum_resolvent(lio, a_op, rho_ss, np.array([1e-9 * KAPPA]),
                              mode="incoherent")
    assert s.values[32] == pytest.approx(near.values[0], rel=1e-6)
    assert np.all(np.isfinite(s.values))
    # Dense oracle at the carrier: the least-squares solution of -L x = b
    # with its kernel component along vec(rho_ss) removed, so tr x = 0.
    a = a_op.matrix - np.trace(a_op.matrix @ rho_ss.matrix) * np.eye(lio.dim)
    b = vectorize(a @ rho_ss.matrix)
    x = np.linalg.lstsq(-lio.matrix.toarray(), b, rcond=None)[0]
    x -= (trace_row(lio.dim) @ x) * vectorize(rho_ss.matrix)
    oracle = (vectorize(a).conj() @ x).real / np.pi
    assert abs(s.values[32] - oracle) <= 1e-10 * s.values.max()


# ---------------------------------------------------------------- sectors

def sector_model(g=TWO_PI * 14e6, eta=TWO_PI * 400e3, zeta=2 * KAPPA,
                 n_fock=3):
    return ModelParams(omega_r=WR, omega_0=WR, g=g, eta=eta, zeta=zeta,
                       N_fock=n_fock)


def quiet_rates():
    # linewidth ~ kappa only: eta/2 spacing >> linewidth
    return DecoherenceRates(kappa=KAPPA, gamma_pcq=TWO_PI * 1e3,
                            gamma_phi_pcq=0.0)


def test_weights_validation():
    with pytest.raises(WeightsInvalid):
        validate_weights([0.5, 0.5])
    with pytest.raises(WeightsInvalid):
        validate_weights([0.6, 0.5, -0.1])
    with pytest.raises(WeightsInvalid,
                       match=r"^sector weights sum to 1\.1, not 1$"):
        validate_weights([0.5, 0.4, 0.2])
    w = validate_weights([1 / 3, 1 / 3, 1 / 3])
    assert w.sum() == pytest.approx(1.0)


def test_sector_spectrum_ms0_equals_two_body():
    p = sector_model()
    rates = quiet_rates()
    grid = np.linspace(-20 * KAPPA, 20 * KAPPA, 801)
    s = nv_sector_spectrum(p, rates, (0.0, 1.0, 0.0), grid, frame_offset=p.g)
    s2 = sector_problem(p, rates, 0).spectrum(grid, "incoherent",
                                              frame_offset=p.g)
    assert np.allclose(s.values, s2.values, rtol=1e-12)
    report = find_spectral_peaks(s, 0.1)
    assert len(report.peaks) == 1
    assert abs(report.peaks[0][0]) < KAPPA / 10  # no shift for m_s = 0


def test_sector_spectrum_uniform_weights_triplet_spacing():
    p = sector_model()
    rates = quiet_rates()
    span = 0.8 * p.eta  # covers the +/- eta/2 lines
    grid = np.linspace(-span, span, 3001)
    s = nv_sector_spectrum(p, rates, (1 / 3, 1 / 3, 1 / 3), grid,
                           frame_offset=p.g)
    report = find_spectral_peaks(s, 0.1)
    assert len(report.peaks) == 3
    assert report.resolved
    pos = report.positions
    spacing = np.diff(pos)
    assert spacing[0] == pytest.approx(p.eta / 2, rel=0.10)
    assert spacing[1] == pytest.approx(p.eta / 2, rel=0.10)
    # outer lines symmetric about the center line
    assert abs(spacing[1] - spacing[0]) < 0.02 * p.eta


def test_sector_spectrum_eta_zero_equals_two_body_any_weights():
    p = sector_model(eta=0.0)
    rates = quiet_rates()
    grid = np.linspace(-10 * KAPPA, 10 * KAPPA, 201)
    s_a = nv_sector_spectrum(p, rates, (0.2, 0.5, 0.3), grid, frame_offset=p.g)
    s_b = nv_sector_spectrum(p, rates, (1 / 3, 1 / 3, 1 / 3), grid,
                             frame_offset=p.g)
    assert np.allclose(s_a.values, s_b.values, rtol=1e-10)


def test_sector_spectrum_label_swap_symmetry():
    # uniform weights: relabeling m_s = +1 <-> -1 leaves the sum invariant
    p = sector_model()
    rates = quiet_rates()
    grid = np.linspace(-0.8 * p.eta, 0.8 * p.eta, 401)
    s = nv_sector_spectrum(p, rates, (1 / 3, 1 / 3, 1 / 3), grid,
                           frame_offset=p.g)
    total = np.zeros_like(grid)
    for m_s in (-1, 0, 1):  # swapped iteration order, same content
        total += sector_problem(p, rates, m_s).spectrum(
            grid, "incoherent", frame_offset=p.g).values / 3
    assert np.allclose(s.values, total, rtol=1e-12)


def test_incoherent_spectrum_nonnegative_within_tolerance():
    p = sector_model()
    rates = quiet_rates()
    grid = np.linspace(-20 * KAPPA, 20 * KAPPA, 801)
    s = nv_sector_spectrum(p, rates, (1 / 3, 1 / 3, 1 / 3), grid,
                           frame_offset=p.g)
    assert np.all(s.values >= 0.0)
    assert s.metadata["min_raw_value"] >= -1e-10 * s.values.max()


def test_parseval_sum_rule():
    # total integrated incoherent spectrum = <da^dag da>_ss to 1%
    g = 8 * KAPPA
    lio, a_op, rho_ss = jc_problem(g, zeta=2 * KAPPA, n_fock=3)
    n_fluct = (rho_ss.expect(a_op.dag() @ a_op)
               - abs(rho_ss.expect(a_op)) ** 2).real
    grid = np.linspace(-40 * KAPPA, 40 * KAPPA, 8001)
    s = spectrum_resolvent(lio, a_op, rho_ss, grid, "incoherent")
    integral = np.trapezoid(s.values, grid)
    assert integral == pytest.approx(n_fluct, rel=0.01)


# ---------------------------------------------------------------- full mode

def test_full_liouvillian_as_printed_pins_spin_and_kills_center_line():
    """The raising spin relaxation pins m_s = +1, so the spin-sector
    multiplet collapses: the upper-Rabi window shows the +eta/2 emission
    line plus its -eta/2 mirror (the shifted lower-transition conjugate)
    and, crucially, no m_s = 0 centre line, unlike sector mode."""
    from spinbus.model import build_collapse_operators
    from spinbus.operators import partial_trace

    p = ModelParams(omega_r=WR, omega_0=WR, g=TWO_PI * 14e6,
                    eta=TWO_PI * 400e3, zeta=2 * KAPPA, N_fock=3)
    rates = DecoherenceRates(kappa=KAPPA, gamma_pcq=TWO_PI * 1e3,
                             gamma_nv=TWO_PI * 2e3)
    grid = np.linspace(-0.8 * p.eta, 0.8 * p.eta, 1601)

    for direction, pinned in (("as_printed", 0), ("lowering", 2)):
        layout = full_layout(3)
        h = build_interaction_hamiltonian(p, layout)
        c_ops = build_collapse_operators(rates, layout, direction)
        rho = steady_state(build_liouvillian(h, c_ops))
        nv_pops = np.real(np.diag(partial_trace(rho.matrix, layout, ("nv",))))
        assert nv_pops[pinned] == pytest.approx(1.0, abs=1e-8)

        s = full_liouvillian_spectrum(p, rates, grid, frame_offset=p.g,
                                      nv_relaxation=direction)
        report = find_spectral_peaks(s, 0.1)
        positions = np.sort(report.positions)
        assert len(positions) == 2
        assert positions[0] == pytest.approx(-p.eta / 2, rel=0.10)
        assert positions[1] == pytest.approx(p.eta / 2, rel=0.10)

    # sector mode with uniform weights keeps the m_s = 0 centre line
    s_sector = nv_sector_spectrum(p, rates, (1 / 3, 1 / 3, 1 / 3), grid,
                                  frame_offset=p.g)
    report = find_spectral_peaks(s_sector, 0.1)
    assert len(report.peaks) == 3
    assert np.min(np.abs(report.positions)) < 0.05 * p.eta


# ---------------------------------------------------------------- peaks

def synthetic_spectrum(centers, fwhm, span, n=4001, heights=None):
    grid = np.linspace(-span, span, n)
    vals = np.zeros_like(grid)
    heights = heights or [1.0] * len(centers)
    for c, h in zip(centers, heights):
        vals += lorentzian(grid, h, c, fwhm)
    return Spectrum(grid, vals)


def test_find_peaks_single_lorentzian():
    s = synthetic_spectrum([0.0], fwhm=1.0, span=10.0)
    report = find_spectral_peaks(s, 0.1)
    assert len(report.peaks) == 1
    assert not report.resolved
    assert report.dip_depth == 0.0
    assert report.peaks[0][2] == pytest.approx(1.0, rel=0.01)


def test_find_peaks_two_well_separated():
    s = synthetic_spectrum([-5.0, 5.0], fwhm=1.0, span=15.0)
    report = find_spectral_peaks(s, 0.1)
    assert len(report.peaks) == 2
    assert report.resolved
    assert report.dip_depth > 0.95
    assert report.positions[0] == pytest.approx(-5.0, abs=0.02)
    assert report.positions[1] == pytest.approx(5.0, abs=0.02)


def test_find_peaks_merged_pair_is_single():
    s = synthetic_spectrum([-0.05, 0.05], fwhm=1.0, span=10.0)
    report = find_spectral_peaks(s, 0.1)
    assert len(report.peaks) == 1
    assert not report.resolved


def test_find_peaks_grid_too_coarse():
    s = synthetic_spectrum([0.0], fwhm=0.02, span=10.0, n=201)
    with pytest.raises(GridTooCoarse):
        find_spectral_peaks(s, 0.1)


def test_find_peaks_empty_spectrum():
    grid = np.linspace(-1, 1, 51)
    report = find_spectral_peaks(Spectrum(grid, np.zeros(51)), 0.1)
    assert report.peaks == ()
    assert not report.resolved
    # one sample, as spectrum_resolvent returns for a one-frequency grid
    report = find_spectral_peaks(Spectrum([0.0], [1.0]), 0.1)
    assert report == PeakReport(peaks=(), resolved=False, dip_depth=0.0)


def _peak_finder_cases():
    rng = np.random.default_rng(4242)
    cases = [np.zeros(101), np.zeros(3),
             np.array([2.0, 2.0, 1.0, 3.0, 3.0, 3.0, 0.0, 4.0, 4.0]),
             np.array([5.0, 5.0, 5.0, 1.0, 2.0, 2.0, 1.0, 7.0, 7.0])]
    cases += [np.array(c, dtype=float) for c in np.ndindex(3, 3, 3)]
    for _ in range(300):
        n = int(rng.integers(3, 60))
        levels = rng.integers(0, 5, n).astype(float)    # interior and edge plateaus
        cases.append(np.repeat(levels, rng.integers(1, 4, n)))
        cases.append(rng.random(n) * 10.0 ** rng.integers(-3, 4))
    grid = np.linspace(-10.0, 10.0, 2001)
    cases.append(lorentzian(grid, 1.0, -3.0, 1.0) + lorentzian(grid, 0.4, 2.0, 2.0)
                 + 1e-9 * rng.random(grid.size))
    return cases


@pytest.mark.parametrize("height_fraction, prominence_fraction",
                         [(1e-9, 1e-6), (0.0, 0.0), (1e-9, 0.0), (0.0, 1e-6),
                          (0.3, 0.2), (0.5, 0.5), (1.0, 1.0)])
def test_peak_finder_matches_scipy_find_peaks(height_fraction,
                                              prominence_fraction):
    from scipy.signal import find_peaks
    for x in _peak_finder_cases():
        vmax = float(x.max(initial=0.0))
        height, prominence = height_fraction * vmax, prominence_fraction * vmax
        want, _ = find_peaks(x, height=height, prominence=prominence)
        got = spectrum_module._find_peaks(x, height, prominence)
        assert np.array_equal(got, want), x


def test_spectrum_clips_and_logs_negatives():
    grid = np.linspace(-1, 1, 5)
    s = Spectrum(grid, np.array([1.0, -1e-14, 0.5, -1e-13, 0.2]))
    assert np.all(s.values >= 0.0)
    assert s.metadata["min_raw_value"] == pytest.approx(-1e-13)


def test_spectrum_grid_must_increase():
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 0.0, 1.0]), np.zeros(3))


def test_spectrum_log10_floor():
    grid = np.linspace(-1, 1, 3)
    s = Spectrum(grid, np.array([0.0, 1e-10, 1.0]))
    logs = s.log10_values()
    assert logs[0] == -30.0
    assert logs[2] == 0.0
