"""Acceptance suite: one test per stated criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every expected number here is pinned to its stated tolerance; tolerances
are not relaxed to fit the implementation.
"""

import math
import time

import numpy as np
import pytest

from spinbus.cli import preset_path
from spinbus.config import load_config
from spinbus.couplings import (
    LoopParams,
    NVParams,
    ResonatorParams,
    cpw_field_at,
    direct_nv_cpw_coupling,
    nv_pcq_coupling,
    pcq_cpw_coupling,
    static_bias_field,
)
from spinbus.liouvillian import build_liouvillian, steady_state, vectorize
from spinbus.model import (
    DecoherenceRates,
    ModelParams,
    build_collapse_operators,
    build_interaction_hamiltonian,
)
from spinbus.operators import (
    DensityMatrix,
    LabeledOperator,
    SpaceLayout,
    basis_state,
    embed,
    fock_annihilation_matrix,
    full_layout,
)
from spinbus.spectrum import (
    SectorProblem,
    find_spectral_peaks,
    nv_sector_spectrum,
    sector_problem,
    spectrum_fft_crosscheck,
    spectrum_resolvent,
)
from spinbus.sweeps import (
    _point_model,
    compute_point_spectrum,
    emit_csv,
    resolve_n_fock,
    run_couplings_scan,
    run_spectrum_scan,
)
from spinbus.units import TWO_PI

from emitted_tables import data_section

KAPPA = TWO_PI * 26e3
WR = TWO_PI * 6e9

RES = ResonatorParams(omega_r=WR, L_r=2e-9, kappa=KAPPA)
NV = NVParams()


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def _loop(r_um, ip_na, n=1):
    return LoopParams(r_loop=r_um * 1e-6, I_p=ip_na * 1e-9,
                      Delta=TWO_PI * 5.2e9, n_turns=n)


# =====================================================================
# 1. Coupling reproduction
# =====================================================================

def test_criterion_1a_pcq_cpw_28_7_mhz():
    g = pcq_cpw_coupling(RES, _loop(0.8, 600), 0.8e-6)
    ok = abs(g - 28.7e6) / 28.7e6 < 0.02
    _report("1a (g = 28.7 MHz, 2%)", ok, f"got {g / 1e6:.3f} MHz")


def test_criterion_1b_triple_at_design_point():
    lp = _loop(0.4, 600)
    g = pcq_cpw_coupling(RES, lp, 0.4e-6)
    eta = nv_pcq_coupling(lp, NV)
    gbar = direct_nv_cpw_coupling(RES, NV, 0.4e-6)
    ok = (abs(g - 14e6) / 14e6 < 0.05
          and abs(eta - 60e3) / 60e3 < 0.20
          and abs(gbar - 1e3) / 1e3 < 0.20)
    _report("1b (triple 14 MHz / 60 kHz / 1 kHz)", ok,
            f"got {g / 1e6:.2f} MHz, {eta / 1e3:.1f} kHz, {gbar:.0f} Hz")


def test_criterion_1c_field_and_direct_couplings():
    b = cpw_field_at(RES, 50e-9)
    g50 = direct_nv_cpw_coupling(RES, NV, 50e-9)
    g5u = direct_nv_cpw_coupling(RES, NV, 5e-6)
    ok = (abs(b - 2.5e-7) / 2.5e-7 < 0.05
          and abs(g50 - 7e3) / 7e3 < 0.10
          and abs(g5u - 70.0) / 70.0 < 0.10)
    _report("1c (2.5 mG, 7 kHz, 70 Hz)", ok,
            f"got {b * 1e7:.3f} mG, {g50 / 1e3:.2f} kHz, {g5u:.1f} Hz")


def test_criterion_1d_static_bias_field():
    lp = LoopParams(r_loop=math.sqrt(2e-12 / math.pi), I_p=600e-9,
                    Delta=TWO_PI * 5.2e9)
    b = static_bias_field(lp)
    ok = abs(b - 5e-4) / 5e-4 < 0.05
    _report("1d (B_s = 5 G, 5%)", ok, f"got {b * 1e4:.3f} G")


# =====================================================================
# 2. Analytic spectrum oracles
# =====================================================================

def _lorentzian(w, amp, center, fwhm):
    return amp / (1.0 + (2.0 * (w - center) / fwhm) ** 2)


def test_criterion_2a_bare_cavity_lorentzian_both_routes():
    from scipy.optimize import curve_fit

    t0 = time.perf_counter()
    layout = SpaceLayout((3,), ("cavity",))
    a = embed(fock_annihilation_matrix(3), "cavity", layout)
    h = LabeledOperator(np.zeros((3, 3)), layout, hermitian_hint=True)
    lio = build_liouvillian(h, [np.sqrt(KAPPA) * a])
    ket = basis_state(layout, {"cavity": 1})
    rho = DensityMatrix(np.outer(ket, ket.conj()), layout)
    s_td = spectrum_fft_crosscheck(lio, a, rho, tmax=16 / KAPPA,
                                   dt=0.004 / KAPPA, mode="full")
    inside = np.abs(s_td.omega_grid) <= 6 * KAPPA
    grid = s_td.omega_grid[inside]
    fits = []
    for values in (spectrum_resolvent(lio, a, rho, grid, mode="full").values,
                   s_td.values[inside]):
        popt, _ = curve_fit(_lorentzian, grid, values,
                            p0=[values.max(), 0.0, KAPPA])
        fits.append(popt[2])
    elapsed = time.perf_counter() - t0
    ok = all(abs(f - KAPPA) / KAPPA < 0.02 for f in fits) and elapsed < 1.0
    _report("2a (Lorentzian FWHM = kappa, both routes, <1 s)", ok,
            f"fits {fits[0] / KAPPA:.4f} kappa / {fits[1] / KAPPA:.4f} kappa "
            f"in {elapsed:.2f} s")


def test_criterion_2b_rabi_doublet_vs_oracle():
    g = TWO_PI * 14e6
    p = ModelParams(omega_r=WR, omega_0=WR, g=g, eta=0.0, zeta=KAPPA / 5,
                    N_fock=4)
    rates = DecoherenceRates(kappa=KAPPA)
    problem = sector_problem(p, rates, 0)
    span = 20 * KAPPA
    t0 = time.perf_counter()
    measured = []
    for sign in (+1.0, -1.0):
        grid = np.linspace(-span, span, 2001)
        s = problem.spectrum(grid, "incoherent", frame_offset=sign * g)
        rep = find_spectral_peaks(s, 0.1)
        measured.append(rep.peaks[int(np.argmax([h for _, h, _ in rep.peaks]))])
    elapsed = time.perf_counter() - t0
    step = 2 * span / 2000
    pos_up = measured[0][0] + g
    pos_dn = measured[1][0] - g
    # non-Hermitian one-excitation oracle, built from the analytic block
    h_eff = np.array([[-1j * KAPPA / 2, g], [g, 0.0]])
    lam = np.linalg.eigvals(h_eff)
    upper = lam[np.argmax(lam.real)]
    lower = lam[np.argmin(lam.real)]
    linewidth = KAPPA / 2
    ok = (abs(pos_up - g) <= step and abs(pos_dn + g) <= step
          and abs(pos_up - upper.real) < linewidth / 2
          and abs(pos_dn - lower.real) < linewidth / 2
          and elapsed < 60.0)
    _report("2b (doublet at +/-g, oracle match, <30 s each)", ok,
            f"offsets {(pos_up - g) / TWO_PI:.1f} Hz / {(pos_dn + g) / TWO_PI:.1f} Hz, "
            f"{elapsed / 2:.1f} s per spectrum")


# =====================================================================
# 3. Method equivalence
# =====================================================================

def test_criterion_3a_resolvent_vs_time_domain_fig4_base():
    cfg = load_config(preset_path("fig4a"))
    loop = cfg.point("r_loop", 0.2e-6)[0]
    model, rates, offset = _point_model(
        cfg, loop, cfg.solver.distance_for(loop.r_loop), 4)
    total_res = total_td = 0.0
    for m_s in (1, 0, -1):
        problem = sector_problem(model, rates, m_s)
        s_td = spectrum_fft_crosscheck(problem.lio, problem.a_op,
                                       problem.rho_ss, tmax=180e-6,
                                       dt=2e-9, mode="incoherent",
                                       frame_offset=offset)
        # the FFT bins (spacing pi / tmax) inside the +-20 kappa window
        inside = np.abs(s_td.omega_grid) <= 20 * KAPPA
        s_res = problem.spectrum(s_td.omega_grid[inside], "incoherent", offset)
        total_res = total_res + s_res.values / 3
        total_td = total_td + s_td.values[inside] / 3
    rel = np.max(np.abs(total_td - total_res)) / total_res.max()
    ok = rel < 1e-4
    _report("3a (resolvent vs time-domain < 1e-4)", ok, f"max rel dev {rel:.2e}")


def test_criterion_3b_brute_force_rhs_matches_vectorized():
    layout = full_layout(3)
    p = ModelParams(omega_r=WR, omega_0=WR + TWO_PI * 2e5, g=TWO_PI * 14e6,
                    eta=TWO_PI * 60e3, zeta=TWO_PI * 52e3, N_fock=3)
    h = build_interaction_hamiltonian(p, layout)
    d = DecoherenceRates.from_times(KAPPA, 20e-6, 2e-6, 4e-3, 600e-6)
    c_ops = build_collapse_operators(d, layout)
    lio = build_liouvillian(h, c_ops)
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        m = rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18))
        rho = m + m.conj().T
        direct = -1j * (h.matrix @ rho - rho @ h.matrix)
        for c in c_ops:
            cd = c.matrix.conj().T
            cdc = cd @ c.matrix
            direct += c.matrix @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)
        got = lio.apply(rho)
        worst = max(worst, float(np.max(np.abs(got - direct))
                                 / np.max(np.abs(direct))))
    ok = worst < 1e-10
    _report("3b (dense RHS vs vectorized, 20 states, 1e-10)", ok,
            f"worst rel dev {worst:.2e}")


# =====================================================================
# 4. Steady-state invariant suite
# =====================================================================

def test_criterion_4_steady_state_invariants_every_preset():
    worst = {"trace": 0.0, "herm": 0.0, "eig": 0.0, "residual": 0.0}
    checked = 0
    for name in ("fig4a", "fig4b", "fig6a", "fig6b", "fig7"):
        cfg = load_config(preset_path(name))
        axis = cfg.axes[0]
        value = axis.values[len(axis.values) // 2]
        loop = cfg.point(axis.name, value)[0]
        model, rates, _ = _point_model(
            cfg, loop, cfg.solver.distance_for(loop.r_loop), 4)
        problems = [sector_problem(model, rates, m_s) for m_s in (1, 0, -1)]
        if name == "fig4a":  # cover the full-Liouvillian mode too
            layout = full_layout(4)
            h = build_interaction_hamiltonian(model, layout)
            c_ops = build_collapse_operators(rates, layout)
            lio_full = build_liouvillian(h, c_ops)
            a_full = embed(fock_annihilation_matrix(4), "cavity", layout)
            problems.append(SectorProblem(lio_full, a_full,
                                          steady_state(lio_full)))
        for problem in problems:
            lio, rho = problem.lio, problem.rho_ss
            checked += 1
            worst["trace"] = max(worst["trace"],
                                 abs(np.trace(rho.matrix).real - 1.0))
            worst["herm"] = max(worst["herm"], float(np.max(np.abs(
                rho.matrix - rho.matrix.conj().T))))
            worst["eig"] = max(worst["eig"],
                               -float(np.linalg.eigvalsh(rho.matrix).min()))
            worst["residual"] = max(worst["residual"], float(
                np.linalg.norm(lio.matrix @ vectorize(rho.matrix))
                / lio.norm_scale()))
    ok = (worst["trace"] < 1e-10 and worst["herm"] < 1e-10
          and worst["eig"] < 1e-8 and worst["residual"] < 1e-9)
    _report("4 (steady-state invariants, every preset)", ok,
            f"{checked} states; worst trace {worst['trace']:.1e}, "
            f"herm {worst['herm']:.1e}, -min_eig {worst['eig']:.1e}, "
            f"residual {worst['residual']:.1e}")


# =====================================================================
# 5. NV-splitting morphology
# =====================================================================

def test_criterion_5a_sector_multiplet_spacing_eta_over_2():
    g = TWO_PI * 14e6
    eta = TWO_PI * 400e3
    p = ModelParams(omega_r=WR, omega_0=WR, g=g, eta=eta, zeta=2 * KAPPA,
                    N_fock=4)
    gamma, gamma_phi = TWO_PI / 200e-6, TWO_PI / (2 * 200e-6)
    rates = DecoherenceRates(kappa=KAPPA, gamma_pcq=gamma,
                             gamma_phi_pcq=gamma_phi)
    grid = np.linspace(-0.8 * eta, 0.8 * eta, 4001)
    s = nv_sector_spectrum(p, rates, (1 / 3, 1 / 3, 1 / 3), grid,
                           frame_offset=g)
    rep = find_spectral_peaks(s, 0.1)
    spacings = np.diff(rep.positions)
    # first-order shift formula: line at g + eta*m_s/2 for eta << g
    predicted = np.array([-eta / 2, 0.0, eta / 2])
    ok = (len(rep.peaks) == 3 and rep.resolved
          and all(abs(sp - eta / 2) / (eta / 2) < 0.10 for sp in spacings)
          and np.max(np.abs(rep.positions - predicted)) < 0.10 * eta / 2)
    _report("5a (triplet spacing eta/2 within 10%)", ok,
            f"spacings {[f'{sp / TWO_PI / 1e3:.1f}' for sp in spacings]} kHz "
            f"vs eta/2 = {eta / 2 / TWO_PI / 1e3:.1f} kHz (cyclic)")


@pytest.fixture(scope="module")
def fig7_scan():
    cfg = load_config(preset_path("fig7"))
    t0 = time.perf_counter()
    result = run_spectrum_scan(cfg)
    return cfg, result, time.perf_counter() - t0


def test_criterion_5b_fig7_resolvability_threshold(fig7_scan):
    cfg, result, elapsed = fig7_scan
    rows = {row[0]: row for row in result.peaks.rows}
    resolved = {tau: rows[tau][2] == "true" for tau in rows}
    ok = (resolved[0.5] is False and resolved[20.0] is True
          and elapsed < 600.0)
    detail = ", ".join(f"tau={tau:g}us:{'R' if r else 'u'}"
                       for tau, r in sorted(resolved.items()))
    _report("5b (fig7: unresolved 0.5 us, resolved 20 us, <10 min)", ok,
            f"{detail}; dip(20us) = {float(rows[20.0][3]):.3f}; "
            f"{elapsed:.0f} s")


def test_criterion_5c_fig4_dephasing_degrades_dip():
    dips = {}
    for name in ("fig4a", "fig4b"):
        cfg = load_config(preset_path(name), )
        spec, rep = compute_point_spectrum(cfg, "r_loop", 0.2e-6)
        dips[name] = rep.dip_depth
    ok = dips["fig4a"] > dips["fig4b"] > 0.0
    _report("5c (fig4: T2=T1 dephasing degrades the dip)", ok,
            f"dip(T2=2T1) = {dips['fig4a']:.3f} > dip(T2=T1) = "
            f"{dips['fig4b']:.3f}")


# =====================================================================
# 6. Truncation robustness
# =====================================================================

def test_criterion_6_truncation_peak_positions_stable():
    cfg = load_config(preset_path("fig7"))
    loop = cfg.point("tau", 20e-6)[0]
    d = cfg.solver.distance_for(loop.r_loop)
    n_conv = resolve_n_fock(cfg, loop, d)
    positions = {}
    for n in (n_conv, n_conv + 2):
        model, rates, offset = _point_model(cfg, loop, d, n)
        span = cfg.solver.grid_span_kappa * KAPPA
        grid = np.linspace(-span, span, cfg.solver.grid_points)
        s = nv_sector_spectrum(model, rates, cfg.solver.weights, grid,
                               frame_offset=offset)
        positions[n] = find_spectral_peaks(s, 0.1).positions
    ok = (positions[n_conv].size == positions[n_conv + 2].size
          and np.max(np.abs(positions[n_conv] - positions[n_conv + 2]))
          < 1e-2 * KAPPA)
    shift = np.max(np.abs(positions[n_conv] - positions[n_conv + 2]))
    _report("6 (peak positions stable to 1e-2 kappa under N+2)", ok,
            f"N = {n_conv}; max shift {shift / KAPPA:.2e} kappa")


# =====================================================================
# 7. Determinism
# =====================================================================

def test_criterion_7_determinism_byte_identical(tmp_path, fig7_scan):
    cfg = load_config(preset_path("fig3"))
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    emit_csv(run_couplings_scan(cfg), str(p1))
    emit_csv(run_couplings_scan(cfg), str(p2))
    couplings_same = data_section(str(p1)) == data_section(str(p2))

    _, first, _ = fig7_scan
    second = run_spectrum_scan(load_config(preset_path("fig7")))
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    emit_csv(first.spectra, str(s1))
    emit_csv(second.spectra, str(s2))
    spectra_same = data_section(str(s1)) == data_section(str(s2))
    ok = couplings_same and spectra_same
    _report("7 (byte-identical data sections)", ok,
            f"couplings identical: {couplings_same}, "
            f"spectra identical: {spectra_same}")
