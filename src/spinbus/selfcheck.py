"""Built-in invariant and oracle suite behind `spinbus check`.

Each check recomputes its expectation from an independent route (closed
form, brute-force dense arithmetic, known limits) so a passing table means
the installed build reproduces the physics, not just that it runs. The
pytest suite covers far more; this is the fast, no-test-deps subset.
"""

from __future__ import annotations

import numpy as np

from .couplings import (
    LoopParams,
    NVParams,
    ResonatorParams,
    cpw_field_at,
    direct_nv_cpw_coupling,
    nv_pcq_coupling,
    pcq_cpw_coupling,
    rms_vacuum_current,
    static_bias_field,
)
from .liouvillian import build_liouvillian, steady_state, vectorize
from .model import (
    DecoherenceRates,
    ModelParams,
    rates_from_times,
    sector_collapse_operators,
    sector_interaction_hamiltonian,
)
from .operators import (
    LabeledOperator,
    basis_state,
    cavity_qubit_layout,
    embed,
    fock_annihilation_matrix,
    pauli_matrices,
    spin1_matrices,
)
from .spectrum import find_spectral_peaks, sector_problem, spectrum_resolvent
from .units import CONSTANTS, TWO_PI


def _reference_resonator(zeta: float = 0.0) -> ResonatorParams:
    return ResonatorParams(omega_r=TWO_PI * 6e9, L_r=2e-9,
                           kappa=TWO_PI * 26e3, zeta=zeta)


def _brute_force_rhs(h: np.ndarray, c_list: list[np.ndarray],
                     rho: np.ndarray) -> np.ndarray:
    out = -1j * (h @ rho - rho @ h)
    for c in c_list:
        cd = c.conj().T
        cdc = cd @ c
        out += c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def check_constants() -> tuple[bool, str]:
    h = TWO_PI * CONSTANTS.hbar
    expected = h / (2.0 * 1.602176634e-19)
    rel = abs(CONSTANTS.flux_quantum - expected) / expected
    return rel < 5e-7, f"flux quantum vs h/2e: rel dev {rel:.2e}"


def check_coupling_numbers() -> tuple[bool, str]:
    res = _reference_resonator()
    nv = NVParams()
    probes = [
        ("I_rms", rms_vacuum_current(res) / 1e-9, 31.526, 0.01),
        ("B(50nm) mG", cpw_field_at(res, 50e-9) / 1e-7, 2.522, 0.01),
        ("gbar(50nm) kHz", direct_nv_cpw_coupling(res, nv, 50e-9) / 1e3,
         7.06, 0.02),
        ("g(0.8um,600nA) MHz",
         pcq_cpw_coupling(res, LoopParams(0.8e-6, 600e-9, TWO_PI * 5.2e9),
                          0.8e-6) / 1e6, 28.70, 0.02),
        ("eta(0.4um,600nA) kHz",
         nv_pcq_coupling(LoopParams(0.4e-6, 600e-9, TWO_PI * 5.2e9), nv)
         / 1e3, 52.78, 0.02),
        ("B_s(A=2um^2) G",
         static_bias_field(LoopParams(np.sqrt(2e-12 / np.pi), 600e-9,
                                      TWO_PI * 5.2e9)) / 1e-4, 5.17, 0.02),
    ]
    worst = max(abs(v - ref) / ref for _, v, ref, _ in probes)
    ok = all(abs(v - ref) / ref < tol for _, v, ref, tol in probes)
    return ok, f"6 closed-form values, worst rel dev {worst:.2e}"


def check_operator_algebra() -> tuple[bool, str]:
    sz, sp, sm = spin1_matrices()
    dev = np.max(np.abs((sp @ sm - sm @ sp) - 2 * sz))
    pz, pp, pm = pauli_matrices()
    dev = max(dev, np.max(np.abs(pz @ pp - pp @ pz - 2 * pp)))
    a = fock_annihilation_matrix(3)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(3)
    expected[2, 2] = -2.0
    dev = max(dev, np.max(np.abs(comm - expected)))
    return dev < 1e-14, f"ladder/Pauli/spin-1 algebra, max dev {dev:.1e}"


def check_liouvillian_action() -> tuple[bool, str]:
    layout = cavity_qubit_layout(3)
    p = ModelParams(omega_r=TWO_PI * 6e9, omega_0=TWO_PI * 6e9,
                    g=TWO_PI * 1e6, eta=0.0, zeta=TWO_PI * 5e4, N_fock=3)
    h = sector_interaction_hamiltonian(p, layout, 0)
    rates = DecoherenceRates(kappa=TWO_PI * 3e4, gamma_pcq=TWO_PI * 2e4,
                             gamma_phi_pcq=TWO_PI * 1e4)
    c_ops = sector_collapse_operators(rates, layout)
    lio = build_liouvillian(h, c_ops)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = m + m.conj().T
        direct = _brute_force_rhs(h.matrix, [c.matrix for c in c_ops], rho)
        via_l = lio.apply(rho)
        worst = max(worst, np.max(np.abs(direct - via_l))
                    / np.max(np.abs(direct)))
    return worst < 1e-10, f"vectorized vs dense generator, worst rel {worst:.1e}"


def check_steady_state() -> tuple[bool, str]:
    kappa = TWO_PI * 26e3
    p = ModelParams(omega_r=TWO_PI * 6e9, omega_0=TWO_PI * 6e9,
                    g=TWO_PI * 14e6, eta=0.0, zeta=2 * kappa, N_fock=4)
    rates = DecoherenceRates(kappa=kappa)
    problem = sector_problem(p, rates, 0)
    lio, rho_ss = problem.lio, problem.rho_ss
    residual = np.linalg.norm(lio.matrix @ vectorize(rho_ss.matrix)) \
        / lio.norm_scale()
    trace_dev = abs(np.trace(rho_ss.matrix).real - 1.0)
    min_eig = float(np.linalg.eigvalsh(rho_ss.matrix).min())
    ok = residual < 1e-9 and trace_dev < 1e-10 and min_eig > -1e-8
    return ok, (f"residual {residual:.1e}, trace dev {trace_dev:.1e}, "
                f"min eig {min_eig:.1e}")


def _bare_cavity(n_fock: int, kappa: float, zeta: float):
    """Cavity-only Liouvillian: H = zeta (a + a_dag), C = sqrt(kappa) a."""
    from .operators import SpaceLayout

    layout = SpaceLayout((n_fock,), ("cavity",))
    a_op = embed(fock_annihilation_matrix(n_fock), "cavity", layout)
    h = LabeledOperator(zeta * (a_op.matrix + a_op.matrix.conj().T), layout,
                        hermitian_hint=True)
    lio = build_liouvillian(h, [np.sqrt(kappa) * a_op])
    return layout, a_op, lio


def check_driven_cavity_coherent_state() -> tuple[bool, str]:
    # zeta = kappa/10 keeps |alpha| = 0.2, honest at N_fock = 8.
    kappa = TWO_PI * 26e3
    zeta = kappa / 10.0
    layout, a_op, lio = _bare_cavity(8, kappa, zeta)
    rho_ss = steady_state(lio)
    amp = abs(rho_ss.expect(a_op))
    expected = 2.0 * zeta / kappa
    rel = abs(amp - expected) / expected
    return rel < 1e-6, f"|<a>| vs 2*zeta/kappa: rel dev {rel:.1e}"


def check_lorentzian_linewidth() -> tuple[bool, str]:
    # Undriven cavity seeded with one photon: correlation e^{-kappa tau/2}
    # gives a Lorentzian of FWHM kappa at the frame origin.
    from .operators import DensityMatrix

    kappa = TWO_PI * 26e3
    layout, a_op, lio = _bare_cavity(3, kappa, 0.0)
    ket = basis_state(layout, {"cavity": 1})
    rho = DensityMatrix(np.outer(ket, ket.conj()), layout)
    grid = np.linspace(-5 * kappa, 5 * kappa, 801)
    s = spectrum_resolvent(lio, a_op, rho, grid, mode="full")
    report = find_spectral_peaks(s, dip_fraction=0.1)
    fwhm = report.peaks[0][2]
    rel = abs(fwhm - kappa) / kappa
    return rel < 0.02 and len(report.peaks) == 1, \
        f"FWHM vs kappa: rel dev {rel:.1e}"


def check_rabi_doublet() -> tuple[bool, str]:
    kappa = TWO_PI * 26e3
    g = TWO_PI * 14e6
    # weak drive: the doublet criterion assumes the single-excitation regime
    p = ModelParams(omega_r=TWO_PI * 6e9, omega_0=TWO_PI * 6e9,
                    g=g, eta=0.0, zeta=kappa / 5, N_fock=4)
    problem = sector_problem(p, DecoherenceRates(kappa=kappa), 0)
    span = 20 * kappa
    errors = []
    for sign in (+1.0, -1.0):
        grid = np.linspace(-span, span, 801)
        s = problem.spectrum(grid, frame_offset=sign * g)
        peak = s.omega_grid[np.argmax(s.values)] + sign * g
        errors.append(abs(peak - sign * g))
    step = 2 * span / 800
    ok = all(e <= step for e in errors)
    return ok, f"peaks at +/-g, worst offset {max(errors) / TWO_PI:.3g} Hz"


def check_rate_conversions() -> tuple[bool, str]:
    gamma, gamma_phi = rates_from_times(20e-6, 2e-6)
    expected_phi = TWO_PI * 0.475e6
    dev = abs(gamma_phi - expected_phi) / expected_phi
    dev = max(dev, abs(gamma - TWO_PI / 20e-6) / (TWO_PI / 20e-6))
    g2, gp2 = rates_from_times(10e-6, 20e-6)
    return dev < 1e-12 and gp2 == 0.0, f"rate relations, rel dev {dev:.1e}"


CHECKS = [
    ("constants", check_constants),
    ("coupling numbers", check_coupling_numbers),
    ("operator algebra", check_operator_algebra),
    ("liouvillian action", check_liouvillian_action),
    ("steady state invariants", check_steady_state),
    ("driven cavity coherent state", check_driven_cavity_coherent_state),
    ("damped cavity lorentzian", check_lorentzian_linewidth),
    ("vacuum rabi doublet", check_rabi_doublet),
    ("rate conversions", check_rate_conversions),
]


def run_checks(stream=None) -> bool:
    import sys

    stream = stream or sys.stdout
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        stream.write(f"{'PASS' if ok else 'FAIL'}  {name:32s} {detail}\n")
    stream.write(("all checks passed" if all_ok else "CHECKS FAILED") + "\n")
    return all_ok
