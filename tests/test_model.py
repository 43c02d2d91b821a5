import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinbus.couplings import NVParams
from spinbus.errors import LayoutMismatch, UnphysicalT2
from spinbus.liouvillian import build_liouvillian, propagate
from spinbus.model import (
    DecoherenceRates,
    ModelParams,
    build_collapse_operators,
    build_full_hamiltonian,
    build_interaction_hamiltonian,
    build_nv_lab_hamiltonian,
    rates_from_times,
    sector_collapse_operators,
    sector_interaction_hamiltonian,
)
from spinbus.operators import (
    DensityMatrix,
    basis_state,
    cavity_qubit_layout,
    full_layout,
    partial_trace,
    spin1_matrices,
)
from spinbus.units import TWO_PI

WR = TWO_PI * 6e9


# ----------------------------------------------------------------- rates

def test_rates_from_times_reference_arithmetic():
    gamma, gamma_phi = rates_from_times(20e-6, 2e-6)
    # 1/T_phi = 1/2 - 1/40 per microsecond = 0.475 us^-1
    assert gamma_phi == pytest.approx(TWO_PI * 0.475e6, rel=1e-12)
    assert gamma == pytest.approx(TWO_PI / 20e-6, rel=1e-12)


def test_rates_lifetime_limited_no_dephasing():
    _, gamma_phi = rates_from_times(10e-6, 20e-6)
    assert gamma_phi == 0.0


def test_rates_equal_times_half_rate():
    tau = 7e-6
    _, gamma_phi = rates_from_times(tau, tau)
    assert gamma_phi == pytest.approx(TWO_PI / (2 * tau), rel=1e-12)


def test_rates_plain_convention_drops_2pi():
    g_cyc, gp_cyc = rates_from_times(20e-6, 2e-6, "cyclic")
    g_plain, gp_plain = rates_from_times(20e-6, 2e-6, "plain")
    assert g_cyc == pytest.approx(TWO_PI * g_plain, rel=1e-12)
    assert gp_cyc == pytest.approx(TWO_PI * gp_plain, rel=1e-12)


def test_rates_unknown_convention_rejected():
    # a misspelt name used to take the "plain" branch
    with pytest.raises(ValueError, match=r"^rate_convention must be one of "
                       r"\('cyclic', 'plain'\), got 'Cyclic'$"):
        rates_from_times(20e-6, 2e-6, "Cyclic")


def test_rates_unphysical_t2_rejected():
    with pytest.raises(UnphysicalT2):
        rates_from_times(1e-6, 2.1e-6)


def test_decoherence_rates_roundtrip_from_times():
    d = DecoherenceRates.from_times(TWO_PI * 26e3, 20e-6, 2e-6, 4e-3, 600e-6)
    g, gp = rates_from_times(20e-6, 2e-6)
    assert d.gamma_pcq == g and d.gamma_phi_pcq == gp
    g, gp = rates_from_times(4e-3, 600e-6)
    assert d.gamma_nv == g and d.gamma_phi_nv == gp


# ----------------------------------------------------------------- NV lab H

def test_nv_lab_hamiltonian_zero_field_transitions():
    nv = NVParams()
    h = build_nv_lab_hamiltonian(nv, 0.0).matrix
    ev = np.sort(np.linalg.eigvalsh(h))
    # both m_s = 0 -> +/-1 transitions at D (upper pair degenerate at B=0)
    assert ev[2] - ev[1] == pytest.approx(0.0, abs=1e-3)
    assert ev[1] - ev[0] == pytest.approx(nv.D, rel=1e-12)
    assert abs(np.trace(h)) < 1e-12 * nv.D


def test_nv_lab_hamiltonian_transition_slope():
    nv = NVParams()
    db = 1e-4  # 1 gauss
    h0 = build_nv_lab_hamiltonian(nv, 0.0).matrix
    h1 = build_nv_lab_hamiltonian(nv, db).matrix
    # diagonal basis (m_s = +1, 0, -1): transitions are diag differences
    up0 = (h0[0, 0] - h0[1, 1]).real
    up1 = (h1[0, 0] - h1[1, 1]).real
    dn0 = (h0[2, 2] - h0[1, 1]).real
    dn1 = (h1[2, 2] - h1[1, 1]).real
    slope_up = (up1 - up0) / db / TWO_PI
    slope_dn = (dn1 - dn0) / db / TWO_PI
    assert slope_up == pytest.approx(2.8e10, rel=1e-10)
    assert slope_dn == pytest.approx(-2.8e10, rel=1e-10)


# ----------------------------------------------------------------- full H

def _model(g=0.0, eta=0.0, zeta=0.0, n_fock=2, omega_0=WR):
    return ModelParams(omega_r=WR, omega_0=omega_0, g=g, eta=eta, zeta=zeta,
                       N_fock=n_fock)


def test_model_params_delta_consistency():
    # delta is derived, never given: it is not an init parameter
    p = ModelParams(omega_r=WR, omega_0=WR + 1e5, g=0, eta=0, zeta=0, N_fock=2)
    assert p.delta == p.omega_0 - p.omega_r
    with pytest.raises(TypeError):
        ModelParams(WR, WR + 1e5, 0, 0, 0, 2, 1e5)


def test_full_hamiltonian_decoupled_spectrum_is_direct_sum():
    nv = NVParams(B_bias=3e-4)
    lay = full_layout(3)
    h, _ = build_full_hamiltonian(_model(n_fock=3, omega_0=TWO_PI * 5.2e9),
                                  nv, lay)
    got = np.sort(np.linalg.eigvalsh(h.matrix))
    s_z, _, _ = spin1_matrices()
    nv_levels = np.diag(TWO_PI * nv.slope * nv.B_bias * s_z
                        + nv.D * (s_z @ s_z - (2 / 3) * np.eye(3))).real
    expected = np.sort([
        WR * (n + 0.5) + q * TWO_PI * 5.2e9 / 2 + e_nv
        for n in range(3) for q in (+1, -1) for e_nv in nv_levels
    ])
    assert np.allclose(got, expected, rtol=1e-12)


def test_full_hamiltonian_ground_diagonal_closed_form():
    nv = NVParams(B_bias=0.0)
    lay = full_layout(2)
    p = _model(g=TWO_PI * 14e6, eta=TWO_PI * 60e3, zeta=TWO_PI * 52e3)
    h, _ = build_full_hamiltonian(p, nv, lay)
    ket = basis_state(lay, {"cavity": 0, "pcq": 1, "nv": 1})  # vac, ground, m_s=0
    val = np.vdot(ket, h.matrix @ ket).real
    expected = WR / 2 - p.omega_0 / 2 - (2 / 3) * nv.D
    assert val == pytest.approx(expected, rel=1e-12)


def test_full_hamiltonian_static_hermitian_and_drive():
    nv = NVParams()
    lay = full_layout(2)
    p = _model(g=TWO_PI * 1e6, eta=TWO_PI * 1e4, zeta=TWO_PI * 5e4)
    h, drive = build_full_hamiltonian(p, nv, lay)
    assert np.max(np.abs(h.matrix - h.matrix.conj().T)) < 1e-12
    assert drive.amplitude == p.zeta
    assert drive.frequency == p.omega_r
    t = 1.3e-10
    expected = p.zeta * (np.exp(-1j * p.omega_r * t) * drive.op_raise.matrix
                         + np.exp(1j * p.omega_r * t) * drive.op_lower.matrix)
    assert np.allclose(drive.at(t), expected, atol=1e-12)
    wrong = full_layout(3)
    with pytest.raises(LayoutMismatch):
        build_full_hamiltonian(p, nv, wrong)


# ----------------------------------------------------------------- H_I

def test_interaction_hamiltonian_zero_limit():
    lay = full_layout(2)
    h = build_interaction_hamiltonian(_model(), lay)
    assert np.max(np.abs(h.matrix)) == 0.0


def test_interaction_hamiltonian_eta_term_expectations():
    lay = full_layout(2)
    p = _model(eta=TWO_PI * 60e3)
    h = build_interaction_hamiltonian(p, lay)
    up_plus = basis_state(lay, {"cavity": 1, "pcq": 0, "nv": 0})
    up_minus = basis_state(lay, {"cavity": 1, "pcq": 0, "nv": 2})
    assert np.vdot(up_plus, h.matrix @ up_plus).real == pytest.approx(
        p.eta / 2, rel=1e-12)
    assert np.vdot(up_minus, h.matrix @ up_minus).real == pytest.approx(
        -p.eta / 2, rel=1e-12)


def test_interaction_hamiltonian_jc_block_structure():
    lay = full_layout(3)
    p = _model(g=TWO_PI * 14e6, n_fock=3)
    h = build_interaction_hamiltonian(p, lay)
    for n in (1, 2):
        for ms_idx in range(3):
            lower = basis_state(lay, {"cavity": n, "pcq": 1, "nv": ms_idx})
            upper = basis_state(lay, {"cavity": n - 1, "pcq": 0, "nv": ms_idx})
            elem = np.vdot(upper, h.matrix @ lower)
            assert elem == pytest.approx(p.g * np.sqrt(n), rel=1e-12)
            # NV untouched: any m_s-changing element vanishes
            other = basis_state(lay, {"cavity": n - 1, "pcq": 0,
                                      "nv": (ms_idx + 1) % 3})
            assert abs(np.vdot(other, h.matrix @ lower)) < 1e-12


def test_interaction_hamiltonian_single_excitation_doublet():
    lay = full_layout(2)
    p = _model(g=TWO_PI * 14e6)
    h = build_interaction_hamiltonian(p, lay)
    ms = 1  # m_s = 0 slice
    v1 = basis_state(lay, {"cavity": 1, "pcq": 1, "nv": ms})
    v2 = basis_state(lay, {"cavity": 0, "pcq": 0, "nv": ms})
    block = np.array([[np.vdot(a, h.matrix @ b) for b in (v1, v2)]
                      for a in (v1, v2)])
    ev = np.sort(np.linalg.eigvalsh(block))
    assert np.allclose(ev, [-p.g, p.g], rtol=1e-12)


def test_sector_hamiltonian_is_detuning_shift():
    lay = cavity_qubit_layout(3)
    p = _model(g=TWO_PI * 14e6, eta=TWO_PI * 60e3, zeta=TWO_PI * 5e4, n_fock=3)
    for ms in (-1, 0, 1):
        hs = sector_interaction_hamiltonian(p, lay, ms).matrix
        shifted = ModelParams(omega_r=p.omega_r, omega_0=p.omega_0 + p.eta * ms,
                              g=p.g, eta=0.0, zeta=p.zeta, N_fock=3)
        href = build_interaction_hamiltonian(shifted, lay).matrix
        assert np.allclose(hs, href, atol=1e-9)
    with pytest.raises(ValueError):
        sector_interaction_hamiltonian(p, lay, 2)


# ----------------------------------------------------------------- collapse

def test_collapse_list_length_and_zero_entries():
    lay = full_layout(2)
    d = DecoherenceRates(kappa=TWO_PI * 26e3)
    ops = build_collapse_operators(d, lay)
    assert len(ops) == 5
    assert np.max(np.abs(ops[0].matrix)) > 0
    for op in ops[1:]:
        assert np.max(np.abs(op.matrix)) == 0.0


def test_collapse_relaxation_direction_switches():
    lay = full_layout(2)
    d = DecoherenceRates(kappa=0.0, gamma_pcq=1.0, gamma_nv=1.0)
    printed = build_collapse_operators(d, lay, "as_printed", "as_printed")
    lowered = build_collapse_operators(d, lay, "lowering", "lowering")
    # as_printed: raising operators (annihilate the top basis state's ket)
    top_q = basis_state(lay, {"pcq": 0})
    top_s = basis_state(lay, {"nv": 0})
    assert np.allclose(printed[1].matrix @ top_q, 0.0)
    assert np.allclose(printed[2].matrix @ top_s, 0.0)
    assert np.allclose(lowered[1].matrix.conj().T, printed[1].matrix)
    assert np.allclose(lowered[2].matrix.conj().T, printed[2].matrix)


@pytest.mark.parametrize("relaxations, name", [
    (("As_printed", "lowering"), "nv_relaxation"),
    (("as_printed", "raising"), "pcq_relaxation"),
])
def test_collapse_unknown_relaxation_rejected(relaxations, name):
    # a misspelt name used to build the "lowering" operator
    d = DecoherenceRates(kappa=0.0, gamma_pcq=1.0, gamma_nv=1.0)
    with pytest.raises(ValueError, match=rf"^{name} must be one of "
                       r"\('as_printed', 'lowering'\)"):
        build_collapse_operators(d, full_layout(2), *relaxations)


def test_collapse_spin_rates_need_nv_factor():
    lay = cavity_qubit_layout(2)
    with pytest.raises(LayoutMismatch):
        build_collapse_operators(DecoherenceRates(kappa=1.0, gamma_nv=1.0), lay)


def test_qubit_coherence_decays_at_total_1_over_T2():
    # Single-qubit analytic oracle pinning the dephasing-weight convention:
    # relaxation gamma/2 plus dephasing gamma_phi gives exactly 2pi/T2.
    T1, T2 = 20e-6, 12e-6
    gamma, gamma_phi = rates_from_times(T1, T2)
    lay = cavity_qubit_layout(2)
    d = DecoherenceRates(kappa=0.0, gamma_pcq=gamma, gamma_phi_pcq=gamma_phi)
    c_ops = sector_collapse_operators(d, lay)
    h = build_interaction_hamiltonian(_model(), lay)
    lio = build_liouvillian(h, c_ops)
    qubit = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    cavity = np.diag([1.0, 0.0]).astype(complex)
    rho0 = DensityMatrix(np.kron(cavity, qubit), lay)
    t = 3e-6
    rho_t = propagate(lio, rho0, t)
    coh = partial_trace(rho_t.matrix, lay, ("pcq",))[0, 1]
    expected = 0.5 * np.exp(-(gamma / 2 + gamma_phi) * t)
    assert abs(coh) == pytest.approx(expected, rel=1e-6)
    assert gamma / 2 + gamma_phi == pytest.approx(TWO_PI / T2, rel=1e-12)


def test_as_printed_qubit_channel_is_a_pump():
    # Documents the literal reading: sigma_plus relaxation inverts the qubit.
    from spinbus.liouvillian import steady_state

    lay = cavity_qubit_layout(2)
    d = DecoherenceRates(kappa=TWO_PI * 26e3, gamma_pcq=TWO_PI * 5e4)
    c_ops = sector_collapse_operators(d, lay, pcq_relaxation="as_printed")
    h = build_interaction_hamiltonian(_model(), lay)
    rho = steady_state(build_liouvillian(h, c_ops))
    qubit = partial_trace(rho.matrix, lay, ("pcq",))
    assert qubit[0, 0].real == pytest.approx(1.0, abs=1e-9)  # excited


# ------------------------------------------------- rotating-frame equivalence

def test_interaction_picture_matches_lab_frame_dynamics():
    """Unitary dynamics: the rotating-frame Hamiltonian reproduces the lab
    frame (static + oscillating drive) for frame-invariant observables."""
    nv = NVParams(B_bias=5.17e-4)
    n_fock = 2
    lay = full_layout(n_fock)
    p = ModelParams(omega_r=WR, omega_0=WR, g=TWO_PI * 14e6,
                    eta=TWO_PI * 10e6, zeta=TWO_PI * 2e6, N_fock=n_fock)
    h_static, drive = build_full_hamiltonian(p, nv, lay)
    h_int = build_interaction_hamiltonian(p, lay)

    ket0 = basis_state(lay, {"cavity": 1, "pcq": 1, "nv": 0})  # m_s = +1
    t_final = 25e-9
    times = np.linspace(0.0, t_final, 41)

    def rhs_lab(t, psi):
        return -1j * ((h_static.matrix @ psi) + drive.at(t) @ psi)

    def rhs_int(t, psi):
        return -1j * (h_int.matrix @ psi)

    sol_lab = solve_ivp(rhs_lab, (0, t_final), ket0.astype(complex),
                        t_eval=times, rtol=1e-10, atol=1e-12,
                        max_step=1e-11)
    sol_int = solve_ivp(rhs_int, (0, t_final), ket0.astype(complex),
                        t_eval=times, rtol=1e-10, atol=1e-12)

    num = np.kron(np.diag(np.arange(n_fock)), np.eye(6))
    sz = np.kron(np.eye(n_fock), np.kron(np.diag([1.0, -1.0]), np.eye(3)))
    for obs in (num, sz):
        lab = np.real(np.einsum("it,ij,jt->t", sol_lab.y.conj(), obs, sol_lab.y))
        rot = np.real(np.einsum("it,ij,jt->t", sol_int.y.conj(), obs, sol_int.y))
        # counter-rotating corrections are O(g/omega_r) ~ 2e-3
        assert np.max(np.abs(lab - rot)) < 1e-2
        assert abs(np.mean(lab) - np.mean(rot)) < 2e-3
