from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import spinbus.liouvillian as liouvillian_module
from spinbus.cli import preset_path
from spinbus.config import load_config
from spinbus.errors import (
    DegenerateSteadyState,
    LayoutMismatch,
    TruncationNotConverged,
)
from spinbus.liouvillian import (
    DENSE_SOLVE_CAP,
    _bordered_matrix,
    adaptive_truncation,
    build_liouvillian,
    expm_action_grid,
    propagate,
    steady_state,
    trace_row,
    unvectorize,
    vectorize,
)
from spinbus.model import (
    DecoherenceRates,
    ModelParams,
    build_collapse_operators,
    build_interaction_hamiltonian,
    sector_collapse_operators,
    sector_interaction_hamiltonian,
)
from spinbus.operators import (
    DensityMatrix,
    LabeledOperator,
    SpaceLayout,
    basis_state,
    cavity_qubit_layout,
    embed,
    fock_annihilation_matrix,
    full_layout,
    pauli_matrices,
)
from spinbus.sweeps import _point_model
from spinbus.units import TWO_PI

KAPPA = TWO_PI * 26e3


def brute_force_rhs(h, c_list, rho):
    """Independent dense evaluation of the master-equation right-hand side."""
    out = -1j * (h @ rho - rho @ h)
    for c in c_list:
        cd = c.conj().T
        cdc = cd @ c
        out += c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def bare_cavity(n_fock, kappa=KAPPA, zeta=0.0):
    layout = SpaceLayout((n_fock,), ("cavity",))
    a = embed(fock_annihilation_matrix(n_fock), "cavity", layout)
    h = LabeledOperator(zeta * (a.matrix + a.matrix.conj().T), layout,
                        hermitian_hint=True)
    return layout, a, build_liouvillian(h, [np.sqrt(kappa) * a])


# ------------------------------------------------------------- vectorization

def test_vectorize_roundtrip_column_stacking():
    m = np.arange(16, dtype=complex).reshape(4, 4)
    v = vectorize(m)
    assert v[1] == m[1, 0]  # column stacking, not row
    assert np.array_equal(unvectorize(v), m)


def test_trace_row_functional():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert trace_row(5) @ vectorize(m) == pytest.approx(np.trace(m))


def test_vec_of_product_identity():
    # vec(A rho B) = (B^T kron A) vec(rho): the convention everything rests on
    rng = np.random.default_rng(2)
    a, rho, b = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                 for _ in range(3))
    lhs = vectorize(a @ rho @ b)
    rhs = np.kron(b.T, a) @ vectorize(rho)
    assert np.allclose(lhs, rhs, atol=1e-12)


# ------------------------------------------------------------- construction

def test_liouvillian_matches_brute_force_on_random_states():
    layout = full_layout(3)
    p = ModelParams(omega_r=TWO_PI * 6e9, omega_0=TWO_PI * 6e9 + TWO_PI * 2e5,
                    g=TWO_PI * 14e6, eta=TWO_PI * 60e3, zeta=TWO_PI * 52e3,
                    N_fock=3)
    h = build_interaction_hamiltonian(p, layout)
    d = DecoherenceRates.from_times(KAPPA, 20e-6, 2e-6, 4e-3, 600e-6)
    c_ops = build_collapse_operators(d, layout)
    lio = build_liouvillian(h, c_ops)
    assert lio.trace_preservation_defect() < 1e-9

    rng = np.random.default_rng(7)
    dim = layout.total_dim
    for _ in range(20):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m + m.conj().T
        expected = brute_force_rhs(h.matrix, [c.matrix for c in c_ops], rho)
        got = lio.apply(rho)
        assert np.max(np.abs(got - expected)) < 1e-10 * np.max(np.abs(expected))


def dense_kron_liouvillian(h, cs):
    """Textbook column-stacking form, one np.kron per pre/post product."""
    eye = np.eye(h.shape[0])
    out = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in cs:
        cdc = c.conj().T @ c
        out += (np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc)
                - 0.5 * np.kron(cdc.T, eye))
    return out


def sector_cases(n_focks=range(2, 13)):
    """(label, H, collapse operators) of cavity+qubit sectors: strong-drive
    fig7 and fig4a, whose T2 = 2 T1 gives a zero-rate dephasing channel, at
    every N, m_s and pcq_relaxation."""
    for preset, overrides, loop_changes in (
            ("fig7", ["resonator.zeta=1.4 MHz"], {"T1_pcq": 11e-6,
                                                  "T2_pcq": 11e-6}),
            ("fig4a", [], {"r_loop": 0.6542e-6})):
        cfg = load_config(preset_path(preset), overrides)
        loop = replace(cfg.loop, **loop_changes)
        for n_fock in n_focks:
            model, rates, _ = _point_model(
                cfg, loop, cfg.solver.distance_for(loop.r_loop), n_fock)
            layout = cavity_qubit_layout(n_fock)
            for pcq_relaxation in ("lowering", "as_printed"):
                c_ops = sector_collapse_operators(rates, layout, pcq_relaxation)
                for m_s in (1, 0, -1):
                    h = sector_interaction_hamiltonian(model, layout, m_s)
                    yield (f"{preset} N={n_fock} m_s={m_s} {pcq_relaxation}",
                           h, c_ops)


def test_liouvillian_matches_dense_kron_formula():
    rng = np.random.default_rng(11)
    for dim, n_c in ((2, 1), (3, 2), (4, 3)):
        layout = SpaceLayout((dim,), ("cavity",))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = m + m.conj().T
        cs = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
              for _ in range(n_c)]
        expected = dense_kron_liouvillian(h, cs)
        lio = build_liouvillian(
            LabeledOperator(h, layout, hermitian_hint=True),
            [LabeledOperator(c, layout) for c in cs])
        got = lio.matrix.toarray()
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
    zero_rate = 0
    for label, h, c_ops in sector_cases():
        zero_rate += sum(not np.any(c.matrix) for c in c_ops)
        expected = dense_kron_liouvillian(h.matrix, [c.matrix for c in c_ops])
        got = build_liouvillian(h, c_ops).matrix.toarray()
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected)), label
    assert zero_rate == 11 * 3 * 2    # fig4a's dephasing, at every N and m_s


def test_bordered_matrix_matches_lil_construction():
    # The trace row written into the CSR arrays equals a row assignment on a
    # LIL copy of L, entry for entry, at both rows the steady state uses.
    for label, h, c_ops in sector_cases():
        lio = build_liouvillian(h, c_ops)
        d = lio.dim
        for row in (0, d + 1):
            ref = lio.matrix.tolil(copy=True)
            ref[row, :] = trace_row(d)
            ref = ref.tocsc()
            got = _bordered_matrix(lio, row)
            assert np.array_equal(got.indptr, ref.indptr), label
            assert np.array_equal(got.indices, ref.indices), label
            assert np.array_equal(got.data, ref.data), label


def test_single_photon_decay_example():
    layout, a, lio = bare_cavity(2)
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = lio.apply(rho)
    expected = KAPPA * np.diag([1.0, -1.0])
    assert np.allclose(out, expected, rtol=1e-12)


def test_pure_commutator_spectrum():
    # no collapse operators: eigenvalues are -i(E_m - E_n)
    layout = cavity_qubit_layout(3)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6))
    h = LabeledOperator(m + m.T, layout, hermitian_hint=True)
    lio = build_liouvillian(h, [])
    energies = np.linalg.eigvalsh(h.matrix)
    expected = np.sort_complex(np.array(
        [-1j * (em - en) for em in energies for en in energies]))
    got = np.sort_complex(np.linalg.eigvals(lio.matrix.toarray()))
    assert np.allclose(np.sort(got.imag), np.sort(expected.imag), atol=1e-6)
    assert np.max(np.abs(got.real)) < 1e-6


def test_unital_dephasing_fixes_maximally_mixed():
    layout = cavity_qubit_layout(2)
    sz, _, _ = pauli_matrices()
    c = embed(np.sqrt(TWO_PI * 1e5) * sz, "pcq", layout)
    h = LabeledOperator(np.zeros((4, 4)), layout, hermitian_hint=True)
    lio = build_liouvillian(h, [c])
    eye4 = np.eye(4, dtype=complex) / 4
    assert np.max(np.abs(lio.apply(eye4))) < 1e-12


def test_layout_mismatch_rejected():
    layout = cavity_qubit_layout(2)
    other = cavity_qubit_layout(3)
    h = LabeledOperator(np.zeros((4, 4)), layout, hermitian_hint=True)
    c = embed(fock_annihilation_matrix(3), "cavity", other)
    with pytest.raises(LayoutMismatch):
        build_liouvillian(h, [c])


def test_eigenvalues_have_nonpositive_real_parts():
    layout = cavity_qubit_layout(3)
    p = ModelParams(omega_r=TWO_PI * 6e9, omega_0=TWO_PI * 6e9,
                    g=TWO_PI * 5e6, eta=0.0, zeta=TWO_PI * 5e4, N_fock=3)
    h = build_interaction_hamiltonian(p, layout)
    d = DecoherenceRates(kappa=KAPPA, gamma_pcq=TWO_PI * 5e4,
                         gamma_phi_pcq=TWO_PI * 2e4)
    lio = build_liouvillian(h, sector_collapse_operators(d, layout))
    lam = np.linalg.eigvals(lio.matrix.toarray())
    assert np.max(lam.real) <= 1e-9 * lio.norm_scale()


# ------------------------------------------------------------- steady state

def test_steady_state_driven_cavity_coherent():
    # small drive keeps truncation honest: |alpha| = 2 zeta/kappa = 0.2
    zeta = KAPPA / 10
    layout, a, lio = bare_cavity(8, zeta=zeta)
    rho = steady_state(lio)
    amp = rho.expect(a)
    assert abs(amp) == pytest.approx(2 * zeta / KAPPA, rel=1e-6)
    # coherent state: <n> = |<a>|^2
    n_op = a.dag() @ a
    assert rho.expect(n_op).real == pytest.approx((2 * zeta / KAPPA) ** 2,
                                                  rel=1e-4)


def test_steady_state_dark_state():
    layout = cavity_qubit_layout(3)
    p = ModelParams(omega_r=TWO_PI * 6e9, omega_0=TWO_PI * 6e9,
                    g=0.0, eta=0.0, zeta=0.0, N_fock=3)
    h = build_interaction_hamiltonian(p, layout)
    d = DecoherenceRates(kappa=KAPPA, gamma_pcq=TWO_PI * 5e4)
    lio = build_liouvillian(h, sector_collapse_operators(d, layout))
    rho = steady_state(lio)
    ket = basis_state(layout, {"cavity": 0, "pcq": 1})  # vacuum, qubit ground
    expected = np.outer(ket, ket.conj())
    assert np.max(np.abs(rho.matrix - expected)) < 1e-9
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-15)


def test_steady_state_residual_invariants():
    zeta = 2 * KAPPA
    layout = cavity_qubit_layout(4)
    p = ModelParams(omega_r=TWO_PI * 6e9, omega_0=TWO_PI * 6e9,
                    g=TWO_PI * 14e6, eta=0.0, zeta=zeta, N_fock=4)
    h = build_interaction_hamiltonian(p, layout)
    d = DecoherenceRates(kappa=KAPPA, gamma_pcq=TWO_PI * 5e4,
                         gamma_phi_pcq=TWO_PI * 25e3)
    lio = build_liouvillian(h, sector_collapse_operators(d, layout))
    rho = steady_state(lio)
    assert np.linalg.norm(lio.matrix @ vectorize(rho.matrix)) \
        / lio.norm_scale() < 1e-9
    assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-10
    assert np.linalg.eigvalsh(rho.matrix).min() > -1e-8


def test_degenerate_kernel_reported_with_dimension():
    # eta-only coupling with no spin rates: each spin sector is invariant,
    # kernel dimension 3
    layout = full_layout(2)
    p = ModelParams(omega_r=TWO_PI * 6e9, omega_0=TWO_PI * 6e9,
                    g=0.0, eta=TWO_PI * 60e3, zeta=0.0, N_fock=2)
    h = build_interaction_hamiltonian(p, layout)
    d = DecoherenceRates(kappa=KAPPA, gamma_pcq=TWO_PI * 5e4)
    c_ops = build_collapse_operators(d, layout)
    lio = build_liouvillian(h, c_ops)
    with pytest.raises(DegenerateSteadyState) as exc:
        steady_state(lio)
    assert exc.value.kernel_dim == 3


def test_steady_state_invariant_under_basis_permutation():
    layout = cavity_qubit_layout(3)
    p = ModelParams(omega_r=TWO_PI * 6e9, omega_0=TWO_PI * 6e9 + TWO_PI * 3e5,
                    g=TWO_PI * 5e6, eta=0.0, zeta=TWO_PI * 5e4, N_fock=3)
    h = build_interaction_hamiltonian(p, layout)
    d = DecoherenceRates(kappa=KAPPA, gamma_pcq=TWO_PI * 5e4)
    c_ops = sector_collapse_operators(d, layout)
    lio = build_liouvillian(h, c_ops)
    rho = steady_state(lio)

    rng = np.random.default_rng(17)
    perm = rng.permutation(layout.total_dim)
    pmat = np.eye(layout.total_dim)[perm]
    h_p = LabeledOperator(pmat @ h.matrix @ pmat.T, layout,
                          hermitian_hint=True)
    c_p = [LabeledOperator(pmat @ c.matrix @ pmat.T, layout) for c in c_ops]
    rho_p = steady_state(build_liouvillian(h_p, c_p))
    assert np.max(np.abs(rho_p.matrix - pmat @ rho.matrix @ pmat.T)) < 1e-8


# ------------------------------------------------------------- propagation

def test_propagate_identity_at_zero_time():
    layout, a, lio = bare_cavity(3)
    ket = basis_state(layout, {"cavity": 1})
    rho0 = DensityMatrix(np.outer(ket, ket.conj()), layout)
    assert propagate(lio, rho0, 0.0) is rho0


def test_propagate_long_time_reaches_steady_state():
    zeta = KAPPA / 5
    layout, a, lio = bare_cavity(6, zeta=zeta)
    ket = basis_state(layout, {"cavity": 0})
    rho0 = DensityMatrix(np.outer(ket, ket.conj()), layout)
    rho_t = propagate(lio, rho0, 50.0 / KAPPA)
    rho_ss = steady_state(lio)
    trace_dist = 0.5 * np.sum(np.abs(
        np.linalg.eigvalsh(rho_t.matrix - rho_ss.matrix)))
    assert trace_dist < 1e-6


def test_propagate_pure_dephasing_analytic():
    # explicit C = sqrt(gamma_phi) sigma_z: off-diagonal decays as
    # exp(-2 gamma_phi t) (engine-level check, independent of the model
    # builder's weight convention)
    gamma_phi = TWO_PI * 1e5
    layout = SpaceLayout((2,), ("pcq",))
    sz, _, _ = pauli_matrices()
    c = LabeledOperator(np.sqrt(gamma_phi) * sz, layout)
    h = LabeledOperator(np.zeros((2, 2)), layout, hermitian_hint=True)
    lio = build_liouvillian(h, [c])
    rho0 = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
                         layout)
    t = 3e-6
    rho_t = propagate(lio, rho0, t)
    assert abs(rho_t.matrix[0, 1]) == pytest.approx(
        0.5 * np.exp(-2 * gamma_phi * t), rel=1e-6)


def test_propagate_preserves_trace_and_hermiticity():
    layout = cavity_qubit_layout(3)
    p = ModelParams(omega_r=TWO_PI * 6e9, omega_0=TWO_PI * 6e9,
                    g=TWO_PI * 14e6, eta=0.0, zeta=2 * KAPPA, N_fock=3)
    h = build_interaction_hamiltonian(p, layout)
    d = DecoherenceRates(kappa=KAPPA, gamma_pcq=TWO_PI * 5e4)
    lio = build_liouvillian(h, sector_collapse_operators(d, layout))
    ket = basis_state(layout, {"cavity": 1, "pcq": 0})
    rho0 = DensityMatrix(np.outer(ket, ket.conj()), layout)
    rho_t = propagate(lio, rho0, 5.0 / KAPPA)
    assert abs(np.trace(rho_t.matrix).real - 1.0) < 1e-8
    assert np.max(np.abs(rho_t.matrix - rho_t.matrix.conj().T)) < 1e-8


def test_propagate_unitary_conserves_purity():
    layout = cavity_qubit_layout(2)
    p = ModelParams(omega_r=TWO_PI * 6e9, omega_0=TWO_PI * 6e9,
                    g=TWO_PI * 5e6, eta=0.0, zeta=0.0, N_fock=2)
    h = build_interaction_hamiltonian(p, layout)
    lio = build_liouvillian(h, [])
    ket = (basis_state(layout, {"cavity": 1, "pcq": 1})
           + basis_state(layout, {"cavity": 0, "pcq": 0})) / np.sqrt(2)
    rho0 = DensityMatrix(np.outer(ket, ket.conj()), layout)
    rho_t = propagate(lio, rho0, 3e-7)
    purity = np.trace(rho_t.matrix @ rho_t.matrix).real
    assert purity == pytest.approx(1.0, abs=1e-8)


def test_propagate_rejects_negative_time():
    layout, a, lio = bare_cavity(2)
    ket = basis_state(layout, {})
    rho0 = DensityMatrix(np.outer(ket, ket.conj()), layout)
    with pytest.raises(ValueError):
        propagate(lio, rho0, -1.0)


def test_expm_action_grid_matches_scipy_expm_multiply():
    # The dense stepping branch against scipy's Taylor grid evaluation.
    zeta = KAPPA / 5
    layout, a, lio = bare_cavity(5, zeta=zeta)
    ket = basis_state(layout, {})
    v0 = vectorize(np.outer(ket, ket.conj()))
    t_max = 3.0 / KAPPA
    states = expm_action_grid(lio, v0, t_max, 7)
    reference = spla.expm_multiply(lio.matrix, v0, start=0.0, stop=t_max,
                                   num=7, endpoint=True)
    assert np.max(np.abs(states - reference)) < 1e-8


def test_expm_action_grid_contracts_each_step_with_u():
    # The dense branch contracts every step with u instead of returning the
    # (num, d^2) states; the scalars are those states' contraction.
    layout, a, lio = bare_cavity(5, zeta=KAPPA / 5)
    rng = np.random.default_rng(5)
    d2 = lio.matrix.shape[0]
    v0 = rng.normal(size=d2) + 1j * rng.normal(size=d2)
    u = rng.normal(size=d2) + 1j * rng.normal(size=d2)
    states = expm_action_grid(lio, v0, 3.0 / KAPPA, 41)
    g = expm_action_grid(lio, v0, 3.0 / KAPPA, 41, u)
    assert g.shape == (41,)
    reference = states @ u
    assert np.max(np.abs(g - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_expm_action_grid_sparse_branch_steps_in_blocks(monkeypatch):
    # A 46-level driven cavity (d^2 = 2116) takes the sparse branch. With
    # blocks of 7 points the 41-point grid takes six expm_multiply calls of
    # at most 8 states each, and contracts to the one-call result.
    layout, a, lio = bare_cavity(46, zeta=KAPPA / 5)
    d2 = lio.matrix.shape[0]
    assert d2 > DENSE_SOLVE_CAP
    ket = basis_state(layout, {"cavity": 1})
    v0 = vectorize(a.matrix @ np.outer(ket, ket.conj()))
    u = vectorize(a.matrix).conj()
    whole = expm_action_grid(lio, v0, 4.0 / KAPPA, 41, u)
    lengths = []
    expm_multiply = spla.expm_multiply

    def recording_expm_multiply(*args, **kwargs):
        lengths.append(kwargs["num"])
        return expm_multiply(*args, **kwargs)

    monkeypatch.setattr(liouvillian_module.spla, "expm_multiply",
                        recording_expm_multiply)
    monkeypatch.setattr(liouvillian_module, "_EXPM_BLOCK_ELEMENTS", 7 * d2)
    blocked = expm_action_grid(lio, v0, 4.0 / KAPPA, 41, u)
    assert lengths == [8, 8, 8, 8, 8, 6]
    assert np.max(np.abs(blocked - whole)) <= 1e-10 * np.max(np.abs(whole))


# ------------------------------------------------------------- truncation

def test_adaptive_truncation_trivial_at_zero_drive():
    def metric(n):
        layout, a, lio = bare_cavity(n, zeta=0.0)
        rho = steady_state(lio)
        pops = np.zeros(32)
        pops[:n] = np.real(np.diag(rho.matrix))
        return pops

    assert adaptive_truncation(metric, start=2, tolerance=1e-8) == 2


def test_adaptive_truncation_monotone_in_tolerance():
    def metric(n):
        layout, a, lio = bare_cavity(n, zeta=KAPPA / 4)  # |alpha| = 0.5
        rho = steady_state(lio)
        pops = np.zeros(40)
        pops[:n] = np.real(np.diag(rho.matrix))
        return pops

    n_tight = adaptive_truncation(metric, start=2, tolerance=1e-10, n_max=40)
    n_loose = adaptive_truncation(metric, start=2, tolerance=1e-6, n_max=40)
    assert n_loose <= n_tight
    assert n_tight <= 12


def test_adaptive_truncation_cap_raises():
    def metric(n):
        return np.array([1.0 / n])  # never settles below 1e-12

    with pytest.raises(TruncationNotConverged):
        adaptive_truncation(metric, start=2, tolerance=1e-12, n_max=10)


def _random_parts(rng, n_max):
    """Seeded random metric levels: per N a cheap part and a costly part.
    Each part moves from the previous level by about 1e-5 (agreeing at a
    tolerance of 1e-3) or by 0.5 in one entry (disagreeing), and now and
    then holds a nan."""
    levels, pieces = {}, [np.zeros(3), np.zeros(5)]
    for n in range(2, n_max + 1, 2):
        pieces = [v + 1e-5 * rng.random(v.size) for v in pieces]
        for v in pieces:
            if rng.random() < 0.4:
                v[rng.integers(v.size)] += 0.5
            if rng.random() < 0.05:
                v[rng.integers(v.size)] = np.nan
        levels[n] = [v.copy() for v in pieces]
    return levels


@pytest.mark.parametrize("seed", range(40))
def test_adaptive_truncation_parts_match_the_concatenated_vector(seed):
    # A tuple of parts chooses the N, or raises, as their concatenation
    # does; a callable part runs at most once per N, and never at a level
    # whose cheap part disagrees with both neighbours.
    rng = np.random.default_rng(seed)
    n_max = int(rng.choice([6, 10, 14]))
    levels = _random_parts(rng, n_max)
    calls = []

    def parts(n):
        cheap, costly = levels[n]

        def lazy():
            calls.append(n)
            return costly

        return cheap, lazy

    def concatenated(n):
        return np.concatenate(levels[n])

    def outcome(metric):
        try:
            return adaptive_truncation(metric, start=2, tolerance=1e-3,
                                       n_max=n_max)
        except TruncationNotConverged:
            return "not converged"

    expected = outcome(concatenated)
    assert outcome(parts) == expected
    assert len(calls) == len(set(calls))

    def agree(n, m):
        return np.max(np.abs(levels[n][0] - levels[m][0])) < 1e-3

    last = n_max if expected == "not converged" else expected + 2
    for n in range(2, last + 1, 2):
        if not any(agree(n, m) for m in (n - 2, n + 2) if 2 <= m <= last):
            assert n not in calls


def test_adaptive_truncation_bare_vector_is_one_part():
    # A bare vector and the one-part tuple of it choose the same N.
    def metric(n):
        return np.array([1.0 / n ** 4, 0.5])

    n = adaptive_truncation(metric, start=2, tolerance=1e-3)
    assert n == adaptive_truncation(lambda n: (metric(n),), start=2,
                                    tolerance=1e-3)
    assert n == adaptive_truncation(lambda n: (lambda: metric(n),), start=2,
                                    tolerance=1e-3)
