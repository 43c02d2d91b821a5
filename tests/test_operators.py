import numpy as np
import pytest

from spinbus.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    LayoutMismatch,
    SlotMismatch,
)
from spinbus.operators import (
    DensityMatrix,
    LabeledOperator,
    SpaceLayout,
    basis_state,
    cavity_qubit_layout,
    cavity_qubit_operators,
    embed,
    fock_annihilation,
    fock_annihilation_matrix,
    full_layout,
    partial_trace,
    pauli_matrices,
    pauli_operators,
    spin1_matrices,
    spin1_operators,
)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch("commutator operands must share a shape")
    return a @ b - b @ a


def projector(layout: SpaceLayout, label: str, level: int) -> LabeledOperator:
    """|level><level| on one factor, identity elsewhere."""
    d = layout.dims[layout.slot(label)]
    p = np.zeros((d, d), dtype=complex)
    p[level, level] = 1.0
    return embed(p, label, layout)


# ------------------------------------------------------------------ layouts

def test_layout_basics():
    lay = full_layout(4)
    assert lay.dims == (4, 2, 3)
    assert lay.total_dim == 24
    assert lay.slot("pcq") == 1
    with pytest.raises(SlotMismatch):
        lay.slot("nucleus")


def test_layout_order_fixed():
    with pytest.raises(LayoutMismatch):
        SpaceLayout((2, 4), ("pcq", "cavity"))
    with pytest.raises(DimensionTooSmall):
        SpaceLayout((1, 2, 3))
    SpaceLayout((5, 2), ("cavity", "pcq"))  # subset in canonical order is fine


# ------------------------------------------------------------------ ladder

def test_fock_annihilation_small_matrices():
    a2 = fock_annihilation_matrix(2)
    assert np.array_equal(a2, np.array([[0, 1], [0, 0]], dtype=complex))
    a3 = fock_annihilation_matrix(3)
    n = a3.conj().T @ a3
    assert np.allclose(np.diag(n), [0, 1, 2])
    with pytest.raises(DimensionTooSmall):
        fock_annihilation_matrix(1)


def test_fock_truncated_commutator_formula():
    # [a, a_dag] = I - N |N-1><N-1| on the truncated space
    for n in (2, 3, 6, 10):
        a = fock_annihilation_matrix(n)
        comm = commutator(a, a.conj().T)
        expected = np.eye(n, dtype=complex)
        expected[n - 1, n - 1] = 1.0 - n
        assert np.allclose(comm, expected, atol=1e-13)


# ------------------------------------------------------------------ spin-1

def test_spin1_eigenvalues_and_ladder():
    s_z, s_p, s_m = spin1_matrices()
    assert np.allclose(np.diag(s_z), [1, 0, -1])
    assert np.allclose(s_m, s_p.conj().T)
    assert np.allclose(commutator(s_p, s_m), 2 * s_z, atol=1e-14)
    # ladder normalization sqrt(2)
    assert s_p[0, 1] == pytest.approx(np.sqrt(2))


def test_spin1_zero_field_splitting_operator():
    s_z, _, _ = spin1_matrices()
    zfs = s_z @ s_z - (2 / 3) * np.eye(3)
    assert np.allclose(np.diag(zfs), [1 / 3, -2 / 3, 1 / 3])
    assert abs(np.trace(zfs)) < 1e-14


def test_pauli_algebra():
    s_z, s_p, s_m = pauli_matrices()
    eye = np.eye(2)
    assert np.allclose(s_z @ s_z, eye)
    assert np.allclose(s_p @ s_m + s_m @ s_p, eye)
    assert np.allclose(commutator(s_z, s_p), 2 * s_p)
    assert np.allclose(commutator(s_z, s_m), -2 * s_m)
    # sigma_minus de-excites: maps (excited=index 0) to (ground=index 1)
    assert s_m[1, 0] == 1.0


def test_ladder_pairs_are_adjoints_everywhere():
    for ops in (spin1_operators(), pauli_operators()):
        _, plus, minus = ops
        assert np.array_equal(minus.matrix, plus.matrix.conj().T)
    a = fock_annihilation(5)
    assert np.array_equal(a.dag().matrix, a.matrix.conj().T)


# ------------------------------------------------------------------ embed

def test_embed_trace_and_dimension():
    lay = SpaceLayout((2, 2, 3))
    sz, _, _ = pauli_matrices()
    op = embed(sz, "pcq", lay)
    assert op.matrix.shape == (12, 12)
    assert abs(op.trace()) < 1e-14


def test_embed_disjoint_factors_commute():
    lay = full_layout(3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ea = embed(a, "cavity", lay)
        eb = embed(b, "nv", lay)
        assert np.allclose((ea @ eb).matrix, (eb @ ea).matrix, atol=1e-12)


def test_embed_is_per_slot_homomorphism():
    lay = full_layout(4)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(embed(a @ b, "cavity", lay).matrix,
                       (embed(a, "cavity", lay) @ embed(b, "cavity", lay)).matrix,
                       atol=1e-12)


def test_embed_number_operator_eigenvalues():
    lay = full_layout(3)
    a = fock_annihilation_matrix(3)
    num = embed(a.conj().T @ a, "cavity", lay)
    eigs = np.sort(np.linalg.eigvalsh(num.matrix))
    expected = np.sort(np.repeat([0, 1, 2], 6))
    assert np.allclose(eigs, expected, atol=1e-12)


def test_cavity_qubit_operators_are_cached_read_only_embeds():
    # Equal to fresh Kronecker embeds, built once per layout, and shared, so
    # writing to them raises.
    for layout in (cavity_qubit_layout(2), cavity_qubit_layout(7),
                   full_layout(3)):
        n = layout.dims[0]
        rest = [np.eye(d, dtype=complex) for d in layout.dims[2:]]

        def kron(cavity, qubit):
            out = np.kron(cavity, qubit)
            for eye in rest:
                out = np.kron(out, eye)
            return out

        sz, sp, sm = pauli_matrices()
        a = kron(fock_annihilation_matrix(n), np.eye(2))
        fresh = dict(a=a, sigma_z=kron(np.eye(n), sz),
                     sigma_plus=kron(np.eye(n), sp),
                     sigma_minus=kron(np.eye(n), sm))
        fresh.update(ad_sigma_minus=a.conj().T @ fresh["sigma_minus"],
                     a_sigma_plus=a @ fresh["sigma_plus"])
        ops = cavity_qubit_operators(layout)
        assert cavity_qubit_operators(SpaceLayout(layout.dims,
                                                  layout.labels)) is ops
        assert set(ops._fields) == set(fresh)
        for name, matrix in fresh.items():
            cached = getattr(ops, name)
            assert np.array_equal(cached, matrix), (layout, name)
            with pytest.raises(ValueError):
                cached[0, 0] = 1.0
    with pytest.raises(SlotMismatch):
        cavity_qubit_operators(SpaceLayout((3,), ("cavity",)))


def test_embed_slot_mismatch():
    lay = full_layout(4)
    with pytest.raises(SlotMismatch):
        embed(np.eye(3), "cavity", lay)  # cavity dim is 4


# ------------------------------------------------------------------ utilities

def test_partial_trace_preserves_trace_and_hermiticity():
    lay = full_layout(3)
    rng = np.random.default_rng(11)
    m = rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    red = partial_trace(rho, lay, ("cavity",))
    assert red.shape == (3, 3)
    assert np.trace(red) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(red, red.conj().T, atol=1e-12)


def test_partial_trace_of_product_state_returns_factor():
    lay = full_layout(3)
    rng = np.random.default_rng(13)

    def rand_state(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        r = m @ m.conj().T
        return r / np.trace(r)

    rc, rq, rn = rand_state(3), rand_state(2), rand_state(3)
    rho = np.kron(np.kron(rc, rq), rn)
    assert np.allclose(partial_trace(rho, lay, ("cavity",)), rc, atol=1e-12)
    assert np.allclose(partial_trace(rho, lay, ("pcq",)), rq, atol=1e-12)
    assert np.allclose(partial_trace(rho, lay, ("nv",)), rn, atol=1e-12)
    both = partial_trace(rho, lay, ("cavity", "nv"))
    assert np.allclose(both, np.kron(rc, rn), atol=1e-12)


def test_commutator_shape_guard_and_self():
    a = np.eye(3)
    assert np.allclose(commutator(a, a), 0)
    with pytest.raises(DimensionMismatch):
        commutator(np.eye(3), np.eye(4))


# ------------------------------------------------------------------ wrappers

def test_labeled_operator_hermitian_hint_checked():
    lay = SpaceLayout((2,), ("pcq",))
    with pytest.raises(ValueError):
        LabeledOperator(np.array([[0, 1], [0, 0]]), lay, hermitian_hint=True)
    LabeledOperator(np.array([[0, 1], [1, 0]]), lay, hermitian_hint=True)


def test_labeled_operator_layout_guards():
    small = SpaceLayout((2,), ("pcq",))
    big = SpaceLayout((3,), ("nv",))
    with pytest.raises(LayoutMismatch):
        LabeledOperator(np.eye(4), small)
    a = LabeledOperator(np.eye(2), small)
    b = LabeledOperator(np.eye(3), big)
    with pytest.raises(LayoutMismatch):
        _ = a @ b


def test_density_matrix_validation():
    lay = SpaceLayout((2,), ("pcq",))
    good = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), lay)
    assert good.expect(LabeledOperator(np.diag([1.0, -1.0]), lay)) == \
        pytest.approx(-0.5)
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.6, 0.6]), lay)          # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]), lay)  # non-Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]), lay)         # negative eigenvalue


def test_basis_state_and_projector():
    lay = full_layout(2)
    ket = basis_state(lay, {"cavity": 1, "pcq": 0, "nv": 2})
    assert ket.shape == (12,)
    assert np.sum(np.abs(ket)) == 1.0
    p = projector(lay, "nv", 2)
    assert np.vdot(ket, p.matrix @ ket) == pytest.approx(1.0)
