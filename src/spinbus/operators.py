"""Dense operator kernel for the cavity (x) qubit (x) spin-1 space.

Basis conventions, fixed globally:
  cavity  Fock states ascending |0>, |1>, ...
  qubit   (excited, ground), so sigma_z = diag(+1, -1) and sigma_minus
          de-excites (standard convention)
  spin-1  (m_s = +1, 0, -1), S_z = diag(+1, 0, -1), ladder elements sqrt(2)

States and Hamiltonians stay dense (total dimension <= ~120); sparsity
only pays at the superoperator level, which lives in the liouvillian
module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DimensionTooSmall, LayoutMismatch, SlotMismatch

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered tensor factors with labels.

    The full system is ("cavity", "pcq", "nv") with dims (N_fock, 2, 3);
    reduced problems (e.g. the per-sector cavity+qubit blocks) use a
    subset of the labels in the same relative order.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...] = ("cavity", "pcq", "nv")

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.dims) != len(self.labels):
            raise LayoutMismatch("dims and labels must have equal length")
        if any(d < 2 for d in self.dims):
            raise DimensionTooSmall("every factor needs at least 2 levels")
        canonical = [x for x in ("cavity", "pcq", "nv") if x in self.labels]
        if list(self.labels) != canonical or len(set(self.labels)) != len(self.labels):
            raise LayoutMismatch(
                "labels must be a subset of (cavity, pcq, nv) in that order"
            )

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def slot(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise SlotMismatch(f"no factor labelled {label!r} in {self.labels}") from None


def full_layout(n_fock: int) -> SpaceLayout:
    """The standard cavity (x) qubit (x) spin-1 layout."""
    return SpaceLayout((n_fock, 2, 3))


def cavity_qubit_layout(n_fock: int) -> SpaceLayout:
    """Reduced layout used by the per-sector spectra."""
    return SpaceLayout((n_fock, 2), ("cavity", "pcq"))


@dataclass(frozen=True, eq=False)
class LabeledOperator:
    """A complex square matrix tagged with the layout it acts on."""

    matrix: np.ndarray
    layout: SpaceLayout
    hermitian_hint: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("operator matrix must be square")
        if m.shape[0] != self.layout.total_dim:
            raise LayoutMismatch(
                f"matrix dim {m.shape[0]} != layout dim {self.layout.total_dim}"
            )
        if self.hermitian_hint:
            dev = np.max(np.abs(m - m.conj().T))
            if dev >= HERMITIAN_TOL:
                raise ValueError(f"hermitian_hint set but max|M-M^dag| = {dev:g}")

    # -- arithmetic; layout must match exactly -------------------------------
    def _check(self, other: "LabeledOperator") -> None:
        if self.layout != other.layout:
            raise LayoutMismatch("operators live on different layouts")

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        self._check(other)
        return LabeledOperator(self.matrix + other.matrix, self.layout)

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        self._check(other)
        return LabeledOperator(self.matrix - other.matrix, self.layout)

    def __mul__(self, scalar: complex) -> "LabeledOperator":
        return LabeledOperator(self.matrix * scalar, self.layout)

    __rmul__ = __mul__

    def __matmul__(self, other: "LabeledOperator") -> "LabeledOperator":
        self._check(other)
        return LabeledOperator(self.matrix @ other.matrix, self.layout)

    def dag(self) -> "LabeledOperator":
        return LabeledOperator(self.matrix.conj().T, self.layout,
                               hermitian_hint=self.hermitian_hint)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, (numerically) positive state on a layout."""

    matrix: np.ndarray
    layout: SpaceLayout

    HERM_TOL = 1e-10
    TRACE_TOL = 1e-10
    EIG_FLOOR = -1e-8

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.layout.total_dim, self.layout.total_dim):
            raise LayoutMismatch("density matrix dim does not match layout")
        if np.max(np.abs(m - m.conj().T)) > self.HERM_TOL:
            raise ValueError("density matrix not Hermitian within tolerance")
        tr = np.trace(m).real
        if abs(tr - 1.0) > self.TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
        if min_eig <= self.EIG_FLOOR:
            raise ValueError(f"density matrix min eigenvalue {min_eig:g} too negative")

    def expect(self, op: LabeledOperator) -> complex:
        if op.layout != self.layout:
            raise LayoutMismatch("operator and state layouts differ")
        return complex(np.trace(op.matrix @ self.matrix))


# -- elementary single-factor operators (bare ndarrays) ----------------------

def fock_annihilation_matrix(n: int) -> np.ndarray:
    """Truncated ladder operator, a[k-1, k] = sqrt(k)."""
    if n < 2:
        raise DimensionTooSmall(f"Fock truncation needs N >= 2, got {n}")
    return np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)


def fock_annihilation(n: int) -> LabeledOperator:
    """Annihilation operator on a single cavity factor."""
    return LabeledOperator(fock_annihilation_matrix(n),
                           SpaceLayout((n,), ("cavity",)))


def spin1_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_z, S_plus, S_minus) in the (m_s = +1, 0, -1) basis."""
    s_z = np.diag([1.0, 0.0, -1.0]).astype(complex)
    s_plus = np.zeros((3, 3), dtype=complex)
    s_plus[0, 1] = np.sqrt(2.0)   # |0> -> |+1>
    s_plus[1, 2] = np.sqrt(2.0)   # |-1> -> |0>
    return s_z, s_plus, s_plus.conj().T


def spin1_operators() -> tuple[LabeledOperator, LabeledOperator, LabeledOperator]:
    layout = SpaceLayout((3,), ("nv",))
    s_z, s_p, s_m = spin1_matrices()
    return (LabeledOperator(s_z, layout, hermitian_hint=True),
            LabeledOperator(s_p, layout),
            LabeledOperator(s_m, layout))


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma_z, sigma_plus, sigma_minus) in the (excited, ground) basis."""
    s_z = np.diag([1.0, -1.0]).astype(complex)
    s_plus = np.zeros((2, 2), dtype=complex)
    s_plus[0, 1] = 1.0            # |ground> -> |excited>
    return s_z, s_plus, s_plus.conj().T


def pauli_operators() -> tuple[LabeledOperator, LabeledOperator, LabeledOperator]:
    layout = SpaceLayout((2,), ("pcq",))
    s_z, s_p, s_m = pauli_matrices()
    return (LabeledOperator(s_z, layout, hermitian_hint=True),
            LabeledOperator(s_p, layout),
            LabeledOperator(s_m, layout))


# -- embedding and tensor utilities ------------------------------------------

def embed_matrix(op: np.ndarray, slot: int, layout: SpaceLayout) -> np.ndarray:
    """Kronecker-embed a single-factor matrix, identity elsewhere."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (layout.dims[slot], layout.dims[slot]):
        raise SlotMismatch(
            f"operator dim {op.shape} does not match factor {slot} "
            f"(dim {layout.dims[slot]})"
        )
    out = np.ones((1, 1), dtype=complex)
    for k, d in enumerate(layout.dims):
        out = np.kron(out, op if k == slot else np.eye(d, dtype=complex))
    return out


def embed(op: np.ndarray | LabeledOperator, slot_label: str,
          layout: SpaceLayout) -> LabeledOperator:
    """Embed a single-factor operator into the composite space by label."""
    matrix = op.matrix if isinstance(op, LabeledOperator) else op
    slot = layout.slot(slot_label)
    return LabeledOperator(embed_matrix(matrix, slot, layout), layout)


def partial_trace(m: np.ndarray, layout: SpaceLayout,
                  keep_labels: tuple[str, ...]) -> np.ndarray:
    """Trace out every factor not in keep_labels; preserves trace/Hermiticity."""
    keep = sorted(layout.slot(lbl) for lbl in keep_labels)
    if not keep:
        raise SlotMismatch("must keep at least one factor")
    n = len(layout.dims)
    m = np.asarray(m, dtype=complex).reshape(layout.dims + layout.dims)
    # Contract traced-out row/col index pairs, highest axis first so the
    # remaining axis numbers stay valid.
    for ax in sorted((k for k in range(n) if k not in keep), reverse=True):
        m = np.trace(m, axis1=ax, axis2=ax + (m.ndim // 2))
    d_keep = int(np.prod([layout.dims[k] for k in keep]))
    return m.reshape(d_keep, d_keep)


def basis_state(layout: SpaceLayout, occupations: dict[str, int]) -> np.ndarray:
    """Product basis ket as a flat vector; unspecified factors default to 0."""
    ket = np.ones(1, dtype=complex)
    for lbl, d in zip(layout.labels, layout.dims):
        v = np.zeros(d, dtype=complex)
        v[occupations.get(lbl, 0)] = 1.0
        ket = np.kron(ket, v)
    return ket
