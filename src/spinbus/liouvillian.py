"""Sparse Liouvillian assembly, steady state, and propagation.

Vectorization is column stacking throughout: vec(rho) concatenates the
columns of rho, so vec(A rho B) = (B^T kron A) vec(rho) and the trace
functional is the row vector with ones at the diagonal positions. The
superoperator formula's transposes depend on this choice; do not mix
conventions.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    DegenerateSteadyState,
    LayoutMismatch,
    NonConvergence,
    StepFailure,
    TruncationNotConverged,
)
from .operators import DensityMatrix, LabeledOperator, SpaceLayout

# Superoperator dimension up to which L is handled as a dense matrix.
DENSE_SOLVE_CAP = 2048
# Complex values of the states one expm_multiply call of expm_action_grid's
# sparse branch returns: the grid is stepped in blocks of this many.
_EXPM_BLOCK_ELEMENTS = 2**20


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvectorize(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError("vector length is not a perfect square")
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


def trace_row(dim: int) -> np.ndarray:
    """Row vector t with t @ vec(rho) = tr(rho)."""
    t = np.zeros(dim * dim)
    t[:: dim + 1] = 1.0
    return t


class Superoperator:
    """Sparse D^2 x D^2 generator of the master equation."""

    def __init__(self, matrix: sp.spmatrix, layout: SpaceLayout):
        self.matrix = sp.csc_matrix(matrix, dtype=complex)
        self.layout = layout
        self._norm_scale: float | None = None
        d = layout.total_dim
        if self.matrix.shape != (d * d, d * d):
            raise LayoutMismatch(
                f"superoperator shape {self.matrix.shape} does not match "
                f"layout dim {d}"
            )

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L acting on a matrix, returned as a matrix."""
        return unvectorize(self.matrix @ vectorize(rho))

    def norm_scale(self) -> float:
        """Max absolute row sum; used to normalize residuals. Computed on
        the first call."""
        if self._norm_scale is None:
            self._norm_scale = float(abs(self.matrix).sum(axis=1).max()) or 1.0
        return self._norm_scale

    def trace_preservation_defect(self) -> float:
        """||tr o L|| per unit operator norm; ~0 for any valid Liouvillian."""
        t = trace_row(self.dim)
        return float(np.max(np.abs(t @ self.matrix))) / self.norm_scale()


def build_liouvillian(H: LabeledOperator,
                      c_list: Sequence[LabeledOperator]) -> Superoperator:
    """L with unvectorized action -i[H, rho] + sum_j D[C_j] rho.

    D[C] rho = C rho C_dag - (1/2){C_dag C, rho}. H must be Hermitian and
    every operator must share H's layout. With K = -iH - (1/2) sum C_dag C
    the action is K rho + rho K_dag + sum C rho C_dag, so in column-stacking
    form L = I kron K + conj(K) kron I + sum conj(C) kron C.

    The terms are assembled from the nonzeros of the dense K and C as one
    triplet list, whose shared entries the COO to CSC conversion sums.
    """
    if np.max(np.abs(H.matrix - H.matrix.conj().T)) > 1e-9 * max(
            1.0, float(np.max(np.abs(H.matrix)))):
        raise ValueError("Hamiltonian is not Hermitian")
    d = H.layout.total_dim
    k = -1j * H.matrix
    jumps = []
    for c_op in c_list:
        if c_op.layout != H.layout:
            raise LayoutMismatch("collapse operator layout differs from H")
        c = c_op.matrix
        if not np.any(c):
            continue
        k = k - 0.5 * (c.conj().T @ c)
        jumps.append(c)
    # kron(A, B) puts A[r, c] B[r', c'] at (r d + r', c d + c').
    copies = np.arange(d)[:, None]
    kr, kc = np.nonzero(k)
    kv = k[kr, kc]
    rows = [copies * d + kr, kr * d + copies]
    cols = [copies * d + kc, kc * d + copies]
    vals = [np.broadcast_to(kv, (d, kv.size)),
            np.broadcast_to(kv.conj(), (d, kv.size))]
    for c in jumps:
        cr, cc = np.nonzero(c)
        cv = c[cr, cc]
        rows.append(cr[:, None] * d + cr)
        cols.append(cc[:, None] * d + cc)
        vals.append(cv.conj()[:, None] * cv)
    lio = sp.csc_matrix(
        (np.concatenate([v.ravel() for v in vals]),
         (np.concatenate([r.ravel() for r in rows]),
          np.concatenate([c.ravel() for c in cols]))), shape=(d * d, d * d))
    lio.eliminate_zeros()
    return Superoperator(lio, H.layout)


def _null_space_dimension(matrix: sp.spmatrix, rel_tol: float = 1e-9) -> int:
    """Number of singular values below rel_tol * s_max.

    Dense SVD; only called on the diagnostic path after a solve failed, and
    guarded by size (the degenerate cases of interest are small).
    """
    d2 = matrix.shape[0]
    if d2 > 8100:
        # svds on the smallest end is unreliable; report "at least 2" so the
        # caller can still raise a typed error.
        return -1
    s = np.linalg.svd(matrix.toarray(), compute_uv=False)
    return int(np.sum(s < rel_tol * s[0]))


def _bordered_matrix(lio: Superoperator, diag_index: int) -> sp.csc_matrix:
    """L with row `diag_index` replaced by the trace row, in CSC form.

    The trace row is written into the CSR index arrays of L: its D ones sit
    at the diagonal columns i*D+i.
    """
    d = lio.dim
    m = lio.matrix.tocsr()
    lo, hi = m.indptr[diag_index], m.indptr[diag_index + 1]
    indices = np.concatenate([m.indices[:lo], np.arange(0, d * d, d + 1),
                              m.indices[hi:]])
    data = np.concatenate([m.data[:lo], np.ones(d), m.data[hi:]])
    indptr = m.indptr.copy()
    indptr[diag_index + 1:] += d - (hi - lo)
    return sp.csr_matrix((data, indices, indptr), shape=m.shape).tocsc()


def _bordered_solve(lio: Superoperator, diag_index: int,
                    rhs: np.ndarray) -> np.ndarray:
    """Solve L x = rhs with row `diag_index` of L replaced by the trace row,
    so that rhs[diag_index] fixes tr(x).

    The replaced row must sit at a diagonal position (i*D+i): those rows
    carry the one linear dependency of a trace-preserving generator, so
    removing any other row leaves the system singular. A singular bordered
    matrix raises RuntimeError. The steady state and the resolvent's
    carrier solve both take this route.
    """
    return spla.splu(_bordered_matrix(lio, diag_index)).solve(rhs)


def steady_state(lio: Superoperator) -> DensityMatrix:
    """Unique steady state of L, trace-normalized.

    Solves the bordered linear system; residual ||L vec(rho)|| per unit
    operator norm must beat 1e-9. A second solve at a different diagonal
    row cross-checks uniqueness; disagreement (or a singular factorization)
    triggers a null-space diagnosis and a DegenerateSteadyState carrying the
    kernel dimension.
    """
    d = lio.dim
    scale = lio.norm_scale()

    def diagnose() -> None:
        k = _null_space_dimension(lio.matrix)
        if k == 1:
            raise NonConvergence(
                "steady-state solve failed although the kernel is simple"
            )
        raise DegenerateSteadyState(k)

    def unit_trace_solve(diag_index: int) -> np.ndarray:
        rhs = np.zeros(d * d, dtype=complex)
        rhs[diag_index] = 1.0
        return _bordered_solve(lio, diag_index, rhs)

    try:
        x = unit_trace_solve(0)
    except RuntimeError:
        diagnose()
    if not np.all(np.isfinite(x)):
        diagnose()
    residual = float(np.linalg.norm(lio.matrix @ x)) / (scale * float(np.linalg.norm(x)))
    if residual > 1e-9:
        diagnose()

    # SpaceLayout factors have at least 2 levels, so (1,1) always exists.
    try:
        x2 = unit_trace_solve(d + 1)  # diagonal position (1,1)
    except RuntimeError:
        diagnose()
    if (not np.all(np.isfinite(x2))
            or np.linalg.norm(x - x2) > 1e-6 * np.linalg.norm(x)):
        diagnose()

    rho = unvectorize(x)
    rho = 0.5 * (rho + rho.conj().T)      # scrub solver-level asymmetry
    rho = rho / np.trace(rho).real        # trace exactly 1 after normalization
    return DensityMatrix(rho, lio.layout)


def propagate(lio: Superoperator, rho0: DensityMatrix,
              t: float) -> DensityMatrix:
    """Evolve rho0 for time t >= 0 by the exact action of e^{L t}: the last
    row of expm_action_grid on the two-point grid (0, t).

    Trace and Hermiticity are checked, never silently repaired: drift of
    either beyond 1e-8 means the generator is wrong, and raises StepFailure.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if rho0.layout != lio.layout:
        raise LayoutMismatch("state and Liouvillian layouts differ")
    if t == 0.0:
        return rho0

    rho = unvectorize(expm_action_grid(lio, vectorize(rho0.matrix), t, 2)[-1])
    trace_dev = abs(np.trace(rho).real - 1.0)
    herm_dev = float(np.max(np.abs(rho - rho.conj().T)))
    if not trace_dev <= 1e-8:
        raise StepFailure(f"trace drifted by {trace_dev:g} (> 1e-08)")
    if not herm_dev <= 1e-8:
        raise StepFailure(f"Hermiticity drifted by {herm_dev:g}")
    return DensityMatrix(0.5 * (rho + rho.conj().T), lio.layout)


def expm_action_grid(lio: Superoperator, v0: np.ndarray, t_max: float,
                     num: int, u: np.ndarray | None = None) -> np.ndarray:
    """e^{L t_k} v0 on the uniform grid t_k = k*t_max/(num-1); rows are t_k.
    With u, the scalars u @ e^{L t_k} v0, in O(d^2) memory on the dense
    branch and O(block d^2) on the sparse one.

    Exact matrix-exponential action, used by propagate and by the two-time
    correlation machinery, where v0 need not be a state. Small systems step
    with a dense one-interval propagator (one expm, then repeated products);
    larger ones use scipy's sparse truncated Taylor series with scaling
    (after Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), one call
    per block of the grid, each started from the last state of the one
    before and contracted with u before the next.
    """
    if num < 2:
        raise ValueError("need at least two grid points")
    v0 = np.asarray(v0, dtype=complex)
    d2 = lio.matrix.shape[0]
    out = np.empty((num, d2) if u is None else num, dtype=complex)
    if d2 <= DENSE_SOLVE_CAP:
        from scipy.linalg import expm

        step = expm(lio.matrix.toarray() * (t_max / (num - 1)))
        for k in range(num):
            if k:
                v0 = step @ v0
            out[k] = v0 if u is None else u @ v0
        return out
    out[0] = v0 if u is None else u @ v0
    block = max(1, _EXPM_BLOCK_ELEMENTS // d2)
    for k0 in range(0, num - 1, block):
        k1 = min(k0 + block, num - 1)
        states = spla.expm_multiply(lio.matrix, v0, start=0.0,
                                    stop=(k1 - k0) * t_max / (num - 1),
                                    num=k1 - k0 + 1, endpoint=True)
        out[k0 + 1:k1 + 1] = states[1:] if u is None else states[1:] @ u
        v0 = states[-1]
    return out


def adaptive_truncation(metric_fn: Callable[[int], np.ndarray | tuple],
                        start: int, tolerance: float, n_max: int = 30) -> int:
    """Smallest N with ||metric(N+2) - metric(N)||_inf < tolerance.

    metric_fn maps a Fock truncation to a fixed-length vector of observables
    (steady-state populations, ...), or to a tuple of parts, each a vector
    or a zero-argument callable returning one, that concatenate to it. Parts
    are compared in order; a callable part is evaluated at most once per N,
    and only when every earlier part agrees between N and N+2. A nan
    difference is a disagreement.
    Raises TruncationNotConverged past n_max.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    if start < 2:
        raise ValueError("start must be at least 2")

    def parts(n: int) -> list:
        metric = metric_fn(n)
        return list(metric) if isinstance(metric, tuple) else [metric]

    def part(metric: list, i: int) -> np.ndarray:
        if callable(metric[i]):
            metric[i] = metric[i]()
        return np.asarray(metric[i], dtype=float)

    n = start
    current = parts(n)
    while n + 2 <= n_max:
        nxt = parts(n + 2)
        if len(nxt) != len(current):
            raise ValueError("metric_fn must return a fixed-length vector")
        for i in range(len(current)):
            a, b = part(current, i), part(nxt, i)
            if a.shape != b.shape:
                raise ValueError("metric_fn must return a fixed-length vector")
            if not np.max(np.abs(b - a)) < tolerance:
                break
        else:
            return n
        n += 2
        current = nxt
    raise TruncationNotConverged(
        f"no convergence up to N_fock={n_max} at tolerance {tolerance:g}"
    )
