"""Sparse Liouvillian assembly, steady state, and propagation.

Vectorization is column stacking throughout: vec(rho) concatenates the
columns of rho, so vec(A rho B) = (B^T kron A) vec(rho) and the trace
functional is the row vector with ones at the diagonal positions. The
superoperator formula's transposes depend on this choice; do not mix
conventions.

This module builds every sparse matrix of the engine (L, by
build_liouvillian) and factors every matrix derived from L: L bordered at
row 0 by the trace row (Superoperator.bordered_lu), whose one factor serves
the steady state, its uniqueness cross-check and the carrier solve, and the
resolvent's shifted s0 I - L (Superoperator.shifted_lu).
"""

from __future__ import annotations

from typing import Callable, NoReturn, Sequence

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
# expm_action_grid steps with one dense expm up to DENSE_SOLVE_CAP, except
# that a two-point grid (one propagate) above d^2 = _DENSE_ONE_STEP_CAP takes
# expm_multiply. The dense expm costs ~d^6 flops and expm_multiply's grow
# with ||L|| t_max, so no rule in d^2 and the grid length suits every L; this
# one changes the choice only where every input timed in a standalone script
# (one time, 2-core VM) favoured expm_multiply or tied. On a fig7 sector over
# 20/kappa (||L|| t ~ 7e4), with one BLAS thread, dense won 1.9x at
# d^2 = 1156, tied at 1600 and lost 1.6x at 1764 and 1936 (a tie there with
# two threads); on a driven bare cavity over 5/kappa (||L|| t ~ 450) it lost
# 6.5x at d^2 = 400, 54x at 1024 and 171x at 1936. Two families of L, not a
# benchmark workload (none calls expm_action_grid above d^2 = 64): the
# constant is unverified beyond them.
_DENSE_ONE_STEP_CAP = 1600
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
    """Sparse D^2 x D^2 generator of the master equation in complex CSC
    form, and the sparse LUs of the matrices derived from it."""

    def __init__(self, matrix: sp.spmatrix, layout: SpaceLayout):
        csc = sp.isspmatrix_csc(matrix) and matrix.dtype == complex
        self.matrix = matrix if csc else sp.csc_matrix(matrix, dtype=complex)
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
        the first call, from the CSC arrays: the row sums accumulate in
        storage order, as a product with a ones vector would."""
        if self._norm_scale is None:
            m = self.matrix
            rows = np.bincount(m.indices, np.abs(m.data), minlength=m.shape[0])
            self._norm_scale = float(rows.max(initial=0.0)) or 1.0
        return self._norm_scale

    def trace_preservation_defect(self) -> float:
        """||tr o L|| per unit operator norm; ~0 for any valid Liouvillian."""
        t = trace_row(self.dim)
        return float(np.max(np.abs(t @ self.matrix))) / self.norm_scale()

    def bordered_lu(self) -> spla.SuperLU:
        """Sparse LU of L with row 0 replaced by the trace row, from a CSR
        copy of L: the trace row's D ones are written into its index arrays
        at the diagonal columns i*D+i. Row 0 is such a diagonal position:
        those rows carry the one linear dependency of a trace-preserving
        generator, so removing any other row leaves the system singular. A
        singular bordered matrix raises RuntimeError.
        """
        m, d = self.matrix.tocsr(), self.dim
        hi = m.indptr[1]
        indices = np.concatenate([np.arange(0, d * d, d + 1), m.indices[hi:]])
        data = np.concatenate([np.ones(d), m.data[hi:]])
        indptr = m.indptr.copy()
        indptr[1:] += d - hi
        return spla.splu(sp.csr_matrix((data, indices, indptr),
                                       shape=m.shape).tocsc())

    def shifted_lu(self, s0: complex) -> spla.SuperLU:
        """Sparse LU of s0 I - L."""
        n = self.matrix.shape[0]
        return spla.splu(s0 * sp.identity(n, dtype=complex, format="csc")
                         - self.matrix)


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


_SVD_MAX_DIM = 8100


def _null_space_dimension(matrix: sp.spmatrix) -> int:
    """Number of singular values below 1e-9 * s_max by dense SVD, or -1
    above d^2 = _SVD_MAX_DIM (svds on the smallest end is unreliable).

    Only called on the diagnostic path after a solve failed.
    """
    if matrix.shape[0] > _SVD_MAX_DIM:
        return -1
    s = np.linalg.svd(matrix.toarray(), compute_uv=False)
    return int(np.sum(s < 1e-9 * s[0]))


def _bordered_solves(lio: Superoperator
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x and x2 solving L x = 0 with unit trace, bordered at (0,0) and at
    (1,1), and L x, all from the one factor of B0 (L with row 0 replaced by
    the trace row t). SpaceLayout factors have at least 2 levels, so (1,1)
    always exists.

    x = B0^{-1} e_0 is one single-RHS solve. B1, bordered at row d+1, is
    B0 + U V^T with U = [e_0, e_{d+1}] and rows L_0 - t and t - L_{d+1} of
    V^T, so by the Sherman-Morrison-Woodbury identity (Hager, SIAM Rev. 31,
    221 (1989)) x2 = B1^{-1} e_{d+1} = Z C^{-1} e_2, with Z = B0^{-1} U =
    [x, w] and C = I + V^T Z. The form w - Z C^{-1} V^T w cancels near a
    degenerate kernel, this one does not. One step of iterative refinement
    against B1, applied through L, brings x2 to the accuracy of a factor of
    B1 itself. Raises RuntimeError for a singular B0 and LinAlgError for a
    singular C.
    """
    d = lio.dim
    lu = lio.bordered_lu()

    def unit_trace_solve(diag_index: int) -> np.ndarray:
        rhs = np.zeros(d * d, dtype=complex)
        rhs[diag_index] = 1.0
        return lu.solve(rhs)

    def v_t(v: np.ndarray, lv: np.ndarray) -> np.ndarray:
        """V^T v from L v; t v sums the diagonal entries of v."""
        tv = v[::d + 1].sum(axis=0)
        return np.array([lv[0] - tv, tv - lv[d + 1]])

    x = unit_trace_solve(0)
    z = np.column_stack((x, unit_trace_solve(d + 1)))
    lz = lio.matrix @ z
    c_inv = np.linalg.inv(np.eye(2) + v_t(z, lz))
    x2 = z @ c_inv[:, 1]
    r = -(lio.matrix @ x2)
    r[d + 1] = 1.0 - x2[::d + 1].sum()
    y = lu.solve(r)
    x2 += y - z @ (c_inv @ v_t(y, lio.matrix @ y))
    return x, x2, lz[:, 0]


def steady_state(lio: Superoperator) -> DensityMatrix:
    """Unique steady state of L, trace-normalized.

    Solves the system bordered at (0,0); residual ||L vec(rho)|| per unit
    operator norm must beat 1e-9. The system bordered at (1,1), solved
    through the same sparse LU (_bordered_solves), cross-checks uniqueness;
    disagreement, a singular factorization or a solution that fails
    DensityMatrix validation triggers a null-space diagnosis:
    DegenerateSteadyState carrying the kernel dimension (-1 when d^2 is too
    large to compute it), or NonConvergence when the kernel is simple.
    """
    d = lio.dim
    scale = lio.norm_scale()

    def diagnose(failure: str = "steady-state solve failed") -> NoReturn:
        k = _null_space_dimension(lio.matrix)
        if k == 1:
            raise NonConvergence(f"{failure} although the kernel is simple")
        if k < 0:
            raise DegenerateSteadyState(k, (
                f"bordered solve failed ({failure}); the Liouvillian kernel "
                f"dimension is not computed above d^2 = {_SVD_MAX_DIM}, and "
                f"here d^2 = {d * d}"))
        raise DegenerateSteadyState(k)

    try:
        x, x2, lx = _bordered_solves(lio)
    except (RuntimeError, np.linalg.LinAlgError):
        diagnose()
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(x2))):
        diagnose()
    residual = float(np.linalg.norm(lx)) / (scale * float(np.linalg.norm(x)))
    if residual > 1e-9 or np.linalg.norm(x - x2) > 1e-6 * np.linalg.norm(x):
        diagnose()

    rho = unvectorize(x)
    rho = 0.5 * (rho + rho.conj().T)      # scrub solver-level asymmetry
    rho = rho / np.trace(rho).real        # trace exactly 1 after normalization
    try:
        return DensityMatrix(rho, lio.layout)
    except ValueError as exc:
        diagnose(f"steady state is not a density matrix ({exc})")


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
    correlation machinery, where v0 need not be a state. Systems up to
    DENSE_SOLVE_CAP, except one time above _DENSE_ONE_STEP_CAP, step with a
    dense one-interval propagator (one expm, then repeated products); the
    rest use scipy's sparse truncated Taylor series with scaling
    (after Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), one call
    per block of the grid, each started from the last state of the one
    before and contracted with u before the next.
    """
    if num < 2:
        raise ValueError("need at least two grid points")
    v0 = np.asarray(v0, dtype=complex)
    d2 = lio.matrix.shape[0]
    out = np.empty((num, d2) if u is None else num, dtype=complex)
    if d2 <= DENSE_SOLVE_CAP and (num > 2 or d2 <= _DENSE_ONE_STEP_CAP):
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
