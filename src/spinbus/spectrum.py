"""Steady-state emission spectrum of the driven cavity.

The two-sided power spectrum is folded onto a one-sided integral using
stationarity of the steady state:

    S(omega) = (1/pi) * Re  Integral_0^inf e^{-i omega tau} g(tau) dtau,
    g(tau)   = Tr[ A_dag  e^{L tau} (A rho_ss) ],

with A = a in "full" mode or A = a - <a>_ss in "incoherent" mode (the
fluctuation spectrum, which removes the coherent drive's delta peak and is
the default: the Rabi/spin structure is the visible part). Two independent
evaluation routes are provided: the resolvent identity

    S(omega) = (1/pi) * Re  vec(A)^dag (i omega I - L)^{-1} vec(A rho_ss)

and one FFT of the propagated two-sided correlation on the grid
k pi / tmax (spectrum_fft_crosscheck). They must agree; the tests enforce
it.

The resolvent has one route, a shift-and-invert Krylov projection (Ruhe,
Linear Algebra Appl. 58, 391 (1984); Frommer & Glaessner, SIAM J. Sci.
Comput. 19, 15 (1998)). Every shifted system (i w I - L) x = b shares the
Krylov space of K = (s0 I - L)^{-1} started from K b, because
(i w I - L) = (s0 I - L)(I + mu K) with mu = i w - s0. The shift s0 sits
an eighth of the grid span to the right of the grid centre, where a
Lindblad L has no eigenvalue, so one sparse LU of s0 I - L serves every
frequency of the grid; a pole that close to the window needs a smaller m
(Guettel, GAMM-Mitt. 36, 8 (2013)). Arnoldi gives K Q_m = Q_{m+1} Hbar_m,
and x = Q_m y with y = beta (I + mu H_m)^{-1} e_1: a pivoted elimination
on the Hessenberg H_m, O(m^2) per frequency and vectorised over the grid.
m grows from 8 by 8 at a time until the Arnoldi residual (Saad,
Math. Comp. 37, 105 (1981)) is well below the accepted one at every
frequency; the true residual is checked once, with
L Q_m and u^dag Q_m formed once, so x itself is never formed. That
residual is ||W z|| with W = [Q_m, L Q_m, b] and z = (i w y, -y, -1). On a
grid long against m it is taken as ||R z|| with R the R factor of W, which
Householder QR gives backward stably (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., sec. 19.3), so ||W z|| = ||R z|| to rounding
whatever the basis: O(m^2) per frequency instead of O(d^2 m). A short grid
(the truncation probes) forms W z directly, where one QR would cost more
than the products it saves. The projection stays on its SectorProblem,
and a later grid over the same window in the same mode, hence with the
same b (the final grid after the truncation probe's), continues it,
factoring and extending only if it needs a larger m. The small systems
are solved, not diagonalized: an eigen or Schur expansion of H_m misses
the cancellation of the fig4a spectrum, which lies far below
||u|| ||b|| / kappa, by ~5e-10 of the peak.
The carrier (omega = 0 in the drive frame), where (i omega I - L) is
singular through the steady-state kernel, is solved through the steady
state's trace-bordered system.

This module builds and factors no sparse matrix: liouvillian builds L and
factors both the bordered and the shifted matrices (Superoperator's
bordered_lu, the one factor behind the steady state and its cross-check,
and shifted_lu); here L only multiplies vectors and blocks, and the Krylov
basis and Hessenberg matrix are dense NumPy arrays.

Both nv_modes run on frozen-spin sectors (cavity+qubit problems): "sectors"
sums them with configured weights, and "full" is exactly the one sector its
spin relaxation pins (full_liouvillian_spectrum gives the argument).

Frequencies are measured in the rotating frame of the drive. A Spectrum
stores its grid relative to frame_offset (e.g. the upper vacuum-Rabi peak
at offset g), so the absolute frame frequency is frame_offset + grid.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence, get_args

import numpy as np

from .errors import (
    DegenerateSteadyState,
    GridTooCoarse,
    LayoutMismatch,
    SingularResolvent,
    WindowTooShort,
)
from .liouvillian import (
    Superoperator,
    build_liouvillian,
    expm_action_grid,
    steady_state,
    trace_row,
    vectorize,
)
from .model import (
    DecoherenceRates,
    ModelParams,
    NVRelaxation,
    SpectrumMode,
    check_convention,
    sector_collapse_operators,
    sector_interaction_hamiltonian,
    validate_weights,
)
from .operators import (
    DensityMatrix,
    LabeledOperator,
    cavity_qubit_layout,
    cavity_qubit_operators,
    partial_trace,
)

logger = logging.getLogger(__name__)

# Largest accepted ||(i w I - L) x - b|| / ||b|| of any resolvent solve.
_RESIDUAL_TOL = 1e-8
# Krylov dimension a projection starts from, and the columns each growth
# step adds.
_KRYLOV_STEP = 8
# Complex values per block of frequencies: a block holds one d^2-long
# residual column per frequency, so the bound caps it whatever the grid
# length; the block's small solves hold O(m) values per frequency.
_CHUNK_ELEMENTS = 2**15
# The true residuals are ||W z|| with W = [Q_m, L Q_m, b], d^2 x (2m + 1).
# W z costs ~2 d^2 m flops per frequency, the R factor of W ~8 d^2 m^2 once,
# after which ||R z|| costs O(m^2). So R pays on grids longer than this many
# frequencies per Krylov dimension (the 2001-point finals), and only while
# it has fewer rows than W (2m + 1 < d^2); the direct product stays cheaper
# on short grids (the 33-point truncation probes).
_QR_POINTS_PER_DIM = 4


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Spectral density on a frequency grid relative to an analysis frame.

    Values are clipped to be nonnegative; anything more negative than
    ~1e-10 of the peak indicates a numerical problem and is logged before
    clipping. Metadata records every input needed to reproduce the run.
    """

    omega_grid: np.ndarray        # rad/s, relative to frame_offset
    values: np.ndarray            # >= 0
    frame_offset: float = 0.0     # rad/s
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = np.asarray(self.omega_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or vals.shape != grid.shape:
            raise ValueError("grid and values must be matching 1-D arrays")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("omega grid must be strictly increasing")
        peak = float(np.max(np.abs(vals))) if vals.size else 0.0
        floor = -1e-12 * max(peak, 1.0)
        most_negative = float(vals.min()) if vals.size else 0.0
        if peak > 0.0 and most_negative < -1e-10 * peak:
            logger.warning(
                "spectrum has negative values down to %.3e of peak; clipping",
                most_negative / peak,
            )
        elif most_negative < floor:
            logger.debug("clipping tiny negative spectrum values (min %.3e)",
                         most_negative)
        object.__setattr__(self, "omega_grid", grid)
        object.__setattr__(self, "values", np.clip(vals, 0.0, None))
        self.metadata.setdefault("min_raw_value", most_negative)

    def log10_values(self) -> np.ndarray:
        """log10 of the values, floored at 1e-30."""
        return np.log10(np.maximum(self.values, 1e-30))


@dataclass(frozen=True)
class PeakReport:
    """Detected spectral peaks and whether they are mutually resolved."""

    peaks: tuple[tuple[float, float, float], ...]  # (position, height, fwhm)
    resolved: bool
    dip_depth: float

    @property
    def positions(self) -> np.ndarray:
        return np.array([p[0] for p in self.peaks])


def _fluctuation_operator(a_op: LabeledOperator, rho_ss: DensityMatrix,
                          mode: SpectrumMode) -> np.ndarray:
    if mode not in get_args(SpectrumMode):
        raise ValueError(f"unknown spectrum mode {mode!r}")
    a = a_op.matrix
    if mode == "full":
        return a
    mean = np.trace(a @ rho_ss.matrix)
    return a - mean * np.eye(a.shape[0])


def two_time_correlation(lio: Superoperator, a_op: LabeledOperator,
                         rho: DensityMatrix, taus: np.ndarray,
                         mode: SpectrumMode = "incoherent") -> np.ndarray:
    """g(tau) = Tr[A_dag e^{L tau} (A rho)] on a uniform tau grid from 0."""
    taus = np.asarray(taus, dtype=float)
    if taus.size < 2:
        raise ValueError("taus needs at least two points")
    if taus[0] != 0.0 or np.any(np.diff(taus) <= 0):
        raise ValueError("taus must start at 0 and increase")
    steps = np.diff(taus)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        raise ValueError("taus must be uniform")
    a_fl = _fluctuation_operator(a_op, rho, mode)
    b = vectorize(a_fl @ rho.matrix)
    u = vectorize(a_fl).conj()
    return expm_action_grid(lio, b, float(taus[-1]), taus.size, u)


def _carrier_solve(lio: Superoperator, b: np.ndarray,
                   op_scale: float) -> tuple[np.ndarray, float]:
    """Deflated solve of -L x = b at the carrier frequency (w = 0).

    (i w I - L) is singular at w = 0 through the steady-state kernel, but
    the resolvent limit exists whenever b carries no stationary component
    (t.b = tr(A rho) = 0, with t the trace functional): that is the
    incoherent case. The steady state's bordered system, L with its first
    diagonal row replaced by t, removes exactly the trace kernel: it is
    solved for -b with the first entry set to 0, i.e. tr(x) = 0. A genuine
    stationary component (a coherent delta peak, gauged against the operator
    scale since |tr(A rho)| <= ||A||_F) or any further kernel direction is
    reported instead. Returns x and its residual relative to ||b||.
    """
    bnorm = float(np.linalg.norm(b))
    if abs(trace_row(lio.dim) @ b) > 1e-10 * op_scale:
        raise SingularResolvent(
            0.0, "coherent delta peak at the carrier frequency")
    rhs = -b
    rhs[0] = 0.0
    try:
        x = lio.bordered_lu().solve(rhs)
    except RuntimeError:
        raise SingularResolvent(0.0) from None
    residual = float(np.linalg.norm(lio.matrix @ x + b)) / bnorm
    if not residual <= _RESIDUAL_TOL:
        raise SingularResolvent(0.0)
    return x, residual


def _extend_arnoldi(lu, q: np.ndarray, h: np.ndarray, target: int
                    ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Q_{m+1} and Hbar_m extended from m = h.shape[1] to m = target by
    Arnoldi on K = lu^{-1} with one re-orthogonalisation pass, and whether
    it broke down (the space is invariant) at the m it returns."""
    n, m = q.shape[0], h.shape[1]
    grown = np.zeros((n, target + 1), dtype=complex, order="F")
    grown[:, :m + 1] = q
    q = grown
    grown = np.zeros((target + 1, target), dtype=complex)
    grown[:m + 1, :m] = h
    h = grown
    eps = np.finfo(float).eps
    while m < target:
        v = lu.solve(q[:, m])
        scale = float(np.linalg.norm(v))
        for _ in range(2):
            # Q^H v without a conjugated copy of Q.
            c = (q[:, :m + 1].T @ v.conj()).conj()
            v -= q[:, :m + 1] @ c
            h[:m + 1, m] += c
        h[m + 1, m] = np.linalg.norm(v)
        m += 1
        if h[m, m - 1].real <= eps * scale:
            return q[:, :m + 1], h[:m + 1, :m], True
        q[:, m] = v / h[m, m - 1]
    return q, h, False


def _hessenberg_solve(h: np.ndarray, mu: np.ndarray,
                      beta: float) -> np.ndarray:
    """y_k = beta (I + mu_k H)^{-1} e_1 for an upper Hessenberg m x m H,
    returned as the columns of an (m, len(mu)) array.

    Gaussian elimination with partial pivoting on the Hessenberg structure:
    one loop over the subdiagonal, vectorised over the frequencies. Column
    operations zero the subdiagonal from the bottom row up. At row r only
    column r - 1 of I + mu H and the column carried down from r compete for
    the pivot; the other one, minus the multiplier times the pivot, is
    carried on. This gives (I + mu H) M = T with T upper triangular, so
    y = beta M e_1 / T_11 needs no back substitution. M e_1 is a running
    product of the weights: row r's operation maps unit vector r - 1
    (counting from 0) to its left weight times itself plus its own weight
    times unit vector r. Each frequency holds O(m) numbers, and the
    pivoting is partial pivoting on the reversed transpose of I + mu H. An
    exactly singular pivot leaves y non-finite at that frequency only.
    """
    m = h.shape[0]
    carried = np.multiply.outer(h[:, m - 1], mu)
    carried[m - 1] += 1.0
    subdiagonal = np.multiply.outer(np.diagonal(h, -1), mu)
    # Row r's weights of the carried column and of column r - 1 in the
    # column carried on; row 0 holds beta / T_11.
    own_weight = np.empty_like(carried)
    left_weight = np.empty_like(carried)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for r in range(m - 1, 0, -1):
            left, own = subdiagonal[r - 1], carried[r]
            swap = np.abs(left) > np.abs(own)
            ratio = -(np.where(swap, own, left) / np.where(swap, left, own))
            own_weight[r] = np.where(swap, 1.0, ratio)
            left_weight[r] = np.where(swap, ratio, 1.0)
            carried[:r] *= own_weight[r]
            carried[:r] += np.multiply.outer(h[:r, r - 1], left_weight[r] * mu)
            carried[r - 1] += left_weight[r]
        own_weight[0] = beta / carried[0]
        y = np.cumprod(own_weight, axis=0)
        y[:-1] *= left_weight[1:]
    return y


def _residual_norms(basis: np.ndarray, l_basis: np.ndarray, b: np.ndarray,
                    r: np.ndarray | None, omegas: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
    """||(i w I - L) Q_m y - b|| for each w and column y of y: ||W z|| with
    W = [Q_m, L Q_m, b] (basis, l_basis, b) and z = (i w y, -y, -1), formed
    directly, or as ||R z|| when r is the R factor of W."""
    with np.errstate(invalid="ignore", over="ignore"):
        if r is None:
            return np.linalg.norm(basis @ (y * (1j * omegas)) - l_basis @ y
                                  - b[:, None], axis=0)
        z = np.concatenate([y * (1j * omegas), -y,
                            np.full((1, omegas.size), -1.0)])
        return np.linalg.norm(r @ z, axis=0)


class SectorProblem:
    """The resolvent problem of one spectrum: the Liouvillian L, the operator
    a whose emission it gives, the steady state rho_ss, and the Krylov
    projection of its last spectrum.

    A later spectrum over the same window in the same mode (the final grid
    after the truncation probe's) continues that projection
    (_krylov_values); spectrum_resolvent evaluates a fresh problem.
    """

    def __init__(self, lio: Superoperator, a_op: LabeledOperator,
                 rho_ss: DensityMatrix):
        if a_op.layout != rho_ss.layout or a_op.layout != lio.layout:
            raise LayoutMismatch(
                "operator, state and Liouvillian layouts differ")
        self.lio, self.a_op, self.rho_ss = lio, a_op, rho_ss
        # The last projection: the shift s0, the mode that fixes the vector
        # b = vec(A rho_ss) it started from, beta = ||K b||, Q_{m+1} and
        # Hbar_m of K Q_m = Q_{m+1} Hbar_m, and whether Arnoldi broke down
        # (the space is invariant) at m.
        self._projection = None

    def spectrum(self, omega_grid: Sequence[float],
                 mode: SpectrumMode = "incoherent",
                 frame_offset: float = 0.0) -> Spectrum:
        """Spectrum via resolvent solves of vec(A)^dag (i w I - L)^{-1} b.

        omega_grid is relative to frame_offset; the resolvent is evaluated
        at the absolute frame frequency w. The carrier (w = 0) takes the
        deflated bordered solve (_carrier_solve), and all other frequencies
        share one shift-and-invert Krylov projection: at most one sparse LU
        of the shifted L per call, none when the call continues the kept
        projection (_krylov_values), never a dense copy. Every solve is
        residual-checked: numerically singular frequencies (undamped poles,
        or in full mode the coherent delta peak at the carrier) raise
        SingularResolvent rather than returning garbage. The metadata
        records the route ("krylov"), the projection's dimension as
        krylov_dim (0 when no projection was needed) and the worst residual
        relative to ||b|| as max_relative_residual.
        """
        grid = np.asarray(omega_grid, dtype=float)
        omegas = grid + frame_offset
        a_fl = _fluctuation_operator(self.a_op, self.rho_ss, mode)
        b = vectorize(a_fl @ self.rho_ss.matrix)
        u = vectorize(a_fl).conj()
        raw = np.zeros(omegas.size, dtype=complex)
        krylov_dim, worst = 0, 0.0
        if np.any(b):
            carrier = np.abs(omegas) < 1e-12 * self.lio.norm_scale()
            for k in np.flatnonzero(carrier):
                x, residual = _carrier_solve(self.lio, b,
                                             float(np.linalg.norm(u)))
                raw[k] = u @ x
                worst = max(worst, residual)
            if not carrier.all():
                raw[~carrier], krylov_dim, residual = self._krylov_values(
                    u, b, mode, omegas[~carrier])
                worst = max(worst, residual)
        meta = dict(mode=mode, method="resolvent", frame_offset=frame_offset,
                    route="krylov", krylov_dim=krylov_dim,
                    max_relative_residual=worst)
        return Spectrum(grid, np.real(raw) / np.pi, frame_offset, meta)

    def _krylov_values(self, u: np.ndarray, b: np.ndarray, mode: SpectrumMode,
                       omegas: np.ndarray) -> tuple[np.ndarray, int, float]:
        """u^dag (i w I - L)^{-1} b for each w by one shift-and-invert Krylov
        projection (module docstring), the projection's dimension m and the
        worst residual relative to ||b||.

        The shift is s0 = delta + i w_c, with w_c the grid centre and delta
        an eighth of its span, floored at 1e-6 of L's scale for a
        one-frequency grid. Arnoldi with one re-orthogonalisation pass
        extends K Q_m = Q_{m+1} Hbar_m. Each block of frequencies
        (_CHUNK_ELEMENTS) takes y = beta (I + mu H_m)^{-1} e_1 by
        _hessenberg_solve, O(m^2) per frequency, and m grows from
        _KRYLOV_STEP by _KRYLOV_STEP columns at a time until the
        Arnoldi residual is at most 1e-4 _RESIDUAL_TOL at every frequency,
        Arnoldi breaks down (the space is invariant, so the projection is
        exact) or m reaches the dimension of L. The Arnoldi residual is the
        true one in exact arithmetic,
        (i w I - L) x - b = mu h_{m+1,m} y_m (s0 I - L) q_{m+1} with y_m the
        last entry of y = beta (I + mu H_m)^{-1} e_1, and costs one sparse
        product per m. Unlike the true residual it has no rounding floor, so
        the tight target that the cancellation in u^dag x needs cannot grow
        m to the dimension of L. At the accepted m the true residual of
        x = Q_m y is checked once, with L acting on the basis:
        r = Q_m (i w y) - (L Q_m) y - b = W z with W = [Q_m, L Q_m, b] and
        z = (i w y, -y, -1); then the value is (u^dag Q_m) y. L Q_m and
        u^dag Q_m are formed once per call, so x is never formed. When the
        grid has more than _QR_POINTS_PER_DIM frequencies per Krylov
        dimension and 2m + 1 < d^2, ||r|| is taken as ||R z|| with R the
        (2m + 1)-row R factor of W, one QR per call and O(m^2) per
        frequency; on a shorter grid the QR would cost more than it saves,
        and r is formed directly, O(d^2 m) per frequency. Both are ||r|| to
        rounding (_residual_norms). A frequency where the residual exceeds
        _RESIDUAL_TOL raises SingularResolvent.

        The projection is kept on the problem. A later call with the same s0
        and mode (b = vec(A rho_ss) is fixed by the problem and the mode),
        i.e. a grid over the same window such as the final grid after the
        truncation probe's, continues it: the growth test starts at the
        kept m, and s0 I - L is factored and Arnoldi extended only if this
        grid needs a larger m. Where it does, the values are a fresh
        projection's bit for bit; a grid that a fresh projection would
        accept at a smaller m is evaluated at the kept m.
        """
        lio = self.lio
        n = b.size
        lo, hi = float(omegas.min()), float(omegas.max())
        s0 = max(0.125 * (hi - lo), 1e-6 * lio.norm_scale()) + 0.5j * (lo + hi)
        bnorm = float(np.linalg.norm(b))
        kept, lu = self._projection, None
        if kept is not None and kept[:2] == (s0, mode):
            beta, q, h, invariant = kept[2:]
        else:
            lu = lio.shifted_lu(s0)
            kb = lu.solve(b)
            beta = float(np.linalg.norm(kb))
            q = np.asfortranarray((kb / beta)[:, None])
            h = np.zeros((1, 0), dtype=complex)
            invariant = False
        m = max(min(_KRYLOV_STEP, n), h.shape[1])
        mu = 1j * omegas - s0
        step = max(1, _CHUNK_ELEMENTS // n)
        blocks = [slice(k0, k0 + step) for k0 in range(0, omegas.size, step)]
        while True:
            if m > h.shape[1] and not invariant:
                if lu is None:
                    lu = lio.shifted_lu(s0)
                q, h, invariant = _extend_arnoldi(lu, q, h, m)
            m = min(m, h.shape[1])
            y = np.concatenate([_hessenberg_solve(h[:m, :m], mu[k], beta)
                                for k in blocks], axis=1)
            with np.errstate(invalid="ignore"):
                if invariant or m == n or (
                        h[m, m - 1].real * np.max(np.abs(mu * y[m - 1]))
                        * np.linalg.norm(s0 * q[:, m] - lio.matrix @ q[:, m])
                        <= _RESIDUAL_TOL * 1e-4 * bnorm):
                    break
            m = min(m + _KRYLOV_STEP, n)
        self._projection = (s0, mode, beta, q, h, invariant)
        basis = q[:, :m]
        l_basis, u_basis = lio.matrix @ basis, u @ basis
        r = None
        if omegas.size > _QR_POINTS_PER_DIM * m and 2 * m + 1 < n:
            r = np.linalg.qr(np.column_stack([basis, l_basis, b]), mode="r")
        out = np.empty(omegas.size, dtype=complex)
        worst = 0.0
        for k in blocks:
            residual = _residual_norms(basis, l_basis, b, r, omegas[k],
                                       y[:, k]) / bnorm
            bad = ~(residual <= _RESIDUAL_TOL)
            if bad.any():
                raise SingularResolvent(float(omegas[k][np.argmax(bad)]))
            worst = max(worst, float(residual.max()))
            out[k] = u_basis @ y[:, k]
        return out, m, worst


def spectrum_resolvent(lio: Superoperator, a_op: LabeledOperator,
                       rho_ss: DensityMatrix, omega_grid: Sequence[float],
                       mode: SpectrumMode = "incoherent",
                       frame_offset: float = 0.0) -> Spectrum:
    """Spectrum via resolvent solves: SectorProblem.spectrum of a fresh
    problem, so equal inputs always take equal work and give equal values.
    """
    return SectorProblem(lio, a_op, rho_ss).spectrum(omega_grid, mode,
                                                     frame_offset)


def spectrum_fft_crosscheck(lio: Superoperator, a_op: LabeledOperator,
                            rho_ss: DensityMatrix, tmax: float, dt: float,
                            mode: SpectrumMode = "incoherent",
                            frame_offset: float = 0.0) -> Spectrum:
    """Spectrum from the propagated two-time correlation, on the FFT grid
    w_k = k pi / tmax (absolute frame frequencies; the returned grid is
    relative to frame_offset).

    The correlation is evaluated on a uniform tau grid with the exact
    exponential propagator and extended to negative tau by stationarity,
    g(-tau) = conj(g(tau)). One FFT of the two-sided signal over the period
    2 tmax is the trapezoidal rule for (1/2pi) Int e^{-i w tau} g(tau) dtau
    on [-tmax, tmax]: at w_k the end samples tau = +tmax and -tmax carry the
    same phase, so their half weights share the middle sample,
    (g(tmax) + g(-tmax)) / 2 = Re g(tmax).

    Raises WindowTooShort when |g(tmax)| > 1e-3 |g(0)|: a truncated
    correlation aliases into spectral ringing.
    """
    if tmax <= 0.0 or dt <= 0.0 or dt >= tmax:
        raise ValueError("need 0 < dt < tmax")
    num = int(round(tmax / dt)) + 1
    taus = np.linspace(0.0, tmax, num)
    g = two_time_correlation(lio, a_op, rho_ss, taus, mode)
    g0 = abs(g[0])
    if g0 > 0.0 and abs(g[-1]) > 1e-3 * g0:
        raise WindowTooShort(
            f"|g(tmax)|/|g(0)| = {abs(g[-1]) / g0:.3e} exceeds 0.001"
        )
    step = taus[1] - taus[0]
    meta = dict(mode=mode, method="time-domain", tmax=tmax, dt=step,
                frame_offset=frame_offset)
    # Two-sided signal in wrap-around order: g(0) ... g(tmax - dt), the
    # shared end sample, then g(-tmax + dt) ... g(-dt).
    y = np.concatenate([g[:-1], [g[-1].real], np.conj(g[-2:0:-1])])
    s_fft = np.fft.fft(y) * step / (2.0 * np.pi)
    freqs = np.fft.fftfreq(y.size, d=step) * 2.0 * np.pi
    order = np.argsort(freqs)
    return Spectrum(freqs[order] - frame_offset, np.real(s_fft[order]),
                    frame_offset, meta)


def sector_problem(p: ModelParams, rates: DecoherenceRates, m_s: int,
                   pcq_relaxation: str = "lowering") -> SectorProblem:
    """The problem of the spin frozen in sector m_s (spin decay channels do
    not act): cavity+qubit Liouvillian, annihilation operator and steady
    state."""
    layout = cavity_qubit_layout(p.N_fock)
    h = sector_interaction_hamiltonian(p, layout, m_s)
    c_ops = sector_collapse_operators(rates, layout, pcq_relaxation)
    lio = build_liouvillian(h, c_ops)
    a_op = LabeledOperator(cavity_qubit_operators(layout).a, layout)
    return SectorProblem(lio, a_op, steady_state(lio))


def nv_sector_spectrum(p: ModelParams, rates: DecoherenceRates,
                       weights: Sequence[float],
                       omega_grid: Sequence[float],
                       frame_offset: float = 0.0,
                       mode: SpectrumMode = "incoherent",
                       pcq_relaxation: str = "lowering",
                       problems: dict | None = None) -> Spectrum:
    """Weighted sum of frozen-spin sector spectra.

    Each m_s sector is a cavity+qubit problem whose qubit detuning is
    shifted by eta*m_s through the sigma_z S_z coupling; the spin's own
    collapse channels are disabled (the sector populations are the weights,
    held fixed). This is the shipped default for reproducing the
    spin-induced multiplet: the printed raising relaxation channel would
    instead pin the spin in m_s = +1 and produce a single shifted line
    (available via full_liouvillian_spectrum). The metadata records, per
    sector used, its weight, photon number, cavity Fock populations, and
    the resolvent route, Krylov dimension and worst relative residual.

    `problems` is a dict the caller owns: a SectorProblem stored there
    under (p, rates, m_s, pcq_relaxation) is reused, and each one built is
    added, so a caller that evaluates the same model on two grids builds
    every sector problem once. Each problem keeps the Krylov projection of
    its last spectrum (SectorProblem._krylov_values), so a second grid over
    the same window in the same mode continues that projection instead of
    factoring L again.
    """
    w = validate_weights(weights)
    grid = np.asarray(omega_grid, dtype=float)
    total = np.zeros(grid.size)
    sector_meta = {}
    problems = {} if problems is None else problems
    for m_s, weight in zip((1, 0, -1), w):
        if weight == 0.0:
            continue
        key = (p, rates, m_s, pcq_relaxation)
        if key not in problems:
            problems[key] = sector_problem(p, rates, m_s, pcq_relaxation)
        problem = problems[key]
        s = problem.spectrum(grid, mode, frame_offset)
        total += weight * s.values
        a_op, rho_ss = problem.a_op, problem.rho_ss
        cavity = partial_trace(rho_ss.matrix, rho_ss.layout, ("cavity",))
        sector_meta[m_s] = {"weight": float(weight),
                            "photon_number": float(np.real(
                                rho_ss.expect(a_op.dag() @ a_op))),
                            "cavity_populations": np.real(np.diag(cavity)),
                            "route": s.metadata["route"],
                            "krylov_dim": s.metadata["krylov_dim"],
                            "max_relative_residual":
                                s.metadata["max_relative_residual"]}
    meta = dict(mode=mode, method="sector-resolvent", weights=tuple(map(float, w)),
                sectors=sector_meta, eta=p.eta, g=p.g)
    return Spectrum(grid, total, frame_offset, meta)


def full_liouvillian_spectrum(p: ModelParams, rates: DecoherenceRates,
                              omega_grid: Sequence[float],
                              frame_offset: float = 0.0,
                              mode: SpectrumMode = "incoherent",
                              nv_relaxation: str = "as_printed",
                              pcq_relaxation: str = "lowering",
                              problems: dict | None = None) -> Spectrum:
    """Spectrum of the full cavity (x) qubit (x) spin model, all five
    collapse channels active, evaluated exactly as its pinned spin sector.

    Every channel of the full model keeps Delta m = m_s - m_s' (sigma_z S_z,
    the spin relaxation S_+ or S_-, S_z dephasing), so L is block diagonal
    in Delta m (Buca & Prosen, New J. Phys. 14, 073007 (2012); Albert &
    Jiang, Phys. Rev. A 89, 022118 (2014)). Within the Delta m = 0 block
    the dephasing vanishes and the relaxation only feeds a sector into its
    neighbour, so the unique steady state sits in the sector the relaxation
    pins: m_s = +1 for "as_printed" (S_+), m_s = -1 for "lowering" (S_-).
    That sector is closed under L, and it holds A rho_ss with A acting on
    the cavity alone, so the resolvent never leaves it: the spectrum is the
    pinned sector's spectrum, which nv_sector_spectrum computes on the
    (2N)^2 cavity+qubit space instead of the 9 (2N)^2 full one.

    Without spin relaxation (gamma_nv = 0) every sector is stationary and
    DegenerateSteadyState(3) is raised. `problems`, a dict of
    SectorProblems, is passed on to nv_sector_spectrum; the returned
    metadata is that spectrum's plus nv_relaxation.
    """
    check_convention("nv_relaxation", nv_relaxation, NVRelaxation)
    if rates.gamma_nv == 0.0:
        raise DegenerateSteadyState(3)
    pinned = (1.0, 0.0, 0.0) if nv_relaxation == "as_printed" else (0.0, 0.0, 1.0)
    s = nv_sector_spectrum(p, rates, pinned, omega_grid, frame_offset, mode,
                           pcq_relaxation, problems)
    s.metadata["nv_relaxation"] = nv_relaxation
    return s


def _refine_peak_position(grid: np.ndarray, vals: np.ndarray, idx: int) -> float:
    """Sub-grid peak position from a quadratic through the top three samples."""
    if idx == 0 or idx == grid.size - 1:
        return float(grid[idx])
    y0, y1, y2 = vals[idx - 1], vals[idx], vals[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0:
        return float(grid[idx])
    shift = 0.5 * (y0 - y2) / denom
    step = 0.5 * (grid[idx + 1] - grid[idx - 1])
    return float(grid[idx] + np.clip(shift, -1.0, 1.0) * step)


def _half_max_width(grid: np.ndarray, vals: np.ndarray, idx: int) -> float:
    """FWHM of the peak at sample idx by linear interpolation; clipped to
    the grid edges when the flanks do not come down to half height."""
    half = vals[idx] / 2.0
    left = grid[0]
    for j in range(idx, 0, -1):
        if vals[j - 1] <= half:
            frac = (vals[j] - half) / (vals[j] - vals[j - 1])
            left = grid[j] - frac * (grid[j] - grid[j - 1])
            break
    right = grid[-1]
    for j in range(idx, grid.size - 1):
        if vals[j + 1] <= half:
            frac = (vals[j] - half) / (vals[j] - vals[j + 1])
            right = grid[j] + frac * (grid[j + 1] - grid[j])
            break
    return float(right - left)


def _find_peaks(x: np.ndarray, height: float, prominence: float) -> np.ndarray:
    """Indices of the peaks of x at least `height` high and `prominence`
    prominent: the selection of scipy.signal.find_peaks(x, height=height,
    prominence=prominence).

    A peak is a sample strictly above both neighbours, or the midpoint
    (rounded down) of such a flat run; the end samples are never peaks. Its
    prominence is its height above the higher of the two minima between it
    and the nearest higher sample on each side (a NaN counts as higher) or
    the end of x: scipy's unbounded window, wlen=None.
    """
    x = np.asarray(x, dtype=float)
    start = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])   # runs of equal x
    end = np.r_[start[1:], x.size] - 1
    inner = (start > 0) & (end < x.size - 1)
    start, end = start[inner], end[inner]
    top = (x[start - 1] < x[start]) & (x[end + 1] < x[start])
    peaks = (start[top] + end[top]) // 2
    peaks = peaks[x[peaks] >= height]
    keep = np.zeros(peaks.size, dtype=bool)
    for k, p in enumerate(peaks):
        walls = np.flatnonzero(~(x <= x[p]))
        j = np.searchsorted(walls, p)
        lo = walls[j - 1] + 1 if j > 0 else 0
        hi = walls[j] if j < walls.size else x.size
        keep[k] = x[p] - max(x[lo:p + 1].min(), x[p:hi].min()) >= prominence
    return peaks[keep]


def find_spectral_peaks(s: Spectrum, dip_fraction: float = 0.1) -> PeakReport:
    """Locate peaks and decide whether the multiplet is resolved.

    A pair of adjacent peaks is resolved when the valley between them drops
    by at least dip_fraction of the lower peak. Candidate maxima below 1e-9
    of the global maximum, or with prominence below 1e-6 of it, are treated
    as noise. GridTooCoarse is
    raised when a reported peak's half-maximum width spans fewer than four
    grid steps, since its position cannot be trusted at that sampling.
    """
    if not 0.0 < dip_fraction < 1.0:
        raise ValueError("dip_fraction must lie in (0, 1)")
    grid = s.omega_grid
    vals = s.values
    vmax = float(vals.max(initial=0.0))
    if vmax <= 0.0:
        return PeakReport(peaks=(), resolved=False, dip_depth=0.0)
    idx = _find_peaks(vals, 1e-9 * vmax, 1e-6 * vmax)
    step = float(np.max(np.diff(grid))) if idx.size else 0.0
    peaks = []
    for i in idx:
        width = _half_max_width(grid, vals, int(i))
        if width < 4.0 * step:
            raise GridTooCoarse(
                f"peak at {grid[i]:.6g} rad/s has FWHM {width:.3g} "
                f"< 4 grid steps ({4 * step:.3g})"
            )
        peaks.append((_refine_peak_position(grid, vals, int(i)),
                      float(vals[i]), width))

    dip_depth = 0.0
    resolved = False
    for (x1, h1, _), (x2, h2, _), (i1, i2) in zip(peaks, peaks[1:],
                                                  zip(idx, idx[1:])):
        valley = float(vals[i1:i2 + 1].min())
        lower = min(h1, h2)
        depth = (lower - valley) / lower if lower > 0 else 0.0
        dip_depth = max(dip_depth, depth)
        if depth >= dip_fraction:
            resolved = True
    return PeakReport(peaks=tuple(peaks), resolved=resolved,
                      dip_depth=dip_depth)
