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

and direct quadrature/FFT of the propagated correlation. They must agree;
the tests enforce it.

The resolvent has three routes. Up to DENSE_SOLVE_CAP, an L evaluated on
_SCHUR_MIN_FREQS or more frequencies is densified and factorized once,
L = Z T Z^dag with T upper triangular, and each frequency costs two
triangular back-substitutions: the solve and one step of iterative
refinement against the residual of the sparse L. The factorization is
taken in a Hermitian operator basis U (liouvillian.hermitian_basis): a
Lindblad generator maps Hermitian matrices to Hermitian matrices, so
U^dag L U is real, and its real Schur form, turned complex triangular,
gives T and Z = U Z_c in about half the time of a complex Schur form of L
(Golub & Van Loan, Matrix Computations, 4th ed., sec. 7.4.1). The
refinement is required: the spectrum can
be a cancellation far below ||u|| ||b|| / kappa, which the unrefined Schur
solve misses by ~1e-7 of the peak. Shorter grids, such as the truncation
probes, take one banded LU solve per frequency on the sparse L, whose
bandwidth in column stacking is 3 D for a cavity+qubit sector of dimension
D: O(D^4) per frequency instead of the dense LU's O(D^6), and no Schur
form to pay for. Above DENSE_SOLVE_CAP each frequency takes a sparse LU.
The carrier (omega = 0 in the drive frame), where (i omega I - L) is
singular through the steady-state kernel, is solved on every route through
the steady state's trace-bordered system (liouvillian._bordered_solve).

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
from typing import Literal, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs, rsf2csf, schur

from .errors import (
    DegenerateSteadyState,
    GridTooCoarse,
    LayoutMismatch,
    SingularResolvent,
    WeightsInvalid,
    WindowTooShort,
)
from .liouvillian import (
    DENSE_SOLVE_CAP,
    Superoperator,
    _bordered_solve,
    build_liouvillian,
    expm_action_grid,
    hermitian_basis,
    steady_state,
    trace_row,
    vectorize,
)
from .model import (
    DecoherenceRates,
    ModelParams,
    sector_collapse_operators,
    sector_interaction_hamiltonian,
)
from .operators import (
    DensityMatrix,
    LabeledOperator,
    cavity_qubit_layout,
    embed,
    fock_annihilation_matrix,
    partial_trace,
)

logger = logging.getLogger(__name__)

SpectrumMode = Literal["full", "incoherent"]

# A dense-size L is factorized once into Schur form for at least this many
# frequencies. Measured against the banded LU with one BLAS thread, as scans
# run (strong-drive sectors, 2-core Xeon VM, best of 7, two rounds whose
# host speed differed by ~30%), with the real Schur form: on 201
# frequencies Schur takes 10-12 against 21-27 ms at dimension 64, 31-43
# against 69-94 ms at 144, 81-102 against 136-252 ms at 256, 144-190
# against 468-570 ms at 400 and 329-418 against 596-774 ms at 576; on 33
# frequencies banded wins at every size (4-5 against 7-8 ms at 64, 99-125
# against 261-373 ms at 576). Fitting a fixed cost plus a cost per
# frequency to each route puts the crossover at 52-102 frequencies over
# dimensions 64-576. The truncation probes have 33 points and no preset or
# perfbench workload has a final grid below 201.
_SCHUR_MIN_FREQS = 64
# Largest accepted ||(i w I - L) x - b|| / ||b|| of any resolvent solve.
_RESIDUAL_TOL = 1e-8
# Complex values per block of solution vectors on the Schur route. The route
# holds a few such blocks at once, so the width trades peak memory against
# the Python loop over the rows of T, which runs once per block. 2**15
# against 2**13 (2-core Xeon VM, benchmark medians): peak RSS +0.5 MB on
# sectors_rloop, +1.7 MB on full_tau and +2.1 MB on strong_drive (<= 2.6%).
_CHUNK_ELEMENTS = 2**15
# Columns of Z_c taken to the standard basis per sparse product.
_BASIS_COLUMNS = 64


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

    def log10_values(self, floor_exponent: float = -30.0) -> np.ndarray:
        return np.log10(np.maximum(self.values, 10.0**floor_exponent))


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
    if mode not in ("full", "incoherent"):
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
    if taus[0] != 0.0 or np.any(np.diff(taus) <= 0):
        raise ValueError("taus must start at 0 and increase")
    steps = np.diff(taus)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        raise ValueError("taus must be uniform")
    a_fl = _fluctuation_operator(a_op, rho, mode)
    b = vectorize(a_fl @ rho.matrix)
    u = vectorize(a_fl).conj()
    states = expm_action_grid(lio, b, float(taus[-1]), taus.size)
    return states @ u


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
        x = _bordered_solve(lio, 0, rhs)
    except RuntimeError:
        raise SingularResolvent(0.0) from None
    residual = float(np.linalg.norm(lio.matrix @ x + b)) / bnorm
    if not residual <= _RESIDUAL_TOL:
        raise SingularResolvent(0.0)
    return x, residual


def _shifted_triangular_solve(t: np.ndarray, rhs: np.ndarray,
                              iw: np.ndarray) -> np.ndarray:
    """Solve (iw_k I - T) y_k = rhs_k by back-substitution for every k.

    T is upper triangular; rhs is one vector shared by every column or a
    matrix with one column per shift. Returns the columns y_k side by side.
    """
    n = t.shape[0]
    y = np.empty((n, iw.size), dtype=complex)
    for i in range(n - 1, -1, -1):
        y[i] = (rhs[i] + t[i, i + 1:] @ y[i + 1:]) / (iw - t[i, i])
    return y


def _schur_values(lio: Superoperator, u: np.ndarray, b: np.ndarray,
                  omegas: np.ndarray) -> tuple[np.ndarray, float]:
    """u^dag (i w I - L)^{-1} b from one Schur form L = Z T Z^dag, and the
    worst residual relative to ||b||.

    L is factored in the Hermitian operator basis U of hermitian_basis,
    where L_r = U^dag L U is real: a real Schur form of L_r, turned complex
    triangular (rsf2csf), gives T and Z = U Z_c. Per frequency: a
    back-substitution with T, then one refinement step against the
    residual of the sparse L.
    """
    basis = hermitian_basis(lio.dim)
    l_r = (basis.conj().T.tocsc() @ lio.matrix @ basis).real.toarray(order="F")
    t, z = rsf2csf(*schur(l_r, output="real", overwrite_a=True),
                   check_finite=False)
    del l_r
    # z = U Z_c in place, a few columns at a time: no second dense copy.
    for j in range(0, z.shape[1], _BASIS_COLUMNS):
        z[:, j:j + _BASIS_COLUMNS] = basis @ z[:, j:j + _BASIS_COLUMNS]
    t = np.ascontiguousarray(t)
    zh = z.conj().T
    c = zh @ b
    bcol = b[:, None]
    bnorm = float(np.linalg.norm(b))
    out = np.empty(omegas.size, dtype=complex)
    worst = 0.0
    step = max(1, _CHUNK_ELEMENTS // b.size)
    for k0 in range(0, omegas.size, step):
        w = omegas[k0:k0 + step]
        iw = 1j * w
        # A pole on the grid gives inf/nan here; the residual check names it.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = z @ _shifted_triangular_solve(t, c, iw)
            r = bcol - (x * iw - lio.matrix @ x)
            x += z @ _shifted_triangular_solve(t, zh @ r, iw)
            residual = np.linalg.norm(x * iw - lio.matrix @ x - bcol,
                                      axis=0) / bnorm
        bad = ~(residual <= _RESIDUAL_TOL)
        if bad.any():
            raise SingularResolvent(float(w[np.argmax(bad)]))
        worst = max(worst, float(residual.max()))
        out[k0:k0 + step] = u @ x
    return out, worst


def _band_storage(lio: Superoperator) -> tuple[np.ndarray, int, int]:
    """-L in LAPACK general band storage, with kl and ku read off the
    nonzeros: -L[i, j] sits in row kl + ku + i - j of column j, and the top
    kl rows are left free for the fill-in of the pivoted LU (gbsv)."""
    m = lio.matrix.tocoo()
    m.sum_duplicates()
    offsets = m.row - m.col
    kl = int(offsets.max(initial=0))
    ku = int(-offsets.min(initial=0))
    band = np.zeros((2 * kl + ku + 1, m.shape[1]), dtype=complex, order="F")
    band[kl + ku + offsets, m.col] = -m.data
    return band, kl, ku


def _direct_values(lio: Superoperator, u: np.ndarray, b: np.ndarray,
                   omegas: np.ndarray, route: str) -> tuple[np.ndarray, float]:
    """u^dag (i w I - L)^{-1} b by one LU solve per frequency, and the
    worst residual relative to ||b||.

    Route "banded" solves with LAPACK's pivoted band LU, gbsv (Anderson et
    al., LAPACK Users' Guide, 3rd ed., SIAM 1999, sec. 2.4.2). A
    cavity+qubit sector of dimension D has kl = ku = 3 D in column
    stacking, so a solve costs O(D^2 kl^2) = O(D^4) against a dense LU's
    O(D^6). Route "sparse" takes a sparse LU. Either way the solution is
    checked against the residual of the sparse L.
    """
    if route == "banded":
        band, kl, ku = _band_storage(lio)
        gbsv, = get_lapack_funcs(("gbsv",), (band,))

        def solve(w: float) -> np.ndarray | None:
            ab = band.copy(order="F")
            ab[kl + ku] += 1j * w
            _, _, x, info = gbsv(kl, ku, ab, b, overwrite_ab=True)
            return x if info == 0 else None
    else:
        eye = sp.identity(b.size, dtype=complex, format="csc")

        def solve(w: float) -> np.ndarray | None:
            try:
                return spla.splu(((1j * w) * eye - lio.matrix).tocsc()).solve(b)
            except RuntimeError:
                return None

    bnorm = float(np.linalg.norm(b))
    out = np.empty(omegas.size, dtype=complex)
    worst = 0.0
    for k, w in enumerate(omegas):
        x = solve(w)
        if x is None:
            raise SingularResolvent(float(w))
        residual = float(np.linalg.norm(1j * w * x - lio.matrix @ x - b)) / bnorm
        if not residual <= _RESIDUAL_TOL:
            raise SingularResolvent(float(w))
        worst = max(worst, residual)
        out[k] = u @ x
    return out, worst


def _resolvent_values(lio: Superoperator, u: np.ndarray, b: np.ndarray,
                      omegas: np.ndarray) -> tuple[np.ndarray, str, float]:
    """vec-form values u^dag (i w I - L)^{-1} b for each w, the route taken
    ("schur", "banded" or "sparse") and the worst residual relative to ||b||.

    The carrier (w = 0) takes the deflated bordered solve, the other
    frequencies the route chosen from the size of L and the grid length
    (module docstring); only the Schur route densifies L. Every solve is
    residual-checked: numerically singular frequencies (undamped poles, or
    the coherent delta peak at the carrier) raise SingularResolvent rather
    than returning garbage.
    """
    carrier = np.abs(omegas) < 1e-12 * lio.norm_scale()
    rest = ~carrier
    if lio.matrix.shape[0] > DENSE_SOLVE_CAP:
        route = "sparse"
    elif np.count_nonzero(rest) >= _SCHUR_MIN_FREQS:
        route = "schur"
    else:
        route = "banded"
    out = np.zeros(omegas.size, dtype=complex)
    if not np.any(b):
        return out, route, 0.0
    op_scale = float(np.linalg.norm(u))
    worst = 0.0
    for k in np.flatnonzero(carrier):
        x, residual = _carrier_solve(lio, b, op_scale)
        out[k] = u @ x
        worst = max(worst, residual)
    if route == "schur":
        out[rest], residual = _schur_values(lio, u, b, omegas[rest])
    else:
        out[rest], residual = _direct_values(lio, u, b, omegas[rest], route)
    return out, route, max(worst, residual)


def spectrum_resolvent(lio: Superoperator, a_op: LabeledOperator,
                       rho_ss: DensityMatrix, omega_grid: Sequence[float],
                       mode: SpectrumMode = "incoherent",
                       frame_offset: float = 0.0) -> Spectrum:
    """Spectrum via resolvent solves.

    omega_grid is relative to frame_offset; the resolvent is evaluated at
    the absolute frame frequency. A dense-size Liouvillian on a grid of at
    least _SCHUR_MIN_FREQS frequencies is factorized once into Schur form,
    with one refinement step per frequency; shorter grids take one banded
    LU solve per frequency, and an L above DENSE_SOLVE_CAP one sparse LU
    solve per frequency. Every solve is residual-checked; the metadata
    records the route ("schur", "banded" or "sparse") and the worst
    residual relative to ||b|| as max_relative_residual. In full mode the
    coherent component makes (i w - L) singular at the drive carrier
    (w_abs = 0); that frequency is reported via SingularResolvent, never
    interpolated over.
    """
    if a_op.layout != rho_ss.layout or a_op.layout != lio.layout:
        raise LayoutMismatch("operator, state and Liouvillian layouts differ")
    grid = np.asarray(omega_grid, dtype=float)
    a_fl = _fluctuation_operator(a_op, rho_ss, mode)
    b = vectorize(a_fl @ rho_ss.matrix)
    u = vectorize(a_fl).conj()
    raw, route, residual = _resolvent_values(lio, u, b, grid + frame_offset)
    values = np.real(raw) / np.pi
    meta = dict(mode=mode, method="resolvent", frame_offset=frame_offset,
                route=route, max_relative_residual=residual)
    return Spectrum(grid, values, frame_offset, meta)


def _simpson_weights(n: int) -> np.ndarray:
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of points >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def spectrum_fft_crosscheck(lio: Superoperator, a_op: LabeledOperator,
                            rho_ss: DensityMatrix, tmax: float, dt: float,
                            mode: SpectrumMode = "incoherent",
                            omega_grid: Sequence[float] | None = None,
                            frame_offset: float = 0.0) -> Spectrum:
    """Spectrum from the propagated two-time correlation.

    The correlation is evaluated on a uniform tau grid with the exact
    exponential propagator, symmetrized by stationarity and transformed:
    on an explicit omega_grid via Simpson quadrature of the one-sided
    integral (usable for point-by-point comparison against the resolvent
    route), otherwise on the natural two-sided FFT grid.

    Raises WindowTooShort when |g(tmax)| > 1e-3 |g(0)|: a truncated
    correlation aliases into spectral ringing.
    """
    if tmax <= 0.0 or dt <= 0.0 or dt >= tmax:
        raise ValueError("need 0 < dt < tmax")
    num = int(round(tmax / dt)) + 1
    if num % 2 == 0:
        num += 1
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

    if omega_grid is not None:
        grid = np.asarray(omega_grid, dtype=float)
        wg = _simpson_weights(num) * step * g
        omegas = grid + frame_offset
        values = np.empty(grid.size)
        chunk = max(1, int(2**22 // num))
        for k0 in range(0, omegas.size, chunk):
            block = omegas[k0:k0 + chunk]
            phases = np.exp(-1j * np.outer(block, taus))
            values[k0:k0 + chunk] = np.real(phases @ wg) / np.pi
        return Spectrum(grid, values, frame_offset, meta)

    # FFT route: two-sided signal g(-tau) = conj(g(tau)) in wrap-around order.
    m = 2 * num - 1
    y = np.zeros(m, dtype=complex)
    y[:num] = g
    y[num:] = np.conj(g[1:][::-1])
    s_fft = np.fft.fft(y) * step / (2.0 * np.pi)
    freqs = np.fft.fftfreq(m, d=step) * 2.0 * np.pi
    order = np.argsort(freqs)
    return Spectrum(freqs[order] - frame_offset, np.real(s_fft[order]),
                    frame_offset, meta)


def validate_weights(weights: Sequence[float]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (3,):
        raise WeightsInvalid("need exactly three sector weights (+1, 0, -1)")
    if np.any(w < 0.0):
        raise WeightsInvalid("sector weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise WeightsInvalid(f"sector weights sum to {w.sum()!r}, not 1")
    return w


def sector_problem(p: ModelParams, rates: DecoherenceRates, m_s: int,
                   pcq_relaxation: str = "lowering"
                   ) -> tuple[Superoperator, LabeledOperator, DensityMatrix]:
    """Cavity+qubit Liouvillian, annihilation operator and steady state for
    the spin frozen in sector m_s (spin decay channels do not act)."""
    layout = cavity_qubit_layout(p.N_fock)
    h = sector_interaction_hamiltonian(p, layout, m_s)
    c_ops = sector_collapse_operators(rates, layout, pcq_relaxation)
    lio = build_liouvillian(h, c_ops)
    a_op = embed(fock_annihilation_matrix(p.N_fock), "cavity", layout)
    return lio, a_op, steady_state(lio)


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
    the resolvent route and worst relative residual.

    `problems` is a dict the caller owns: a sector problem stored there
    under (p, rates, m_s, pcq_relaxation) is reused, and each one built is
    added, so a caller that evaluates the same model on two grids builds
    every sector problem once.
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
        lio, a_op, rho_ss = problems[key]
        s = spectrum_resolvent(lio, a_op, rho_ss, grid, mode, frame_offset)
        total += weight * s.values
        cavity = partial_trace(rho_ss.matrix, rho_ss.layout, ("cavity",))
        sector_meta[m_s] = {"weight": float(weight),
                            "photon_number": float(np.real(
                                rho_ss.expect(a_op.dag() @ a_op))),
                            "cavity_populations": np.real(np.diag(cavity)),
                            "route": s.metadata["route"],
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
    DegenerateSteadyState(3) is raised. `problems` is passed on to
    nv_sector_spectrum; the returned metadata is that spectrum's plus
    nv_relaxation.
    """
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
    step = float(np.max(np.diff(grid)))
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
