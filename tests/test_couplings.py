import math

import numpy as np
import pytest

from spinbus.couplings import (
    LoopParams,
    NVParams,
    ResonatorParams,
    coupling_map,
    cpw_field_at,
    d_rule_loop_radius,
    direct_nv_cpw_coupling,
    loop_center_field,
    nv_pcq_coupling,
    pcq_cpw_coupling,
    pcq_frequency,
    rms_vacuum_current,
    static_bias_field,
)
from spinbus.errors import EmptyGrid, NonpositiveDistance, UnphysicalT2
from spinbus.units import CONSTANTS, TWO_PI

RES = ResonatorParams(omega_r=TWO_PI * 6e9, L_r=2e-9, kappa=TWO_PI * 26e3)
NV = NVParams()
DELTA = TWO_PI * 5.2e9


def loop(r_um, ip_na, n=1):
    return LoopParams(r_loop=r_um * 1e-6, I_p=ip_na * 1e-9, Delta=DELTA,
                      n_turns=n)


# ---------------------------------------------------------------- rms current

def test_rms_vacuum_current_value():
    # frozen from sqrt(hbar*omega_r/2L_r) at 6 GHz, 2 nH
    assert rms_vacuum_current(RES) == pytest.approx(3.15263465e-8, rel=1e-8)


def test_rms_current_sqrt_scaling():
    quad = ResonatorParams(omega_r=RES.omega_r, L_r=4 * RES.L_r,
                           kappa=RES.kappa)
    assert rms_vacuum_current(quad) == pytest.approx(
        rms_vacuum_current(RES) / 2, rel=1e-14)


def test_rms_current_zero_frequency_limit():
    tiny = ResonatorParams(omega_r=1e-30, L_r=2e-9, kappa=1e-31)
    assert rms_vacuum_current(tiny) < 1e-25


# ---------------------------------------------------------------- cpw field

def test_cpw_field_at_50nm_reference_value():
    # ~2.5 milligauss at 50 nm
    b = cpw_field_at(RES, 50e-9)
    assert b == pytest.approx(2.5e-7, rel=0.05)


def test_cpw_field_inverse_distance():
    assert cpw_field_at(RES, 100e-9) == pytest.approx(
        cpw_field_at(RES, 50e-9) / 2, rel=1e-14)


def test_cpw_field_at_5um_from_scaling():
    # 1/d law from the 50 nm value
    assert cpw_field_at(RES, 5e-6) == pytest.approx(
        cpw_field_at(RES, 50e-9) * (50e-9 / 5e-6), rel=1e-12)


def test_nonpositive_distance_rejected():
    with pytest.raises(NonpositiveDistance):
        cpw_field_at(RES, 0.0)
    with pytest.raises(NonpositiveDistance):
        pcq_cpw_coupling(RES, loop(0.4, 600), -1e-9)


# ---------------------------------------------------------------- direct NV

def test_direct_coupling_reference_values():
    assert direct_nv_cpw_coupling(RES, NV, 50e-9) == pytest.approx(7e3, rel=0.10)
    assert direct_nv_cpw_coupling(RES, NV, 5e-6) == pytest.approx(70.0, rel=0.10)


def test_direct_coupling_zero_slope():
    flat = NVParams(slope=1e-30)
    assert direct_nv_cpw_coupling(RES, flat, 50e-9) < 1e-10


# ---------------------------------------------------------------- loop-CPW

def test_pcq_coupling_design_values():
    assert pcq_cpw_coupling(RES, loop(0.8, 600), 0.8e-6) == pytest.approx(
        28.7e6, rel=0.02)
    assert pcq_cpw_coupling(RES, loop(0.4, 600), 0.4e-6) == pytest.approx(
        14e6, rel=0.05)


def test_pcq_coupling_scaling_laws():
    base = pcq_cpw_coupling(RES, loop(0.4, 600), 0.4e-6)
    assert pcq_cpw_coupling(RES, loop(0.4, 1200), 0.4e-6) == pytest.approx(
        2 * base, rel=1e-12)
    assert pcq_cpw_coupling(RES, loop(0.8, 600), 0.4e-6) == pytest.approx(
        4 * base, rel=1e-12)
    assert pcq_cpw_coupling(RES, loop(0.4, 600), 0.8e-6) == pytest.approx(
        base / 2, rel=1e-12)


def test_pcq_coupling_turns_exact_doubling():
    base = pcq_cpw_coupling(RES, loop(0.4, 600), 0.4e-6)
    assert pcq_cpw_coupling(RES, loop(0.4, 600, n=2), 0.4e-6) == 2 * base


# ---------------------------------------------------------------- loop field

def test_loop_center_field_values():
    assert loop_center_field(loop(0.4, 0)) == 0.0
    # mu0 I / 2r frozen value
    assert loop_center_field(loop(0.4, 600)) == pytest.approx(
        9.42477797e-7, rel=1e-8)
    assert loop_center_field(loop(0.4, 600, n=3)) == pytest.approx(
        3 * 9.42477797e-7, rel=1e-8)


def test_loop_center_field_dipole_form_equivalent():
    # 2*mu0*A*I/(4pi r^3) with A = pi r^2 equals mu0 I/(2r)
    lp = loop(0.27, 731)
    dipole = 2 * CONSTANTS.mu0 * lp.area * lp.I_p / (4 * math.pi * lp.r_loop**3)
    assert loop_center_field(lp) == pytest.approx(dipole, rel=1e-14)


# ---------------------------------------------------------------- eta

def test_nv_pcq_coupling_design_value():
    # nominal 60 kHz at the (0.4 um, 600 nA) design point, rounded to one
    # significant figure; exact arithmetic gives 52.8 kHz
    eta = nv_pcq_coupling(loop(0.4, 600), NV)
    assert eta == pytest.approx(60e3, rel=0.20)
    assert eta == pytest.approx(52.779e3, rel=1e-4)


def test_nv_pcq_coupling_scalings():
    assert nv_pcq_coupling(loop(0.4, 0), NV) == 0.0
    assert nv_pcq_coupling(loop(0.2, 600), NV) == pytest.approx(
        2 * nv_pcq_coupling(loop(0.4, 600), NV), rel=1e-12)


# ---------------------------------------------------------------- bias field

def test_static_bias_field_reference_value():
    lp = LoopParams(r_loop=math.sqrt(2e-12 / math.pi), I_p=600e-9, Delta=DELTA)
    assert lp.area == pytest.approx(2e-12, rel=1e-12)
    assert static_bias_field(lp) == pytest.approx(5.17e-4, rel=0.01)


def test_static_bias_field_area_scaling():
    lp1 = LoopParams(r_loop=math.sqrt(1e-12 / math.pi), I_p=0, Delta=DELTA)
    lp2 = LoopParams(r_loop=math.sqrt(2e-12 / math.pi), I_p=0, Delta=DELTA)
    assert static_bias_field(lp1) == pytest.approx(
        2 * static_bias_field(lp2), rel=1e-12)
    assert static_bias_field(lp1) == pytest.approx(10.34e-4, rel=0.01)


def test_static_bias_independent_of_turns():
    assert static_bias_field(loop(0.4, 600, n=3)) == static_bias_field(
        loop(0.4, 600))


# ---------------------------------------------------------------- pcq freq

def test_pcq_frequency_symmetry_point():
    lp = LoopParams(r_loop=0.4e-6, I_p=600e-9, Delta=DELTA)  # Phi_x = Phi0/2
    assert pcq_frequency(lp) == pytest.approx(DELTA, rel=1e-14)


def test_pcq_frequency_pythagorean():
    # choose Phi_x so that eps = Delta
    eps = DELTA
    phi_x = CONSTANTS.flux_quantum / 2 + eps * CONSTANTS.hbar / (2 * 600e-9)
    lp = LoopParams(r_loop=0.4e-6, I_p=600e-9, Delta=DELTA, Phi_x=phi_x)
    assert pcq_frequency(lp) == pytest.approx(math.sqrt(2) * DELTA, rel=1e-12)
    assert pcq_frequency(lp) >= lp.Delta


# ---------------------------------------------------------------- param guards

def test_param_invariants():
    with pytest.raises(ValueError):
        ResonatorParams(omega_r=-1.0, L_r=2e-9, kappa=1.0)
    with pytest.raises(ValueError):
        ResonatorParams(omega_r=TWO_PI * 6e9, L_r=2e-9, kappa=TWO_PI * 26e3,
                        Q=1e5)  # inconsistent with kappa
    ok = ResonatorParams(omega_r=TWO_PI * 6e9, L_r=2e-9,
                         kappa=TWO_PI * 6e9 / 2.3e5, Q=2.3e5)
    assert ok.Q == 2.3e5
    with pytest.raises(ValueError):
        LoopParams(r_loop=0.0, I_p=1e-9, Delta=DELTA)
    with pytest.raises(UnphysicalT2,
                       match=r"^UnphysicalT2: T2_pcq=3e-06 exceeds 2\*T1_pcq="):
        LoopParams(r_loop=1e-6, I_p=1e-9, Delta=DELTA, T1_pcq=1e-6,
                   T2_pcq=3e-6)  # T2 > 2 T1
    with pytest.raises(UnphysicalT2,
                       match=r"^UnphysicalT2: T2_nv=3e-06 exceeds 2\*T1_nv="):
        NVParams(T1_nv=1e-6, T2_nv=3e-6)


def test_loop_default_flux_bias_is_half_quantum():
    lp = loop(0.4, 600)
    assert lp.Phi_x == pytest.approx(CONSTANTS.flux_quantum / 2, rel=1e-15)
    assert lp.magnetic_moment == pytest.approx(
        lp.I_p * math.pi * lp.r_loop**2, rel=1e-15)


# ---------------------------------------------------------------- map

def test_coupling_map_single_point_matches_point_ops():
    rows = coupling_map(RES, NV, loop(0.4, 600), [0.4e-6], [600e-9])
    assert rows.shape == (1,)
    row = rows[0]
    assert row["g"] == pytest.approx(14e6, rel=0.05)
    assert row["eta"] == pytest.approx(52.8e3, rel=0.01)
    assert row["gbar"] == pytest.approx(0.88e3, rel=0.05)


def test_coupling_map_zero_current_columns():
    rows = coupling_map(RES, NV, loop(0.4, 600), [0.2e-6, 0.4e-6], [0.0])
    assert np.all(rows["g"] == 0.0)
    assert np.all(rows["eta"] == 0.0)
    assert np.all(rows["gbar"] > 0.0)


def test_coupling_map_matches_brute_force_grid():
    # Exact: the map and the scalar functions run the same float operations.
    # Thousands of radii: r*r and pow(r, 2) differ for about 1 in 1000.
    rng = np.random.default_rng(20260)
    r_grid = np.sort(rng.uniform(0.05e-6, 2e-6, 4000))
    i_grid = np.concatenate([[0.0], np.sort(rng.uniform(1e-9, 2e-6, 2))])
    fixed_d = 0.7e-6
    for d_rule in (d_rule_loop_radius, lambda r_loop: fixed_d):
        rows = coupling_map(RES, NV, loop(0.4, 600, n=3), r_grid, i_grid,
                            d_rule=d_rule)
        k = 0
        for r in r_grid:
            d = d_rule(r)
            for ip in i_grid:
                lp = LoopParams(r_loop=r, I_p=ip, Delta=TWO_PI * 5.2e9,
                                n_turns=3)
                assert rows[k]["r_loop"] == r and rows[k]["I_p"] == ip
                assert rows[k]["g"] == pcq_cpw_coupling(RES, lp, d)
                assert rows[k]["eta"] == nv_pcq_coupling(lp, NV)
                assert rows[k]["gbar"] == direct_nv_cpw_coupling(RES, NV, d)
                k += 1
        assert k == rows.size
        assert np.all(rows["g"][::i_grid.size] == 0.0)   # the I_p = 0 column


@pytest.mark.parametrize("r_grid, i_grid, d_rule, error", [
    # row by row, d is checked before the cells, so d <= 0 wins over a bad cell
    ([0.0, 0.2e-6], [600e-9], d_rule_loop_radius, NonpositiveDistance),
    ([-0.1e-6, 0.2e-6], [600e-9], d_rule_loop_radius, NonpositiveDistance),
    ([0.0, 0.2e-6], [600e-9], lambda r: 1e-6, ValueError),
    ([0.2e-6, 0.4e-6], [-1e-9, 600e-9], d_rule_loop_radius, ValueError),
    ([0.2e-6, 0.4e-6], [600e-9], lambda r: 0.0, NonpositiveDistance),
    ([0.2e-6], [-1e-9], lambda r: -1e-6, NonpositiveDistance),
], ids=["r_loop0", "r_loop_neg", "r_loop0_fixed_d", "I_p_neg", "d0",
        "d_neg_and_I_p_neg"])
def test_coupling_map_rejects_bad_cells(r_grid, i_grid, d_rule, error):
    with pytest.raises(ValueError) as info:
        coupling_map(RES, NV, loop(0.4, 600), r_grid, i_grid, d_rule=d_rule)
    assert type(info.value) is error


def test_coupling_map_rejects_empty_and_nonmonotone():
    with pytest.raises(EmptyGrid):
        coupling_map(RES, NV, loop(0.4, 600), [], [600e-9])
    with pytest.raises(ValueError):
        coupling_map(RES, NV, loop(0.4, 600), [0.4e-6, 0.2e-6], [600e-9])


# ------------------------------------------------------ cross-scaling laws

def test_g_eta_product_independent_of_radius_with_default_d_rule():
    # with d = r_loop: g ~ r, eta ~ 1/r, so g*eta is r-independent
    vals = []
    for r_um in (0.2, 0.4, 0.8):
        lp = loop(r_um, 600)
        d = d_rule_loop_radius(lp.r_loop)
        vals.append(pcq_cpw_coupling(RES, lp, d) * nv_pcq_coupling(lp, NV))
    assert np.ptp(vals) / vals[0] < 1e-12


def test_random_scaling_properties():
    rng = np.random.default_rng(42)
    for _ in range(50):
        r = float(rng.uniform(0.05, 2.0)) * 1e-6
        ip = float(rng.uniform(10, 2000)) * 1e-9
        d = float(rng.uniform(0.05, 5.0)) * 1e-6
        n = int(rng.integers(1, 5))
        lp = LoopParams(r_loop=r, I_p=ip, Delta=DELTA, n_turns=n)
        lp1 = LoopParams(r_loop=r, I_p=ip, Delta=DELTA, n_turns=1)
        g = pcq_cpw_coupling(RES, lp, d)
        assert g >= 0.0
        assert g == pytest.approx(n * pcq_cpw_coupling(RES, lp1, d), rel=1e-12)
        assert nv_pcq_coupling(lp, NV) == pytest.approx(
            n * nv_pcq_coupling(lp1, NV), rel=1e-12)
        # gbar has no loop dependence at all
        assert direct_nv_cpw_coupling(RES, NV, d) == pytest.approx(
            cpw_field_at(RES, d) * NV.slope, rel=1e-14)
