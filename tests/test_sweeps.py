import csv
import io
import multiprocessing
import pickle
from dataclasses import replace

import numpy as np
import pytest

import spinbus.liouvillian as liouvillian_module
import spinbus.spectrum as spectrum_module
import spinbus.sweeps as sweeps_module
from spinbus.cli import main, preset_path
from spinbus.config import load_config, load_config_text
from spinbus.couplings import (
    LoopParams,
    direct_nv_cpw_coupling,
    nv_pcq_coupling,
    pcq_cpw_coupling,
)
from spinbus.errors import (
    DegenerateSteadyState,
    ParseError,
    SingularResolvent,
    ValidationError,
)
from spinbus.spectrum import nv_sector_spectrum
from spinbus.sweeps import (
    ResultTable,
    _point_model,
    compute_point_spectrum,
    emit_csv,
    emit_plotdata,
    resolve_n_fock,
    run_couplings_scan,
    run_spectrum_scan,
)

from emitted_tables import data_section, read_csv

FAST_SPECTRUM = """
[resonator]
omega_r = 6 GHz
L_r = 2 nH
kappa = 26 kHz

[loop]
r_loop = 0.2 um
I_p = 880 nA
Delta = 6 GHz
T1_pcq = 20 us
T2_pcq = 20 us

[solver]
n_fock = 4
grid_points = 301
grid_span_kappa = 8

[scan]
axis tau = list 20 us

[output]
products = spectrum, peaks
"""


# ------------------------------------------------------------- couplings

def test_couplings_scan_matches_point_functions():
    cfg = load_config(preset_path("fig3"))
    table = run_couplings_scan(cfg)
    r_ax = next(a for a in cfg.axes if a.name == "r_loop")
    i_ax = next(a for a in cfg.axes if a.name == "I_p")
    assert len(table.rows) == len(r_ax.values) * len(i_ax.values)
    # independent re-evaluation of a handful of rows
    for k in (0, 17, 101, len(table.rows) - 1):
        r_um, ip_na, g_mhz, eta_khz, gbar_khz = table.rows[k]
        lp = LoopParams(r_loop=r_um * 1e-6, I_p=ip_na * 1e-9,
                        Delta=cfg.loop.Delta)
        d = r_um * 1e-6
        assert g_mhz == pytest.approx(
            pcq_cpw_coupling(cfg.resonator, lp, d) / 1e6, rel=1e-12)
        assert eta_khz == pytest.approx(
            nv_pcq_coupling(lp, cfg.nv) / 1e3, rel=1e-12)
        assert gbar_khz == pytest.approx(
            direct_nv_cpw_coupling(cfg.resonator, cfg.nv, d) / 1e3, rel=1e-12)


def test_fig3_design_points_on_grid():
    cfg = load_config(preset_path("fig3"))
    table = run_couplings_scan(cfg)
    by_point = {(round(r, 6), round(i, 3)): row
                for row in table.rows
                for r, i in [(row[0], row[1])]}
    g14 = by_point[(0.4, 600.0)]
    assert g14[2] == pytest.approx(14.0, rel=0.05)         # g/2pi MHz
    assert g14[3] == pytest.approx(60.0, rel=0.20)         # eta/2pi kHz
    assert g14[4] == pytest.approx(1.0, rel=0.20)          # gbar/2pi kHz
    g28 = by_point[(0.8, 600.0)]
    assert g28[2] == pytest.approx(28.7, rel=0.02)


def test_couplings_scan_zero_current_axis():
    text = """
[resonator]
omega_r = 6 GHz
L_r = 2 nH
kappa = 26 kHz

[scan]
axis r_loop = list 0.2, 0.4 um
axis I_p = list 0 nA
"""
    cfg = load_config_text(text)
    table = run_couplings_scan(cfg)
    for row in table.rows:
        assert row[2] == 0.0 and row[3] == 0.0
        assert row[4] > 0.0


def test_couplings_scan_axis_order_independent():
    base = """
[resonator]
omega_r = 6 GHz
L_r = 2 nH
kappa = 26 kHz

[scan]
"""
    cfg_a = load_config_text(base + "axis r_loop = list 0.2, 0.4 um\n"
                                    "axis I_p = list 300, 600 nA\n")
    cfg_b = load_config_text(base + "axis I_p = list 300, 600 nA\n"
                                    "axis r_loop = list 0.2, 0.4 um\n")
    rows_a = run_couplings_scan(cfg_a).rows
    rows_b = run_couplings_scan(cfg_b).rows
    assert sorted(rows_a) == sorted(rows_b)


def test_couplings_scan_rejects_foreign_axes():
    cfg = load_config_text("""
[resonator]
omega_r = 6 GHz
L_r = 2 nH
kappa = 26 kHz

[scan]
axis tau = list 1 us
""")
    with pytest.raises(ValidationError):
        run_couplings_scan(cfg)


# ------------------------------------------------------------- emission

def _tiny_table():
    return ResultTable(
        columns=(("x", "um"), ("y", "kHz"), ("note", "1")),
        data=(np.array([0.1, 0.2]), np.array([1234.5678901234567, 8.75e-3]),
              ["a,b", 'say "hi"']),
        provenance={"spinbus": "0.1.0", "config_hash": "sha256:abc",
                    "created": "2026-08-08T00:00:00+00:00"},
    )


def test_emit_csv_roundtrip_and_quoting(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(_tiny_table(), str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw                       # LF endings
    assert b'"a,b"' in raw                        # RFC 4180 comma quoting
    assert b'"say ""hi"""' in raw                 # quote doubling
    header, rows, prov = read_csv(str(path))
    assert header == ["x (um)", "y (kHz)", "note (1)"]
    assert prov["config_hash"] == "sha256:abc"
    # 15+ significant digits survive the round trip
    assert float(rows[0][1]) == 1234.5678901234567
    assert float(rows[1][1]) == 8.75e-3


def test_emit_plotdata_blocks_per_axis_value(tmp_path):
    t = ResultTable(
        columns=(("axis", "um"), ("v", "1")),
        data=(np.array([0.1, 0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0, 4.0])),
        provenance={},
    )
    path = tmp_path / "t.dat"
    emit_plotdata(t, str(path))
    text = path.read_text()
    blocks = [b for b in text.split("\n\n\n") if b.strip()]
    assert len(blocks) == 3  # one per distinct leading-axis value
    assert "# block axis = 0.1" in blocks[0]


def test_emit_bytes_are_locked(tmp_path):
    # Floats print as %.17g, other cells as str; csv quotes "a,b" and
    # 'say "hi"'. A text cell may hold any character, U+001F included.
    t = ResultTable(
        columns=(("x", "um"), ("v", "1"), ("n", "1"), ("note", "1")),
        data=(np.array([0.1, 0.1, 2.5e17, 2.5e17, 2.5e17]),
              [1 / 3, 1e-300, -0.0, np.float64(2 / 3), 1.5],
              [7, -2, 0, 12, True],
              ["a,b", "plain", 'say "hi"', "", "u\x1fv"]),
        provenance={"spinbus": "0.1.0", "config_hash": "sha256:abc"},
    )
    csv_path, dat_path = tmp_path / "t.csv", tmp_path / "t.dat"
    emit_csv(t, str(csv_path))
    emit_plotdata(t, str(dat_path))
    assert csv_path.read_bytes() == (
        b"# spinbus = 0.1.0\n# config_hash = sha256:abc\n"
        b"x (um),v (1),n (1),note (1)\n"
        b'0.10000000000000001,0.33333333333333331,7,"a,b"\n'
        b"0.10000000000000001,1e-300,-2,plain\n"
        b'2.5e+17,-0,0,"say ""hi"""\n'
        b"2.5e+17,0.66666666666666663,12,\n"
        b"2.5e+17,1.5,True,u\x1fv\n")
    assert dat_path.read_bytes() == (
        b"# spinbus = 0.1.0\n# config_hash = sha256:abc\n"
        b"# columns: x (um) v (1) n (1) note (1)\n"
        b"# block x = 0.10000000000000001\n"
        b"0.10000000000000001 0.33333333333333331 7 a,b\n"
        b"0.10000000000000001 1e-300 -2 plain\n"
        b"\n\n# block x = 2.5e+17\n"
        b'2.5e+17 -0 0 say "hi"\n'
        b"2.5e+17 0.66666666666666663 12 \n"
        b"2.5e+17 1.5 True u\x1fv\n")


def _per_row_csv(t):
    buf = io.StringIO()
    buf.writelines(f"# {k} = {v}\n" for k, v in t.provenance.items())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(t.header)
    for row in t.rows:
        writer.writerow(["%.17g" % x if isinstance(x, float) else str(x)
                         for x in row])
    return buf.getvalue()


def _per_row_plotdata(t):
    buf = io.StringIO()
    buf.writelines(f"# {k} = {v}\n" for k, v in t.provenance.items())
    buf.write("# columns: " + " ".join(t.header) + "\n")
    current = object()
    for i, row in enumerate(t.rows):
        cells = ["%.17g" % x if isinstance(x, float) else str(x) for x in row]
        if row[0] != current:
            current = row[0]
            buf.write(("\n\n" if i else "")
                      + f"# block {t.columns[0][0]} = {cells[0]}\n")
        buf.write(" ".join(cells) + "\n")
    return buf.getvalue()


def _assert_matches_per_row(t, tmp_path):
    csv_path, dat_path = tmp_path / "t.csv", tmp_path / "t.dat"
    emit_csv(t, str(csv_path))
    emit_plotdata(t, str(dat_path))
    assert csv_path.read_bytes() == _per_row_csv(t).encode()
    assert dat_path.read_bytes() == _per_row_plotdata(t).encode()


NAN = float("nan")
SPECIALS = (NAN, float("inf"), -float("inf"), -0.0, 1e-300, 1 / 3, 2.5e17)


def test_float_array_runs_match_per_row_formatting(tmp_path):
    n = sweeps_module._RUN_ROWS
    k = np.arange(2 * n + 40)
    lead = np.where(k < n + n // 2, 0.25, 0.5)   # a change inside a run
    lead[2 * n:2 * n + 3] = NAN                  # each nan starts a block
    lead[2 * n + 3:] = 1.0
    t = ResultTable(
        columns=(("x", "um"), ("v", "1"), ("w", "1"), ("n", "1")),
        data=(lead, np.array(SPECIALS)[k % 7], k * 0.125, -k.astype(float)),
        provenance={"spinbus": "0.1.0"})
    _assert_matches_per_row(t, tmp_path)
    assert (tmp_path / "t.dat").read_text().count("# block") == 6


def test_mixed_columns_match_per_row_formatting(tmp_path):
    t = ResultTable(
        columns=(("x", "um"), ("v", "1"), ("w", "1"), ("n", "1")),
        data=(np.array([0.5, 0.5, 0.75, 0.75, NAN, NAN, 1.0]),
              [np.float64(1) / 7, 7, True, "a,b", 1.5, SPECIALS[0], -0.0],
              [np.float64(-0.0), -2, False, 'say "hi"', 2.5, 1e-300, ""],
              [3, 0, 1, "", 3, np.int64(4), "u\x1fv"]),
        provenance={"spinbus": "0.1.0"})
    _assert_matches_per_row(t, tmp_path)
    lead_list = replace(t, data=(list(t.data[0]), *t.data[1:]))
    _assert_matches_per_row(lead_list, tmp_path)


EMPTY_COLUMNS = (np.array([]), [])


def test_emit_csv_empty_table(tmp_path):
    for column in EMPTY_COLUMNS:
        t = ResultTable(columns=(("x", "um"),), data=(column,),
                        provenance={"spinbus": "0.1.0"})
        path = tmp_path / "empty.csv"
        emit_csv(t, str(path))
        assert path.read_bytes() == _per_row_csv(t).encode()
        assert path.read_text().splitlines()[-1] == "x (um)"


def test_emit_plotdata_empty_table(tmp_path):
    for column in EMPTY_COLUMNS:
        t = ResultTable(columns=(("x", "um"),), data=(column,),
                        provenance={"spinbus": "0.1.0"})
        path = tmp_path / "empty.dat"
        emit_plotdata(t, str(path))
        assert path.read_bytes() == _per_row_plotdata(t).encode()
        assert path.read_text().splitlines()[-1] == "# columns: x (um)"


def test_emit_csv_io_error():
    from spinbus.errors import IoError
    with pytest.raises(IoError):
        emit_csv(_tiny_table(), "/nonexistent-dir/t.csv")


# ------------------------------------------------------------- spectrum scan

def test_spectrum_scan_single_point_structure():
    cfg = load_config_text(FAST_SPECTRUM)
    result = run_spectrum_scan(cfg)
    t = result.spectra
    assert [c[0] for c in t.columns] == ["tau", "delta_omega_over_2pi", "S",
                                         "log10_S"]
    axis, dws, svals, logs = t.data
    assert len(axis) == 301 and np.all(axis == 20.0)
    # frame: detuning column spans +/- 8 kappa in cyclic kHz
    assert dws[0] == pytest.approx(-8 * 26.0, rel=1e-9)
    assert dws[-1] == pytest.approx(8 * 26.0, rel=1e-9)
    assert np.all(svals >= 0.0)
    assert np.all(logs >= -30.0)
    assert result.peaks is not None
    peak_row = result.peaks.rows[0]
    assert peak_row[0] == pytest.approx(20.0)
    assert peak_row[1] >= 1


def test_spectrum_scan_requires_single_axis():
    text = FAST_SPECTRUM.replace("axis tau = list 20 us",
                                 "axis tau = list 20 us\naxis r_loop = list 0.2 um")
    cfg = load_config_text(text)
    with pytest.raises(ValidationError):
        run_spectrum_scan(cfg)


def test_spectrum_scan_flat_when_uncoupled():
    # g = 0 removes the Rabi blockade, so the drive must stay weak for the
    # truncation to hold: zeta = kappa/10 gives |alpha| = 0.2
    text = """
[resonator]
omega_r = 6 GHz
L_r = 2 nH
kappa = 26 kHz
zeta = 2.6 kHz

[loop]
r_loop = 0.2 um
I_p = 0 nA
Delta = 6 GHz
T1_pcq = 20 us
T2_pcq = 20 us

[solver]
n_fock = 8
grid_points = 64
grid_span_kappa = 5

[scan]
axis tau = list 20 us

[output]
products = spectrum
"""
    cfg = load_config_text(text)
    result = run_spectrum_scan(cfg)
    svals = result.spectra.data[2]
    # coherent drive only: fluctuation spectrum is numerically nothing
    assert np.max(svals) < 1e-18
    assert result.peaks is None


def test_spectrum_scan_deterministic_data_sections(tmp_path):
    cfg = load_config_text(FAST_SPECTRUM)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_spectrum_scan(cfg).spectra, str(p1))
    emit_csv(run_spectrum_scan(cfg).spectra, str(p2))
    assert data_section(str(p1)) == data_section(str(p2))


def test_distance_axis_overrides_d_rule():
    # scanning d at fixed r_loop changes g (1/d) but not eta
    text = FAST_SPECTRUM.replace("axis tau = list 20 us",
                                 "axis d = list 0.2, 0.4 um")
    cfg = load_config_text(text)
    from spinbus.sweeps import compute_point_spectrum

    spec_near, _ = compute_point_spectrum(cfg, "d", 0.2e-6)
    spec_far, _ = compute_point_spectrum(cfg, "d", 0.4e-6)
    g_near = spec_near.frame_offset
    g_far = spec_far.frame_offset
    assert g_near == pytest.approx(2 * g_far, rel=1e-12)


def test_spectrum_scan_parallel_matches_serial():
    text = FAST_SPECTRUM.replace("axis tau = list 20 us",
                                 "axis tau = list 15, 20 us")
    cfg = load_config_text(text)
    serial = run_spectrum_scan(cfg, threads=1)
    parallel = run_spectrum_scan(cfg, threads=2)
    assert serial.spectra.rows == parallel.spectra.rows
    assert serial.peaks.rows == parallel.peaks.rows


STRONG_DRIVE = """
[resonator]
omega_r = 6 GHz
L_r = 2 nH
kappa = 26 kHz
zeta = 1.4 MHz

[loop]
r_loop = 0.2 um
I_p = 880 nA
Delta = 6 GHz
T1_pcq = {tau} us
T2_pcq = {tau} us

[nv]
D = 2870 MHz
slope = 28 GHz/T
T1_nv = 4 ms
T2_nv = 600 us

[solver]
nv_mode = sectors
weights = 1/3 1/3 1/3
grid_points = 201
grid_span_kappa = 20

[scan]
axis tau = list {tau} us
"""


@pytest.mark.parametrize("tau_us, n_fock", [(8.5, 10), (11, 8), (17, 6)])
def test_adaptive_truncation_strong_drive_plateaus(tau_us, n_fock):
    # One tau inside each N = 10, 8, 6 plateau of the strong-drive regime:
    # a change to the probes' solve route must not move the chosen N.
    cfg = load_config_text(STRONG_DRIVE.format(tau=tau_us))
    d = cfg.solver.distance_for(cfg.loop.r_loop)
    assert resolve_n_fock(cfg, cfg.loop, d) == n_fock


def test_truncation_probes_project_only_where_populations_agree():
    # At tau = 8.5 us the populations disagree at (4, 6) and (6, 8) and
    # (8, 10), so only N = 10 and 12 compute the coarse spectrum's shape.
    cfg = load_config_text(STRONG_DRIVE.format(tau=8.5))
    d = cfg.solver.distance_for(cfg.loop.r_loop)
    problems = {}
    assert resolve_n_fock(cfg, cfg.loop, d, problems) == 10
    projected = {}
    for (p, _, _, _), problem in problems.items():
        projected.setdefault(p.N_fock, set()).add(
            problem._projection is not None)
    assert projected == {4: {False}, 6: {False}, 8: {False}, 10: {True},
                         12: {True}}


def test_point_spectrum_reuses_probe_problems(monkeypatch):
    builds, factored, solves, finals = [], [], [], []
    sector_problem = spectrum_module.sector_problem
    splu = liouvillian_module.spla.splu
    point_spectrum = sweeps_module._point_spectrum

    def counting_sector_problem(p, rates, m_s, *args):
        builds.append((p.N_fock, m_s))
        return sector_problem(p, rates, m_s, *args)

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(1)
            return self.lu.solve(rhs)

    def counting_splu(a, *args, **kwargs):
        factored.append(1)
        return CountingLU(splu(a, *args, **kwargs))

    def counting_point_spectrum(cfg, loop, d, n_fock, grid, problems):
        before = len(factored), len(solves)
        s = point_spectrum(cfg, loop, d, n_fock, grid, problems)
        if grid.size == cfg.solver.grid_points:
            finals.append((len(factored) - before[0],
                           len(solves) - before[1]))
        return s

    monkeypatch.setattr(spectrum_module, "sector_problem",
                        counting_sector_problem)
    monkeypatch.setattr(liouvillian_module.spla, "splu", counting_splu)
    monkeypatch.setattr(sweeps_module, "_point_spectrum",
                        counting_point_spectrum)
    cfg = load_config_text(FAST_SPECTRUM.replace("n_fock = 4",
                                                 "n_fock = adaptive"))
    spec, _ = compute_point_spectrum(cfg, "tau", 20e-6)
    n_fock = spec.metadata["n_fock"]
    # every (N, m_s) problem is built once: by the probes, N and N + 2
    assert sorted(builds) == sorted({(n, m) for n in (n_fock, n_fock + 2)
                                     for m in (1, 0, -1)})
    # the final grid continues the probe's Krylov projections at N: no
    # factorization and no Arnoldi step
    assert finals == [(0, 0)]
    assert factored and solves
    model, rates, offset = _point_model(
        cfg, cfg.loop, cfg.solver.distance_for(cfg.loop.r_loop), n_fock)
    fresh = nv_sector_spectrum(model, rates, cfg.solver.weights,
                               spec.omega_grid, offset)
    assert np.array_equal(spec.values, fresh.values)
    for sector in spec.metadata["sectors"].values():
        assert sector["route"] == "krylov"
        assert sector["max_relative_residual"] <= 1e-8


def _raise_below_17us(error):
    def compute(cfg, axis_name, value):
        if value < 17e-6:
            raise error
        return compute_point_spectrum(cfg, axis_name, value)
    return compute


@pytest.mark.parametrize("error, field, expected", [
    (DegenerateSteadyState(3), "kernel_dim", 3),
    (SingularResolvent(2.5e5), "omega", 2.5e5),
])
@pytest.mark.parametrize("threads", [1, 2])
def test_failing_point_keeps_type_fields_and_names_axis_value(
        monkeypatch, capsys, tmp_path, error, field, expected, threads):
    if threads > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the stub only when forked")
    monkeypatch.setattr(sweeps_module, "compute_point_spectrum",
                        _raise_below_17us(error))
    text = FAST_SPECTRUM.replace("list 20 us", "list 15, 20 us")
    cfg = load_config_text(text)
    context = "at scan point tau=15 us"
    with pytest.raises(type(error)) as info:
        run_spectrum_scan(cfg, threads=threads)
    assert str(info.value) == f"{context}: {error}"
    assert getattr(info.value, field) == expected
    path = tmp_path / "fast.cfg"
    path.write_text(text)
    assert main(["spectrum", "--config", str(path), "--threads", str(threads),
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: category={type(error).__name__}: {context}: {error}\n")


def test_errors_survive_pickling_unchanged():
    for error in (DegenerateSteadyState(3), SingularResolvent(1.5),
                  ParseError("bad value", 7)):
        for exc in (error, error.in_context("at scan point tau=2e-05")):
            copy = pickle.loads(pickle.dumps(exc))
            assert type(copy) is type(exc)
            assert str(copy) == str(exc)
            assert copy.__dict__ == exc.__dict__
