import os
import subprocess
import sys

import pytest

import spinbus
from spinbus import sweeps
from spinbus.cli import main, preset_path
from spinbus.config import load_config, load_config_text
from spinbus.errors import ParseError

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


def test_usage_errors_exit_2(capsys):
    assert main(["couplings"]) == 2          # neither --config nor --preset
    assert main(["couplings", "--config", "a", "--preset", "fig3"]) == 2
    assert main(["bogus-subcommand"]) == 2
    assert main([]) == 2


def test_validation_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[resonator]\nomega_r = 6 GHz\nL_r = 2 nH\nkappa = 26 kHz\n"
                   "\n[loop]\nT1_pcq = 1 us\nT2_pcq = 3 us\n")
    rc = main(["couplings", "--config", str(bad), "--out",
               str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "category=ValidationError" in err


def test_rejected_steady_state_exits_1_with_category(tmp_path, capsys,
                                                    monkeypatch):
    # A steady state that fails DensityMatrix validation is a typed
    # NonConvergence, so the CLI prints its category line, not a traceback.
    from spinbus.operators import DensityMatrix

    monkeypatch.setattr(DensityMatrix, "EIG_FLOOR", 1.0)
    rc = main(["spectrum", "--preset", "fig7", "--threads", "1",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: category=NonConvergence: ")
    assert "not a density matrix" in err[0]


def test_missing_config_file_exit_1(tmp_path, capsys):
    rc = main(["couplings", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert "category=ParseError" in capsys.readouterr().err


def test_couplings_preset_writes_csv(tmp_path, capsys):
    out = tmp_path / "map.csv"
    rc = main(["couplings", "--preset", "fig3", "--out", str(out)])
    assert rc == 0
    header, rows, prov = read_csv(str(out))
    assert header[0] == "r_loop (um)"
    assert len(rows) == 19 * 19
    assert prov["config_hash"].startswith("sha256:")


def test_couplings_plotdata_format(tmp_path):
    out = tmp_path / "map.dat"
    rc = main(["couplings", "--preset", "fig3", "--out", str(out),
               "--format", "plotdata"])
    assert rc == 0
    text = out.read_text()
    assert text.count("# block r_loop") == 19


def test_spectrum_config_with_override(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_SPECTRUM)
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--config", str(cfg), "--out", str(out),
               "--override", "tau=15us", "--echo"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "axis tau = [15] us" in stdout
    header, rows, _ = read_csv(str(out))
    assert len(rows) == 301
    assert float(rows[0][0]) == pytest.approx(15.0)
    peaks = tmp_path / "spec_peaks.csv"
    assert peaks.exists()


def test_list_axis_override_values_keep_their_own_units(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = main(["couplings", "--preset", "fig3", "--override",
               "I_p=500 nA, 0.6 uA", "--echo", "--out", str(out)])
    assert rc == 0
    assert "  axis I_p = [0.5, 0.6] uA" in capsys.readouterr().out.splitlines()
    _, rows, _ = read_csv(str(out))
    assert [float(row[1]) for row in rows[:2]] == pytest.approx([500.0, 600.0])


def test_fixed_d_rule_echoes_as_config_text(tmp_path, capsys):
    # The echo of a fixed distance is config text: fed back as an override
    # it gives the same distance.
    rc = main(["couplings", "--preset", "fig3", "--override",
               "solver.d_rule=0.8 um", "--echo", "--out",
               str(tmp_path / "c.csv")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  d_rule = 0.8 um" in lines
    echoed = next(line for line in lines if "d_rule" in line).strip()
    given = load_config(preset_path("fig3"), ["solver.d_rule=0.8 um"])
    again = load_config(preset_path("fig3"),
                        ["solver." + echoed.replace(" = ", "=", 1)])
    assert (again.solver.distance_for(0.3e-6)
            == given.solver.distance_for(0.3e-6) == 8e-07)


def test_scan_runs_config_products(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_SPECTRUM)
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert out.exists()


def test_scan_keeps_every_product_table(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "both.cfg"
    cfg.write_text(FAST_SPECTRUM
                   .replace("axis tau = list 20 us", "axis r_loop = list 0.2 um")
                   .replace("products = spectrum, peaks",
                            "products = couplings, spectrum, peaks"))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    header, rows, _ = read_csv(str(out))
    assert header[1] == "delta_omega_over_2pi (kHz)" and len(rows) == 301
    header, rows, _ = read_csv(str(tmp_path / "scan_couplings.csv"))
    assert header[2] == "g_over_2pi (MHz)" and len(rows) == 1
    assert (tmp_path / "scan_peaks.csv").exists()
    assert stdout.count(f"wrote {out}\n") == 1
    assert "r_loop=" in stdout and "peak(s)" in stdout
    # without --out the peaks table follows the default plotdata name
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--config", str(cfg), "--format", "plotdata"]) == 0
    assert (tmp_path / "spectrum.dat").exists()
    assert (tmp_path / "spectrum_peaks.dat").exists()


def test_determinism_across_runs(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_SPECTRUM)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", str(cfg), "--out", str(out2)]) == 0
    assert data_section(str(out1)) == data_section(str(out2))


def test_check_subcommand_passes(capsys):
    rc = main(["check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
    assert out.count("PASS") >= 9


# A strong-drive sector problem (d^2 = 144) big enough for OpenBLAS to
# thread its LU and matrix-product kernels, where results depend on the
# thread count unless the engine pins it.
STRONG_DRIVE = FAST_SPECTRUM.replace(
    "kappa = 26 kHz", "kappa = 26 kHz\nzeta = 1.4 MHz").replace(
    "n_fock = 4\ngrid_points = 301\ngrid_span_kappa = 8",
    "n_fock = 6\ngrid_points = 65\ngrid_span_kappa = 20").replace(
    "list 20 us", "list 11, 12 us")


def _subprocess_env() -> dict:
    src = os.path.dirname(os.path.dirname(spinbus.__file__))
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_data_sections_identical_across_blas_and_worker_threads(tmp_path):
    cfg = tmp_path / "strong.cfg"
    cfg.write_text(STRONG_DRIVE)
    sections = {}
    for blas in (None, "1", "2"):
        env = _subprocess_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        for threads in ("1", "2"):
            out = tmp_path / f"s_{blas}_{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "spinbus.cli", "spectrum", "--config",
                 str(cfg), "--out", str(out), "--threads", threads],
                capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            peaks = tmp_path / f"s_{blas}_{threads}_peaks.csv"
            sections[blas, threads] = (data_section(str(out)),
                                       data_section(str(peaks)))
            _, _, prov = read_csv(str(out))
            assert prov["workers"] == threads
    reference = sections[None, "1"]
    assert len(reference[0].splitlines()) == 1 + 2 * 65
    assert all(s == reference for s in sections.values())


def test_cli_import_starts_openblas_with_one_thread():
    # The CLI sets OPENBLAS_NUM_THREADS=1 before NumPy loads, whatever the
    # caller's value, so no BLAS server thread starts in the process or in
    # the workers it forks.
    env = dict(_subprocess_env(), OPENBLAS_NUM_THREADS="4")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, spinbus.cli; "
         "tasks = '/proc/self/task'; "
         "print(os.environ['OPENBLAS_NUM_THREADS'], "
         "len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spinbus.cli", "check"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal (with scipy.stats and scipy.interpolate) costs about a
    # second of start-up; the peak finder is numpy code.
    env = _subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spinbus.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_preset_path_rejects_unknown():
    with pytest.raises(ValueError):
        preset_path("fig99")


def test_full_liouvillian_mode_one_override_away(tmp_path):
    # every figure preset runs in the alternate spin-state handling mode
    # via a single override; the full mode pins the spin and loses the
    # centre line of the multiplet
    out = tmp_path / "full.csv"
    rc = main(["spectrum", "--preset", "fig7",
               "--override", "tau=20us",
               "--override", "solver.nv_mode=full",
               "--override", "solver.n_fock=4",
               "--override", "solver.grid_points=501",
               "--out", str(out)])
    assert rc == 0
    _, rows, _ = read_csv(str(tmp_path / "full_peaks.csv"))
    positions = [float(x) for x in rows[0][4].split(";")]
    # no m_s = 0 centre line once the spin is pinned
    assert all(abs(p) > 20.0 for p in positions)  # kHz


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--preset", "fig6a", "--override", "epsilon=2.5"],
     "at scan point epsilon=2.5: UnphysicalT2: T2_pcq=4.9999999999999996e-05 "
     "exceeds 2*T1_pcq=3.9999999999999996e-05"),
    (["spectrum", "--config", "axis n_turns = list 0"],
     "at scan point n_turns=0: n_turns must be a positive integer"),
    (["spectrum", "--config", "axis n_turns = list 1.5, 2.5"],
     "at scan point n_turns=1.5: n_turns must be a positive integer"),
    (["spectrum", "--preset", "fig7", "--override", "tau=0us"],
     "at scan point tau=0 us: coherence times must be positive"),
    (["spectrum", "--config", "axis T1_pcq = list 0.5 us"],
     "at scan point T1_pcq=0.5 us: UnphysicalT2: "
     "T2_pcq=1.9999999999999998e-05 exceeds 2*T1_pcq=1e-06"),
    (["spectrum", "--config", "axis T2_pcq = list 50 us"],
     "at scan point T2_pcq=50 us: UnphysicalT2: T2_pcq=4.9999999999999996e-05 "
     "exceeds 2*T1_pcq=3.9999999999999996e-05"),
    (["spectrum", "--config", "axis r_loop = list 0 um"],
     "at scan point r_loop=0 um: r_loop must be positive"),
    (["spectrum", "--config", "axis I_p = list -1 nA"],
     "at scan point I_p=-1 nA: I_p must be nonnegative"),
    (["couplings", "--preset", "fig3", "--override", "I_p=-5nA"],
     "I_p must be nonnegative"),
    (["couplings", "--config", "axis r_loop = list 1, 0.5 um"],
     "grids must be monotone nondecreasing"),
], ids=["epsilon", "n_turns_0", "n_turns_fraction", "tau_0", "T1_pcq_short",
        "T2_pcq_long", "r_loop_0", "I_p_negative_point", "I_p_negative",
        "r_loop_descending"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_rejected_axis_values_are_validation_errors(
        tmp_path, capsys, argv, message, threads):
    if argv[1] == "--config":   # fig6a with the epsilon axis replaced
        with open(preset_path("fig6a"), encoding="utf-8") as fh:
            text = fh.read()
        axis = "axis epsilon = list 0.1, 0.25, 0.5, 1.0, 2.0"
        assert axis in text
        cfg = tmp_path / "axis.cfg"
        cfg.write_text(text.replace(axis, argv[2]))
        argv = [argv[0], "--config", str(cfg)]
    rc = main(argv + ["--threads", threads, "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: category=ValidationError: " + message]


@pytest.mark.parametrize("override, message", [
    ("solver.n_fock=1", "n_fock must be at least 2"),
    ("solver.n_fock_start=1", "n_fock_start must be at least 2"),
    ("solver.n_fock_max=1", "n_fock_max must be at least n_fock_start + 2"),
    ("solver.truncation_tol=-1", "truncation_tol must be positive"),
    ("solver.grid_span_kappa=0", "grid_span_kappa must be positive"),
    ("solver.grid_span_kappa=-3", "grid_span_kappa must be positive"),
    ("solver.rate_convention=Cyclic", "bad rate_convention 'Cyclic'"),
    ("solver.nv_relaxation=raising", "bad nv_relaxation 'raising'"),
    ("solver.pcq_relaxation=As_printed", "bad pcq_relaxation 'As_printed'"),
    ("solver.nv_mode=both", "bad nv_mode 'both'"),
    ("solver.spectrum_mode=coherent", "bad spectrum_mode 'coherent'"),
])
def test_rejected_solver_settings_are_validation_errors(
        tmp_path, capsys, override, message):
    rc = main(["spectrum", "--preset", "fig7", "--override", "tau=20us",
               "--override", override, "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: category=ValidationError: " + message]


@pytest.mark.parametrize("weights, message", [
    ("0 0 0", "sector weights sum to 0, not 1"),
    ("0.5 0.6 0.1", "sector weights sum to 1.2, not 1"),
    ("0.5 0.6 -0.1", "sector weights must be nonnegative"),
])
def test_bad_sector_weights_are_rejected_before_any_scan_point(
        tmp_path, capsys, monkeypatch, weights, message):
    # The config is rejected while it is parsed, so the line names no scan
    # point, and the sum prints as a plain float.
    def no_point(*args):
        raise AssertionError("a scan point ran")

    monkeypatch.setattr(sweeps, "compute_point_spectrum", no_point)
    rc = main(["spectrum", "--preset", "fig7", "--override",
               f"solver.weights={weights}", "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: category=WeightsInvalid: " + message]


@pytest.mark.parametrize("override, line", [
    ("loop.r_loop=abc", "error: category=ParseError: override loop.r_loop=abc: "
                        "cannot parse quantity 'abc'"),
    ("tau=xyz", "error: category=ParseError: override tau=xyz: "
                "cannot parse axis value 'xyz'"),
    ("tau=x, 10 us", "error: category=ParseError: override tau=x, 10 us: "
                     "cannot parse axis value 'x'"),
])
def test_override_errors_name_the_override(tmp_path, capsys, override, line):
    # An override has no line in any file: its error names the override.
    rc = main(["spectrum", "--preset", "fig7", "--override", override,
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [line]


# name -> (category, section, config line, message, override or None). The
# line is line 6 of MINIMAL_CONFIG plus "[section]"; the override, where one
# gives the same value, is applied to MINIMAL_CONFIG alone.
MINIMAL_CONFIG = "[resonator]\nomega_r = 6 GHz\nL_r = 2 nH\nkappa = 26 kHz\n"
BAD_VALUES = {
    "missing_unit": (
        "ValidationError", "loop", "r_loop = 0.4",
        "physical quantity '0.4' needs a unit", "loop.r_loop=0.4"),
    "unknown_unit": (
        "ParseError", "loop", "r_loop = 0.4 furlong",
        "unknown unit 'furlong'", "loop.r_loop=0.4 furlong"),
    "wrong_dimension": (
        "ValidationError", "loop", "r_loop = 0.4 us",
        "unit 'us' has dimension 'time', expected 'length'",
        "loop.r_loop=0.4 us"),
    "not_an_int": (
        "ParseError", "loop", "n_turns = 1.5",
        "cannot parse n_turns='1.5'", "loop.n_turns=1.5"),
    "weights_count": (
        "ValidationError", "solver", "weights = 0.5 0.5",
        "weights needs exactly three entries", "solver.weights=0.5 0.5"),
    "d_rule_nonpositive": (
        "NonpositiveDistance", "solver", "d_rule = -0.2 um",
        "d_rule must be positive, got '-0.2 um'", "solver.d_rule=-0.2 um"),
    "d_rule_wrong_unit": (
        "ValidationError", "solver", "d_rule = 0.8 us",
        "unit 'us' has dimension 'time', expected 'length'",
        "solver.d_rule=0.8 us"),
    "unknown_axis": (
        "ValidationError", "scan", "axis foo = list 1, 2",
        "unknown scan axis 'foo'", None),
    "linspace_no_points": (
        "ValidationError", "scan",
        "axis r_loop = linspace 0.1 um to 1 um points 0",
        "axis needs at least one point", None),
    "linspace_bare_endpoint": (
        "ValidationError", "scan",
        "axis r_loop = linspace 0.1 to 1 um points 4",
        "physical quantity '0.1' needs a unit", None),
    "list_unparseable": (
        "ParseError", "scan", "axis tau = list x, 10 us",
        "cannot parse axis value 'x'", "tau=x, 10 us"),
    "list_wrong_dimension": (
        "ValidationError", "scan", "axis tau = list 5 nA, 10 us",
        "unit 'nA' has dimension 'current', expected 'time'",
        "tau=5 nA, 10 us"),
    "epsilon_unit": (
        "ValidationError", "scan", "axis epsilon = list 0.5 us, 1 us",
        "dimensionless key given unit 'us'", "epsilon=0.5 us, 1 us"),
    "axis_kind": (
        "ParseError", "scan", "axis tau = range 1 us",
        "axis spec must start with 'linspace' or 'list', got 'range'", None),
}


@pytest.mark.parametrize("category, section, line, message, override",
                         list(BAD_VALUES.values()), ids=list(BAD_VALUES))
def test_bad_config_value_error_line_names_its_line(
        tmp_path, capsys, category, section, line, message, override):
    # Every error of a config value starts with its line number.
    text = MINIMAL_CONFIG + f"[{section}]\n{line}\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = main(["couplings", "--config", str(cfg),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: category={category}: line 6: {message}"]
    if category == "ParseError":
        with pytest.raises(ParseError) as info:
            load_config_text(text)
        assert info.value.line_no == 6


@pytest.mark.parametrize("category, message, override", [
    pytest.param(c, m, o, id=name)
    for name, (c, _, _, m, o) in BAD_VALUES.items() if o is not None])
def test_bad_override_value_error_line_names_the_override(
        tmp_path, capsys, category, message, override):
    cfg = tmp_path / "minimal.cfg"
    cfg.write_text(MINIMAL_CONFIG)
    rc = main(["couplings", "--config", str(cfg), "--override", override,
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: category={category}: override {override}: {message}"]


@pytest.mark.parametrize("command, preset", [("couplings", "fig3"),
                                             ("spectrum", "fig7")])
def test_nonpositive_d_rule_is_rejected_before_echo_and_any_point(
        tmp_path, capsys, monkeypatch, command, preset):
    def no_point(*args):
        raise AssertionError("a scan point ran")

    monkeypatch.setattr(sweeps, "compute_point_spectrum", no_point)
    override = "solver.d_rule=-0.2 um"
    rc = main([command, "--preset", preset, "--echo", "--override", override,
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: category=NonpositiveDistance: override {override}: "
        "d_rule must be positive, got '-0.2 um'"]


def test_threads_env_var_is_ignored(tmp_path, capsys, monkeypatch):
    # --threads is the one source of the worker count: without it a scan
    # runs serially, whatever THREADS says.
    monkeypatch.setenv("THREADS", "3")
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_SPECTRUM)
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--config", str(cfg), "--out", str(out),
               "--override", "tau=15 us, 20 us"])
    assert rc == 0
    _, rows, prov = read_csv(str(out))
    assert len(rows) == 2 * 301
    assert prov["workers"] == "1"
