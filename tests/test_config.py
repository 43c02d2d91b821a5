import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinbus.cli import PRESETS, preset_path
from spinbus.config import (
    AXES,
    KEY_TABLE,
    ScanAxis,
    SolverSettings,
    load_config,
    load_config_text,
    parse_config_text,
    parse_quantity,
)
from spinbus.errors import NonpositiveDistance, ParseError, ValidationError
from spinbus.units import CONSTANTS, TWO_PI

MINIMAL = """
[resonator]
omega_r = 6 GHz
L_r = 2 nH
kappa = 26 kHz
"""


def test_minimal_config_fills_documented_defaults():
    cfg = load_config_text(MINIMAL)
    assert cfg.resonator.omega_r == pytest.approx(TWO_PI * 6e9)
    assert cfg.resonator.kappa == pytest.approx(TWO_PI * 26e3)
    # zeta defaults to 2*kappa
    assert cfg.resonator.zeta == pytest.approx(2 * cfg.resonator.kappa)
    # N_fock adaptive, d rule follows the loop radius
    assert cfg.solver.n_fock is None
    assert cfg.solver.d_rule == "r_loop"
    assert cfg.solver.distance_for(0.3e-6) == 0.3e-6
    # loop/nv defaults resolved
    assert cfg.loop.r_loop == pytest.approx(0.4e-6)
    assert cfg.loop.Phi_x == pytest.approx(CONSTANTS.flux_quantum / 2)
    assert cfg.nv.slope == pytest.approx(2.8e10)
    # B_bias defaults to the half-flux-quantum bias field Phi0/(2A)
    expected_bias = CONSTANTS.flux_quantum / (2 * math.pi * (0.4e-6) ** 2)
    assert cfg.nv.B_bias == pytest.approx(expected_bias)
    assert cfg.products == ("couplings",)
    assert cfg.config_hash.startswith("sha256:")
    # every other field keeps its dataclass default
    value_dependent = {"Phi_x", "B_bias"}   # checked above
    for params in (cfg.solver, cfg.loop, cfg.nv):
        for field in dataclasses.fields(params):
            if (field.default is not dataclasses.MISSING
                    and field.name not in value_dependent):
                assert getattr(params, field.name) == field.default, field.name


def test_unphysical_t2_is_validation_error():
    text = MINIMAL + "\n[loop]\nT1_pcq = 1 us\nT2_pcq = 3 us\n"
    with pytest.raises(ValidationError, match="UnphysicalT2"):
        load_config_text(text)


@pytest.mark.parametrize("key", ["resonator.omega_drive = 6.01 GHz",
                                 "solver.steady_residual_tol = 1e-30",
                                 "output.deterministic = true",
                                 "loop.alpha = 0.8"])
def test_keys_that_nothing_reads_are_rejected(key):
    section, _, line = key.partition(".")
    with pytest.raises(ParseError, match="unknown key") as info:
        load_config_text(MINIMAL + f"[{section}]\n{line}\n")
    assert info.value.line_no == MINIMAL.count("\n") + 2
    with pytest.raises(ValidationError, match="unknown override target"):
        load_config_text(MINIMAL, overrides=[key.replace(" ", "")])


def test_bad_d_rule_is_parse_error_with_its_line():
    text = MINIMAL + "[solver]\nd_rule = 0.8 furlong\n"
    with pytest.raises(ParseError, match="^line 7: unknown unit") as info:
        load_config_text(text)
    assert info.value.line_no == 7


@pytest.mark.parametrize("value", ["0 um", "-0.2 um"])
def test_nonpositive_fixed_d_rule_is_rejected_where_it_is_given(value):
    # Rejected while the config loads: the error names the config line or
    # the override, not the first scan point that would use the distance.
    message = f"d_rule must be positive, got {value!r}"
    with pytest.raises(NonpositiveDistance,
                       match="^" + re.escape(f"line 7: {message}") + "$"):
        load_config_text(MINIMAL + f"[solver]\nd_rule = {value}\n")
    override = f"solver.d_rule={value}"
    with pytest.raises(NonpositiveDistance, match="^" + re.escape(
            f"override {override}: {message}") + "$"):
        load_config_text(MINIMAL, overrides=[override])


@pytest.mark.parametrize("d_rule, error", [
    (-2e-07, NonpositiveDistance),
    (math.nan, NonpositiveDistance),
    (0.0, NonpositiveDistance),
    ("fixed:abc", ValidationError),
    ("fixed:-2e-07", ValidationError),
    (True, ValidationError),
])
def test_solver_settings_d_rule_is_checked_where_it_is_held(d_rule, error):
    # A d_rule is "r_loop" or a positive distance in meters, whoever builds
    # the settings; a bad one fails as a typed error, not at a scan point.
    with pytest.raises(error, match="d_rule"):
        SolverSettings(d_rule=d_rule)


def test_fixed_d_rule_is_held_as_its_distance():
    solver = load_config_text(MINIMAL + "[solver]\nd_rule = 0.8 um\n").solver
    assert solver.d_rule == parse_quantity("0.8 um", "length")
    assert solver.distance_for(0.3e-6) == solver.d_rule
    assert SolverSettings(d_rule=8e-07).distance_for(0.3e-6) == 8e-07


def test_missing_unit_rejected():
    text = MINIMAL.replace("omega_r = 6 GHz", "omega_r = 6")
    with pytest.raises(ValidationError, match="needs a unit"):
        load_config_text(text)


def test_wrong_dimension_rejected():
    text = MINIMAL.replace("L_r = 2 nH", "L_r = 2 us")
    with pytest.raises(ValidationError, match="dimension"):
        load_config_text(text)


def test_unknown_unit_and_key_report_line():
    with pytest.raises(ParseError, match="line 3"):
        load_config_text("\n[resonator]\nomega_r = 6 GHzz\n")
    with pytest.raises(ParseError, match="unknown key"):
        load_config_text("[resonator]\nfrequency = 6 GHz\n")
    with pytest.raises(ParseError, match="unknown section"):
        load_config_text("[resonator2]\nomega_r = 6 GHz\n")
    with pytest.raises(ParseError, match="key = value"):
        load_config_text("[resonator]\nomega_r 6 GHz\n")


def test_axis_linspace_parsing():
    text = MINIMAL + "\n[scan]\naxis r_loop = linspace 0.1 um to 1.0 um points 10\n"
    cfg = load_config_text(text)
    ax = cfg.axes[0]
    assert ax.name == "r_loop"
    assert len(ax.values) == 10
    assert ax.values[0] == pytest.approx(0.1e-6)
    assert ax.values[-1] == pytest.approx(1.0e-6)
    assert ax.unit == "um"


def test_axis_list_parsing_with_trailing_unit():
    text = MINIMAL + "\n[scan]\naxis tau = list 0.5, 5, 10, 15, 20 us\n"
    cfg = load_config_text(text)
    ax = cfg.axes[0]
    assert ax.values == pytest.approx((0.5e-6, 5e-6, 10e-6, 15e-6, 20e-6))


@pytest.mark.parametrize("spec, values, unit", [
    ("list 5 us, 10 us", (5e-6, 10e-6), "us"),
    ("list 5us,10us", (5e-6, 10e-6), "us"),
    ("list 1e-6 s, 2 us", (1e-6, 2e-6), "us"),
    ("list 1 us, 2, 3000 ns", (1e-6, 2e-9, 3e-6), "ns"),
])
def test_axis_list_values_keep_their_own_units(spec, values, unit):
    # a bare value takes the last value's unit, which is also the axis's
    cfg = load_config_text(MINIMAL + f"\n[scan]\naxis tau = {spec}\n")
    assert cfg.axes[0].values == pytest.approx(values)
    assert cfg.axes[0].unit == unit


def test_axis_list_value_unit_of_the_wrong_dimension_is_rejected():
    text = MINIMAL + "\n[scan]\naxis tau = list 5 nA, 10 us\n"
    with pytest.raises(ValidationError,
                       match="^unit 'nA' has dimension 'current', "
                             "expected 'time' \\(line \\d+\\)$"):
        load_config_text(text)


@pytest.mark.parametrize("axis, value", [
    ("tau = list x, 10 us", "x"),
    ("tau = list 5 us 3, 10 us", "5 us 3"),
    ("tau = list x, y", "y"),
    ("epsilon = list x, 2", "x"),
])
def test_malformed_axis_list_value_is_named_as_written(axis, value):
    # the last value is checked first: its unit is the axis's
    with pytest.raises(ParseError) as info:
        load_config_text(MINIMAL + f"\n[scan]\naxis {axis}\n")
    assert str(info.value) == f"line 8: cannot parse axis value {value!r}"


def test_axis_dimensionless_list():
    text = MINIMAL + "\n[scan]\naxis epsilon = list 0.1, 0.5, 1.0\n"
    cfg = load_config_text(text)
    assert cfg.axes[0].values == pytest.approx((0.1, 0.5, 1.0))


def test_axis_unknown_name_rejected():
    text = MINIMAL + "\n[scan]\naxis bogus = list 1, 2\n"
    with pytest.raises(ValidationError, match="unknown scan axis"):
        load_config_text(text)


# Each axis at one point of MINIMAL (r_loop 0.4 um, I_p 600 nA, 1 turn,
# T1_pcq 20 us, T2_pcq 2 us, d rule r_loop): the loop fields it sets, and d.
POINTS = [
    ("r_loop", 0.3e-6, {"r_loop": 0.3e-6}, 0.3e-6),
    ("I_p", 700e-9, {"I_p": 700e-9}, 0.4e-6),
    ("n_turns", 3.0, {"n_turns": 3}, 0.4e-6),
    ("T1_pcq", 30e-6, {"T1_pcq": 30e-6}, 0.4e-6),
    ("T2_pcq", 1e-6, {"T2_pcq": 1e-6}, 0.4e-6),
    ("tau", 5e-6, {"T1_pcq": 5e-6, "T2_pcq": 5e-6}, 0.4e-6),
    ("epsilon", 0.5, {"T2_pcq": 10e-6}, 0.4e-6),
    ("d", 0.7e-6, {}, 0.7e-6),
]


def test_every_axis_has_a_point_case():
    assert sorted(AXES) == sorted(case[0] for case in POINTS)


@pytest.mark.parametrize("axis, value, fields, d", POINTS,
                         ids=[case[0] for case in POINTS])
def test_point_sets_the_fields_its_axis_documents(axis, value, fields, d):
    cfg = load_config_text(MINIMAL)
    loop, got_d = cfg.point(axis, value)
    assert set(AXES[axis][1]) == set(fields)
    for field in dataclasses.fields(loop):
        got, base = getattr(loop, field.name), getattr(cfg.loop, field.name)
        if field.name in fields:
            assert got == pytest.approx(fields[field.name]), field.name
            assert got != base, field.name
        else:
            assert got == base, field.name
    assert got_d == pytest.approx(d)


def test_point_rejects_an_unknown_axis_and_a_loop_it_cannot_build():
    cfg = load_config_text(MINIMAL)
    with pytest.raises(ValidationError,
                       match="^axis 'x' not usable in a spectrum scan$"):
        cfg.point("x", 1.0)
    with pytest.raises(ValidationError,
                       match="^n_turns must be a positive integer$"):
        cfg.point("n_turns", 1.5)


def test_scan_axis_guards():
    with pytest.raises(ValidationError):
        ScanAxis("r_loop", ())
    with pytest.raises(ValidationError):
        ScanAxis("not_a_parameter", (1.0,))


def test_override_collapses_axis():
    text = MINIMAL + "\n[scan]\naxis tau = list 0.5, 5, 20 us\n"
    cfg = load_config_text(text, overrides=["tau=20us"])
    assert len(cfg.axes) == 1
    assert cfg.axes[0].name == "tau"
    assert cfg.axes[0].values == pytest.approx((20e-6,))


def test_override_section_key_and_bare_key():
    cfg = load_config_text(MINIMAL, overrides=["loop.I_p=800nA", "r_loop=0.2um"])
    assert cfg.loop.I_p == pytest.approx(800e-9)
    assert cfg.loop.r_loop == pytest.approx(0.2e-6)


def test_override_ambiguous_or_unknown_rejected():
    with pytest.raises(ValidationError):
        load_config_text(MINIMAL, overrides=["bogus_key=1"])
    with pytest.raises(ValidationError):
        load_config_text(MINIMAL, overrides=["no_equals_sign"])


def test_weights_fraction_syntax():
    text = MINIMAL + "\n[solver]\nweights = 1/2 1/4 1/4\n"
    cfg = load_config_text(text)
    assert cfg.solver.weights == pytest.approx((0.5, 0.25, 0.25))


def test_config_and_its_imports_load_no_scipy():
    # spinbus.config with the modules it imports (model among them, for the
    # convention aliases and the weights check)
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, spinbus.config; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'spinbus.model' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True"]


def test_solver_enum_validation():
    text = MINIMAL + "\n[solver]\nnv_mode = both\n"
    with pytest.raises(ValidationError, match="nv_mode"):
        load_config_text(text)


def test_q_factor_consistency_enforced():
    text = """
[resonator]
omega_r = 6 GHz
L_r = 2 nH
kappa = 26 kHz
Q = 100000
"""
    with pytest.raises(ValidationError, match="Q and kappa"):
        load_config_text(text)


def test_config_hash_stable_and_override_sensitive():
    cfg1 = load_config_text(MINIMAL)
    cfg2 = load_config_text(MINIMAL)
    cfg3 = load_config_text(MINIMAL, overrides=["loop.I_p=700nA"])
    assert cfg1.config_hash == cfg2.config_hash
    assert cfg1.config_hash != cfg3.config_hash


def test_parse_quantity_attached_units():
    assert parse_quantity("20us", "time") == pytest.approx(20e-6)
    assert parse_quantity("0.5 Phi0", "flux") == pytest.approx(
        0.5 * CONSTANTS.flux_quantum)
    assert parse_quantity("28 GHz/T", "slope") == pytest.approx(2.8e10)


def test_fig4_preset_echoes_design_values():
    cfg = load_config(preset_path("fig4a"))
    assert cfg.resonator.omega_r == pytest.approx(TWO_PI * 6e9)
    assert cfg.resonator.kappa == pytest.approx(TWO_PI * 26e3)
    assert cfg.resonator.zeta == pytest.approx(2 * TWO_PI * 26e3)
    assert cfg.loop.I_p == pytest.approx(800e-9)
    assert cfg.nv.T1_nv == pytest.approx(4e-3)
    assert cfg.nv.T2_nv == pytest.approx(600e-6)
    # omega_0 = omega_r at the symmetry point
    from spinbus.couplings import pcq_frequency
    assert pcq_frequency(cfg.loop) == pytest.approx(TWO_PI * 6e9, rel=1e-12)
    echo = cfg.describe()
    assert "omega_r/2pi = 6 GHz" in echo
    assert "kappa/2pi = 26 kHz" in echo
    assert "zeta/2pi = 52 kHz" in echo


@pytest.mark.parametrize("name", PRESETS)
def test_echo_and_config_hash_match_golden(name):
    cfg = load_config(preset_path(name))
    golden = Path(__file__).parent / "data" / f"echo_{name}.txt"
    assert (cfg.describe() + "\n" + cfg.config_hash + "\n"
            ).encode() == golden.read_bytes()


def test_echo_shows_every_key_but_q():
    # Q only cross-checks kappa; products is shown by the [output] line
    echo = load_config_text(MINIMAL).describe()
    shown, section = set(), None
    for line in echo.splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif not line.startswith("  axis "):
            key = line.split(" = ")[0].strip().removesuffix("/2pi")
            shown.add((section, key))
    assert shown == set(KEY_TABLE) - {("resonator", "Q")}


def test_readme_config_block_loads_and_names_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    load_config_text(block)
    tree, _ = parse_config_text(block)
    assert sorted(tree) == sorted(KEY_TABLE)


def test_all_presets_load_and_validate():
    for name in ("fig3", "fig4a", "fig4b", "fig6a", "fig6b", "fig7"):
        cfg = load_config(preset_path(name))
        assert cfg.axes, name
        if name == "fig3":
            assert set(a.name for a in cfg.axes) == {"r_loop", "I_p"}
            assert "couplings" in cfg.products
        else:
            assert len(cfg.axes) == 1
            assert "spectrum" in cfg.products


def test_fig3_preset_design_values():
    cfg = load_config(preset_path("fig3"))
    # base point and gap of the reference device
    assert cfg.resonator.L_r == pytest.approx(2e-9)
    assert cfg.loop.I_p == pytest.approx(600e-9)
    assert cfg.loop.Delta == pytest.approx(TWO_PI * 5.2e9)
    assert cfg.nv.D == pytest.approx(TWO_PI * 2.87e9)
    # the two design radii lie exactly on the grid
    r_ax = next(a for a in cfg.axes if a.name == "r_loop")
    assert any(abs(v - 0.4e-6) < 1e-12 for v in r_ax.values)
    assert any(abs(v - 0.8e-6) < 1e-12 for v in r_ax.values)
    i_ax = next(a for a in cfg.axes if a.name == "I_p")
    assert any(abs(v - 600e-9) < 1e-15 for v in i_ax.values)


def test_fig4b_preset_dephasing_variant():
    cfg = load_config(preset_path("fig4b"))
    assert cfg.loop.T1_pcq == pytest.approx(20e-6)
    assert cfg.loop.T2_pcq == pytest.approx(20e-6)   # T2 = T1
    a = load_config(preset_path("fig4a"))
    assert a.loop.T2_pcq == pytest.approx(2 * a.loop.T1_pcq)  # no dephasing


def test_fig6_presets_differ_only_in_turns():
    a = load_config(preset_path("fig6a"))
    b = load_config(preset_path("fig6b"))
    assert a.loop.n_turns == 1
    assert b.loop.n_turns == 2
    assert a.loop.I_p == b.loop.I_p == pytest.approx(880e-9)
    assert a.loop.r_loop == b.loop.r_loop == pytest.approx(0.2e-6)


def test_fig7_preset_tau_axis():
    cfg = load_config(preset_path("fig7"))
    ax = cfg.axes[0]
    assert ax.name == "tau"
    assert ax.values == pytest.approx((0.5e-6, 5e-6, 10e-6, 15e-6, 20e-6))
    assert cfg.solver.dip_fraction == pytest.approx(0.1)
