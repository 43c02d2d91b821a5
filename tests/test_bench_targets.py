"""The benchmark's layer trace (perfbench/spans.py) wraps spinbus functions
by module and attribute name, and reads some of their arguments by position.
A renamed function or a moved argument would not fail the benchmark: the
trace skips a missing target with one stderr line and that layer's metrics
read zero. The same zeros follow from a target that exists but that the
program no longer calls through that name. These tests keep the names and
positions the trace relies on, the targets a scan actually enters, the
package names the benchmark's oracle imports, and that the oracle accepts
what the CLI writes and rejects a perturbed value."""

import ast
import importlib
import inspect
import os
import types

import pytest

import spinbus
from spinbus.cli import main, preset_path

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load(name):
    """perfbench/<name>.py as a module, read without writing bytecode."""
    path = os.path.join(PERFBENCH, f"{name}.py")
    module = types.ModuleType(f"perfbench_{name}")
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


def _target(module_name, attr):
    return getattr(importlib.import_module(module_name), attr, None)


@pytest.mark.parametrize("module_name, attr",
                         [target[:2] for target in _load("spans").TARGETS])
def test_every_trace_target_exists(module_name, attr):
    assert callable(_target(module_name, attr))


def test_every_trace_target_but_the_known_leftovers_is_entered(
        tmp_path, monkeypatch):
    # One small adaptive spectrum scan (CSV) and the fig3 couplings scan
    # (plotdata) through the CLI, with every target counted where the trace
    # wraps it. The leftovers are names the scan no longer calls: sector
    # problems are built in spinbus.spectrum, and a spectrum is the method
    # SectorProblem.spectrum, not the spectrum_resolvent function.
    calls = {}
    for module_name, attr, *_ in _load("spans").TARGETS:
        key = f"{module_name.rsplit('.', 1)[1]}.{attr}"
        calls[key] = 0

        def counting(*args, _fn=_target(module_name, attr), _key=key,
                     **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module(module_name), attr,
                            counting)
    assert main(["spectrum", "--preset", "fig7", "--override", "tau=20us",
                 "--override", "solver.grid_points=201", "--threads", "1",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["couplings", "--preset", "fig3", "--format", "plotdata",
                 "--out", str(tmp_path / "c.dat")]) == 0
    assert {key for key, n in calls.items() if n == 0} == {
        "sweeps.sector_problem", "sweeps.spectrum_resolvent",
        "spectrum.spectrum_resolvent"}


@pytest.mark.parametrize("module_name, attr, position, name", [
    ("spinbus.spectrum", "spectrum_resolvent", 0, "lio"),
    ("spinbus.spectrum", "spectrum_resolvent", 3, "omega_grid"),
    ("spinbus.sweeps", "adaptive_truncation", 0, "metric_fn"),
    ("spinbus.cli", "emit_csv", 1, "path"),
    ("spinbus.cli", "emit_plotdata", 1, "path"),
])
def test_arguments_the_trace_reads_keep_their_position(module_name, attr,
                                                       position, name):
    parameters = list(inspect.signature(_target(module_name, attr)).parameters)
    assert parameters[position] == name


def test_names_the_oracle_imports_from_the_package_resolve():
    # perfbench/oracle.py runs in the benchmark's own process, so a name it
    # cannot import would fail every run as an oracle crash.
    path = os.path.join(PERFBENCH, "oracle.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "spinbus"
             for alias in node.names]
    assert names
    for name in names:
        assert name in spinbus.__all__, name
        getattr(spinbus, name)


def test_oracle_accepts_a_spectrum_point_and_catches_a_perturbed_one(
        tmp_path):
    # The benchmark's correctness check on one fig7 point, as the benchmark
    # calls it: a change to distance_for or to ModelParams that broke the
    # oracle would otherwise first show as a failed benchmark run.
    oracle = _load("oracle")
    overrides = ["tau=20us", "solver.grid_points=201"]
    out = str(tmp_path / "s.csv")
    argv = ["spectrum", "--preset", "fig7", "--out", out]
    for override in overrides:
        argv += ["--override", override]
    assert main(argv) == 0
    args = (preset_path("fig7"), overrides, out, [20.0], 7)
    assert oracle.check_spectrum_run(*args) == [True]
    assert oracle.check_spectrum_run(*args, perturb=True) == [False]


def test_oracle_accepts_a_fixed_distance_map_and_catches_a_perturbed_cell(
        tmp_path):
    oracle = _load("oracle")
    cfg = tmp_path / "fig3_fixed.cfg"
    with open(preset_path("fig3"), encoding="utf-8") as fh:
        cfg.write_text(fh.read() + "\n[solver]\nd_rule = 0.8 um\n")
    csv_path, dat_path = str(tmp_path / "m.csv"), str(tmp_path / "m.dat")
    for path, fmt in ((csv_path, "csv"), (dat_path, "plotdata")):
        assert main(["couplings", "--config", str(cfg), "--format", fmt,
                     "--out", path]) == 0
    verdicts = oracle.check_map_run(str(cfg), csv_path, dat_path, 7)
    assert len(verdicts) == oracle.MAP_CELLS and all(verdicts)
    assert oracle.check_map_run(str(cfg), csv_path, dat_path, 7,
                                perturb=True) == [False]
