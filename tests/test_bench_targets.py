"""The benchmark's layer trace (perfbench/spans.py) wraps spinbus functions
by module and attribute name, and reads some of their arguments by position.
A renamed function or a moved argument would not fail the benchmark: the
trace skips a missing target with one stderr line and that layer's metrics
read zero. These tests keep the names and positions the trace relies on,
and the package names the benchmark's oracle imports."""

import ast
import importlib
import inspect
import os
import types

import pytest

import spinbus

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
SPANS_PATH = os.path.join(PERFBENCH, "spans.py")


def _spans():
    """perfbench/spans.py as a module, read without writing bytecode."""
    module = types.ModuleType("perfbench_spans")
    with open(SPANS_PATH, encoding="utf-8") as fh:
        exec(compile(fh.read(), SPANS_PATH, "exec"), module.__dict__)
    return module


def _target(module_name, attr):
    return getattr(importlib.import_module(module_name), attr, None)


@pytest.mark.parametrize("module_name, attr",
                         [target[:2] for target in _spans().TARGETS])
def test_every_trace_target_exists(module_name, attr):
    assert callable(_target(module_name, attr))


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
