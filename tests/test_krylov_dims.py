"""tools/krylov_dims.py: the chosen n_fock of every scan point in two trees."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL_PATH = os.path.join(ROOT, "tools", "krylov_dims.py")

TWO_POINTS = """\
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
grid_points = 101
grid_span_kappa = 8

[scan]
axis tau = list 5, 20 us

[output]
products = spectrum
"""


@pytest.fixture
def krylov_dims(monkeypatch):
    """tools/krylov_dims.py as a module; the tools directory it puts on
    sys.path is taken off again after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tools_krylov_dims",
                                                  TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_two_point_config_in_the_same_tree_on_both_sides(tmp_path):
    (tmp_path / "two.cfg").write_text(TWO_POINTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, TOOL_PATH, "--parent", ROOT, "--change", ROOT,
         "--config", "two.cfg"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["two.cfg parent",
                                                      "two.cfg change"]
    # 2 points x (probes at N = 4 and 6, final at N = 4) x 3 sectors
    for line in lines:
        assert "n_fock [tau=5e-06: 4, tau=2e-05: 4]" in line
        assert line.endswith(" over 18 projections")
    assert lines[0].split(": ", 1)[1] == lines[1].split(": ", 1)[1]


@pytest.mark.parametrize("change, status", [
    ([["tau", 5e-06, 4], ["tau", 2e-05, 4]], 0),
    ([["tau", 5e-06, 4], ["tau", 2e-05, 6]], 1),
])
def test_exit_status_is_1_when_any_n_fock_differs(krylov_dims, monkeypatch,
                                                  capsys, change, status):
    points = {"parent": [["tau", 5e-06, 4], ["tau", 2e-05, 4]],
              "change": change}
    dims = {"parent": [32, 16, 16], "change": [24, 16]}

    def records(tree, invocations, out_dir, overrides):
        side = os.path.basename(tree)
        return {"points": points[side], "dims": dims[side]}

    monkeypatch.setattr(krylov_dims, "run_tree", records)
    argv = ["--parent", "parent", "--change", "change", "--preset", "fig7"]
    assert krylov_dims.main(argv) == status
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "fig7 parent: n_fock [tau=5e-06: 4, tau=2e-05: 4]; "
        "sum m 64 over 3 projections",
        f"fig7 change: n_fock [tau=5e-06: 4, tau=2e-05: {change[1][2]}]; "
        "sum m 40 over 2 projections"]
    assert lines[2:] == (["fig7: n_fock differs"] if status else [])
