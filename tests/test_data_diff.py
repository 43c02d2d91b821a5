"""The table comparison of tools/data_diff.py on synthetic CSV text."""

import os
import types

import pytest

TOOL_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "data_diff.py")


def _tool():
    """tools/data_diff.py as a module, read without writing bytecode."""
    module = types.ModuleType("tools_data_diff")
    with open(TOOL_PATH, encoding="utf-8") as fh:
        exec(compile(fh.read(), TOOL_PATH, "exec"), module.__dict__)
    return module


data_diff = _tool()
SPECTRA = """\
# spinbus = 0.1.0
# created = 2026-01-01T00:00:00+00:00
tau (us),delta_omega_over_2pi (kHz),S (s),log10_S (1)
5,-1,1.0,0
5,0,4.0,0.60205999132796229
5,1,2.0,0.3010299956639812
10,-1,0.5,-0.3010299956639812
10,0,0.25,-0.6020599913279624
"""
PEAKS = """\
# spinbus = 0.1.0
tau (us),n_peaks (1),resolved (bool),dip_depth (1),peak_positions_over_2pi (kHz),peak_fwhm_over_2pi (kHz)
5,1,false,0,-4.12144,308.58
15,3,true,0.12071510401765059,-73.4262;-0.977153;72.094,233.882;225.885;235.694
"""


def test_identical_data_sections_ignore_comment_lines():
    change = SPECTRA.replace("2026-01-01", "2027-06-30")
    result = data_diff.compare_tables(SPECTRA, change)
    assert result == {"rows": 5, "changed": 0, "max_rel_dS": 0.0}


def test_spectra_change_is_relative_to_the_peak_of_its_point():
    # 0.5 -> 0.5005 at tau = 10 (peak 0.5) outweighs 2.0 -> 2.001 at tau = 5
    # (peak 4.0): 1e-3 against 2.5e-4.
    change = (SPECTRA.replace("5,1,2.0,", "5,1,2.001,")
              .replace("10,-1,0.5,", "10,-1,0.5005,"))
    result = data_diff.compare_tables(SPECTRA, change)
    assert result["rows"] == 5 and result["changed"] == 2
    assert result["max_rel_dS"] == pytest.approx(1e-3)
    assert "changed_columns" not in result


def test_peaks_table_names_the_changed_columns():
    change = PEAKS.replace("0.12071510401765059", "0.12071510401765061")
    result = data_diff.compare_tables(PEAKS, change)
    assert result == {"rows": 2, "changed": 1,
                      "changed_columns": ["dip_depth (1)"]}
    line = data_diff.describe("fig7 out_peaks.csv", result)
    assert line == ("fig7 out_peaks.csv: 1 of 2 rows changed, "
                    "columns dip_depth (1)")


def test_changed_layout_is_reported_not_compared():
    assert data_diff.compare_tables(SPECTRA, SPECTRA + "10,1,0.1,-1\n") == {
        "layout_differs": True}
    renamed = PEAKS.replace("n_peaks (1)", "count (1)")
    assert data_diff.compare_tables(PEAKS, renamed) == {"layout_differs": True}


@pytest.mark.parametrize("change, status", [
    ({"out.dat": "# other comment\n1 2\n3 4\n"}, 0),
    ({"out.csv": SPECTRA.replace("5,1,2.0,", "5,1,2.001,")}, 1),
    ({"out.csv": SPECTRA + "10,1,0.1,-1\n"}, 1),
    ({"out.dat": "# other comment\n1 2\n3 5\n"}, 1),
])
def test_exit_status_is_1_when_any_data_section_differs(monkeypatch, capsys,
                                                        change, status):
    tables = {"out.csv": SPECTRA, "out_peaks.csv": PEAKS,
              "out.dat": "# comment\n1 2\n3 4\n"}
    trees = {"parent": tables, "change": {**tables, **change}}
    calls = []

    def write_tables(tree, invocations, out_dir, threads, overrides):
        calls.append(invocations)
        os.makedirs(out_dir)
        for name, text in trees[os.path.basename(tree)].items():
            with open(os.path.join(out_dir, name), "w",
                      encoding="utf-8") as fh:
                fh.write(text)

    monkeypatch.setattr(data_diff, "run_tree", write_tables)
    argv = ["--parent", "parent", "--change", "change", "--preset", "fig7"]
    assert data_diff.main(argv) == status
    assert len(capsys.readouterr().out.splitlines()) == 3
    # each tree runs the preset once per format
    scan = ["scan", "--preset", "fig7"]
    assert calls == 2 * [[scan + ["--out", "out.csv"],
                          scan + ["--format", "plotdata", "--out", "out.dat"]]]


def test_a_config_file_runs_in_both_trees_in_both_formats(
        monkeypatch, tmp_path, capsys):
    # a relative path, while every run's working directory is its own
    # output directory
    root = os.path.dirname(os.path.dirname(TOOL_PATH))
    (tmp_path / "ip.cfg").write_text(
        "[resonator]\nomega_r = 6 GHz\nL_r = 2 nH\nkappa = 26 kHz\n"
        "[scan]\naxis I_p = list 500, 600 nA\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", root, "--change", root, "--config", "ip.cfg"]
    assert data_diff.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ip.cfg out.csv: 0 of 2 rows changed",
        "ip.cfg out.dat: data section identical"]
