"""The verdicts of tools/bench_pairs.py on synthetic run lists: the bound
check of one metric (compare), the gain claim (claim_verdict), the
check of --claim before any run and the per-run attempted counts."""

import json
import os
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL_PATH = os.path.join(ROOT, "tools", "bench_pairs.py")


def _tool():
    """tools/bench_pairs.py as a module, read without writing bytecode."""
    module = types.ModuleType("tools_bench_pairs")
    with open(TOOL_PATH, encoding="utf-8") as fh:
        exec(compile(fh.read(), TOOL_PATH, "exec"), module.__dict__)
    return module


bench_pairs = _tool()
LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.25}
TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_tight_parent_gives_a_bound_verdict():
    better = [v * 0.8 for v in TIGHT]
    entry = bench_pairs.compare(TIGHT, better, LOWER)
    assert entry["within_bound"] is True and "unresolved" not in entry
    assert entry["change_wins"] == 10
    assert entry["median_ratio"] == pytest.approx(0.8)
    worse = [v * 1.3 for v in TIGHT]
    entry = bench_pairs.compare(TIGHT, worse, LOWER)
    assert entry["within_bound"] is False and entry["change_wins"] == 0
    assert bench_pairs.compare(TIGHT, worse, HIGHER)["within_bound"] is True


def test_parent_spread_wider_than_the_bound_is_unresolved():
    # Parent IQR 0.5 against 0.25 x median 1.0: no bound verdict, however
    # close the medians, unless the change beats every parent run.
    wide = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]
    same = list(reversed(wide))
    entry = bench_pairs.compare(wide, same, LOWER)
    assert entry["unresolved"] is True and "within_bound" not in entry
    assert bench_pairs.compare(wide, same, HIGHER)["unresolved"] is True
    faster = [0.1, 0.2, 0.3, 0.35, 0.4, 0.4, 0.45, 0.46, 0.47, 0.49]
    entry = bench_pairs.compare(wide, faster, LOWER)
    assert entry["within_bound"] is True and "unresolved" not in entry
    assert bench_pairs.compare(wide, faster, HIGHER)["unresolved"] is True


def test_metric_without_bound_gets_no_bound_check():
    entry = bench_pairs.compare(TIGHT, TIGHT, {"better": "lower"})
    assert "within_bound" not in entry and "unresolved" not in entry


def test_claim_needs_nine_wins_and_a_gap_beyond_the_parent_iqr():
    faster = [v * 0.8 for v in TIGHT]
    verdict = bench_pairs.claim_verdict(bench_pairs.compare(TIGHT, faster,
                                                            LOWER))
    assert verdict["met"] is True and verdict["change_wins"] == 10
    assert verdict["median_change"] == pytest.approx(-0.2)
    # Eight wins: not met, however large the gap.
    eight = faster[:8] + [1.5, 1.5]
    verdict = bench_pairs.claim_verdict(bench_pairs.compare(TIGHT, eight,
                                                            LOWER))
    assert verdict["change_wins"] == 8 and verdict["met"] is False
    # Ten wins by less than the parent's spread: not met.
    nudged = [v - 0.001 for v in TIGHT]
    verdict = bench_pairs.claim_verdict(bench_pairs.compare(TIGHT, nudged,
                                                            LOWER))
    assert verdict["change_wins"] == 10
    assert verdict["median_gap"] < verdict["parent_iqr"]
    assert verdict["met"] is False


def test_claim_on_a_zero_parent_median():
    zeros = [0.0] * 10
    entry = bench_pairs.compare(zeros, [1.0] * 10, HIGHER)
    assert entry["median_ratio"] is None
    verdict = bench_pairs.claim_verdict(entry)
    assert verdict["median_change"] is None
    assert verdict["met"] is True


def test_bad_claim_exits_2_before_any_run(monkeypatch, tmp_path):
    runs = []

    def run_once(tree, workload, seed, trace):
        runs.append(tree)
        metrics = {name: {"value": 1.0} for name in
                   ("scan_wall_s", "setup_s", "peak_rss_mb")}
        return {"metrics": metrics, "correct": True, "attempted": 1,
                "failed": 0}, None

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_t.json"
    recorded = {"metrics": {"setup_s": bench_pairs.compare(TIGHT, TIGHT,
                                                           LOWER)}}
    out.write_text(json.dumps({"workloads": {"full_tau": {"3": recorded}}}))

    def main(claim, seed=3):
        return bench_pairs.main(["--parent", ROOT, "--change", ROOT,
                                 "--workload", "design_map", "--seed",
                                 str(seed), "--claim", claim,
                                 "--out", str(out)])

    for claim, seed in (("design_map", 3),              # no metric
                        ("design_map:scan_wall", 3),    # not a metric
                        ("design_map:sweeps.emit.s", 3),  # per-layer only
                        ("strong_drive:scan_wall_s", 3),  # never run
                        ("full_tau:scan_wall_s", 4)):     # other seed
        with pytest.raises(SystemExit) as exc:
            main(claim, seed)
        assert exc.value.code == 2
    assert runs == []
    # A workload already in the record at this seed may be claimed.
    assert main("full_tau:setup_s") == 0
    assert len(runs) == 2 * bench_pairs.PAIRS
    record = json.loads(out.read_text())
    assert record["claim"]["workload"] == "full_tau"


def test_record_keeps_each_runs_attempted_count(monkeypatch, tmp_path):
    # A run's attempted count is its points per repetition times the
    # repetitions it fitted in its budget; the record keeps it per run, in
    # run order, for each side.
    served = {"parent": 0, "change": 0}

    def run_once(tree, workload, seed, trace):
        side = "parent" if tree == ROOT else "change"
        served[side] += 1
        repetitions = 8 if side == "parent" else 8 + served[side] % 2
        metrics = {name: {"value": 1.0} for name in
                   ("scan_wall_s", "setup_s", "peak_rss_mb")}
        return {"metrics": metrics, "correct": True, "failed": 0,
                "attempted": 2 * repetitions}, None

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_t.json"
    assert bench_pairs.main(["--parent", ROOT, "--change", str(tmp_path),
                             "--workload", "design_map",
                             "--seed", "3", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["design_map"]["3"]
    assert entry["attempted"] == {
        "parent": [16] * bench_pairs.PAIRS,
        "change": [18, 16] * (bench_pairs.PAIRS // 2)}
