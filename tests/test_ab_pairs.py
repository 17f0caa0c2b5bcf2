"""tools/ab_pairs.py's summary of alternating pairs, on a hand-made record."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import ab_pairs  # noqa: E402


def _result(wall, rss, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_of_hand_made_pairs():
    runs = [
        {"pair": 1, "side": "parent", "result": _result(0.20, 40.0)},
        {"pair": 1, "side": "change", "result": _result(0.15, 40.0)},
        {"pair": 2, "side": "change", "result": _result(0.16, 41.0)},
        {"pair": 2, "side": "parent", "result": _result(0.24, 40.0)},
        {"pair": 3, "side": "parent", "result": _result(0.22, 40.0)},
        {"pair": 3, "side": "change", "result": _result(0.30, 39.0, failed=1)},
        {"pair": 4, "side": "parent", "result": _result(0.30, 40.0)},   # no change run
    ]
    s = ab_pairs.summarize(runs)
    assert s["pairs"] == 3 and s["failed"] == 1 and s["correct"] is False
    assert s["wall_s.parent.median"] == 0.22 and s["wall_s.change.median"] == 0.16
    assert s["wall_s.change_vs_parent"] == pytest.approx(-0.06 / 0.22)
    assert s["wall_s.pair_ratios"] == pytest.approx([0.75, 0.16 / 0.24, 0.30 / 0.22])
    assert s["wall_s.pair_ratio.median"] == pytest.approx(0.75)
    assert s["wall_s.pairs_change_lower"] == 2
    # quartiles by statistics.quantiles (exclusive method) of 0.20, 0.22, 0.24
    assert s["wall_s.parent.iqr"] == pytest.approx(0.24 - 0.20)
    assert s["peak_rss_mb.change.median"] == 40.0 and s["peak_rss_mb.pairs_change_lower"] == 1


def _traced(wall, fp_calls, cbr_calls, ba_calls):
    r = _result(wall, 40.0)
    r["metrics"].update({
        "solver.fixed_point_solve.calls": {"value": fp_calls, "unit": "count"},
        "baseline.classical_block_rdf.calls": {"value": cbr_calls, "unit": "count"},
        "baseline.blahut_arimoto.calls": {"value": ba_calls, "unit": "count"},
        "oracle.brute_force_lagrangian_min.calls": {"value": 0.0, "unit": "count"}})
    return r


def test_summary_of_hand_made_traced_pairs():
    # per-layer metrics can read 0 on either side: no ratio to a parent 0
    runs = [
        {"pair": 1, "side": "parent", "result": _traced(0.030, 5.0, 1.0, 6.0)},
        {"pair": 1, "side": "change", "result": _traced(0.020, 5.0, 0.0, 1.0)},
        {"pair": 2, "side": "change", "result": _traced(0.021, 5.0, 0.0, 1.0)},
        {"pair": 2, "side": "parent", "result": _traced(0.032, 5.0, 1.0, 6.0)},
    ]
    s = ab_pairs.summarize(runs)
    assert s["pairs"] == 2 and s["correct"] is True
    assert s["baseline.blahut_arimoto.calls.parent.median"] == 6.0
    assert s["baseline.blahut_arimoto.calls.change.median"] == 1.0
    assert s["baseline.blahut_arimoto.calls.change_vs_parent"] == pytest.approx(-5.0 / 6.0)
    assert s["baseline.blahut_arimoto.calls.pairs_change_lower"] == 2
    assert s["baseline.classical_block_rdf.calls.pair_ratios"] == [0.0, 0.0]
    assert s["solver.fixed_point_solve.calls.pairs_change_lower"] == 0
    assert s["solver.fixed_point_solve.calls.pair_ratio.median"] == 1.0
    zero = "oracle.brute_force_lagrangian_min.calls"
    assert s[f"{zero}.change_vs_parent"] is None and s[f"{zero}.pair_ratios"] == [None, None]
    assert s[f"{zero}.pair_ratio.median"] is None and s[f"{zero}.pairs_change_lower"] == 0
    assert s["wall_s.parent.median"] == pytest.approx(0.031)


def test_traced_runs_follow_each_pair_in_its_order(tmp_path, monkeypatch):
    calls = []

    def run_once(copy, workload, seed, seconds, trace):
        calls.append((copy.name, seconds, trace))
        return _traced(0.03 if copy.name == "parent" else 0.02, 5.0, 0.0, 1.0)

    monkeypatch.setattr(ab_pairs, "git", lambda *args, **kw: (
        str(tmp_path) if "--show-toplevel" in args else "abc1234"))
    monkeypatch.setattr(ab_pairs, "export", lambda root, tree, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(ab_pairs, "working_tree", lambda root, tmp: "tree")
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert ab_pairs.main(["--parent", "HEAD", "--out", str(out), "--pairs", "2",
                          "--seconds", "4", "--workloads", "cli_verify",
                          "--trace-seconds", "3"]) == 0
    assert calls == [("parent", 4, 0), ("change", 4, 0), ("parent", 3, 1), ("change", 3, 1),
                     ("change", 4, 0), ("parent", 4, 0), ("change", 3, 1), ("parent", 3, 1)]
    traces = json.loads(out.read_text())["traces"]["cli_verify"]
    assert [(r["pair"], r["side"]) for r in traces["runs"]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent")]
    assert traces["seconds"] == 3 and traces["summary"]["pairs"] == 2
    assert traces["summary"]["wall_s.pairs_change_lower"] == 2
