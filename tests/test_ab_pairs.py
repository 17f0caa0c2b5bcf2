"""tools/ab_pairs.py's summary of alternating pairs, on a hand-made record."""
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
