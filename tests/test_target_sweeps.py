"""tools/target_sweeps.py on the first two targets of its set."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import target_sweeps  # noqa: E402


def test_first_two_targets_are_met_in_nine_probes(capsys):
    # sources 0 and 1 of the 20-target set; with cold starts the search took
    # 2,248 sweeps on these two, with warm starts 1,829
    totals = target_sweeps.main(["--first", "2"])
    lines = capsys.readouterr().out.splitlines()
    targets, multipliers = lines[0:4:2], lines[1:4:2]
    assert [line.split()[0] for line in targets] == ["set0", "set1"]
    assert all("target_met=True" in line for line in targets)
    # each target's multipliers, one per probe, the first the doubling's -1
    for line, s in zip(targets, multipliers):
        probes = int(line.split("probes=")[1].split()[0])
        assert s.startswith("    s=-1.0 ") and len(s.split()) == probes
    assert lines[4] == " ".join(f"{k}={v}" for k, v in totals.items())
    assert totals["targets"] == totals["met"] == 2 and totals["probes"] == 9
    assert totals["sweeps"] <= 1900
