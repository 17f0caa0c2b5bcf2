"""Smoke test: the quick demos run to completion.

Demos 01, 03, 04, 05 and 06 together take a few seconds, so they run here as
subprocesses.  Demo 02 (Markov curve against the block rate) takes about 7 s
on a 2-core host and stays manual:
``PYTHONPATH=src python demos/02_markov_causal_curve.py``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_classical_equivalence.py",
    "03_backward_recursion_anatomy.py",
    "04_oracle_bracketing.py",
    "05_horizon_trend.py",
    "06_cli_workflow.py",
])
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
