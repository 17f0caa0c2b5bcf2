"""Smoke test: the quick demos run to completion.

Demos 01, 03, 04, 05 and 06 together take about 8 s on a 2-core host, so they
run here as subprocesses; demo 05, which solves a distortion target at
horizons up to 10 (`rate_limit_estimate` at n=10 alone takes about 2 s),
takes about 4 s of that.  Demo 02 (Markov curve against the block rate)
takes about 8 s and stays manual:
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
    # -W error: the suite's filterwarnings setting does not reach a subprocess
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
