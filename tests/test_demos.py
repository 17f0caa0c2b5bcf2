"""Smoke test: every demo runs to completion.

Each of the six demos takes 0.2-0.6 s on a 2-core host, so all run here as
subprocesses.  Demo 05 solves a distortion target at horizons up to 10
(`rate_limit_estimate` at n=10 alone takes under 0.05 s); demo 02 is the
only one that runs `classical_block_rdf` and reads the curve's verdicts.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_classical_equivalence.py",
    "02_markov_causal_curve.py",
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
