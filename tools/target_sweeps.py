"""Probes and sweeps of the multiplier search on a fixed set of distortion targets.

    python3 tools/target_sweeps.py [--first N]

Runs ``solve_for_target_distortion`` at default settings on 28 targets, all on
perfbench's full-history sources (``perfbench/workloads.fullhist_source``:
binary, n = 5, Hamming distortion):

* the 20-target set: source k, for k = 0..19, at floor + u (D_max - floor),
  u drawn from U(0.05, 0.95) by ``numpy.random.default_rng(k)``;
* eight slow targets: sources 7, 11, 32, 279, 1 and 97 at D = 0.2, and
  sources 7 and 11 at D = 0.25.

For each target it prints one line: its name, source, D, the probes
(``fixed_point_solve`` calls) and their total sweeps, ``target_met`` and the
returned rate R in total nats, to 17 digits; then an indented line of the
probes' multipliers, each its ``repr``, in probe order, so the output of two
commits can be diffed exactly; then the totals.  ``--first N`` runs only the
first N targets.  Exits 1 when a target is missed.  The package is imported
from the ``src`` directory next to this file, so a copy of the file run in a
``git archive`` export of another commit measures that commit's search.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SLOW = [(7, 0.2), (11, 0.2), (32, 0.2), (279, 0.2), (1, 0.2), (97, 0.2), (7, 0.25), (11, 0.25)]


def targets(source_of, hamming, solver):
    """(name, source number, source, per-symbol target) of every target, in order."""
    out = []
    for k in range(20):
        src = source_of(k)
        spec = hamming(src.alphabets)
        floor = solver.min_achievable_distortion(src, spec)
        d_max = solver.d_max_policy(src, spec)[0]
        u = np.random.default_rng(k).uniform(0.05, 0.95)
        out.append((f"set{k}", k, src, floor + u * (d_max - floor)))
    return out + [(f"slow{j}", k, source_of(k), d) for j, (k, d) in enumerate(SLOW)]


def main(argv=None) -> dict:
    """Print the lines and return the totals."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first", type=int, default=None, help="run only the first N targets")
    args = ap.parse_args(argv)
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from causalrd import hamming_distortion, solver
    from perfbench.workloads import fullhist_source

    probes = []                                       # (s, sweeps) of each probe
    real = solver.fixed_point_solve

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        probes.append((result.s, result.sweeps_used))
        return result

    totals = {"targets": 0, "probes": 0, "sweeps": 0, "met": 0}
    solver.fixed_point_solve = counted
    try:
        for name, k, src, d in targets(fullhist_source, hamming_distortion, solver)[:args.first]:
            probes.clear()
            r = solver.solve_for_target_distortion(src, hamming_distortion(src.alphabets), d)
            sweeps = sum(n for _, n in probes)
            print(f"{name} source={k} D={d:.17g} probes={len(probes)} sweeps={sweeps} "
                  f"target_met={r.target_met} R={r.rate_nats:.17g}")
            print("    s=" + " ".join(repr(s) for s, _ in probes))
            for key, v in (("targets", 1), ("probes", len(probes)), ("sweeps", sweeps),
                           ("met", r.target_met)):
                totals[key] += v
    finally:
        solver.fixed_point_solve = real
    print(" ".join(f"{key}={v}" for key, v in totals.items()))
    return totals


if __name__ == "__main__":
    totals = main()
    sys.exit(0 if totals["met"] == totals["targets"] else 1)
