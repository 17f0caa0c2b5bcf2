"""Record the references every benchmark operation is checked against.

Run from the repository root; it rewrites perfbench/refs.json:

    python3 perfbench/record_refs.py

The stored values are the outputs of the commit it ran at.  A later commit
must match them (see workloads.RD_ATOL); regenerate them only where a change
is meant to alter results, and say so.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import causalrd  # noqa: E402
from causalrd import cli, oracle, solver  # noqa: E402

import workloads as wl  # noqa: E402
from worker import metadata  # noqa: E402


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    t0 = time.perf_counter()

    src, spec = wl.markov_inputs(wl.MARKOV_LONG_N)
    curve = solver.trace_curve(src, spec, list(wl.MARKOV_LONG_S))
    markov = [{"s": p.s, "R_total_nats": p.rate_total_nats,
               "D_per_symbol": p.distortion_per_symbol, "sweeps": p.sweeps}
              for p in curve.points]

    cfg = causalrd.SolverConfig(s=wl.FULLHIST_S)
    levels = {str(level): [] for level in wl.SWEEP_LEVELS}
    not_converged = []
    for j in range(wl.POOL_SIZE):
        fsrc = wl.fullhist_source(j)
        r = solver.fixed_point_solve(fsrc, causalrd.hamming_distortion(fsrc.alphabets), cfg)
        print(f"fullhist {j}: {r.sweeps_used} sweeps, converged={r.converged}",
              file=sys.stderr, flush=True)
        if not r.converged:
            not_converged.append(j)
            continue
        for level in wl.SWEEP_LEVELS:
            if wl.in_level(r.sweeps_used, level):
                levels[str(level)].append(
                    {"rng_seed": j, "sweeps": r.sweeps_used, "R_total_nats": r.rate_nats,
                     "D_per_symbol": r.distortion_per_symbol})

    with tempfile.TemporaryDirectory(dir=wl.HERE) as tmp:
        config = Path(tmp) / "cli_verify.json"
        report = Path(tmp) / "cli_verify.out.json"
        config.write_text(json.dumps(wl.CLI_CONFIG))
        status = cli.run(str(config), out=str(report), seed=0)
        rep = json.loads(report.read_text())
    if status != 0 or not all(c["pass"] for c in rep["checks"]):
        raise SystemExit(f"cli_verify fails at this commit: status {status}")
    pt = rep["points"][0]
    cli_ref = {"R_total_nats": pt["R_total_nats"], "D_per_symbol": pt["D_per_symbol"],
               "checks": [c["check"] for c in rep["checks"]]}

    osrc, ospec = wl.markov_inputs(wl.ORACLE_N)
    grid = oracle.GridSpec(resolution=wl.ORACLE_RESOLUTION)
    oracle_ref = [{"s": s, "value": oracle.brute_force_lagrangian_min(osrc, ospec, s, grid)[0]}
                  for s in wl.ORACLE_S]

    refs = {"recorded_with": metadata(), "markov_long": markov,
            "fullhist_levels": levels, "cli_verify": cli_ref, "oracle_grid": oracle_ref}
    print(f"not converged: rng_seed {not_converged}", file=sys.stderr)
    for level, cands in levels.items():
        print(f"level {level}: {len(cands)} candidate sources", file=sys.stderr)
        if len(cands) < 3:
            raise SystemExit(f"sweep level {level} has {len(cands)} candidates; "
                             "enlarge workloads.POOL_SIZE")
    wl.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {wl.REFS_PATH} in {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
