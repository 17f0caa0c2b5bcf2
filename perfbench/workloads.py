"""The four workloads: inputs built from the seed, the operations one pass
issues, and the reference every operation's output is checked against.

Every call goes through a public causalrd function looked up on its module at
call time, so the tracer's patches see it.  NOTES.md says why each workload
exists and which layer it stresses.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import causalrd
from causalrd import cli, oracle, solver

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

# Solver outputs may move by legitimate re-ordering of float work or by a
# tighter stopping rule; a wrong answer moves them by far more than this.
RD_ATOL = 1e-5

MARKOV_FLIP = 0.3
MARKOV_LONG_N = 10
MARKOV_LONG_S = (-6.0, -4.0)

FULLHIST_N = 5
FULLHIST_S = -2.0
FULLHIST_GENERATOR = ("binary full-history source, n=5: stage i draws each of "
                      "its 2^i rows from Dirichlet(1, 1) with "
                      "numpy.random.default_rng(rng_seed), stage by stage")
# One source per level, picked by the seed among the pool sources whose
# reference sweep count lies within LEVEL_WIDTH of the level.  The levels fix
# the work of a pass (about 4350 reference sweeps) whatever the seed.  The
# pool is rng_seed 0..POOL_SIZE-1; refs.json keeps each level's candidates.
SWEEP_LEVELS = (100, 150, 200, 300, 450, 650, 1000, 1500)
LEVEL_WIDTH = 0.05
POOL_SIZE = 400

CLI_CONFIG = {
    "schema_version": 1,
    "horizon": 4,
    "mode": "verify",
    "source": {"type": "markov", "init": [0.5, 0.5],
               "transition": [[1 - MARKOV_FLIP, MARKOV_FLIP],
                              [MARKOV_FLIP, 1 - MARKOV_FLIP]]},
    "distortion": "hamming",
    "D_target": 0.2,
    "output": {"format": "json"},
}

ORACLE_N = 2
ORACLE_S = (-1.0, -2.0, -4.0)
ORACLE_RESOLUTION = 0.02


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` is not; ``check`` returns
    None when the output matches its reference, else what missed."""
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


def load_refs() -> dict:
    with open(REFS_PATH) as f:
        return json.load(f)


def perturb_refs(refs: dict) -> dict:
    """A copy of ``refs`` that every operation of every workload must miss:
    each rate moved by 1e-3 nats, each oracle value by one ulp."""
    refs = json.loads(json.dumps(refs))
    cands = [p for level in refs["fullhist_levels"].values() for p in level]
    for p in refs["markov_long"] + cands + [refs["cli_verify"]]:
        p["R_total_nats"] += 1e-3
    for p in refs["oracle_grid"]:
        p["value"] = float(np.nextafter(p["value"], math.inf))
    return refs


def rd_miss(label, rate, dist, ref) -> Optional[str]:
    dr = abs(rate - ref["R_total_nats"])
    dd = abs(dist - ref["D_per_symbol"])
    if not (dr <= RD_ATOL and dd <= RD_ATOL):
        return f"{label}: |dR|={dr:.3e} |dD|={dd:.3e} over {RD_ATOL:g}"
    return None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def fullhist_source(rng_seed: int) -> causalrd.SourceModel:
    rng = np.random.default_rng(rng_seed)
    al = causalrd.StageAlphabets(FULLHIST_N, [2] * FULLHIST_N, [2] * FULLHIST_N)
    ks = [rng.dirichlet(np.ones(2), size=al.x_hist_size(i - 1))
          for i in range(FULLHIST_N)]
    return causalrd.SourceModel(al, ks)


def in_level(sweeps: int, level: int) -> bool:
    return abs(sweeps - level) <= LEVEL_WIDTH * level


def fullhist_pick(seed: int, levels: dict) -> list:
    """References of the sources a pass solves, one per sweep level.
    ``levels`` maps each level to its candidates, in rng_seed order."""
    rng = np.random.default_rng(seed)
    picked = []
    for level in SWEEP_LEVELS:
        cands = levels[str(level)]
        picked.append(cands[int(rng.integers(len(cands)))])
    return picked


def markov_inputs(n: int):
    src = causalrd.binary_symmetric_markov(MARKOV_FLIP, n)
    return src, causalrd.hamming_distortion(src.alphabets)


# ---------------------------------------------------------------------------
# Workloads: each returns (ops of one pass, metadata describing the inputs)
# ---------------------------------------------------------------------------

def markov_long(seed: int, refs: dict, workdir: Path):
    src, spec = markov_inputs(MARKOV_LONG_N)
    ref = {p["s"]: p for p in refs["markov_long"]}

    def check(curve):
        misses = []
        for p in curve.points:
            if not p.converged or p.error:
                misses.append(f"s={p.s}: converged={p.converged} error={p.error}")
            else:
                misses.append(rd_miss(f"s={p.s}", p.rate_total_nats,
                                      p.distortion_per_symbol, ref[p.s]))
        return "; ".join(m for m in misses if m) or None

    op = Op("trace_curve",
            lambda: solver.trace_curve(src, spec, list(MARKOV_LONG_S)), check)
    return [op], {"source": f"binary_symmetric_markov({MARKOV_FLIP}, {MARKOV_LONG_N})",
                  "s_values": list(MARKOV_LONG_S)}


def fullhist_batch(seed: int, refs: dict, workdir: Path):
    cfg = causalrd.SolverConfig(s=FULLHIST_S)
    ops = []
    picked = fullhist_pick(seed, refs["fullhist_levels"])
    for ref in picked:
        src = fullhist_source(ref["rng_seed"])
        spec = causalrd.hamming_distortion(src.alphabets)

        def call(src=src, spec=spec):
            return solver.fixed_point_solve(src, spec, cfg)

        def check(res, ref=ref):
            if not res.converged:
                return f"rng_seed={ref['rng_seed']}: not converged"
            return rd_miss(f"rng_seed={ref['rng_seed']}", res.rate_nats,
                           res.distortion_per_symbol, ref)

        ops.append(Op(f"fixed_point_solve[{ref['rng_seed']}]", call, check))
    return ops, {"generator": FULLHIST_GENERATOR, "s": FULLHIST_S,
                 "source_rng_seeds": [p["rng_seed"] for p in picked],
                 "reference_sweeps": sum(p["sweeps"] for p in picked)}


def cli_verify(seed: int, refs: dict, workdir: Path):
    config = workdir / "cli_verify.json"
    report = workdir / "cli_verify.out.json"
    config.write_text(json.dumps(CLI_CONFIG))
    ref = refs["cli_verify"]

    def check(status):
        try:
            rep = json.loads(report.read_text())
        except (OSError, ValueError) as exc:
            return f"no report: {exc}"
        finally:
            report.unlink(missing_ok=True)
        misses = [] if status == 0 else [f"exit status {status}"]
        misses += [f"check {c['check']} failed ({c['value']})"
                   for c in rep["checks"] if not c["pass"]]
        if {c["check"] for c in rep["checks"]} != set(ref["checks"]):
            misses.append(f"checks run: {[c['check'] for c in rep['checks']]}")
        pt = rep["points"][0]
        misses.append(rd_miss("point", pt["R_total_nats"], pt["D_per_symbol"], ref))
        return "; ".join(m for m in misses if m) or None

    op = Op("cli.run", lambda: cli.run(str(config), out=str(report), seed=seed),
            check)
    return [op], {"config": CLI_CONFIG, "check_seed": seed}


def oracle_grid(seed: int, refs: dict, workdir: Path):
    src, spec = markov_inputs(ORACLE_N)
    grid = oracle.GridSpec(resolution=ORACLE_RESOLUTION)
    ref = {p["s"]: p["value"] for p in refs["oracle_grid"]}
    ops = []
    for s in ORACLE_S:
        def check(out, s=s):
            if out[0] != ref[s]:
                return f"s={s}: value {out[0]!r} != reference {ref[s]!r}"
            return None

        ops.append(Op(f"brute_force_lagrangian_min[{s}]",
                      lambda s=s: oracle.brute_force_lagrangian_min(src, spec, s, grid),
                      check))
    return ops, {"source": f"binary_symmetric_markov({MARKOV_FLIP}, {ORACLE_N})",
                 "s_values": list(ORACLE_S), "resolution": ORACLE_RESOLUTION}


WORKLOADS = {
    "markov_long": markov_long,
    "fullhist_batch": fullhist_batch,
    "cli_verify": cli_verify,
    "oracle_grid": oracle_grid,
}
