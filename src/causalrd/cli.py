"""Configuration-driven command line front end.

Usage: ``causalrd run CONFIG [--mode M] [--out PATH] [--check NAME ...]
[--seed N] [--units nats|bits]``.

The config is a JSON object with ``schema_version: 1``; see README for the
schema.  Results are written as a plot-ready CSV (header
``s,D_per_symbol,R_total,R_per_symbol,sweeps,converged,residual``, floats at
12 significant digits) plus a JSON report mirroring the rows with full
diagnostics.  Exit status: 0 success, 2 config error, 3 numerical failure,
4 infeasible distortion target.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .baseline import classical_block_rdf
from .errors import CausalRdError, ConfigError, InvalidArgumentError, ResourceBudgetError
from .measures import joint_law, markov_chain_check
from .model import (
    DistortionSpec,
    SourceModel,
    StageAlphabets,
    full_joint_source,
    iid_source,
    markov_source,
)
from .solver import (
    CURVE_TOL,
    CurvePoint,
    SolverConfig,
    fixed_point_solve,
    solve_for_target_distortion,
    trace_curve,
    verify_stationarity,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4

CSV_HEADER = "s,D_per_symbol,R_total,R_per_symbol,sweeps,converged,residual"
MODES = ("solve_s", "target_d", "curve", "horizon_sweep", "verify")
CHECKS = ("dominance", "convexity", "mc-residual", "stationarity")
LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    raw: dict
    mode: str
    problems: list          # (source, spec) per solve: one per horizon in horizon_sweep
    solver: dict            # SolverConfig keyword arguments other than s
    s: Optional[float] = None
    s_values: Optional[list] = None
    d_target: Optional[float] = None
    horizons: Optional[list] = None
    out_format: str = "csv"
    out_path: Optional[str] = None
    units: str = "nats"


def _need(obj, key, path, types=None):
    if key not in obj:
        raise ConfigError(f"missing field {path}.{key}")
    v = obj[key]
    if types is not None and not isinstance(v, types):
        raise ConfigError(f"field {path}.{key} has wrong type")
    return v


def _opt(obj, key, path, ok, what, kind=None):
    """``obj[key]`` converted by ``kind``, or None when absent; a present
    value that fails ``ok`` raises ConfigError naming the field."""
    v = obj.get(key)
    if v is None:
        return None
    if not ok(v):
        raise ConfigError(f"{path}.{key} must be {what}")
    return v if kind is None else kind(v)


def _real(v) -> bool:
    """A JSON number, not a boolean, that a finite float can hold."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _integer(v) -> bool:
    return _real(v) and float(v).is_integer()


def _positive_integer(v) -> bool:
    return _integer(v) and v >= 1


def _list_of(ok):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(ok(x) for x in v)


def _build_source(cfg: dict, horizon: int, y_sizes) -> SourceModel:
    """The validated source of ``$.source`` over ``horizon`` stages."""
    src_cfg = _need(cfg, "source", "$", dict)
    kind = _need(src_cfg, "type", "$.source", str)
    if kind != "general" and y_sizes and len(set(y_sizes)) != 1:
        raise ConfigError("$.y_sizes must be constant for iid/markov sources")
    ys = y_sizes[0] if y_sizes else None
    if kind == "iid":
        px = np.asarray(_need(src_cfg, "px", "$.source", list), dtype=float)
        return iid_source(px, horizon, y_size=ys)
    if kind == "markov":
        init = np.asarray(_need(src_cfg, "init", "$.source", list), dtype=float)
        trans = np.asarray(_need(src_cfg, "transition", "$.source", list), dtype=float)
        return markov_source(init, trans, horizon, y_size=ys)
    if kind == "general":
        x_sizes = _need(src_cfg, "x_sizes", "$.source", list)
        kernels = _need(src_cfg, "kernels", "$.source", list)
        al = StageAlphabets(horizon, x_sizes, y_sizes if y_sizes else x_sizes)
        return SourceModel(al, [np.asarray(k, dtype=float) for k in kernels],
                           memory=src_cfg.get("memory", "full"))
    raise ConfigError(f"$.source.type must be one of iid|markov|general, got {kind!r}")


def _build_spec(cfg: dict, alphabets) -> DistortionSpec:
    d_cfg = _need(cfg, "distortion", "$", (dict, str))
    if d_cfg == "hamming":
        from .model import hamming_distortion
        return hamming_distortion(alphabets)
    if isinstance(d_cfg, dict) and "single_letter" in d_cfg:
        return DistortionSpec.single_letter(
            alphabets, np.asarray(d_cfg["single_letter"], dtype=float))
    if isinstance(d_cfg, dict) and "stage_tables" in d_cfg:
        return DistortionSpec.stage_tables(
            alphabets, [np.asarray(t, dtype=float) for t in d_cfg["stage_tables"]])
    raise ConfigError("$.distortion must be 'hamming' or carry "
                      "single_letter or stage_tables")


def _build_problem(cfg: dict, horizon: int, y_sizes):
    """(source, spec) over ``horizon`` stages; a library error while building
    either becomes a ConfigError naming ``$.source`` or ``$.distortion``."""
    try:
        source = _build_source(cfg, horizon, y_sizes)
    except (InvalidArgumentError, ResourceBudgetError, TypeError, ValueError) as e:
        raise ConfigError(f"$.source: {e}") from None
    try:
        return source, _build_spec(cfg, source.alphabets)
    except (InvalidArgumentError, TypeError, ValueError) as e:
        raise ConfigError(f"$.distortion: {e}") from None


def load_config(path: str, mode: Optional[str] = None,
                units: Optional[str] = None) -> RunConfig:
    """Parse and validate a run configuration, with ``mode`` and ``units``
    overriding the configured ones, and build every problem it solves;
    raises ConfigError with the offending field path on any violation."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    if isinstance(raw.get("schema_version"), bool) or raw.get("schema_version") != 1:
        raise ConfigError("$.schema_version must be 1")

    horizon = _need(raw, "horizon", "$")
    if not _positive_integer(horizon):
        raise ConfigError("$.horizon must be an integer >= 1")
    horizon = int(horizon)
    y_sizes = _opt(raw, "y_sizes", "$", lambda v: isinstance(v, list) and len(v) == horizon
                   and all(_positive_integer(c) for c in v),
                   "a list of one integer >= 1 per stage")
    if mode is None:
        mode = _need(raw, "mode", "$", str)
    if mode not in MODES:
        raise ConfigError(f"$.mode (or --mode) must be one of {'|'.join(MODES)}")
    problems = [_build_problem(raw, horizon, y_sizes)]

    solver = raw.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("$.solver must be an object")
    _opt(solver, "damping", "$.solver", lambda v: _real(v) and v == 1,
         "1 (sweeps are undamped)")
    settings = {"fp_tol": _opt(solver, "fp_tol", "$.solver", _real, "a number", float),
                "max_sweeps": _opt(solver, "max_sweeps", "$.solver", _integer,
                                   "an integer", int)}
    settings = {k: v for k, v in settings.items() if v is not None}
    try:
        SolverConfig(s=0.0, **settings)
    except InvalidArgumentError as e:
        raise ConfigError(f"$.solver.{e}") from None

    out = raw.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("$.output must be an object")
    if units is None:
        units = out.get("units", "nats")
    if units not in ("nats", "bits"):
        raise ConfigError("$.output.units (or --units) must be nats or bits")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("$.output.format must be csv or json")

    rc = RunConfig(
        raw=raw, mode=mode, problems=problems, solver=settings,
        s=_opt(raw, "s", "$", lambda v: _real(v) and v <= 0, "a number <= 0", float),
        s_values=_opt(raw, "s_values", "$", _list_of(lambda v: _real(v) and v <= 0),
                      "a nonempty list of numbers <= 0"),
        d_target=_opt(raw, "D_target", "$", lambda v: _real(v) and v >= 0,
                      "a number >= 0", float),
        horizons=_opt(raw, "horizons", "$", _list_of(_positive_integer),
                      "a nonempty list of integers >= 1", lambda v: [int(h) for h in v]),
        out_format=fmt, out_path=_opt(out, "path", "$.output", lambda v: isinstance(v, str),
                                      "a string"),
        units=units)
    _require_mode_fields(rc)
    if mode == "horizon_sweep":
        rc.problems = []
        for h in rc.horizons:
            try:
                rc.problems.append(_build_problem(raw, h, y_sizes))
            except ConfigError as e:
                raise ConfigError(f"$.horizons: horizon {h}: {e}") from None
    return rc


def _require_mode_fields(rc: RunConfig):
    if rc.mode == "solve_s" and rc.s is None:
        raise ConfigError("$.s (a number <= 0) is required for mode solve_s")
    if rc.mode in ("target_d", "horizon_sweep") and rc.d_target is None:
        raise ConfigError(f"$.D_target is required for mode {rc.mode}")
    if rc.mode == "curve" and rc.s_values is None:
        raise ConfigError("$.s_values (nonempty list) is required for mode curve")
    if rc.mode == "horizon_sweep":
        if rc.horizons is None:
            raise ConfigError("$.horizons (nonempty list) is required for mode horizon_sweep")
        if rc.raw["source"]["type"] == "general":
            raise ConfigError("mode horizon_sweep needs an iid or markov $.source")
        if rc.problems[0][1].mode != "single_letter":
            raise ConfigError("mode horizon_sweep needs a single-letter $.distortion")
    if rc.mode == "verify" and rc.s is None and rc.d_target is None:
        raise ConfigError("mode verify needs $.s or $.D_target")


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x + 0.0:.12g}"


def _point_row(p: CurvePoint, units: str) -> str:
    scale = 1.0 / LN2 if units == "bits" else 1.0
    return ",".join([
        _fmt(p.s), _fmt(p.distortion_per_symbol),
        _fmt(p.rate_total_nats * scale), _fmt(p.rate_per_symbol_nats * scale),
        _fmt(p.sweeps), _fmt(p.converged), _fmt(p.residual),
    ])


def emit_csv(points, path: str, units: str = "nats"):
    """Write curve-shaped rows with the frozen header; rates in the requested
    units (bits = nats / ln 2)."""
    lines = [CSV_HEADER] + [_point_row(p, units) for p in points]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Invariant checks
# ---------------------------------------------------------------------------

def _run_checks(names, solves, curve, seed: int):
    """Audit solved points: ``solves`` is a list of (source, spec, result)."""
    checks = []
    solved = [(src, spec, r) for src, spec, r in solves
              if r is not None and r.policy is not None and r.converged]
    for name in names:
        t0 = time.perf_counter()
        note = None
        if name == "dominance":
            tol = 1e-9
            value = max((classical_block_rdf(full_joint_source(src), spec,
                                             r.distortion_per_symbol) - r.rate_nats
                         for src, spec, r in solved), default=None)
            ok = value is None or value <= tol
        elif name == "convexity":
            tol = CURVE_TOL
            if curve is None:
                value, ok, note = None, True, "no curve in this mode"
            else:
                value = max(curve.monotone_worst, curve.convex_worst)
                ok = curve.monotone_ok and curve.convex_ok
        elif name == "mc-residual":
            tol = 1e-10
            value = 0.0
            for src, spec, r in solved:
                j = joint_law(full_joint_source(src), r.policy)
                value = max(value, max(markov_chain_check(j, v) for v in (1, 2, 3, 4)))
            ok = value < tol
        elif name == "stationarity":
            tol = 1e-8
            value = max((verify_stationarity(src, spec, r, n_perturbations=100, seed=seed)
                         for src, spec, r in solved if r.s), default=None)
            ok = value is None or value <= tol
        else:
            raise ConfigError(f"unknown check {name!r}")
        checks.append({"check": name, "value": value, "tolerance": tol, "pass": ok,
                       **({"note": note} if note else {}),
                       "seconds": time.perf_counter() - t0})
    return checks


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def _solve(rc: RunConfig):
    """The run's solves as (source, spec, result) triples, plus the curve in
    mode curve (None otherwise, and result None for a failed curve point)."""
    if rc.mode == "curve":
        (source, spec), = rc.problems
        curve = trace_curve(source, spec, rc.s_values, **rc.solver)
        return [(source, spec, r) for r in curve.results], curve
    if rc.mode == "solve_s" or rc.d_target is None:
        return [(src, spec, fixed_point_solve(src, spec, SolverConfig(s=rc.s, **rc.solver)))
                for src, spec in rc.problems], None
    return [(src, spec, solve_for_target_distortion(src, spec, rc.d_target, **rc.solver))
            for src, spec in rc.problems], None


def run(config_path: str, mode: Optional[str] = None, out: Optional[str] = None,
        checks=(), seed: int = 0, units: Optional[str] = None) -> int:
    """Execute a configured run; returns the process exit status."""
    try:
        rc = load_config(config_path, mode, units)
        for c in checks:
            if c not in CHECKS:
                raise ConfigError(f"--check must be among {'|'.join(CHECKS)}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    base = out or rc.out_path or (config_path.rsplit(".", 1)[0] + ".out."
                                  + ("json" if rc.out_format == "json" else "csv"))
    report = {"schema_version": 1, "package_version": __version__,
              "mode": rc.mode, "config": rc.raw, "units": rc.units,
              "points": [], "checks": [], "timings": {}}
    t0 = time.perf_counter()
    try:
        solves, curve = _solve(rc)
        report["timings"]["solve_seconds"] = time.perf_counter() - t0
        if curve is not None:
            points = curve.points
            report["curve_checks"] = {key: getattr(curve, key) for key in (
                "monotone_ok", "monotone_worst", "convex_ok", "convex_worst",
                "slope_worst_rel_err")}
        else:
            points = [CurvePoint.from_result(r, src.alphabets.n_stages) for src, _, r in solves]
        if rc.mode == "horizon_sweep":
            report["horizons"] = rc.horizons
        default = ["dominance", "mc-residual", "stationarity"] if rc.mode == "verify" else []
        report["checks"] = _run_checks(list(checks) or default, solves, curve, seed)
        report["points"] = [
            {"s": None if math.isnan(p.s) else p.s,
             "D_per_symbol": p.distortion_per_symbol,
             "R_total_nats": p.rate_total_nats,
             "R_per_symbol_nats": p.rate_per_symbol_nats,
             "sweeps": p.sweeps, "converged": p.converged,
             "residual": p.residual,
             **({"error": p.error} if p.error else {}),
             **({} if r is None else {"target_met": r.target_met})}
            for p, (_, _, r) in zip(points, solves)
        ]
    except CausalRdError as e:
        report["error"] = str(e)
        report["timings"]["solve_seconds"] = time.perf_counter() - t0
        _write_json(base + ".json" if rc.out_format == "csv" else base, report)
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL

    report["timings"]["total_seconds"] = time.perf_counter() - t0
    if rc.out_format == "csv":
        emit_csv(points, base, rc.units)
        _write_json(base + ".json", report)
    else:
        _write_json(base, report)
    if any(r is not None and not r.feasible for _, _, r in solves):
        return EXIT_INFEASIBLE
    if (any(not p.converged for p in points) or any(not c["pass"] for c in report["checks"])
            or any(r is not None and not r.target_met for _, _, r in solves)):
        return EXIT_NUMERICAL
    return EXIT_OK


def _write_json(path, report):
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not serializable: {type(o)}")
    with open(path, "w") as f:
        json.dump(report, f, indent=2, default=default, allow_nan=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="causalrd",
        description="Causal (nonanticipative) rate-distortion solver")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("config", help="path to a JSON run configuration")
    p_run.add_argument("--mode", choices=MODES, help="override the configured mode")
    p_run.add_argument("--out", help="override the output path")
    p_run.add_argument("--check", action="append", default=[], choices=CHECKS,
                       help="enable an invariant check (repeatable)")
    p_run.add_argument("--seed", type=int, default=0,
                       help="seed for randomized checks")
    p_run.add_argument("--units", choices=("nats", "bits"),
                       help="override output units")
    args = parser.parse_args(argv)
    return run(args.config, mode=args.mode, out=args.out, checks=args.check,
               seed=args.seed, units=args.units)


if __name__ == "__main__":
    sys.exit(main())
