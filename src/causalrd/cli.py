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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .baseline import classical_block_rdf
from .errors import CausalRdError, ConfigError
from .measures import joint_law, markov_chain_check
from .model import (
    DistortionSpec,
    Horizon,
    SourceModel,
    StageAlphabets,
    full_joint_source,
    iid_source,
    markov_source,
    validate_source,
)
from .solver import (
    CurvePoint,
    SolveResult,
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
    horizon: int
    source: SourceModel
    spec: DistortionSpec
    mode: str
    s: Optional[float] = None
    s_values: Optional[list] = None
    d_target: Optional[float] = None
    horizons: Optional[list] = None
    fp_tol: float = 1e-9
    max_sweeps: int = 10_000
    damping: float = 1.0
    out_format: str = "csv"
    out_path: Optional[str] = None
    units: str = "nats"
    source_kind: str = "general"
    source_params: dict = field(default_factory=dict)


def _need(obj, key, path, types=None):
    if key not in obj:
        raise ConfigError(f"missing field {path}.{key}")
    v = obj[key]
    if types is not None and not isinstance(v, types):
        raise ConfigError(f"field {path}.{key} has wrong type")
    return v


def _build_source(cfg: dict, horizon: int, y_sizes):
    src_cfg = _need(cfg, "source", "$", dict)
    kind = _need(src_cfg, "type", "$.source", str)
    if kind == "iid":
        px = np.asarray(_need(src_cfg, "px", "$.source", list), dtype=float)
        ys = y_sizes[0] if y_sizes else None
        model = iid_source(px, horizon, y_size=ys)
    elif kind == "markov":
        init = np.asarray(_need(src_cfg, "init", "$.source", list), dtype=float)
        trans = np.asarray(_need(src_cfg, "transition", "$.source", list), dtype=float)
        ys = y_sizes[0] if y_sizes else None
        model = markov_source(init, trans, horizon, y_size=ys)
    elif kind == "general":
        x_sizes = _need(src_cfg, "x_sizes", "$.source", list)
        kernels = _need(src_cfg, "kernels", "$.source", list)
        memory = src_cfg.get("memory", "full")
        al = StageAlphabets(Horizon(horizon), x_sizes,
                            y_sizes if y_sizes else x_sizes)
        model = SourceModel(al, [np.asarray(k, dtype=float) for k in kernels],
                            memory=memory, validate=False)
    else:
        raise ConfigError(f"$.source.type must be one of iid|markov|general, got {kind!r}")

    if kind != "general" and y_sizes and len(set(y_sizes)) != 1:
        raise ConfigError("$.y_sizes must be constant for iid/markov sources")
    report = validate_source(model)
    if report:
        raise ConfigError("invalid source kernels: "
                          + "; ".join(str(v) for v in report))
    if kind == "general":
        # renormalize rows now that validation passed
        model = SourceModel(model.alphabets, model.kernels, memory=model.memory)
    return model, kind, src_cfg


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


def load_config(path: str) -> RunConfig:
    """Parse and validate a run configuration; raises ConfigError with the
    offending field path on any schema violation."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    if raw.get("schema_version") != 1:
        raise ConfigError("$.schema_version must be 1")

    horizon = _need(raw, "horizon", "$", int)
    if horizon < 1:
        raise ConfigError("$.horizon must be >= 1")
    y_sizes = raw.get("y_sizes")
    if y_sizes is not None and (not isinstance(y_sizes, list)
                                or len(y_sizes) != horizon):
        raise ConfigError("$.y_sizes must list one size per stage")
    mode = _need(raw, "mode", "$", str)
    if mode not in MODES:
        raise ConfigError(f"$.mode must be one of {'|'.join(MODES)}")

    source, kind, src_cfg = _build_source(raw, horizon, y_sizes)
    spec = _build_spec(raw, source.alphabets)

    solver = raw.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("$.solver must be an object")
    out = raw.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("$.output must be an object")
    units = out.get("units", "nats")
    if units not in ("nats", "bits"):
        raise ConfigError("$.output.units must be nats or bits")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("$.output.format must be csv or json")

    rc = RunConfig(
        raw=raw, horizon=horizon, source=source, spec=spec, mode=mode,
        s=raw.get("s"), s_values=raw.get("s_values"),
        d_target=raw.get("D_target"), horizons=raw.get("horizons"),
        fp_tol=float(solver.get("fp_tol", 1e-9)),
        max_sweeps=int(solver.get("max_sweeps", 10_000)),
        damping=float(solver.get("damping", 1.0)),
        out_format=fmt, out_path=out.get("path"), units=units,
        source_kind=kind, source_params=src_cfg,
    )
    _validate_mode_fields(rc)
    return rc


def _validate_mode_fields(rc: RunConfig):
    if rc.mode == "solve_s" and not isinstance(rc.s, (int, float)):
        raise ConfigError("$.s (a number <= 0) is required for mode solve_s")
    if rc.mode in ("target_d",) and not isinstance(rc.d_target, (int, float)):
        raise ConfigError("$.D_target is required for mode target_d")
    if rc.mode == "curve":
        if not isinstance(rc.s_values, list) or not rc.s_values:
            raise ConfigError("$.s_values (nonempty list) is required for mode curve")
    if rc.mode == "horizon_sweep":
        if not isinstance(rc.d_target, (int, float)):
            raise ConfigError("$.D_target is required for mode horizon_sweep")
        if not isinstance(rc.horizons, list) or not rc.horizons:
            raise ConfigError("$.horizons (nonempty list) is required for mode horizon_sweep")
        if rc.source_kind == "general":
            raise ConfigError("mode horizon_sweep needs an iid or markov source family")
    if rc.mode == "verify" and rc.s is None and rc.d_target is None:
        raise ConfigError("mode verify needs $.s or $.D_target")
    if rc.s is not None and rc.s > 0:
        raise ConfigError("$.s must be <= 0")
    if rc.s_values is not None and any(s > 0 for s in rc.s_values):
        raise ConfigError("$.s_values must all be <= 0")


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
        _fmt(p.rate_total_nats * scale if math.isfinite(p.rate_total_nats) else p.rate_total_nats),
        _fmt(p.rate_per_symbol_nats * scale if math.isfinite(p.rate_per_symbol_nats) else p.rate_per_symbol_nats),
        _fmt(p.sweeps), _fmt(p.converged), _fmt(p.residual),
    ])


def emit_csv(points, path: str, units: str = "nats"):
    """Write curve-shaped rows with the frozen header; rates in the requested
    units (bits = nats / ln 2)."""
    lines = [CSV_HEADER] + [_point_row(p, units) for p in points]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _result_point(res: SolveResult, n_stages: int) -> CurvePoint:
    return CurvePoint(
        s=res.s if res.s is not None else math.nan,
        distortion_per_symbol=res.distortion_per_symbol,
        rate_total_nats=res.rate_nats,
        rate_per_symbol_nats=(res.rate_nats / n_stages
                              if math.isfinite(res.rate_nats) else res.rate_nats),
        sweeps=res.sweeps_used, converged=res.converged, residual=res.residual)


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
        if name == "dominance":
            worst = -math.inf
            for src, spec, r in solved:
                block = classical_block_rdf(full_joint_source(src), spec,
                                            r.distortion_per_symbol)
                worst = max(worst, block - r.rate_nats)
            value = None if worst == -math.inf else worst
            entry = {"check": name, "value": value, "tolerance": 1e-9,
                     "pass": value is None or value <= 1e-9}
        elif name == "convexity":
            if curve is None:
                entry = {"check": name, "value": None, "tolerance": 1e-9,
                         "pass": True, "note": "no curve in this mode"}
            else:
                worst = max(curve.monotone_worst, curve.convex_worst)
                entry = {"check": name, "value": worst, "tolerance": 1e-9,
                         "pass": curve.monotone_ok and curve.convex_ok}
        elif name == "mc-residual":
            worst = 0.0
            for src, spec, r in solved:
                j = joint_law(full_joint_source(src), r.policy)
                worst = max(worst, max(markov_chain_check(j, v) for v in (1, 2, 3, 4)))
            entry = {"check": name, "value": worst, "tolerance": 1e-10,
                     "pass": worst < 1e-10}
        elif name == "stationarity":
            worst = -math.inf
            for src, spec, r in solved:
                if r.s is None or r.s == 0.0:
                    continue
                worst = max(worst, verify_stationarity(src, spec, r,
                                                       n_perturbations=100,
                                                       epsilon=1e-3, seed=seed))
            value = None if worst == -math.inf else worst
            entry = {"check": name, "value": value, "tolerance": 1e-8,
                     "pass": value is None or value <= 1e-8}
        else:
            raise ConfigError(f"unknown check {name!r}")
        entry["seconds"] = time.perf_counter() - t0
        checks.append(entry)
    return checks


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def run(config_path: str, mode: Optional[str] = None, out: Optional[str] = None,
        checks=(), seed: int = 0, units: Optional[str] = None) -> int:
    """Execute a configured run; returns the process exit status."""
    try:
        rc = load_config(config_path)
        if mode is not None:
            if mode not in MODES:
                raise ConfigError(f"--mode must be one of {'|'.join(MODES)}")
            rc.mode = mode
            _validate_mode_fields(rc)
        if units is not None:
            if units not in ("nats", "bits"):
                raise ConfigError("--units must be nats or bits")
            rc.units = units
        if out is not None:
            rc.out_path = out
        for c in checks:
            if c not in CHECKS:
                raise ConfigError(f"--check must be among {'|'.join(CHECKS)}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    base = rc.out_path or (config_path.rsplit(".", 1)[0] + ".out."
                           + ("json" if rc.out_format == "json" else "csv"))
    n = rc.horizon
    report = {"schema_version": 1, "package_version": __version__,
              "mode": rc.mode, "config": rc.raw, "units": rc.units,
              "points": [], "checks": [], "timings": {}}
    status = EXIT_OK
    curve = None
    solves = []
    t0 = time.perf_counter()
    try:
        if rc.mode == "solve_s" or (rc.mode == "verify" and rc.d_target is None):
            res = fixed_point_solve(rc.source, rc.spec,
                                    SolverConfig(s=float(rc.s), fp_tol=rc.fp_tol,
                                                 max_sweeps=rc.max_sweeps,
                                                 damping=rc.damping))
            solves = [(rc.source, rc.spec, res)]
            points = [_result_point(res, n)]
            if not res.converged:
                status = EXIT_NUMERICAL
        elif rc.mode in ("target_d", "verify"):
            res = solve_for_target_distortion(rc.source, rc.spec, float(rc.d_target),
                                              fp_tol=rc.fp_tol,
                                              max_sweeps=rc.max_sweeps,
                                              damping=rc.damping)
            solves = [(rc.source, rc.spec, res)]
            points = [_result_point(res, n)]
            if not res.feasible:
                status = EXIT_INFEASIBLE
            elif not res.converged:
                status = EXIT_NUMERICAL
        elif rc.mode == "curve":
            curve = trace_curve(rc.source, rc.spec, [float(s) for s in rc.s_values],
                                fp_tol=rc.fp_tol, max_sweeps=rc.max_sweeps,
                                damping=rc.damping)
            points = list(curve.points)
            solves = [(rc.source, rc.spec, r)
                      for r in curve.results if r is not None]
            if any(not p.converged for p in points):
                status = EXIT_NUMERICAL
            report["curve_checks"] = {
                "monotone_ok": curve.monotone_ok,
                "monotone_worst": curve.monotone_worst,
                "convex_ok": curve.convex_ok,
                "convex_worst": curve.convex_worst,
                "slope_worst_rel_err": curve.slope_worst_rel_err,
            }
        else:   # horizon_sweep
            points = []
            for h in rc.horizons:
                fam_src = (iid_source(np.asarray(rc.source_params["px"], dtype=float), int(h))
                           if rc.source_kind == "iid" else
                           markov_source(np.asarray(rc.source_params["init"], dtype=float),
                                         np.asarray(rc.source_params["transition"], dtype=float),
                                         int(h)))
                fam_spec = (DistortionSpec.single_letter(fam_src.alphabets, rc.spec.rho)
                            if rc.spec.mode == "single_letter" else None)
                if fam_spec is None:
                    raise ConfigError("mode horizon_sweep needs a single_letter distortion")
                res = solve_for_target_distortion(fam_src, fam_spec, float(rc.d_target),
                                                  fp_tol=rc.fp_tol,
                                                  max_sweeps=rc.max_sweeps,
                                                  damping=rc.damping)
                points.append(_result_point(res, int(h)))
                solves.append((fam_src, fam_spec, res))
                if not res.feasible:
                    status = EXIT_INFEASIBLE
                elif not res.converged and status == EXIT_OK:
                    status = EXIT_NUMERICAL
            report["horizons"] = [int(h) for h in rc.horizons]

        report["timings"]["solve_seconds"] = time.perf_counter() - t0

        if rc.mode == "verify":
            names = list(checks) if checks else ["dominance", "mc-residual", "stationarity"]
        else:
            names = list(checks)
        if names:
            report["checks"] = _run_checks(names, solves, curve, seed)
            if any(not c["pass"] for c in report["checks"]) and status == EXIT_OK:
                status = EXIT_NUMERICAL

        report["points"] = [
            {"s": None if math.isnan(p.s) else p.s,
             "D_per_symbol": p.distortion_per_symbol,
             "R_total_nats": p.rate_total_nats,
             "R_per_symbol_nats": p.rate_per_symbol_nats,
             "sweeps": p.sweeps, "converged": p.converged,
             "residual": p.residual,
             **({"error": p.error} if getattr(p, "error", None) else {})}
            for p in points
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
    return status


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
    if args.command == "run":
        return run(args.config, mode=args.mode, out=args.out, checks=args.check,
                   seed=args.seed, units=args.units)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
