"""Spans and counts around calls into causalrd's public functions.

The tracer replaces, for the duration of a ``with`` block, every module
attribute in the package that refers to one of the functions in ``SPANNED``
with a wrapper.  The solver calls ``marginal_update``, ``expected_distortion``
and friends through its own module globals, so patching those names times
them inside a solve without touching the package source.

Two modes:

* ``timed=True`` records, per span name, calls, inclusive seconds and the
  seconds covered by child spans (self time = inclusive - children), and keeps
  every converged solve so that :meth:`Tracer.replay` can time the backward
  pass, the tilt and the closed-form rate at its solved output marginal.
* ``timed=False`` reads no clock and only counts: calls, sweeps and
  Blahut-Arimoto iterations.  The self-test compares these counts with those
  of a timed run to show that tracing does not change the work done.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import causalrd
from causalrd import baseline, cli, measures, model, oracle, solver

MODULES = (causalrd, model, measures, solver, baseline, oracle, cli)

SPANNED = (
    model.full_joint_source,
    measures.joint_law,
    measures.expected_distortion,
    measures.directed_information,
    measures.markov_chain_check,
    solver.fixed_point_solve,
    solver.marginal_update,
    solver.solve_for_target_distortion,
    solver.trace_curve,
    solver.verify_stationarity,
    baseline.blahut_arimoto,
    baseline.classical_block_rdf,
    oracle.brute_force_lagrangian_min,
    cli.run,
)

# Functions timed once per solved marginal after each pass, never in-solve.
REPLAYED = ("backward_g", "tilted_policy", "rdf_value")


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('causalrd.')}.{fn.__name__}"


class Tracer:
    def __init__(self, timed: bool):
        self.timed = timed
        self.paused = False
        self.reset()

    def reset(self):
        self.spans = {}            # name -> [calls, inclusive_s, child_s]
        self.sweeps = 0
        self.ba_iters = 0
        self.solved = []           # (source, spec, SolveResult) awaiting replay
        self.replay_s = {name: [] for name in REPLAYED}
        self._stack = []

    def _record(self, name, args, result):
        if name == "solver.fixed_point_solve":
            self.sweeps += result.sweeps_used
            if self.timed and result.converged and result.s:
                self.solved.append((args[0], args[1], result))
        elif name == "baseline.blahut_arimoto":
            self.ba_iters += result.iterations

    def _wrap(self, fn):
        name = span_name(fn)

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = self.spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            if not self.timed:
                result = fn(*args, **kwargs)
            else:
                self._stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    rec[1] += dt
                    rec[2] += self._stack.pop()
                    if self._stack:
                        self._stack[-1] += dt
            self._record(name, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every package-level reference to a spanned function."""
        saved = []
        for fn in SPANNED:
            w = self._wrap(fn)
            for mod in MODULES:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        saved.append((mod, attr, fn))
                        setattr(mod, attr, w)
        try:
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def replay(self):
        """Time backward_g, tilted_policy and rdf_value at each solved marginal
        recorded since the last replay; spans are paused meanwhile."""
        self.paused = True
        try:
            for src, spec, r in self.solved:
                t0 = time.perf_counter()
                g = solver.backward_g(src, spec, r.nu, r.s)
                t1 = time.perf_counter()
                solver.tilted_policy(src, spec, r.nu, g, r.s)
                t2 = time.perf_counter()
                solver.rdf_value(src, spec, r.policy, r.nu, r.g, r.s,
                                 r.distortion_total)
                t3 = time.perf_counter()
                for name, dt in zip(REPLAYED, (t1 - t0, t2 - t1, t3 - t2)):
                    self.replay_s[name].append(dt)
        finally:
            self.paused = False
            self.solved = []

    def counts(self) -> dict:
        """Counts that must not depend on whether timing is on."""
        out = {f"{name}.calls": rec[0] for name, rec in sorted(self.spans.items())}
        out["solver.sweeps"] = self.sweeps
        out["baseline.blahut_arimoto.iters"] = self.ba_iters
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""
        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def secs(name):
            return self.spans.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            rec = self.spans.get(name, [0, 0.0, 0.0])
            return rec[1] - rec[2]

        def per_call(name):
            xs = self.replay_s[name]
            return sum(xs) / len(xs) if xs else 0.0

        fps = secs("solver.fixed_point_solve")
        m = {
            "solver.fixed_point_solve.calls": calls("solver.fixed_point_solve"),
            "solver.fixed_point_solve.s": fps,
            "solver.sweeps": self.sweeps,
            "solver.s_per_sweep": fps / self.sweeps if self.sweeps else 0.0,
        }
        for name in REPLAYED:
            m[f"solver.{name}.s_per_call"] = per_call(name)
        for name in ("solver.marginal_update", "measures.expected_distortion",
                     "measures.directed_information"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.s"] = secs(name)
        m["solver.solve_for_target_distortion.self_s"] = self_s(
            "solver.solve_for_target_distortion")
        m["solver.trace_curve.self_s"] = self_s("solver.trace_curve")
        m["solver.verify_stationarity.s"] = secs("solver.verify_stationarity")
        m["measures.markov_chain_check.s"] = secs("measures.markov_chain_check")
        m["baseline.classical_block_rdf.calls"] = calls("baseline.classical_block_rdf")
        m["baseline.classical_block_rdf.s"] = secs("baseline.classical_block_rdf")
        m["baseline.blahut_arimoto.calls"] = calls("baseline.blahut_arimoto")
        m["baseline.blahut_arimoto.iters"] = self.ba_iters
        m["baseline.blahut_arimoto.s"] = secs("baseline.blahut_arimoto")
        m["oracle.brute_force_lagrangian_min.calls"] = calls(
            "oracle.brute_force_lagrangian_min")
        m["oracle.brute_force_lagrangian_min.s"] = secs(
            "oracle.brute_force_lagrangian_min")
        m["model.full_joint_source.calls"] = calls("model.full_joint_source")
        m["model.full_joint_source.s"] = secs("model.full_joint_source")
        m["cli.run.s"] = secs("cli.run")
        m["cli.overhead_s"] = self_s("cli.run")
        return m
