"""Causal rate-distortion solver for nonstationary finite-alphabet sources.

The optimal reproduction kernels have the tilted form

    q_i(y_i | y^{i-1}, x^i)  ~  exp(s rho_i(x^i, y^i) - g_i(x^i, y^i)) nu_i(y_i | y^{i-1})

where the value tables g_i integrate out the future stages through a backward
recursion (g at the terminal stage is identically zero) and nu is the output
marginal process the policy itself induces.  The solver closes that system by
sweeps of two passes until nu is stable: a backward pass yields g, log Z and
the kernels q, a forward pass over the weights P(x^i, y^{i-1}) yields nu, and
one more pair at the stable nu yields the distortion and the block rate.  The
rate of a converged solve is cross-checked against the directed information of
the solved policy, computed on the dense laws of :mod:`causalrd.measures`.

All exponentials are evaluated in log space with max shifting; rates are in
nats; ``s <= 0`` throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .baseline import log_normalize, masked_log, search_multiplier
from .errors import (
    DegenerateMarginalError,
    InternalConsistencyError,
    InvalidArgumentError,
)
from .measures import MarginalProcess, directed_information, lagrangian_value
from .model import (CausalPolicy, DistortionSpec, SourceModel,
                    decode_history, full_joint_source)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Fixed-point iteration parameters.

    ``s`` is the Lagrange multiplier (<= 0); ``nu_init`` is either the string
    "uniform" or a :class:`MarginalProcess` to start from.  This class is the
    one place each setting and its default is defined.
    """
    s: float
    nu_init: Union[str, MarginalProcess] = "uniform"
    fp_tol: float = 1e-9
    max_sweeps: int = 10_000

    def __post_init__(self):
        if self.s > 0:
            raise InvalidArgumentError("multiplier s must be <= 0")
        if self.fp_tol <= 0:
            raise InvalidArgumentError("fp_tol must be positive")
        if self.max_sweeps < 1:
            raise InvalidArgumentError("max_sweeps must be >= 1")


@dataclass
class SolveResult:
    """Converged (or diagnostic) output of one fixed-point solve.

    ``g`` holds the backward-recursion value tables, one per stage: ``g[i]``
    has shape ``(x_hist_size(i), y_hist_size(i))`` and the terminal table is
    identically zero.  ``target_met`` is False when a distortion-target solve
    returns a point whose per-symbol distortion misses the target by more
    than its tolerance, or no point (an infeasible target).
    """
    s: Optional[float]
    policy: Optional[CausalPolicy]
    nu: Optional[MarginalProcess]
    g: Optional[list]
    rate_nats: float
    distortion_total: float
    distortion_per_symbol: float
    sweeps_used: int
    converged: bool
    residual: float
    feasible: bool = True
    target_met: bool = True


@dataclass
class CurvePoint:
    s: float
    distortion_per_symbol: float
    rate_total_nats: float
    rate_per_symbol_nats: float
    sweeps: int
    converged: bool
    residual: float
    error: Optional[str] = None

    @classmethod
    def from_result(cls, r: SolveResult, n_stages: int) -> "CurvePoint":
        """The point of one solve over ``n_stages`` stages (s is nan when the
        result is an infeasible-target sentinel)."""
        return cls(math.nan if r.s is None else r.s, r.distortion_per_symbol,
                   r.rate_nats, r.rate_nats / n_stages, r.sweeps_used,
                   r.converged, r.residual)


@dataclass
class RdCurve:
    """Points of a multiplier sweep, sorted by distortion, plus the outcomes
    of the monotonicity / convexity / slope checks.  ``results`` holds the
    full solve behind each point (None where the point failed), in the same
    order as ``points``."""
    points: list
    results: list = None
    monotone_ok: bool = True
    monotone_worst: float = 0.0
    convex_ok: bool = True
    convex_worst: float = 0.0
    slope_worst_rel_err: Optional[float] = None

    def __iter__(self):
        return iter(self.points)


# ---------------------------------------------------------------------------
# The two passes of a sweep
# ---------------------------------------------------------------------------

class _Passes:
    """The backward and forward pass of one sweep at multiplier ``s``.

    A stage-i table over (x^i, y^i) is held y-major, as (y_i, x^i, y^{i-1}):
    with the short y_i axis outermost, the max shift, the normalization and
    the broadcasts all run along long contiguous rows.  In 4-D form
    (y_i, x^{i-1}, x_i, y^{i-1}) a single-letter rho broadcasts as
    rho[x_i, y_i], so no dense stage table is built.
    """

    def __init__(self, source: SourceModel, spec: Optional[DistortionSpec] = None,
                 s: float = 0.0):
        al = source.alphabets
        self.al = al
        self.shapes = [(al.y_sizes[i], al.x_hist_size(i - 1), al.x_sizes[i],
                        al.y_hist_size(i - 1)) for i in range(al.n_stages)]
        self.rho = self.s_rho = None                  # no spec: forward pass only
        if spec is not None:
            self.rho = ([spec.rho.T[:, None, :, None]] * al.n_stages
                        if spec.mode == "single_letter"
                        else [self._y_major(t, i) for i, t in enumerate(spec.tables)])
            self.s_rho = [s * r for r in self.rho]
        self.rows = [source.kernels[0][0][:, None]] + [
            source.stage_rows(i) for i in range(1, al.n_stages)]

    def _y_major(self, t, i):
        """4-D y-major view of a stage-i table indexed (x^i, y^i)."""
        sy, xp, sx, yp = self.shapes[i]
        return t.reshape(xp, sx, yp, sy).transpose(3, 0, 1, 2)

    def tilt(self, i, g, nu):
        """Kernel q_i ~ nu_i exp(s rho_i - g_i) and its log normalizer
        log Z_i(x^i, y^{i-1}), from one exponent and one max shift."""
        sy, xp, sx, yp = self.shapes[i]
        e = np.subtract(self.s_rho[i] + masked_log(nu.T)[:, None, None, :], self._y_major(g, i),
                        order="C")
        logz, q = log_normalize(e.reshape(sy, xp * sx, yp), axis=0)
        if logz.min() == -np.inf:
            _, xh, yh = np.nonzero(np.isneginf(logz))
            raise DegenerateMarginalError(
                i, int(yh[0]), f"tilted normalizer vanished for x-history {int(xh[0])}")
        return q, logz[0]

    def backward(self, nu_tables):
        """g tables, log normalizers and kernels, from the last stage down."""
        al = self.al
        n = al.n_stages
        g, logz, q = [None] * n, [None] * n, [None] * n
        g[n - 1] = np.zeros((al.x_hist_size(n - 1), al.y_hist_size(n - 1)))
        for i in range(n - 1, -1, -1):
            q[i], logz[i] = self.tilt(i, g[i], nu_tables[i])
            if i > 0:
                _, xp, sx, yp = self.shapes[i]
                g[i - 1] = -np.einsum('ab,abc->ac', self.rows[i],
                                      logz[i].reshape(xp, sx, yp))
        return g, logz, q

    def forward(self, q, g=None, logz=None):
        """Output marginals nu_i and prefix masses P(y^{i-1}) induced by the
        kernels ``q``, from the weights P(x^i, y^{i-1}) carried stage to
        stage.  With ``g`` and ``logz`` it also returns the total distortion
        and sum_i E[g_i + log Z_i]; otherwise those two are None."""
        tables, masses = [], []
        dist = bracket = None if g is None else 0.0
        w = self.rows[0]                              # P(x^0, y^{-1})
        for i, (sy, xp, sx, yp) in enumerate(self.shapes):
            joint = q[i] * w                          # P(y_i, x^i, y^{i-1})
            py = joint.sum(axis=1).T                  # P(y^{i-1}, y_i)
            mass = py.sum(axis=1)
            tables.append(np.divide(py, mass[:, None], out=np.full((yp, sy), 1.0 / sy),
                                    where=mass[:, None] > 0))
            masses.append(mass)
            if g is not None:
                j4 = joint.reshape(sy, xp, sx, yp)
                dist += float(np.sum(j4 * self.rho[i]))
                bracket += float(np.sum(j4 * self._y_major(g[i], i)) + np.vdot(w, logz[i]))
            if i + 1 < len(self.shapes):
                # P(x^{i+1}, y^i), written with y_i innermost as its code requires
                rows = self.rows[i + 1]
                w = np.empty((xp * sx, rows.shape[1], yp, sy))
                for k in range(sy):
                    np.multiply(joint[k][:, None, :], rows[:, :, None], out=w[..., k])
                w = w.reshape(-1, yp * sy)
        return tables, masses, dist, bracket

    def policy(self, q) -> CausalPolicy:
        return CausalPolicy(self.al, [np.ascontiguousarray(k.transpose(2, 1, 0)) for k in q],
                            validate=False)


def _kernels(policy: CausalPolicy):     # in the y-major layout of _Passes
    return [k.transpose(2, 1, 0) for k in policy.kernels]


def backward_g(source: SourceModel, spec: DistortionSpec,
               nu: MarginalProcess, s: float) -> list:
    """Backward value tables for multiplier ``s`` under marginal process ``nu``,
    one array per stage, of shape ``(x_hist_size(i), y_hist_size(i))``.

    The recursion integrates, stage by stage from the end, the log of the
    tilted mass the next stage can reach, averaged over the next source
    symbol; the terminal table is zero.
    """
    if s > 0:
        raise InvalidArgumentError("multiplier s must be <= 0")
    return _Passes(source, spec, s).backward(nu.tables)[0]


def tilted_policy(source: SourceModel, spec: DistortionSpec,
                  nu: MarginalProcess, g: list, s: float) -> CausalPolicy:
    """Optimal reproduction kernels for (nu, g, s): the exponentially tilted
    marginal, normalized per (y-history, x-history) row.

    Adding any x-history-dependent constant to a g table leaves the result
    unchanged (the normalizer absorbs it); at the terminal stage g is zero and
    the kernel reduces to the pure single-stage tilt.
    """
    passes = _Passes(source, spec, s)
    return passes.policy([passes.tilt(i, g[i], nu.tables[i])[0]
                          for i in range(source.alphabets.n_stages)])


def marginal_update(source: SourceModel, policy: CausalPolicy) -> MarginalProcess:
    """Output marginal process induced by the source and a policy (the
    consistency map whose fixed point the solver seeks)."""
    tables, masses, _, _ = _Passes(source).forward(_kernels(policy))
    return MarginalProcess(source.alphabets, tables, prefix_mass=masses)


# ---------------------------------------------------------------------------
# Zero-rate endpoint
# ---------------------------------------------------------------------------

def d_max_policy(source: SourceModel, spec: DistortionSpec):
    """Best source-blind reproduction: the deterministic trajectory minimizing
    expected distortion, its per-symbol value, and the policy emitting it.

    This is the distortion at which the rate-distortion curve hits zero.
    """
    al = source.alphabets
    px = source.kernels[0][0]                                # P(x^i)
    acc = np.zeros(al.y_trajectories())
    for i in range(al.n_stages):
        if i > 0:
            px = (px[:, None] * source.stage_rows(i)).reshape(-1)
        term = px @ spec.stage_table(i)                      # (y_hist(i),)
        ydiv = math.prod(al.y_sizes[i + 1:])
        acc += term[np.arange(al.y_trajectories()) // ydiv]
    best = int(np.argmin(acc))                               # ties -> lowest code
    policy = CausalPolicy.constant(al, decode_history(best, al.y_sizes))
    return float(acc[best]) / al.n_stages, policy


def min_achievable_distortion(source: SourceModel, spec: DistortionSpec) -> float:
    """Per-symbol distortion floor over all causal policies (deterministic
    dynamic program; the s -> -inf limit of the solver)."""
    al = source.alphabets
    n = al.n_stages
    v = np.zeros((al.x_hist_size(n - 1), al.y_hist_size(n - 1)))
    for i in range(n - 1, 0, -1):
        best = (spec.stage_table(i) + v).reshape(
            al.x_hist_size(i), al.y_hist_size(i - 1), al.y_sizes[i]).min(axis=2)
        v = np.einsum('ab,abc->ac', source.stage_rows(i),
                      best.reshape(al.x_hist_size(i - 1), al.x_sizes[i], -1))
    return float(source.kernels[0][0] @ (spec.stage_table(0) + v).min(axis=1)) / n


# ---------------------------------------------------------------------------
# Fixed point
# ---------------------------------------------------------------------------

def fixed_point_solve(source: SourceModel, spec: DistortionSpec,
                      config: SolverConfig) -> SolveResult:
    """Solve the stationary system (backward pass -> tilted kernels -> induced
    marginal) at fixed multiplier ``config.s``.

    At ``s = 0`` every source-blind policy is stationary; the canonical
    representative returned is the distortion-minimizing one (the limit of the
    s -> 0 optimizers), so the reported point is the curve endpoint
    (D_max, 0).  Non-convergence is reported in the result, not raised.
    """
    al = source.alphabets
    s = float(config.s)
    passes = _Passes(source, spec, s)

    if s == 0.0:
        dmax, policy = d_max_policy(source, spec)
        tables, masses, _, _ = passes.forward(_kernels(policy))
        g = [np.zeros((al.x_hist_size(i), al.y_hist_size(i))) for i in range(al.n_stages)]
        return SolveResult(s=0.0, policy=policy, g=g,
                           nu=MarginalProcess(al, tables, prefix_mass=masses),
                           rate_nats=0.0, distortion_total=dmax * al.n_stages,
                           distortion_per_symbol=dmax, sweeps_used=1,
                           converged=True, residual=0.0)

    if config.nu_init == "uniform":
        tables = MarginalProcess.uniform(al).tables
    elif isinstance(config.nu_init, MarginalProcess):
        tables = config.nu_init.tables
    else:
        raise InvalidArgumentError("nu_init must be 'uniform' or a MarginalProcess")

    converged = False
    for sweeps in range(1, config.max_sweeps + 1):      # max_sweeps >= 1
        nxt, masses, _, _ = passes.forward(passes.backward(tables)[2])
        # sup-norm change over the rows of positive prefix mass
        residual = max((float(np.abs(new - old)[m > 0].max())
                        for new, old, m in zip(nxt, tables, masses) if (m > 0).any()),
                       default=0.0)
        tables = nxt
        if residual <= config.fp_tol:
            converged = True
            break

    nu = MarginalProcess(al, tables, prefix_mass=masses)
    g_tabs, logz, q = passes.backward(tables)
    _, _, dist, bracket = passes.forward(q, g_tabs, logz)
    policy = passes.policy(q)
    rate = _closed_form_rate(source, policy, s, dist, bracket, check=converged)
    return SolveResult(s=s, policy=policy, nu=nu, g=g_tabs, rate_nats=rate,
                       distortion_total=dist,
                       distortion_per_symbol=dist / al.n_stages,
                       sweeps_used=sweeps, converged=converged, residual=residual)


def _closed_form_rate(source, policy, s, distortion_total, bracket, check=True,
                      check_tol=1e-6):
    """Closed-form block rate s*D_total - sum_i E[g_i + log Z_i].  With
    ``check`` it is compared with the directed information of the policy on
    the dense laws, which only a fixed point makes equal."""
    rate = s * distortion_total - bracket
    if -1e-9 < rate < 0.0:
        rate = 0.0
    if check:
        gap = abs(rate - directed_information(full_joint_source(source), policy))
        if gap > check_tol:
            raise InternalConsistencyError(
                f"closed-form rate and directed information differ by {gap:.3e} "
                f"(tolerance {check_tol:.1e}); the fixed point looks broken")
    return rate


def rdf_value(source: SourceModel, spec: DistortionSpec, policy: CausalPolicy,
              nu: MarginalProcess, g: list, s: float,
              distortion_total: Optional[float] = None) -> float:
    """Block rate in closed form at a converged fixed point.

    Cross-checks the value against the directed information of the policy
    (they coincide at an exact fixed point) and raises
    :class:`InternalConsistencyError` beyond 1e-6.
    """
    passes = _Passes(source, spec, s)
    logz = [passes.tilt(i, g[i], nu.tables[i])[1] for i in range(source.alphabets.n_stages)]
    _, _, dist, bracket = passes.forward(_kernels(policy), g, logz)
    if distortion_total is None:
        distortion_total = dist
    return _closed_form_rate(source, policy, s, distortion_total, bracket)


# ---------------------------------------------------------------------------
# Distortion-target solves and curve tracing
# ---------------------------------------------------------------------------

def solve_for_target_distortion(source: SourceModel, spec: DistortionSpec,
                                d_target: float, dist_tol: float = 1e-6,
                                **settings) -> SolveResult:
    """Solve at a per-symbol distortion target by searching the multiplier;
    ``settings`` are the :class:`SolverConfig` fields other than ``s``.

    The multiplier bracket is grown by doubling from -1 until the achieved
    distortion falls below the target, then bisected until the achieved
    per-symbol distortion is within ``dist_tol``; when doubling would pass
    |s| = 1e6 the last solve is returned.  A returned solve that misses the
    target by more than ``dist_tol`` has ``target_met`` False.  Targets at
    or above the zero-rate distortion return the s = 0 endpoint; targets
    below the achievable floor return an infeasible sentinel with rate +inf.
    """
    if d_target < 0:
        raise InvalidArgumentError("d_target must be >= 0")

    def solve_at(s):
        return fixed_point_solve(source, spec, SolverConfig(s=s, **settings))

    endpoint = solve_at(0.0)
    if d_target >= endpoint.distortion_per_symbol - 1e-12:
        return endpoint

    floor = min_achievable_distortion(source, spec)
    if d_target < floor - 1e-12:
        return SolveResult(s=None, policy=None, nu=None, g=None,
                           rate_nats=math.inf, distortion_total=floor *
                           source.alphabets.n_stages,
                           distortion_per_symbol=floor, sweeps_used=0,
                           converged=True, residual=0.0, feasible=False,
                           target_met=False)

    best = search_multiplier(solve_at, lambda r: r.distortion_per_symbol, d_target,
                             dist_tol, failed=lambda r: not r.converged)
    best.target_met = abs(best.distortion_per_symbol - d_target) <= dist_tol
    return best


def trace_curve(source: SourceModel, spec: DistortionSpec,
                s_values: Sequence[float], **settings) -> RdCurve:
    """One fixed-point solve per multiplier, with the :class:`SolverConfig`
    fields ``settings``; points sorted by distortion with monotonicity,
    convexity and slope diagnostics.

    Per-point failures are recorded on the point rather than raised; a bad
    setting raises before any solve.
    """
    if len(s_values) == 0:
        raise InvalidArgumentError("s_values must be nonempty")
    config = SolverConfig(s=0.0, **settings)
    n = source.alphabets.n_stages
    pts = []
    for s in s_values:
        try:
            r = fixed_point_solve(source, spec, replace(config, s=float(s)))
            pts.append((CurvePoint.from_result(r, n), r))
        except Exception as exc:       # record, do not abort the sweep
            pts.append((CurvePoint(float(s), math.nan, math.nan, math.nan,
                                   0, False, math.nan, error=str(exc)), None))
    # failed points (distortion nan) go last: nan compares false either way
    pts.sort(key=lambda pr: (math.isnan(pr[0].distortion_per_symbol),
                             pr[0].distortion_per_symbol, pr[0].s))
    curve = RdCurve(points=[p for p, _ in pts], results=[r for _, r in pts])
    _check_curve(curve, n)
    return curve


def _check_curve(curve: RdCurve, n_stages: int, tol: float = 1e-9):
    good = [p for p in curve.points if p.converged and math.isfinite(p.rate_total_nats)]
    for a, b in zip(good, good[1:]):
        drop = b.rate_total_nats - a.rate_total_nats
        if drop > curve.monotone_worst:
            curve.monotone_worst = drop
    curve.monotone_ok = curve.monotone_worst <= tol
    for a, b, c in zip(good, good[1:], good[2:]):
        da, db, dc = (p.distortion_per_symbol for p in (a, b, c))
        if dc - da < 1e-12:
            continue
        t = (db - da) / (dc - da)
        chord = (1 - t) * a.rate_total_nats + t * c.rate_total_nats
        excess = b.rate_total_nats - chord
        if excess > curve.convex_worst:
            curve.convex_worst = excess
    curve.convex_ok = curve.convex_worst <= tol
    rel = []
    for a, b, c in zip(good, good[1:], good[2:]):
        dd = (c.distortion_per_symbol - a.distortion_per_symbol) * n_stages
        if abs(dd) < 1e-12 or b.s == 0.0:
            continue
        slope = (c.rate_total_nats - a.rate_total_nats) / dd
        rel.append(abs(slope - b.s) / abs(b.s))
    curve.slope_worst_rel_err = max(rel) if rel else None


def rate_limit_estimate(source_family: Callable[[int], SourceModel],
                        spec_family, d_target: float,
                        horizons: Sequence[int], **solver_kwargs) -> list:
    """Per-symbol rates of the target-distortion solve across horizons.

    ``spec_family`` is either a DistortionSpec factory ``horizon -> spec`` or
    a single-letter table reused at every horizon.  The trend is reported, not
    asserted.
    """
    if list(horizons) != sorted(horizons):
        raise InvalidArgumentError("horizons must be ascending")
    rates = []
    for h in horizons:
        src = source_family(int(h))
        spec = (spec_family(int(h)) if callable(spec_family)
                else DistortionSpec.single_letter(src.alphabets, spec_family))
        res = solve_for_target_distortion(src, spec, d_target, **solver_kwargs)
        rates.append(res.rate_nats / src.alphabets.n_stages)
    return rates


# ---------------------------------------------------------------------------
# First-order optimality
# ---------------------------------------------------------------------------

def verify_stationarity(source: SourceModel, spec: DistortionSpec,
                        result: SolveResult, n_perturbations: int = 100,
                        epsilon: float = 1e-3, seed: int = 0) -> float:
    """Largest Lagrangian decrease over random feasible kernel perturbations.

    Directions are per-stage rows redrawn uniformly on the simplex; the probe
    policy is q* + epsilon (q_random - q*).  At a first-order optimum the
    returned value is nonpositive up to o(epsilon).
    """
    if result.policy is None:
        raise InvalidArgumentError("result carries no policy")
    rng = np.random.default_rng(seed)
    al = source.alphabets
    base = lagrangian_value(source, spec, result.policy, result.s)
    worst = -math.inf
    for _ in range(n_perturbations):
        ks = []
        for i, k in enumerate(result.policy.kernels):
            rand = rng.dirichlet(np.ones(k.shape[-1]), size=k.shape[:-1])
            ks.append((1.0 - epsilon) * k + epsilon * rand)
        probe = CausalPolicy(al, ks, validate=False)
        worst = max(worst, base - lagrangian_value(source, spec, probe, result.s))
    return worst if n_perturbations else 0.0
