"""Causal rate-distortion solver for nonstationary finite-alphabet sources.

The optimal reproduction kernels have the tilted form

    q_i(y_i | y^{i-1}, x^i)  ~  exp(s rho_i(x^i, y^i) - g_i(x^i, y^i)) nu_i(y_i | y^{i-1})

where the value tables g_i integrate out the future stages through a backward
recursion (g at the terminal stage is identically zero) and nu is the output
marginal process the policy itself induces.  The solver closes that system by
sweeps of two passes until nu is stable: a backward pass yields g, log Z and
the kernels q, a forward pass over the weights P(x^i, y^{i-1}) yields nu, and
one more pair at the stable nu yields the distortion D and the block rate
R = s D - E[log Z_0(X_0)]: in s D - sum_i E[g_i + log Z_i] each E[g_{i-1}]
cancels E[log Z_i], as g_{i-1} averages -log Z_i over X_i and a causal
policy keeps X_i independent of Y^{i-1} given X^{i-1}.  At s = 0 the sweeps
start from the D_max trajectory's output law, which the first one confirms.

Both passes run over (x-window, y^{i-1}) states.  For a source of integer
memory m under a single-letter rho, the window at stage i is the last
min(i+1, max(m, 1)) source symbols, because g_i and log Z_i depend on x^i
through no more; otherwise it is all of x^i.  A stage-i table then has
|Y| * |X|^{k_i} * |Y|^i entries, and the solved kernels and g tables are
expanded to full x-history codes once, after the loop.  The rate of a
converged solve is cross-checked against the directed information of the
solved policy, computed on the dense full-history laws of
:mod:`causalrd.measures`, so the entry budget of the alphabets still bounds
every solve.

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
from .measures import (MarginalProcess, directed_information, expected_distortion,
                       lagrangian_value)
from .model import (CausalPolicy, DistortionSpec, SourceModel, _count,
                    decode_history, full_joint_source)

RATE_CHECK_TOL = 1e-6        # closed-form rate against directed information
CURVE_TOL = 1e-9             # rate rise and chord excess a curve's checks allow
STATIONARITY_EPSILON = 1e-3  # verify_stationarity: step toward each random kernel


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
        if not -math.inf < self.s <= 0:              # also refuses nan
            raise InvalidArgumentError("multiplier s must be a finite number <= 0")
        if not self.fp_tol > 0:
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

    Stage-i tables are indexed by (x-window, y^i) rather than (x^i, y^i).
    With a source of integer memory m and a single-letter rho, g_i and
    log Z_i depend on x^i only through its last k_i = min(i+1, max(m, 1))
    symbols (by induction from g_{n-1} = 0: g_{i-1} averages log Z_i over a
    source row that reads at most m symbols), so the window holds those.  In
    every other case (``memory="full"``, stage tables, or no spec) it holds
    all of x^i.  A window code is the full code modulo the window size, so
    source rows, policies and g tables expand to full-history codes by that
    modulo; the tilt reads the x-axis length off its g table, so it also
    takes full-history tables.  Once the window is full its oldest symbol
    drops out between stages: the forward pass sums it out, the backward
    pass keeps it as an axis of g_{i-1}.

    A stage-i table is held y-major, as (y_i, window_i, y^{i-1}), of
    |Y| * |X|^{k_i} * |Y|^i entries: with the short y_i axis outermost, the
    max shift, the normalization and the broadcasts all run along long
    contiguous rows.  In 4-D form (y_i, window_i without x_i, x_i, y^{i-1})
    a single-letter rho broadcasts as rho[x_i, y_i], so no dense stage table
    is built.
    """

    def __init__(self, source: SourceModel, spec: Optional[DistortionSpec] = None,
                 s: float = 0.0):
        al = source.alphabets
        n = al.n_stages
        m = source.memory
        windowed = spec is not None and spec.mode == "single_letter" and m != "full"
        k = [min(i + 1, max(m, 1)) if windowed else i + 1 for i in range(n)]
        self.al = al
        self.k = k
        self.win = [math.prod(al.x_sizes[i + 1 - k[i]: i + 1]) for i in range(n)]
        self.shapes = [(al.y_sizes[i], self.win[i] // al.x_sizes[i], al.x_sizes[i],
                        al.y_hist_size(i - 1)) for i in range(n)]
        self.rho = self.s_rho = None                  # no spec: forward pass only
        if spec is not None:
            self.rho = ([spec.rho.T[:, None, :, None]] * n
                        if spec.mode == "single_letter"
                        else [self._y_major(t, i) for i, t in enumerate(spec.tables)])
            self.s_rho = [s * r for r in self.rho]
        # P(x_0), then P(x_i | window_{i-1}) as (dropped symbol, rest of window_{i-1}, x_i)
        self.rows = [source.kernels[0][0][:, None]] + [
            source.stage_rows(i, self.win[i - 1]).reshape(-1, self.shapes[i][1], al.x_sizes[i])
            for i in range(1, n)]

    def _y_major(self, t, i):
        """4-D y-major view of a stage-i table indexed (window_i or x^i, y^i)."""
        sy, _, sx, yp = self.shapes[i]
        return t.reshape(-1, sx, yp, sy).transpose(3, 0, 1, 2)

    def _full(self, t, i, axis):
        """Stage-i table ``t`` with its window axis expanded to x^i codes."""
        size = self.al.x_hist_size(i)
        return t if t.shape[axis] == size else np.take(t, np.arange(size) % self.win[i], axis)

    def tilt(self, i, g, nu):
        """Kernel q_i ~ nu_i exp(s rho_i - g_i) and its log normalizer
        log Z_i(window_i, y^{i-1}), from one exponent and one max shift."""
        sy, _, _, yp = self.shapes[i]
        e = np.subtract(self.s_rho[i] + masked_log(nu.T)[:, None, None, :], self._y_major(g, i),
                        order="C")
        logz, q = log_normalize(e.reshape(sy, -1, yp), axis=0)
        if logz.min() == -np.inf:
            _, xh, yh = np.nonzero(np.isneginf(logz))
            raise DegenerateMarginalError(
                i, int(yh[0]), f"tilted normalizer vanished for x-history code {int(xh[0])}"
                f" (and every x-history sharing its last {self.k[i]} of {i + 1} symbols)")
        return q, logz[0]

    def backward(self, nu_tables):
        """g tables, log normalizers and kernels, from the last stage down."""
        n = self.al.n_stages
        g, logz, q = [None] * n, [None] * n, [None] * n
        g[n - 1] = np.zeros((self.win[n - 1], self.al.y_hist_size(n - 1)))
        for i in range(n - 1, -1, -1):
            q[i], logz[i] = self.tilt(i, g[i], nu_tables[i])
            if i > 0:
                _, xp, sx, yp = self.shapes[i]
                g[i - 1] = -np.einsum('abx,bxc->abc', self.rows[i],
                                      logz[i].reshape(xp, sx, yp)).reshape(-1, yp)
        return g, logz, q

    def forward(self, q, distortion=False):
        """Output marginals nu_i and prefix masses P(y^{i-1}) induced by the
        kernels ``q``, from the weights P(window_i, y^{i-1}) carried stage to
        stage, and with ``distortion`` the total distortion (else None)."""
        tables, masses = [], []
        dist = 0.0 if distortion else None
        w = self.rows[0]                              # P(x^0, y^{-1})
        for i, (sy, xp, sx, yp) in enumerate(self.shapes):
            joint = q[i] * w                          # P(y_i, window_i, y^{i-1})
            py = joint.sum(axis=1).T                  # P(y^{i-1}, y_i)
            mass = py.sum(axis=1)
            tables.append(np.divide(py, mass[:, None], out=np.full((yp, sy), 1.0 / sy),
                                    where=mass[:, None] > 0))
            masses.append(mass)
            if distortion:
                dist += float(np.sum(joint.reshape(sy, xp, sx, yp) * self.rho[i]))
            if i + 1 < len(self.shapes):
                # P(window_{i+1}, y^i), written with y_i innermost as its code
                # requires; a full window's oldest symbol (axis a) is summed out.
                # One y_i slice at a time reads joint contiguously and writes w
                # in place, where a single einsum over all y_i would need a copy.
                rows = self.rows[i + 1]
                drop, xn, sxn = rows.shape
                jd = joint.reshape(sy, drop, xn, yp)
                w = np.empty((xn, sxn, yp, sy))
                for k in range(sy):
                    np.einsum('abc,abx->bxc', jd[k], rows, out=w[..., k])
                w = w.reshape(-1, yp * sy)
        return tables, masses, dist

    def policy(self, q) -> CausalPolicy:
        """The kernels ``q`` as a policy over full x-histories, each a
        transposed view of its y-major table (expanded first if windowed)."""
        return CausalPolicy(self.al, [self._full(k, i, 1).transpose(2, 1, 0)
                                      for i, k in enumerate(q)], validate=False)

    def full_g(self, g) -> list:
        """The g tables over full x-histories."""
        return [self._full(t, i, 0) for i, t in enumerate(g)]


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
    passes = _Passes(source, spec, s)
    return passes.full_g(passes.backward(nu.tables)[0])


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
    tables, masses, _ = _Passes(source).forward([k.transpose(2, 1, 0)   # y-major
                                                 for k in policy.kernels])
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

    At ``s = 0`` every source-blind policy is stationary; the solve starts,
    whatever ``nu_init``, from the output law of the distortion-minimizing one
    (the limit of the s -> 0 optimizers), and one sweep confirms the curve
    endpoint (D_max, 0).  Non-convergence is reported in the result, not raised.
    """
    al = source.alphabets
    s = float(config.s) + 0.0                          # -0.0 -> 0.0
    nu_init = config.nu_init
    if nu_init == "uniform":
        tables = MarginalProcess.uniform(al).tables
    elif isinstance(nu_init, MarginalProcess) and nu_init.alphabets.y_sizes == al.y_sizes:
        tables = nu_init.tables
    else:
        raise InvalidArgumentError("nu_init must be 'uniform' or a MarginalProcess over "
                                   "the source's stages and reproduction alphabets")
    if s == 0.0:
        tables = [k[:, 0] for k in d_max_policy(source, spec)[1].kernels]

    passes = _Passes(source, spec, s)
    converged = False
    for sweeps in range(1, config.max_sweeps + 1):      # max_sweeps >= 1
        nxt, masses, _ = passes.forward(passes.backward(tables)[2])
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
    dist = passes.forward(q, distortion=True)[2]
    policy = passes.policy(q)
    rate = _closed_form_rate(source, policy, s, dist, logz[0], check=converged)
    return SolveResult(s=s, policy=policy, nu=nu, g=passes.full_g(g_tabs), rate_nats=rate,
                       distortion_total=dist,
                       distortion_per_symbol=dist / al.n_stages,
                       sweeps_used=sweeps, converged=converged, residual=residual)


def _closed_form_rate(source, policy, s, distortion_total, logz0, check=True):
    """Closed-form block rate s*D_total - E[log Z_0(X_0)], ``logz0`` of shape
    (|X_0|, 1).  With ``check`` it is compared with the directed information
    of the policy on the dense laws, which only a fixed point makes equal."""
    rate = s * distortion_total - float(source.kernels[0][0] @ logz0[:, 0])
    if -1e-9 < rate < 0.0:
        rate = 0.0
    if check:
        gap = abs(rate - directed_information(full_joint_source(source), policy))
        if not gap <= RATE_CHECK_TOL:                # a nan gap fails too
            raise InternalConsistencyError(
                f"closed-form rate and directed information differ by {gap:.3e} "
                f"(tolerance {RATE_CHECK_TOL:.1e}); the fixed point looks broken")
    return rate


def rdf_value(source: SourceModel, spec: DistortionSpec, policy: CausalPolicy,
              nu: MarginalProcess, g: list, s: float,
              distortion_total: Optional[float] = None) -> float:
    """Block rate s*D_total - E[log Z_0(X_0)] in closed form at a converged
    fixed point; only stage 0 is tilted, so ``g`` must be the backward tables
    of (``nu``, ``s``).  D_total defaults to the dense expected distortion of
    ``policy``.  Cross-checks the value against the directed information of
    the policy and raises :class:`InternalConsistencyError` beyond 1e-6.
    """
    logz0 = _Passes(source, spec, s).tilt(0, g[0], nu.tables[0])[1]
    if distortion_total is None:
        distortion_total = expected_distortion(full_joint_source(source), policy, spec).total
    return _closed_form_rate(source, policy, s, distortion_total, logz0)


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


def _check_curve(curve: RdCurve, n_stages: int):
    good = [p for p in curve.points if p.converged and math.isfinite(p.rate_total_nats)]
    for a, b in zip(good, good[1:]):
        drop = b.rate_total_nats - a.rate_total_nats
        if drop > curve.monotone_worst:
            curve.monotone_worst = drop
    curve.monotone_ok = curve.monotone_worst <= CURVE_TOL
    for a, b, c in zip(good, good[1:], good[2:]):
        da, db, dc = (p.distortion_per_symbol for p in (a, b, c))
        if dc - da < 1e-12:
            continue
        t = (db - da) / (dc - da)
        chord = (1 - t) * a.rate_total_nats + t * c.rate_total_nats
        excess = b.rate_total_nats - chord
        if excess > curve.convex_worst:
            curve.convex_worst = excess
    curve.convex_ok = curve.convex_worst <= CURVE_TOL
    rel = []
    for a, b, c in zip(good, good[1:], good[2:]):
        dd = (c.distortion_per_symbol - a.distortion_per_symbol) * n_stages
        if abs(dd) < 1e-12 or b.s == 0.0:
            continue
        slope = (c.rate_total_nats - a.rate_total_nats) / dd
        rel.append(abs(slope - b.s) / abs(b.s))
    curve.slope_worst_rel_err = max(rel) if rel else None


def rate_limit_estimate(source_family: Callable[[int], SourceModel],
                        rho, d_target: float,
                        horizons: Sequence[int], **solver_kwargs) -> list:
    """Per-symbol rates of the target-distortion solve across horizons,
    under the single-letter distortion table ``rho`` at every horizon.  The
    trend is reported, not asserted; every horizon is counted before any solve.
    """
    horizons = [_count(h, "horizons entry") for h in horizons]
    if horizons != sorted(horizons):
        raise InvalidArgumentError("horizons must be ascending")
    rates = []
    for h in horizons:
        src = source_family(h)
        spec = DistortionSpec.single_letter(src.alphabets, rho)
        res = solve_for_target_distortion(src, spec, d_target, **solver_kwargs)
        rates.append(res.rate_nats / src.alphabets.n_stages)
    return rates


# ---------------------------------------------------------------------------
# First-order optimality
# ---------------------------------------------------------------------------

def verify_stationarity(source: SourceModel, spec: DistortionSpec,
                        result: SolveResult, n_perturbations: int = 100,
                        seed: int = 0) -> float:
    """Largest Lagrangian decrease over random feasible kernel perturbations.

    Directions are per-stage rows redrawn uniformly on the simplex; the probe
    policy is q* + eps (q_random - q*) with eps = STATIONARITY_EPSILON.  At a
    first-order optimum the returned value is nonpositive up to o(eps).
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
            ks.append((1.0 - STATIONARITY_EPSILON) * k + STATIONARITY_EPSILON * rand)
        probe = CausalPolicy(al, ks, validate=False)
        worst = max(worst, base - lagrangian_value(source, spec, probe, result.s))
    return worst if n_perturbations else 0.0
