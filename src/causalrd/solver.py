"""Causal rate-distortion solver for nonstationary finite-alphabet sources.

The optimal reproduction kernels have the tilted form

    q_i(y_i | y^{i-1}, x^i)  ~  exp(s rho_i(x^i, y^i) - g_i(x^i, y^i)) nu_i(y_i | y^{i-1})

where the value tables g_i integrate out the future stages through a backward
recursion (g at the terminal stage is identically zero) and nu is the output
marginal process the policy itself induces.  The solver closes that system by
Anderson-accelerated sweeps of two passes until nu is stable: a backward pass yields
g, log Z and the kernels q, a forward pass over the weights P(x^i, y^{i-1})
yields nu, and one more pair at the stable nu yields D and the block rate
R = s D - E[log Z_0(X_0)]: in s D - sum_i E[g_i + log Z_i] each E[g_{i-1}]
cancels E[log Z_i], as g_{i-1} averages -log Z_i over X_i and a causal
policy keeps X_i independent of Y^{i-1} given X^{i-1}.  Both distortion
endpoints are the s -> -inf limit of the same backward pass, a min in place
of each tilt: the floor directly, and D_max when rho_i + g_i is first averaged
over the window law, so the kernel ignores x.  At s = 0 the sweeps start from
the output law of that D_max trajectory, which the first one confirms.

Both passes run over (x-window, y^{i-1}) states.  For a source of integer
memory m under a single-letter rho, the window at stage i is the last
min(i+1, max(m, 1)) source symbols, because g_i and log Z_i depend on x^i
through no more; otherwise it is all of x^i.  A stage-i table then has
|Y| * |X|^{k_i} * |Y|^i entries.  A solve builds one sweep plan, nu as one
flat vector and buffers every pass writes into; its last pass leaves the
result its kernels and g tables on those windows.  A converged solve's rate
is checked, to RATE_CHECK_TOL, against the directed information the last
forward pass sums; no solve builds the dense laws of :mod:`causalrd.measures`,
the independent checking path of the tests, of :func:`rdf_value` and the CLI.

All exponentials are evaluated in log space with max shifting; rates are in
nats; ``s <= 0`` throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .baseline import ENDPOINT_SLACK, _accelerated_alternation, search_multiplier
from .errors import DegenerateMarginalError, InternalConsistencyError, InvalidArgumentError
from .measures import (MarginalProcess, directed_information, expected_distortion,
                       lagrangian_values)
from .model import (CausalPolicy, DistortionSpec, SourceModel, _check_alphabets,
                    _check_multiplier, _count, _expand_window, full_joint_source)

RATE_CHECK_TOL = 1e-6        # closed-form rate against directed information
CURVE_TOL = 1e-9             # rate rise and chord excess a curve's checks allow
TARGET_DIST_TOL = 1e-6       # solve_for_target_distortion: per-symbol distortion tolerance
STATIONARITY_PROBES = 100    # verify_stationarity: random kernels probed
STATIONARITY_EPSILON = 1e-3  # verify_stationarity: step toward each random kernel
STATIONARITY_BLOCK_ENTRIES = 2**18   # verify_stationarity: (probe, x^n, y^n) entries per block


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Fixed-point iteration parameters.

    ``s`` is the Lagrange multiplier (<= 0); a solve stops at
    |nu' - nu| <= ``fp_tol`` or after ``max_sweeps`` forward passes.  This
    class is the one place each setting and its default is defined.
    """
    s: float
    fp_tol: float = 1e-9
    max_sweeps: int = 10_000

    def __post_init__(self):
        _check_multiplier(self.s)
        if isinstance(self.fp_tol, bool) or not self.fp_tol > 0:
            raise InvalidArgumentError("fp_tol must be positive")
        self.max_sweeps = _count(self.max_sweeps, "max_sweeps")


@dataclass
class SolveResult:
    """Converged (or diagnostic) output of one fixed-point solve.

    ``g`` holds the backward-recursion value tables, one per stage: ``g[i]``
    has shape ``(w_i, y_hist_size(i))`` over the solve's window of x^i (see
    :class:`_Passes`), as do the tables of ``policy``, and the terminal table
    is identically zero.  A sweep takes an Anderson step from nu' over the last
    AA_DEPTH steps, shrunk toward nu' to keep every entry above half of
    min(nu, nu'), and keeps it only if J = -E[log Z_0] does not rise, else pays
    one more backward pass for nu' (:func:`~causalrd.baseline._accelerated_alternation`):
    ``sweeps_used`` counts forward passes, ``nu`` is the last nu'.  A missed
    distortion target, or an infeasible one, sets ``target_met`` False; the
    infeasible sentinel is the one result with ``s`` None, so ``feasible``
    reads that.
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
    target_met: bool = True

    @property
    def feasible(self) -> bool:
        return self.s is not None


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
    monotone_worst: float = 0.0
    convex_worst: float = 0.0
    slope_worst_rel_err: Optional[float] = None

    def __iter__(self):
        return iter(self.points)

    @property
    def monotone_ok(self) -> bool:
        """No rate rise between converged points beyond CURVE_TOL."""
        return self.monotone_worst <= CURVE_TOL

    @property
    def convex_ok(self) -> bool:
        """No chord excess beyond CURVE_TOL."""
        return self.convex_worst <= CURVE_TOL


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
    all of x^i, unless the caller gives the lengths ``k``.  A window code is
    the full code modulo the window size (:func:`~causalrd.model._expand_window`);
    the tilt reads the x-axis length off its g table, so it also takes g over
    any longer window, full x-histories included.  Once the window is full its
    oldest symbol drops out between stages: the forward pass sums it out, the
    backward pass keeps it as an axis of g_{i-1}.

    A stage-i table is held y-major, as (y_i, window_i, y^{i-1}), of
    |Y| * |X|^{k_i} * |Y|^i entries: with the short y_i axis outermost, the
    max shift, the normalization and the broadcasts all run along long
    contiguous rows.  In 4-D form (y_i, window_i without x_i, x_i, y^{i-1})
    a single-letter rho broadcasts as rho[x_i, y_i], so no dense stage table
    is built.

    An instance is the sweep plan of one solve: nu is one flat vector, and each
    pass writes into buffers built once (log nu, kernels, g tables, nu'), viewed
    per stage.  A forward pass returns a copy of nu', so a solve's last backward
    pass leaves its kernels and g tables where nothing writes again.
    """

    def __init__(self, source: SourceModel, spec: Optional[DistortionSpec] = None,
                 s: float = 0.0, k: Optional[list] = None):
        _check_multiplier(s)
        if spec is not None:
            _check_alphabets(source, spec=spec)
        al = source.alphabets
        n = al.n_stages
        m = source.memory
        windowed = spec is not None and spec.mode == "single_letter" and m != "full"
        k = k or [min(i + 1, max(m, 1)) if windowed else i + 1 for i in range(n)]
        self.al, self.k = al, k
        self.win = [math.prod(al.x_sizes[i + 1 - k[i]: i + 1]) for i in range(n)]
        self.shapes = [(al.y_sizes[i], self.win[i] // al.x_sizes[i], al.x_sizes[i],
                        al.y_hist_size(i - 1)) for i in range(n)]
        # P(x_0), then P(x_i | window_{i-1}) as (dropped symbol, rest of window_{i-1}, x_i)
        self.rows = [source.kernels[0][0][:, None]] + [
            source.stage_rows(i, self.win[i - 1]).reshape(-1, self.shapes[i][1], al.x_sizes[i])
            for i in range(1, n)]
        self.rows_t = [None] + [r.transpose(1, 2, 0) for r in self.rows[1:]]
        self.ends = np.cumsum([sy * yp for sy, _, _, yp in self.shapes]).tolist()
        self.widths = np.concatenate([np.full(yp, sy) for sy, _, _, yp in self.shapes])
        self.nu_next = np.empty(self.ends[-1])        # nu', as (y_i, y^{i-1}) views per stage
        self.nu_next_y = [t.T for t in self.tables(self.nu_next)]
        self.rho = self.s_rho = None                  # no spec: forward pass only
        if spec is not None:
            self.rho = ([spec.rho.T[:, None, :, None]] * n if spec.mode == "single_letter"
                        else [self._y_major(t, i) for i, t in enumerate(spec.tables)])
            self.s_rho = [s * r for r in self.rho]
            self.log_nu = np.empty(self.ends[-1])
            self.log_nu_y = [t.T[:, None, None, :] for t in self.tables(self.log_nu)]
            self.q = [np.empty(shape) for shape in self.shapes]
            self.g = [np.zeros((w, al.y_hist_size(i))) for i, w in enumerate(self.win)]
            self.g_y = [self._y_major(t, i) for i, t in enumerate(self.g)]
            self.g_out = [t.reshape(*r.shape[:2], -1) for t, r in zip(self.g, self.rows[1:])]

    def _y_major(self, t, i):
        """4-D y-major view of a stage-i table indexed (window_i or x^i, y^i)."""
        sy, _, sx, yp = self.shapes[i]
        return t.reshape(-1, sx, yp, sy).transpose(3, 0, 1, 2)

    def tables(self, nu):
        """The stage tables (y^{i-1}, y_i) of flat ``nu``, as views."""
        return [nu[b - sy * yp:b].reshape(yp, sy)
                for b, (sy, _, _, yp) in zip(self.ends, self.shapes)]

    def load(self, nu):
        """log nu (flat, or its tables) for the tilts that follow, and whether nu has a zero."""
        nu = nu if isinstance(nu, np.ndarray) else np.concatenate(nu, axis=None)
        self.zeros = not nu.all()
        with np.errstate(divide="ignore"):
            np.log(nu, out=self.log_nu)
        return self

    def tilt(self, i, g, out=None):
        """Kernel q_i ~ nu_i exp(s rho_i - g_i) and its log normalizer
        log Z_i(window_i, y^{i-1}), from one max shift, normalized in place in
        ``out``; ``g`` is the y-major view of g_i, log nu that of :meth:`load`.
        A row of no mass is refused; in the plan's buffers, whose g is finite,
        it is looked for only when nu has a zero."""
        sy, _, _, yp = self.shapes[i]
        e = np.subtract(self.s_rho[i] + self.log_nu_y[i], g, out, order="C").reshape(sy, -1, yp)
        m = np.maximum.reduce(e, axis=0)
        if (out is None or self.zeros) and m.min() == -np.inf:
            xh, yh = np.nonzero(np.isneginf(m))
            raise DegenerateMarginalError(
                i, int(yh[0]), f"tilted normalizer vanished for x-history code {int(xh[0])}"
                f" (and every x-history sharing its last {self.k[i]} of {i + 1} symbols)")
        e -= m
        np.exp(e, out=e)
        z = np.add.reduce(e, axis=0)
        e /= z
        np.log(z, out=z)
        z += m
        return e, z

    def least(self, i, g, pw=None):
        """The s -> -inf limit of :meth:`tilt`: the one-hot kernel on the least
        rho_i + g_i (ties to the lowest y_i) and minus that least for log Z_i;
        averaged first over ``pw`` = P(window_i), the least over x-blind kernels."""
        sy, _, _, yp = self.shapes[i]
        e = (self.rho[i] + g).reshape(sy, -1, yp)
        if pw is not None:
            e = np.broadcast_to(np.einsum('awc,w->ac', e, pw[:, 0])[:, None], e.shape)
        return (e.argmin(axis=0) == np.arange(sy)[:, None, None]).astype(float), -e.min(axis=0)

    def backward(self, nu=None, laws=None):
        """g tables, log normalizers and kernels, from the last stage down, in
        the plan's buffers: each stage tilted at ``nu`` (flat, or its tables),
        or with ``nu`` None by :meth:`least` given each stage's ``laws``."""
        n = self.al.n_stages
        logz, q = [None] * n, [None] * n
        if nu is not None:
            self.load(nu)
        for i in range(n - 1, -1, -1):
            q[i], logz[i] = (self.tilt(i, self.g_y[i], self.q[i]) if nu is not None
                             else self.least(i, self.g_y[i], None if laws is None else laws[i]))
            if i > 0:
                _, xp, sx, yp = self.shapes[i]
                g = np.einsum('abx,bxc->abc', self.rows[i], logz[i].reshape(xp, sx, yp),
                              out=self.g_out[i - 1])
                np.negative(g, out=g)
        return self.g, logz, q

    def forward(self, q, distortion=False, fill=None):
        """Output marginals nu'_i (flat) and prefix masses P(y^{i-1}) induced by
        the kernels ``q``, from the weights P(window_i, y^{i-1}) carried stage to
        stage, with flat ``fill``'s rows (or uniform ones) where P(y^{i-1}) = 0;
        with ``distortion`` also the total distortion and the directed
        information sum_i E[log q_i / nu'_i] of the kernels (else None).  The
        latter is exact on windowed states, as q_i reads x^i only through its
        window, and sums only where P(y_i, window_i, y^{i-1}) > 0."""
        np.copyto(self.nu_next, 1.0 / self.widths.repeat(self.widths) if fill is None else fill)
        masses = []
        dist = info = 0.0 if distortion else None
        w = self.rows[0]                              # P(x^0, y^{-1})
        for i, (table, (sy, xp, sx, yp)) in enumerate(zip(self.nu_next_y, self.shapes)):
            joint = q[i] * w                          # P(y_i, window_i, y^{i-1})
            py = np.add.reduce(joint, axis=1)         # P(y_i, y^{i-1})
            mass = np.add.reduce(py, axis=0)
            np.divide(py, mass, out=table, where=mass > 0)
            masses.append(mass)
            if distortion:
                dist += float(np.sum(joint.reshape(sy, xp, sx, yp) * self.rho[i]))
                pos = joint > 0
                nu_new = np.broadcast_to(table[:, None, :], joint.shape)[pos]
                info += float(joint[pos] @ (np.log(q[i][pos]) - np.log(nu_new)))
            if i + 1 < len(self.shapes):
                # P(window_{i+1}, y^i), written with y_i innermost as its code
                # requires; a full window's oldest symbol (axis a) is summed out
                # by one matmul batched over the rest of the window (axis b)
                drop, xn, _ = self.rows[i + 1].shape
                jd = joint.reshape(sy, drop, xn, yp).transpose(2, 1, 3, 0).reshape(xn, drop, -1)
                w = (self.rows_t[i + 1] @ jd).reshape(-1, yp * sy)
        return self.nu_next.copy(), masses, dist, info

    def policy(self, q) -> CausalPolicy:
        """The kernels ``q`` as a policy over their x-windows, each a
        transposed view of its y-major table."""
        return CausalPolicy(self.al, [k.transpose(2, 1, 0) for k in q], validate=False)

    def zero_rate(self):
        """D_max, the least total distortion of a policy that ignores x, and
        the one-hot kernels of its trajectory: :meth:`least` given P(window_i)."""
        laws = [self.rows[0]]
        for rows in self.rows[1:]:
            drop, xn, _ = rows.shape
            laws.append(np.einsum('ab,abx->bx', laws[-1].reshape(drop, xn), rows).reshape(-1, 1))
        _, logz, q = self.backward(laws=laws)
        return -float(logz[0][0, 0]), q


def backward_g(source: SourceModel, spec: DistortionSpec,
               nu: MarginalProcess, s: float) -> list:
    """Backward value tables for multiplier ``s`` under marginal process ``nu``,
    one array per stage over (x-window, y^i), as in :attr:`SolveResult.g`.

    The recursion integrates, stage by stage from the end, the log of the
    tilted mass the next stage can reach, averaged over the next source
    symbol; the terminal table is zero.
    """
    _check_alphabets(source, nu=nu)
    return _Passes(source, spec, s).backward(nu.tables)[0]


def tilted_policy(source: SourceModel, spec: DistortionSpec,
                  nu: MarginalProcess, g: list, s: float) -> CausalPolicy:
    """Optimal reproduction kernels for (nu, g, s): the exponentially tilted
    marginal, normalized per (y-history, x-history) row.

    Adding any x-history-dependent constant to a g table leaves the result
    unchanged (the normalizer absorbs it); at the terminal stage g is zero and
    the kernel reduces to the pure single-stage tilt.
    """
    _check_alphabets(source, g, nu=nu)
    passes = _Passes(source, spec, s).load(nu.tables)
    return passes.policy([passes.tilt(i, passes._y_major(t, i))[0] for i, t in enumerate(g)])


def marginal_update(source: SourceModel, policy: CausalPolicy) -> MarginalProcess:
    """Output marginal process induced by the source and a policy (the
    consistency map whose fixed point the solver seeks), from one forward pass
    on ``policy.tables``.  Stage i's x-window is the last k_i symbols, k_i the
    largest of the policy's window, the next source row's and k_{i+1} - 1."""
    _check_alphabets(source, policy=policy)
    x, k = source.alphabets.x_sizes, [0] * (source.alphabets.n_stages + 1)
    for i in range(len(x) - 1, -1, -1):
        w = policy.tables[i].shape[1]                 # the policy reads w codes
        k[i] = max(1, source.window_len(i + 1), k[i + 1] - 1,
                   next(j for j in range(i + 2) if math.prod(x[i + 1 - j: i + 1]) == w))
    passes = _Passes(source, k=k[:-1])
    nu, masses = passes.forward([_expand_window(t, win, axis=1).transpose(2, 1, 0)
                                 for t, win in zip(policy.tables, passes.win)])[:2]
    return MarginalProcess(source.alphabets, passes.tables(nu), prefix_mass=masses)


# ---------------------------------------------------------------------------
# Distortion endpoints
# ---------------------------------------------------------------------------

def d_max_policy(source: SourceModel, spec: DistortionSpec):
    """Best source-blind reproduction: the deterministic trajectory minimizing
    expected distortion, its per-symbol value, and the policy emitting it.

    This is the distortion at which the rate-distortion curve hits zero.  The
    trajectory is built stage by stage from the backward pass's least rule,
    so ties go to the lowest code only up to rounding.
    """
    passes = _Passes(source, spec)
    d_max, q = passes.zero_rate()
    return d_max / source.alphabets.n_stages, passes.policy(q)


def min_achievable_distortion(source: SourceModel, spec: DistortionSpec) -> float:
    """Per-symbol distortion floor over all causal policies: the s -> -inf
    limit of the backward pass, a min over y_i of rho_i + g_i at each state
    (ties, which do not move the floor, to the lowest code up to rounding)."""
    passes = _Passes(source, spec)
    logz0 = passes.backward()[1][0]
    return -float(source.kernels[0][0] @ logz0[:, 0]) / source.alphabets.n_stages


# ---------------------------------------------------------------------------
# Fixed point
# ---------------------------------------------------------------------------

def fixed_point_solve(source: SourceModel, spec: DistortionSpec, config: SolverConfig,
                      start: Optional[SolveResult] = None) -> SolveResult:
    """Solve the stationary system (backward pass -> tilted kernels -> induced
    marginal) at fixed multiplier ``config.s``.

    The sweeps start from the uniform marginal u, or, given ``start``, a
    converged solve of the same source at another multiplier, from
    (1 - eps) nu_start + eps u with eps = min(1e-2, |s - start.s|): every
    entry starts above 0, as the map never revives a zero.  A start on other
    alphabets than the source, or one that did not converge, is refused.  At
    ``s = 0`` every source-blind policy is stationary; the solve starts
    instead, whatever ``start``, from the output law of the
    distortion-minimizing one (the s -> 0 limit of the optimizers, by
    :meth:`_Passes.zero_rate`), and one sweep confirms the endpoint (D_max, 0).
    Non-convergence is reported, not raised.
    """
    al = source.alphabets
    s = float(config.s) + 0.0                          # -0.0 -> 0.0
    passes = _Passes(source, spec, s)
    if start is not None:
        if not (start.converged and start.feasible):
            raise InvalidArgumentError("start must be a converged, feasible solve")
        _check_alphabets(source, start=start.nu)
    nu = 1.0 / passes.widths.repeat(passes.widths)
    if s == 0.0:
        nu = np.concatenate([k[:, 0].T for k in passes.zero_rate()[1]], axis=None)
    elif start is not None:
        eps = min(1e-2, abs(s - start.s))
        nu = (1.0 - eps) * np.concatenate(start.nu.tables, axis=None) + eps * nu

    def backward(nu):                                 # J(nu) = -E[log Z_0(X_0)]
        _, logz, q = passes.backward(nu)
        return -float(source.kernels[0][0] @ logz[0][:, 0]), (q, nu)

    # a row of zero prefix mass keeps nu's row, so the residual is over live rows
    nu, masses, sweeps, residual, converged = _accelerated_alternation(
        backward, lambda state: passes.forward(state[0], fill=state[1])[:2], nu,
        passes.widths, config.fp_tol, config.max_sweeps)
    g_tabs, logz, q = passes.backward(nu)
    dist, info = passes.forward(q, distortion=True)[2:]
    why = f"after {sweeps} sweeps at fp_tol {config.fp_tol:.1e}; try a tighter fp_tol first"
    rate = _closed_form_rate(source, s, dist, logz[0], info, why if converged else None)
    return SolveResult(s=s, policy=passes.policy(q), g=g_tabs,
                       nu=MarginalProcess(al, passes.tables(nu), prefix_mass=masses),
                       rate_nats=rate, distortion_total=dist,
                       distortion_per_symbol=dist / al.n_stages, sweeps_used=sweeps,
                       converged=converged, residual=residual)


def _closed_form_rate(source, s, distortion_total, logz0, info, why):
    """Closed-form block rate s*D_total - E[log Z_0(X_0)], ``logz0`` of shape
    (|X_0|, 1), compared, unless ``why`` is None, with ``info``, the directed
    information of the tilted policy, which only a fixed point makes equal:
    the closed form exceeds it by sum_i E_{P(y^{i-1})} KL(nu'_i || nu_i), nu'
    the marginal the policy induces; ``why`` ends the error.  A solve passes
    its final forward pass's value, :func:`rdf_value` that of the dense laws."""
    rate = s * distortion_total - float(source.kernels[0][0] @ logz0[:, 0])
    if -1e-9 < rate < 0.0:
        rate = 0.0
    if why is not None:
        gap = abs(rate - info)
        if not gap <= RATE_CHECK_TOL:                # a nan gap fails too
            raise InternalConsistencyError(
                f"closed-form rate and directed information differ by {gap:.3e} "
                f"(tolerance {RATE_CHECK_TOL:.1e}) {why}")
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
    _check_alphabets(source, g, policy=policy, nu=nu)
    passes = _Passes(source, spec, s).load(nu.tables)
    logz0 = passes.tilt(0, passes._y_major(g[0], 0))[1]
    mu = full_joint_source(source)
    if distortion_total is None:
        distortion_total = expected_distortion(mu, policy, spec)
    return _closed_form_rate(source, s, distortion_total, logz0,
                             directed_information(mu, policy), "so the fixed point looks broken")


# ---------------------------------------------------------------------------
# Distortion-target solves and curve tracing
# ---------------------------------------------------------------------------

def solve_for_target_distortion(source: SourceModel, spec: DistortionSpec,
                                d_target: float, **settings) -> SolveResult:
    """Solve at a per-symbol distortion target by searching the multiplier;
    ``settings`` are the :class:`SolverConfig` fields other than ``s``.

    The multiplier is found by :func:`~causalrd.baseline.search_multiplier`
    (doubling from -1, then safeguarded rate-aware steps, each probe read as
    its per-symbol distortion and rate R/n) to within TARGET_DIST_TOL of the
    per-symbol target.  Each probe is a :func:`fixed_point_solve`, looked up on
    this module at call time, warm-started from the start the search hands it:
    the converged probe nearest it in s (the first starts cold).  The result is
    the probe's own point on the curve: its rate is its policy's rate at its
    own distortion D, and R/n + s (d_target - D) is the rate per symbol at the
    exact target, which R/n may miss by up to |s| TARGET_DIST_TOL.  A returned
    solve that misses the target by more than that has ``target_met`` False.
    Targets within ENDPOINT_SLACK below the zero-rate distortion, or above it,
    return the s = 0 endpoint; targets more than that below the achievable
    floor return an infeasible sentinel with rate +inf.
    """
    if not d_target >= 0:                             # also refuses nan
        raise InvalidArgumentError("d_target must be >= 0")
    config = SolverConfig(s=0.0, **settings)         # a bad setting raises here
    if d_target >= d_max_policy(source, spec)[0] - ENDPOINT_SLACK:
        return fixed_point_solve(source, spec, config)

    floor = min_achievable_distortion(source, spec)
    if d_target < floor - ENDPOINT_SLACK:
        return SolveResult(s=None, policy=None, nu=None, g=None, rate_nats=math.inf,
                           distortion_total=floor * source.alphabets.n_stages,
                           distortion_per_symbol=floor, sweeps_used=0, converged=True,
                           residual=0.0, target_met=False)

    n = source.alphabets.n_stages
    best = search_multiplier(
        lambda s, start: fixed_point_solve(source, spec, replace(config, s=s), start=start),
        lambda r: (r.distortion_per_symbol, r.rate_nats / n), d_target, TARGET_DIST_TOL)
    best.target_met = abs(best.distortion_per_symbol - d_target) <= TARGET_DIST_TOL
    return best


def trace_curve(source: SourceModel, spec: DistortionSpec,
                s_values: Sequence[float], **settings) -> RdCurve:
    """One fixed-point solve per multiplier, with the :class:`SolverConfig`
    fields ``settings``; points sorted by distortion with monotonicity,
    convexity and slope diagnostics.

    Per-point failures are recorded on the point rather than raised; a bad
    setting, or a spec on other alphabets than the source, raises before any
    solve.
    """
    if len(s_values) == 0:
        raise InvalidArgumentError("s_values must be nonempty")
    config = SolverConfig(s=0.0, **settings)
    _check_alphabets(source, spec=spec)
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
        curve.monotone_worst = max(curve.monotone_worst, b.rate_total_nats - a.rate_total_nats)
    rel = []
    for a, b, c in zip(good, good[1:], good[2:]):
        da, db, dc = (p.distortion_per_symbol for p in (a, b, c))
        if dc - da >= 1e-12:
            t = (db - da) / (dc - da)
            excess = b.rate_total_nats - ((1 - t) * a.rate_total_nats + t * c.rate_total_nats)
            curve.convex_worst = max(curve.convex_worst, excess)
        dd = (dc - da) * n_stages
        if abs(dd) >= 1e-12 and b.s != 0.0:
            slope = (c.rate_total_nats - a.rate_total_nats) / dd
            rel.append(abs(slope - b.s) / abs(b.s))
    curve.slope_worst_rel_err = max(rel) if rel else None


def rate_limit_estimate(source_family: Callable[[int], SourceModel],
                        rho, d_target: float,
                        horizons: Sequence[int]) -> list:
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
        res = solve_for_target_distortion(src, spec, d_target)
        rates.append(res.rate_nats / src.alphabets.n_stages)
    return rates


# ---------------------------------------------------------------------------
# First-order optimality
# ---------------------------------------------------------------------------

def verify_stationarity(source: SourceModel, spec: DistortionSpec,
                        result: SolveResult, seed: int = 0) -> float:
    """Largest Lagrangian decrease over random feasible kernel perturbations.

    Directions are per-stage rows redrawn uniformly on the simplex, one for
    each of STATIONARITY_PROBES probes, from ``seed``, an integer >= 0; the probe
    policy is q* + eps (q_random - q*) with eps = STATIONARITY_EPSILON.  At a
    first-order optimum the returned value is nonpositive up to o(eps).

    The rows are drawn probe by probe and, within a probe, stage by stage, so
    a seed gives the same directions however the probes are grouped.  The
    probes are evaluated in blocks of max(1, STATIONARITY_BLOCK_ENTRIES //
    (|X^n| |Y^n|)) by :func:`~causalrd.measures.lagrangian_values`, on a
    source law and distortion table built once, which gives each probe and
    q* the bits of its own :func:`~causalrd.measures.lagrangian_value`.
    """
    if result.policy is None:
        raise InvalidArgumentError("result carries no policy")
    _check_alphabets(source, result=result.policy)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidArgumentError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    kernels = result.policy.kernels
    mu, d = full_joint_source(source), spec.total_table()
    base = lagrangian_values(mu, d, [k[None] for k in kernels], result.s)[0]
    per_block = max(1, STATIONARITY_BLOCK_ENTRIES // d.size)
    worst = -math.inf
    for start in range(0, STATIONARITY_PROBES, per_block):
        probes = _probe_kernels(rng, kernels, min(per_block, STATIONARITY_PROBES - start))
        worst = max(worst, float(np.max(base - lagrangian_values(mu, d, probes, result.s))))
    return worst


def _probe_kernels(rng, kernels, count):
    """``count`` probe policies (1 - eps) q* + eps q_random, stacked per stage
    on a leading axis, with q_random's rows drawn from the flat Dirichlet law
    probe by probe, then stage by stage: one draw per run of stages with
    equal row lengths, which fills its rows in that order."""
    widths = np.array([k.shape[-1] for k in kernels] * count)
    rows = np.array([k.size // k.shape[-1] for k in kernels] * count)
    runs = np.flatnonzero(np.diff(widths)) + 1
    flat = np.concatenate([rng.dirichlet(np.ones(w[0]), size=r.sum()).ravel()
                           for w, r in zip(np.split(widths, runs), np.split(rows, runs))])
    cuts = np.cumsum([k.size for k in kernels])[:-1]
    probes = []
    for k, rand in zip(kernels, np.split(flat.reshape(count, -1), cuts, axis=1)):
        probe = STATIONARITY_EPSILON * rand.reshape(count, *k.shape)
        probe += (1.0 - STATIONARITY_EPSILON) * k
        probes.append(probe)
    return probes
