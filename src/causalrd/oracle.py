"""Independent brute-force verification on tiny instances.

The oracle is built without any solver machinery (no tilted kernels, no
backward recursion, no fixed points).  :func:`brute_force_lagrangian_min`
minimizes I(X -> Y) - s * total distortion over causal policies whose rows
live on a simplex grid.  For a single stage this is a literal product-grid
enumeration.  For two stages the full product grid is astronomically large
(it is exponential in the number of rows), so the search exploits the exact
chain-rule split of the objective: stage-0 row combinations are enumerated
exhaustively, and given stage-0 the stage-1 rows decompose into independent
per-output-branch subproblems, each minimized exactly over the grid along one
staircase of row assignments.  The result is the grid minimum, re-evaluated
through :mod:`causalrd.measures` on the assembled policy: a genuine
Lagrangian of a genuine grid policy, and so an upper bound on the true
infimum that never loosens as the grid halves.  A search whose candidates or
branch evaluations would pass ``MAX_GRID_CELLS`` is refused before it
builds a grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, InvalidArgumentError, ResourceBudgetError
from .measures import lagrangian_value
from .model import CausalPolicy, DistortionSpec, SourceModel, _check_multiplier


# Bound on the candidate entries and branch evaluations of one oracle search.
MAX_GRID_CELLS = 50_000_000


@dataclass(frozen=True)
class GridSpec:
    """Search grid: simplex step size per policy row."""
    resolution: float = 0.02

    def __post_init__(self):
        if not 0.0 < self.resolution <= 0.5:
            raise InvalidArgumentError("resolution must be in (0, 0.5]")


def simplex_grid(k: int, resolution: float) -> np.ndarray:
    """All probability vectors of length ``k`` with entries on the grid of
    step ``resolution`` (multiples of 1/N, N = round(1/resolution)), in
    lexicographic order."""
    n = int(round(1.0 / resolution)) if resolution > 0 else 0     # 0 for a nan step too
    if k < 1 or n < 1:
        raise InvalidArgumentError(
            f"simplex grid needs k >= 1 and a step in (0, 2), got k={k}, step={resolution}")
    return np.array(list(_compositions(n, k)), dtype=float) / n


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Objective pieces (definition-level algebra of the Lagrangian)
# ---------------------------------------------------------------------------

def _plogp(t: np.ndarray) -> np.ndarray:
    """Elementwise t log t, +0.0 at t = 0 by an unmasked log of 1 there."""
    u = np.where(t > 0, t, 1.0)
    return np.multiply(t, np.log(u, out=u), out=u)


def _stage0_values(mu0, rows, rho0, s):
    """Lagrangian contribution of stage 0 for a batch of candidate kernels.

    rows: (C, |X_0|, |Y_0|).  Returns (values (C,), output marginals (C, |Y_0|)).
    """
    nu = np.einsum('x,cxy->cy', mu0, rows)
    ent_rows = np.einsum('x,cx->c', mu0, _plogp(rows).sum(axis=2))
    ent_nu = _plogp(nu).sum(axis=1)
    dist = np.einsum('x,cxy,xy->c', mu0, rows, rho0)
    return ent_rows - ent_nu - s * dist, nu


def _branch_minima(w, cost, grid):
    """Exact grid minima of the stage-1 branch subproblems, |Y_1| = 2.

    w: (Y, C, R) row weights w_r = P(x^1 | y_0) of branch y_0 under each of
    C stage-0 candidates; cost: (Y, R, N+1) row costs
    c_r(t_j) = sum_v t_jv log t_jv - s rho_r . t_j at the grid rows
    t_j = grid[j] = (j/N, 1 - j/N).  Returns (values (Y, C), grid-row
    indices (Y, C, R)).

    A branch's objective is sum_r w_r c_r(t_r) - sum_v nu_v log nu_v with
    nu = sum_r w_r t_r.  By the Gibbs inequality (the variational form of
    entropy behind Blahut-Arimoto), -sum nu log nu = min over nu' of
    -sum nu log nu', so the grid minimum is the minimum over nu' of
    sum_r w_r min_j [c_r(t_j) - t_j . log nu'], in which the rows separate.
    With u = log(nu'_0 / nu'_1) the row term is c_r(t_j) - (j/N) u up to a
    constant, so row r's argmin climbs one grid step at a time, from j to
    j + 1 at the breakpoint N (c_r(t_{j+1}) - c_r(t_j)); these increase
    in j because c_r is convex.  As u runs over the line the rows
    therefore pass through the R*N + 1 assignments of one staircase: every
    row at j = 0, then one step per breakpoint in sorted order.  The grid
    minimum is attained on that staircase, so evaluating the objective at
    each of its assignments finds it exactly.  The breakpoints do not
    depend on the weights, so branch y_0 has one staircase under every
    stage-0 candidate.  Ties go to the first step.

    The entropy term adds its two columns, in the order a reduce would.  The
    chunks of npts candidates and their two matmuls stay as they are: another
    batch shape can change how BLAS sums, and so values and tie-broken picks.
    """
    ny, nrows, npts = cost.shape
    step_row = np.argsort(np.diff(cost, axis=2).reshape(ny, -1), axis=1,
                          kind="stable") // (npts - 1)        # row climbing at each step
    climbed = np.cumsum(step_row[:, None, :] == np.arange(nrows)[:, None], axis=2)
    stairs = np.concatenate([np.zeros_like(climbed[:, :, :1]), climbed], axis=2)  # (Y, R, J)
    # J = R*N + 1 assignments; stairs[y, r, k] is row r's grid index at step k
    stair_cost = np.take_along_axis(cost, stairs, axis=2)                         # (Y, R, J)
    stair_rows = grid[stairs].reshape(ny, nrows, -1)                              # (Y, R, J*2)

    values = np.empty(w.shape[:2])
    picks = np.empty(w.shape[:2], dtype=np.intp)
    # npts candidates at a time: Y*npts*J*2 entries, where all C at once
    # would need Y*C*J*2
    for a in range(0, w.shape[1], npts):
        wc = w[:, a:a + npts]
        ent = _plogp(np.matmul(wc, stair_rows).reshape(ny, wc.shape[1], -1, 2))
        v = np.matmul(wc, stair_cost) - (ent[..., 0] + ent[..., 1])          # (Y, c, J)
        pick = np.argmin(v, axis=2)
        picks[:, a:a + npts] = pick
        values[:, a:a + npts] = np.take_along_axis(v, pick[..., None], axis=2)[..., 0]
    return values, stairs.transpose(0, 2, 1)[np.arange(ny)[:, None], picks]


# ---------------------------------------------------------------------------
# Public oracle
# ---------------------------------------------------------------------------

def brute_force_lagrangian_min(source: SourceModel, spec: DistortionSpec,
                               s: float, grid: GridSpec):
    """Minimize I(X -> Y) - s * total distortion over causal policies with
    every row on the simplex grid.

    Returns ``(value, policy)``: the grid minimum, re-evaluated through the
    measures, and a grid policy attaining it.  The grid minimum is an upper
    bound on the true infimum, and halving the step never raises it, since
    the finer grid contains the coarser one.  Stage 0 is enumerated
    exhaustively; given stage 0, each stage-1 branch is minimized exactly
    by :func:`_branch_minima`, which needs |Y_1| = 2.  Ties break toward the
    first stage-0 candidate in enumeration order and, within a branch,
    toward the first staircase step.  Coverage: n_stages <= 2.
    """
    _check_multiplier(s)
    al = source.alphabets
    n = al.n_stages
    if n > 2:
        raise ResourceBudgetError("brute-force oracle covers n_stages <= 2 only")

    # both budgets from the grids' row counts C(N + k - 1, k - 1), before any grid is built
    steps = int(round(1.0 / grid.resolution))
    sy0 = al.y_sizes[0]
    g0 = math.comb(steps + sy0 - 1, sy0 - 1)
    n_rows0 = al.x_hist_size(0)
    c0 = g0 ** n_rows0
    if c0 * n_rows0 * sy0 > MAX_GRID_CELLS:
        raise ResourceBudgetError(
            f"stage-0 enumeration needs {c0} candidates, over budget")
    if n == 2:
        sy1 = al.y_sizes[1]
        if sy1 != 2:
            raise InvalidArgumentError(
                f"two-stage oracle needs |Y_1| = 2, got |Y_1| = {sy1}")
        xh1 = al.x_hist_size(1)
        est = c0 * sy0 * xh1 * steps               # the stage-1 grid has N + 1 rows
        if est > MAX_GRID_CELLS:
            raise ResourceBudgetError(
                f"two-stage search needs ~{est} evaluations, over budget")

    mu0 = source.kernels[0][0]
    rho0 = spec.stage_table(0)
    grid0 = simplex_grid(sy0, grid.resolution)
    combo_idx = np.indices((g0,) * n_rows0).reshape(n_rows0, -1).T   # the last index fastest
    rows0 = grid0[combo_idx]                       # (C0, |X_0|, |Y_0|)
    vals0, mass = _stage0_values(mu0, rows0, rho0, s)     # mass (C0, sy0) = P(y0)

    if n == 1:
        best = int(np.argmin(vals0))
        policy = CausalPolicy(al, [rows0[best][None, :, :]], validate=False)
        return _measured_value(source, spec, s, policy, float(vals0[best])), policy

    # ---- two stages: exact branch decomposition --------------------------
    grid1 = simplex_grid(sy1, grid.resolution)
    mu1 = (mu0[:, None] * source.stage_rows(1)).reshape(-1)   # P(x^1)
    rho1 = spec.stage_table(1).reshape(xh1, sy0, sy1)
    cost = (_plogp(grid1).sum(axis=1)
            - s * np.einsum('ryv,jv->yrj', rho1, grid1))     # (sy0, xh1, N+1)

    x0_of = np.arange(xh1) // al.x_sizes[1]
    raw = mu1[None, :, None] * rows0[:, x0_of, :]  # (C0, xh1, sy0)
    safe = np.where(mass == 0.0, 1.0, mass)
    branch_w = raw / safe[:, None, :]              # w(x^1 | y0); 0 when unreachable
    bvals, picks = _branch_minima(np.transpose(branch_w, (2, 0, 1)), cost, grid1)

    totals = vals0 + np.einsum('cy,yc->c', mass, bvals)
    best = int(np.argmin(totals))
    k1 = grid1[picks[:, best]]                     # (y_hist(0), x_hist(1), |Y_1|)
    policy = CausalPolicy(al, [rows0[best][None, :, :], k1], validate=False)
    return _measured_value(source, spec, s, policy, float(totals[best])), policy


def _measured_value(source, spec, s, policy, decomposed):
    """Re-evaluate the assembled policy through the measures and make sure the
    search algebra agrees with them."""
    value = lagrangian_value(source, spec, policy, s)
    if abs(value - decomposed) > 1e-9:
        raise InternalConsistencyError(
            f"oracle decomposition drifted from the measured value "
            f"by {abs(value - decomposed):.3e}")
    return value
