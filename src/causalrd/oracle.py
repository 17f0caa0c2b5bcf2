"""Independent brute-force verification on tiny instances.

Two oracles, both built without any solver machinery (no tilted kernels, no
backward recursion, no fixed points):

* :func:`brute_force_lagrangian_min` minimizes I(X -> Y) - s * total
  distortion over causal policies whose rows live on a simplex grid.  For a
  single stage this is a literal product-grid enumeration.  For two stages the
  full product grid is astronomically large (it is exponential in the number
  of rows), so the search exploits the exact chain-rule split of the
  objective: stage-0 row combinations are enumerated exhaustively, and given
  stage-0 the stage-1 rows decompose into independent per-output-branch
  subproblems, each searched on the grid by coarse enumeration plus
  exhaustive per-row descent from several starts.  The reported value is
  re-evaluated through :mod:`causalrd.measures` on the assembled policy, so
  the returned value is a genuine Lagrangian of a genuine grid policy and
  therefore an upper bound on the true infimum that tightens with resolution.

* :func:`exhaustive_directed_info` recomputes directed information from a raw
  joint table with plain loops, reconstructing the causal factors and output
  marginals cell by cell.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ResourceBudgetError
from .measures import JointLaw, lagrangian_value
from .model import CausalPolicy, DistortionSpec, SourceModel

_FINE_SWEEP_LIMIT = 200
_COARSE_ELEMENT_BUDGET = 30_000_000


@dataclass(frozen=True)
class GridSpec:
    """Search grid: simplex step size per policy row and an evaluation budget."""
    resolution: float = 0.02
    max_cells: int = 50_000_000

    def __post_init__(self):
        if not 0.0 < self.resolution <= 0.5:
            raise InvalidArgumentError("resolution must be in (0, 0.5]")
        if self.max_cells < 1:
            raise InvalidArgumentError("max_cells must be positive")


def simplex_grid(k: int, resolution: float) -> np.ndarray:
    """All probability vectors of length ``k`` with entries on the grid of
    step ``resolution`` (multiples of 1/N, N = round(1/resolution)), in
    lexicographic order."""
    n = int(round(1.0 / resolution))
    if n < 1:
        raise InvalidArgumentError("resolution too coarse")
    return np.array([np.array(c, dtype=float) / n for c in _compositions(n, k)])


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
    """Elementwise t log t with the 0 log 0 = 0 convention."""
    out = np.zeros_like(t)
    mask = t > 0
    out[mask] = t[mask] * np.log(t[mask])
    return out


def _stage0_values(mu0, rows, rho0, s):
    """Lagrangian contribution of stage 0 for a batch of candidate kernels.

    rows: (C, |X_0|, |Y_0|).  Returns (values (C,), output marginals (C, |Y_0|)).
    """
    nu = np.einsum('x,cxy->cy', mu0, rows)
    ent_rows = np.einsum('x,cx->c', mu0, _plogp(rows).sum(axis=2))
    ent_nu = _plogp(nu).sum(axis=1)
    dist = np.einsum('x,cxy,xy->c', mu0, rows, rho0)
    return ent_rows - ent_nu - s * dist, nu


def _branch_batch_values(w, rho, s, combos, plogp_combo):
    """Objective of every row-combo for a batch of branch subproblems.

    w: (B, R); rho: (B, R, sy); combos: (C, R, sy); plogp_combo: (C, R).
    Returns (B, C).
    """
    nu = np.einsum('br,crv->bcv', w, combos)
    ent_nu = _plogp(nu).sum(axis=2)
    ent_rows = np.einsum('br,cr->bc', w, plogp_combo)
    dist = np.einsum('crv,brv->bc', combos, rho * w[:, :, None])
    return ent_rows - ent_nu - s * dist


def _refine_branches(w, rho, s, grid, starts):
    """Exhaustive per-row descent on the grid for a batch of branches.

    w: (B, R); rho: (B, R, sy); grid: (G, sy); each start: (B, R, sy).
    Returns (values (B,), rows (B, R, sy)); descent is monotone, so the
    result never exceeds the value of any start.
    """
    bsz, nrows = w.shape
    plogp_grid = _plogp(grid).sum(axis=1)
    best_val = None
    best_rows = None
    for start in starts:
        t = np.array(start, copy=True)
        ent_rows = _plogp(t).sum(axis=2)              # (B, R)
        dist_rows = (t * rho).sum(axis=2)             # (B, R)
        val = (np.einsum('br,br->b', w, ent_rows)
               - _plogp(np.einsum('br,brv->bv', w, t)).sum(axis=1)
               - s * np.einsum('br,br->b', w, dist_rows))
        for _ in range(_FINE_SWEEP_LIMIT):
            improved = False
            for r in range(nrows):
                nu_other = np.einsum('br,brv->bv', w, t) - w[:, r, None] * t[:, r, :]
                cand_nu = nu_other[:, None, :] + w[:, r, None, None] * grid[None, :, :]
                ent_nu = _plogp(cand_nu).sum(axis=2)             # (B, G)
                base_rows = np.einsum('br,br->b', w, ent_rows) - w[:, r] * ent_rows[:, r]
                base_dist = np.einsum('br,br->b', w, dist_rows) - w[:, r] * dist_rows[:, r]
                cand_dist = np.einsum('gv,bv->bg', grid, rho[:, r, :])
                cand = (base_rows[:, None] + w[:, r, None] * plogp_grid[None, :]
                        - ent_nu
                        - s * (base_dist[:, None] + w[:, r, None] * cand_dist))
                pick = np.argmin(cand, axis=1)
                new_val = cand[np.arange(bsz), pick]
                better = new_val < val - 1e-15
                if better.any():
                    improved = True
                    t[better, r, :] = grid[pick[better]]
                    ent_rows[better, r] = plogp_grid[pick[better]]
                    dist_rows[better, r] = cand_dist[better, pick[better]]
                    val[better] = new_val[better]
            if not improved:
                break
        if best_rows is None:
            best_val, best_rows = val, t
        else:
            better = val < best_val - 1e-15
            best_rows[better] = t[better]
            best_val[better] = val[better]
    return best_val, best_rows


def _solve_branches(w, rho, s, grid, seeds):
    """Minimize every branch subproblem on the grid.

    Deduplicates identical (weights, distortion slice, seed) branches, runs a
    coarse full enumeration to locate basins, then exhaustive per-row descent
    from the coarse argmin, the uniform rows, and the injected seed.
    """
    bsz, nrows = w.shape
    sy = rho.shape[2]
    key_parts = [np.round(w, 12), np.round(rho.reshape(bsz, -1), 12)]
    if seeds is not None:
        key_parts.append(np.round(seeds.reshape(bsz, -1), 12))
    key = np.ascontiguousarray(np.concatenate(key_parts, axis=1))
    _, first, inverse = np.unique(key, axis=0, return_index=True,
                                  return_inverse=True)
    uw, urho = w[first], rho[first]
    useeds = seeds[first] if seeds is not None else None
    usz = first.size

    # coarse stage: largest full enumeration that fits the element budget
    cc_combos = None
    for denom in (10, 8, 6, 5, 4, 3, 2):
        cgrid = simplex_grid(sy, 1.0 / denom)
        ncomb = cgrid.shape[0] ** nrows
        if usz * ncomb * sy <= _COARSE_ELEMENT_BUDGET:
            idx = np.array(list(itertools.product(range(cgrid.shape[0]),
                                                  repeat=nrows)))
            cc_combos = cgrid[idx]
            break
    if cc_combos is None:
        raise ResourceBudgetError("branch subproblem too large for coarse pass")
    cplogp = _plogp(cc_combos).sum(axis=2)

    coarse_rows = np.empty((usz, nrows, sy))
    chunk = max(1, int(4_000_000 // max(cc_combos.shape[0], 1)))
    for a in range(0, usz, chunk):
        b = min(a + chunk, usz)
        vals = _branch_batch_values(uw[a:b], urho[a:b], s, cc_combos, cplogp)
        coarse_rows[a:b] = cc_combos[np.argmin(vals, axis=1)]

    starts = [coarse_rows,
              np.broadcast_to(np.full((nrows, sy), 1.0 / sy),
                              coarse_rows.shape)]
    if useeds is not None:
        starts.append(useeds)
    uvals, urows = _refine_branches(uw, urho, s, grid, starts)
    return uvals[inverse], urows[inverse]


# ---------------------------------------------------------------------------
# Public oracles
# ---------------------------------------------------------------------------

def brute_force_lagrangian_min(source: SourceModel, spec: DistortionSpec,
                               s: float, grid: GridSpec,
                               seed_policy: CausalPolicy = None):
    """Search I(X -> Y) - s * total distortion over causal policies with
    every row on the simplex grid.

    Returns ``(value, policy)``: a grid policy and its Lagrangian,
    re-evaluated through the measures.  The search guarantees only that
    ``value`` is an upper bound on the grid minimum (and so on the true
    infimum); it is not always the grid minimum itself.  Stage 0 is
    enumerated exhaustively, but the stage-1 per-row descent can stop at a
    local minimum: at resolution 0.01 on the fair IID source with s = -1 it
    stops 5.94e-5 above the infimum, while the exact grid minimum is
    5.69e-6 above it.

    ``seed_policy`` (all rows on the grid, else InvalidArgumentError; e.g.
    the argmin at a coarser resolution) is injected as an extra descent start,
    which makes the value monotone under grid halving.  Ties break toward the
    lexicographically first candidate.  Practical coverage: binary alphabets,
    n_stages <= 2.
    """
    if s > 0:
        raise InvalidArgumentError("multiplier s must be <= 0")
    al = source.alphabets
    n = al.n_stages
    if n > 2:
        raise ResourceBudgetError("brute-force oracle covers n_stages <= 2 only")
    if seed_policy is not None:
        _check_seed(seed_policy, al, grid.resolution)

    mu0 = source.kernels[0][0]
    rho0 = spec.stage_table(0)
    grid0 = simplex_grid(al.y_sizes[0], grid.resolution)
    g0 = grid0.shape[0]
    n_rows0 = al.x_hist_size(0)
    c0 = g0 ** n_rows0
    if c0 * n_rows0 * al.y_sizes[0] > grid.max_cells:
        raise ResourceBudgetError(
            f"stage-0 enumeration needs {c0} candidates, over budget")

    combo_idx = np.array(list(itertools.product(range(g0), repeat=n_rows0)))
    rows0 = grid0[combo_idx]                       # (C0, |X_0|, |Y_0|)
    vals0, nu0 = _stage0_values(mu0, rows0, rho0, s)

    if n == 1:
        best = int(np.argmin(vals0))
        policy = CausalPolicy(al, [rows0[best][None, :, :]], validate=False)
        return _measured_value(source, spec, s, policy, float(vals0[best])), policy

    # ---- two stages: exact branch decomposition --------------------------
    sy0, sy1 = al.y_sizes[0], al.y_sizes[1]
    xh1 = al.x_hist_size(1)
    grid1 = simplex_grid(sy1, grid.resolution)
    est = c0 * sy0 * (xh1 * grid1.shape[0] + 64)
    if est > grid.max_cells:
        raise ResourceBudgetError(
            f"two-stage search needs ~{est} evaluations, over budget")

    mu1 = (mu0[:, None] * source.stage_rows(1)).reshape(-1)   # P(x^1)
    rho1 = spec.stage_table(1).reshape(xh1, sy0, sy1)

    x0_of = np.arange(xh1) // al.x_sizes[1]
    raw = mu1[None, :, None] * rows0[:, x0_of, :]  # (C0, xh1, sy0)
    mass = nu0                                     # (C0, sy0) = P(y0)
    safe = np.where(mass == 0.0, 1.0, mass)
    branch_w = raw / safe[:, None, :]              # w(x^1 | y0); 0 when unreachable

    w_flat = np.transpose(branch_w, (0, 2, 1)).reshape(c0 * sy0, xh1)
    rho_flat = np.broadcast_to(
        np.transpose(rho1, (1, 0, 2))[None],       # (1, sy0, xh1, sy1)
        (c0, sy0, xh1, sy1)).reshape(c0 * sy0, xh1, sy1)
    live = (mass > 0).reshape(-1)

    bvals = np.zeros(c0 * sy0)
    brows = np.broadcast_to(np.full((xh1, sy1), 1.0 / sy1),
                            (c0 * sy0, xh1, sy1)).copy()
    idx = np.nonzero(live)[0]
    if idx.size:
        seeds = None
        if seed_policy is not None:
            seeds = seed_policy.kernels[1][idx % sy0]         # (B, xh1, sy1)
        vals_l, rows_l = _solve_branches(w_flat[idx], rho_flat[idx], s,
                                         grid1, seeds)
        bvals[idx] = vals_l
        brows[idx] = rows_l

    totals = vals0 + np.einsum('cy,cy->c', mass, bvals.reshape(c0, sy0))
    best = int(np.argmin(totals))
    k1 = brows.reshape(c0, sy0, xh1, sy1)[best]    # (y_hist(0), x_hist(1), |Y_1|)
    policy = CausalPolicy(al, [rows0[best][None, :, :], k1], validate=False)
    return _measured_value(source, spec, s, policy, float(totals[best])), policy


def _check_seed(policy: CausalPolicy, alphabets, resolution: float):
    """Reject a seed whose alphabets differ from the source's or that has a
    row off the grid (row * N within 1e-9 of integers)."""
    if policy.alphabets != alphabets:
        raise InvalidArgumentError("seed_policy alphabets differ from the source's")
    n = int(round(1.0 / resolution))
    for i, k in enumerate(policy.kernels):
        off = np.argwhere((np.abs(k * n - np.round(k * n)) > 1e-9).any(axis=2))
        if off.size:
            raise InvalidArgumentError(
                f"seed_policy row at stage {i}, y-history {off[0][0]}, x-history "
                f"{off[0][1]} is off the {resolution:g} grid: {k[tuple(off[0])].tolist()}")


def _measured_value(source, spec, s, policy, decomposed):
    """Re-evaluate the assembled policy through the measures and make sure the
    search algebra agrees with them."""
    value = lagrangian_value(source, spec, policy, s)
    if abs(value - decomposed) > 1e-9:
        raise AssertionError(
            f"oracle decomposition drifted from the measured value "
            f"by {abs(value - decomposed):.3e}")
    return value


def exhaustive_directed_info(joint: JointLaw) -> float:
    """Directed information recomputed from a raw joint table with plain
    loops, reconstructing the causal kernels and output marginals factor by
    factor.  Tiny instances only."""
    al = joint.alphabets
    n = al.n_stages
    nx, ny = al.x_trajectories(), al.y_trajectories()
    xdiv = [math.prod(al.x_sizes[i + 1:]) for i in range(n)]
    ydiv = [math.prod(al.y_sizes[i + 1:]) for i in range(n)]

    pxy = [dict() for _ in range(n)]       # P(x^i, y^i)
    pxy_prev = [dict() for _ in range(n)]  # P(x^i, y^{i-1})
    py = [dict() for _ in range(n)]        # P(y^i)
    py_prev = [dict() for _ in range(n)]   # P(y^{i-1})
    for xc in range(nx):
        for yc in range(ny):
            w = joint.table[xc, yc]
            if w == 0.0:
                continue
            for i in range(n):
                xp = xc // xdiv[i]
                yp = yc // ydiv[i]
                ypp = yp // al.y_sizes[i]
                pxy[i][(xp, yp)] = pxy[i].get((xp, yp), 0.0) + w
                pxy_prev[i][(xp, ypp)] = pxy_prev[i].get((xp, ypp), 0.0) + w
                py[i][yp] = py[i].get(yp, 0.0) + w
                py_prev[i][ypp] = py_prev[i].get(ypp, 0.0) + w

    total = 0.0
    for xc in range(nx):
        for yc in range(ny):
            w = joint.table[xc, yc]
            if w == 0.0:
                continue
            log_q = 0.0
            log_nu = 0.0
            for i in range(n):
                xp = xc // xdiv[i]
                yp = yc // ydiv[i]
                ypp = yp // al.y_sizes[i]
                log_q += math.log(pxy[i][(xp, yp)] / pxy_prev[i][(xp, ypp)])
                log_nu += math.log(py[i][yp] / py_prev[i][ypp])
            total += w * (log_q - log_nu)
    return max(total, 0.0)
