"""Independent brute-force reference computations used across the test suite.

The references walk trajectories with plain Python loops and scalar
arithmetic so they share no code path with the vectorized package internals.
The policy builders and dense functionals at the end are the inputs and
checks that only the tests need; the last sections keep earlier forms of
package code, which the current forms must match bit for bit.
"""
import itertools
import math
from typing import NamedTuple

import numpy as np

from causalrd.errors import InvalidArgumentError
from causalrd.measures import COND_EPS, JointLaw, MarginalProcess, lagrangian_value
from causalrd.baseline import _EPS, AA_DEPTH
from causalrd.errors import DegenerateMarginalError
from causalrd.model import CausalPolicy, SourceModel, StageAlphabets, full_joint_source
from causalrd.solver import STATIONARITY_EPSILON, SolveResult, _closed_form_rate, _Passes


def trajectories(sizes):
    return itertools.product(*[range(c) for c in sizes])


def code_of(symbols, sizes):
    c = 0
    for j, u in enumerate(symbols):
        c = c * sizes[j] + u
    return c


def source_prob(source: SourceModel, xs) -> float:
    """P(x^n) by multiplying kernel rows one stage at a time."""
    al = source.alphabets
    p = 1.0
    for i in range(al.n_stages):
        w = source.window_len(i)
        hist = xs[i - w: i] if w else []
        row = code_of(hist, al.x_sizes[i - w: i])
        p *= source.kernels[i][row, xs[i]]
    return p


def policy_prob(policy: CausalPolicy, xs, ys) -> float:
    """Q(y^n | x^n) by multiplying per-stage kernel entries."""
    al = policy.alphabets
    q = 1.0
    for i in range(al.n_stages):
        yh = code_of(ys[:i], al.y_sizes[:i])
        xh = code_of(xs[: i + 1], al.x_sizes[: i + 1])
        q *= policy.kernels[i][yh, xh, ys[i]]
    return q


def enum_joint_table(source: SourceModel, policy: CausalPolicy) -> np.ndarray:
    """Dense joint law over (x-code, y-code) assembled cell by cell."""
    al = source.alphabets
    out = np.zeros((al.x_trajectories(), al.y_trajectories()))
    for xs in trajectories(al.x_sizes):
        px = source_prob(source, list(xs))
        for ys in trajectories(al.y_sizes):
            out[code_of(xs, al.x_sizes), code_of(ys, al.y_sizes)] = \
                px * policy_prob(policy, list(xs), list(ys))
    return out


def enum_expected_distortion(source, policy, per_letter) -> float:
    """Total expected distortion with a per-letter distortion function."""
    al = source.alphabets
    total = 0.0
    for xs in trajectories(al.x_sizes):
        px = source_prob(source, list(xs))
        for ys in trajectories(al.y_sizes):
            w = px * policy_prob(policy, list(xs), list(ys))
            total += w * sum(per_letter(x, y) for x, y in zip(xs, ys))
    return total


class SyntheticProbe(NamedTuple):
    """A multiplier-search probe of a closed-form curve: its multiplier,
    distortion and rate, and whether it converged."""
    s: float
    distortion: float
    rate: float
    converged: bool = True


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def random_alphabets(rng, n_stages, max_size=3):
    xs = [int(rng.integers(2, max_size + 1)) for _ in range(n_stages)]
    ys = [int(rng.integers(2, max_size + 1)) for _ in range(n_stages)]
    return StageAlphabets(n_stages, xs, ys)


def random_source(rng, alphabets) -> SourceModel:
    ks = []
    for i in range(alphabets.n_stages):
        shape = (alphabets.x_hist_size(i - 1), alphabets.x_sizes[i])
        ks.append(rng.dirichlet(np.ones(shape[1]), size=shape[0]))
    return SourceModel(alphabets, ks)


def random_policy(rng, alphabets) -> CausalPolicy:
    ks = []
    for i in range(alphabets.n_stages):
        yh = alphabets.y_hist_size(i - 1)
        xh = alphabets.x_hist_size(i)
        sy = alphabets.y_sizes[i]
        ks.append(rng.dirichlet(np.ones(sy), size=(yh, xh)))
    return CausalPolicy(alphabets, ks)


def round_rows_to_grid(rows, resolution) -> np.ndarray:
    """Round every probability row (last axis) to multiples of 1/N,
    N = round(1/resolution), by largest remainder.

    Each row keeps the floor of N * p; the units still missing go one each
    to the entries with the largest fractional parts, ties to the lower
    index.  The result is deterministic and its rows are exactly rows of
    ``oracle.simplex_grid(k, resolution)``.
    """
    n = int(round(1.0 / resolution))
    flat = np.asarray(rows, dtype=float).reshape(-1, np.shape(rows)[-1])
    out = np.empty_like(flat)
    for j, row in enumerate(flat):
        scaled = row * n
        counts = np.floor(scaled).astype(int)
        missing = n - int(counts.sum())
        order = np.argsort(-(scaled - counts), kind="stable")
        counts[order[:missing]] += 1
        out[j] = counts / n
    return out.reshape(np.shape(rows))


def bsc_policy(alphabets, eps) -> CausalPolicy:
    """Stagewise binary symmetric channel y_i = x_i xor Bernoulli(eps)."""
    ks = []
    for i in range(alphabets.n_stages):
        yh = alphabets.y_hist_size(i - 1)
        xh = alphabets.x_hist_size(i)
        k = np.empty((yh, xh, 2))
        last = np.arange(xh) % 2
        k[:, :, 0] = np.where(last == 0, 1 - eps, eps)
        k[:, :, 1] = np.where(last == 0, eps, 1 - eps)
        ks.append(k)
    return CausalPolicy(alphabets, ks)


def stage_rho(spec, i, xs, ys) -> float:
    """rho_i(x^i, y^i) read off the spec's own tables, for whole prefixes."""
    al = spec.alphabets
    if spec.mode == "single_letter":
        return float(spec.rho[xs[i], ys[i]])
    return float(spec.tables[i][code_of(xs[: i + 1], al.x_sizes),
                                code_of(ys[: i + 1], al.y_sizes)])


def _next_prob(source, xs, x) -> float:
    """P(X_i = x | x^{i-1} = xs), i = len(xs)."""
    al = source.alphabets
    i = len(xs)
    w = source.window_len(i)
    return source.kernels[i][code_of(xs[i - w: i], al.x_sizes[i - w: i]), x]


def enum_causal_floor(source, spec) -> float:
    """Least total expected distortion over causal policies, by the plain
    recursion V(x^i, y^{i-1}) = min over y_i of rho_i + E[V(x^{i+1}, y^i) | x^i]."""
    al = source.alphabets
    n = al.n_stages

    def value(xs, ys):
        i = len(ys)
        best = math.inf
        for y in range(al.y_sizes[i]):
            cost = stage_rho(spec, i, xs, ys + [y])
            if i + 1 < n:
                cost += sum(_next_prob(source, xs, x) * value(xs + [x], ys + [y])
                            for x in range(al.x_sizes[i + 1]))
            best = min(best, cost)
        return best

    return sum(_next_prob(source, [], x) * value([x], []) for x in range(al.x_sizes[0]))


def enum_trajectory_costs(source, spec) -> dict:
    """sum over x^n of P(x^n) d(x^n, y^n), for every y-trajectory y^n (a tuple);
    the least of them is the zero-rate distortion D_max (total)."""
    al = source.alphabets
    laws = [(list(xs), source_prob(source, list(xs))) for xs in trajectories(al.x_sizes)]
    return {ys: sum(p * sum(stage_rho(spec, i, xs, ys) for i in range(al.n_stages))
                    for xs, p in laws)
            for ys in trajectories(al.y_sizes)}


# ---------------------------------------------------------------------------
# policy builders and dense functionals only the tests use
# ---------------------------------------------------------------------------

def identity_policy(alphabets: StageAlphabets) -> CausalPolicy:
    """Deterministic y_i := x_i (needs y_sizes >= x_sizes per stage)."""
    sizes = list(zip(alphabets.x_sizes, alphabets.y_sizes))
    if any(sy < sx for sx, sy in sizes):
        raise InvalidArgumentError("identity policy needs |Y_i| >= |X_i|")
    return CausalPolicy(alphabets, [np.tile(np.eye(sx, sy), (alphabets.y_hist_size(i - 1), 1, 1))
                                    for i, (sx, sy) in enumerate(sizes)], validate=False)


def constant_policy(alphabets: StageAlphabets, symbols) -> CausalPolicy:
    """Deterministic policy emitting ``symbols[i]`` at stage i, ignoring x."""
    return CausalPolicy(alphabets, [np.tile(np.eye(alphabets.y_sizes[i])[int(symbols[i])],
                                            (alphabets.y_hist_size(i - 1), 1, 1))
                                    for i in range(alphabets.n_stages)], validate=False)


def uniform_policy(alphabets: StageAlphabets) -> CausalPolicy:
    return CausalPolicy(alphabets, [np.full((alphabets.y_hist_size(i - 1), 1, alphabets.y_sizes[i]),
                                            1.0 / alphabets.y_sizes[i])
                                    for i in range(alphabets.n_stages)], validate=False)


def uniform_marginal(alphabets: StageAlphabets) -> MarginalProcess:
    """The marginal process with every row uniform."""
    return MarginalProcess(alphabets, [np.full((alphabets.y_hist_size(i - 1), alphabets.y_sizes[i]),
                                               1.0 / alphabets.y_sizes[i])
                                       for i in range(alphabets.n_stages)])


def policy_from_marginals(nu: MarginalProcess) -> CausalPolicy:
    """Source-independent policy q_i(y_i | y^{i-1}, x^i) := nu_i(y_i | y^{i-1})."""
    return CausalPolicy(nu.alphabets, [t[:, None, :].copy() for t in nu.tables],
                        validate=False)


def _prefix_channels(policy: CausalPolicy):
    """The prefix channels Q(y^i | x^i) = prod_{j<=i} q_j, as dense
    (x_hist_size(i), y_hist_size(i)) tables, for i = 0 .. n-1."""
    al = policy.alphabets
    for i in range(al.n_stages):
        head = StageAlphabets(i + 1, al.x_sizes[: i + 1], al.y_sizes[: i + 1])
        yield reference_causal_channel_table(CausalPolicy(head, policy.tables[: i + 1],
                                                          validate=False))


def mix_policies(a: CausalPolicy, b: CausalPolicy, lam: float) -> CausalPolicy:
    """Convex combination lam*Q_a + (1-lam)*Q_b of the joint causal kernels,
    refactored into per-stage kernels.

    Mixing happens at the level of Q(y^n | x^n); the per-stage kernels of the
    mixture are conditional ratios of the mixed prefix channels, not convex
    combinations of the per-stage kernels.
    """
    al = a.alphabets
    if not 0.0 <= lam <= 1.0:
        raise InvalidArgumentError("lam must be in [0, 1]")
    if al != b.alphabets:
        raise InvalidArgumentError("policies must share alphabets")

    ks = []
    prev = None      # mixed prefix channel M_{i-1}(x^{i-1}; y^{i-1})
    for i, (cur_a, cur_b) in enumerate(zip(_prefix_channels(a), _prefix_channels(b))):
        mix = lam * cur_a + (1.0 - lam) * cur_b    # (x_hist(i), y_hist(i))
        sy = al.y_sizes[i]
        num = mix.reshape(al.x_hist_size(i), al.y_hist_size(i - 1), sy)
        if prev is None:
            den = np.ones((al.x_hist_size(i), al.y_hist_size(i - 1)))
        else:
            parent = np.arange(al.x_hist_size(i)) // al.x_sizes[i]
            den = prev[parent]                     # (x_hist(i), y_hist(i-1))
        k = np.full((al.y_hist_size(i - 1), al.x_hist_size(i), sy), 1.0 / sy)
        ok = den > 0
        ratio = np.zeros_like(num)
        ratio[ok] = num[ok] / den[ok][:, None]
        k[:, :, :] = np.where(ok.T[:, :, None], np.swapaxes(ratio, 0, 1), k)
        ks.append(k)
        prev = mix
    return CausalPolicy(al, ks, validate=False)


def mutual_information(joint: JointLaw) -> float:
    """Block mutual information I(X^n; Y^n) of a joint trajectory law, in nats."""
    j = joint.table
    px = j.sum(axis=1)
    py = j.sum(axis=0)
    mask = j > 0
    outer = px[:, None] * py[None, :]
    val = float(np.sum(j[mask] * (np.log(j[mask]) - np.log(outer[mask]))))
    return max(val, 0.0)


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


def reference_stationarity(source, spec, result, n_perturbations=100, seed=0) -> float:
    """verify_stationarity's value computed probe by probe: one Dirichlet draw
    per probe and stage, in that order, and one dense lagrangian_value per
    probe and for the solved policy."""
    rng = np.random.default_rng(seed)
    base = lagrangian_value(source, spec, result.policy, result.s)
    worst = -math.inf
    for _ in range(n_perturbations):
        ks = []
        for k in result.policy.kernels:
            rand = rng.dirichlet(np.ones(k.shape[-1]), size=k.shape[:-1])
            ks.append((1.0 - STATIONARITY_EPSILON) * k + STATIONARITY_EPSILON * rand)
        probe = CausalPolicy(source.alphabets, ks, validate=False)
        worst = max(worst, base - lagrangian_value(source, spec, probe, result.s))
    return worst


# ---------------------------------------------------------------------------
# the oracle's staircase kernel as first written
# ---------------------------------------------------------------------------

def reference_plogp(t: np.ndarray) -> np.ndarray:
    """Elementwise t log t with the 0 log 0 = 0 convention, by a masked log."""
    return t * np.log(t, out=np.zeros_like(t), where=t > 0)


def reference_branch_minima(w, cost, grid):
    """``oracle._branch_minima`` with its entropy term as a length-2 reduce of
    masked logs: the reference its column-wise form must match bit for bit."""
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
        nu = np.matmul(wc, stair_rows).reshape(ny, wc.shape[1], -1, 2)
        v = np.matmul(wc, stair_cost) - reference_plogp(nu).sum(axis=3)         # (Y, c, J)
        pick = np.argmin(v, axis=2)
        picks[:, a:a + npts] = pick
        values[:, a:a + npts] = np.take_along_axis(v, pick[..., None], axis=2)[..., 0]
    return values, stairs.transpose(0, 2, 1)[np.arange(ny)[:, None], picks]


# ---------------------------------------------------------------------------
# the dense measures and the Blahut-Arimoto step before they shared one
# stacked evaluator: the references the one-policy values must match bit for
# bit, and the tests' dense channel table and output marginal
# ---------------------------------------------------------------------------

def reference_causal_channel_table(policy: CausalPolicy) -> np.ndarray:
    """Dense Q(y^n | x^n) = prod_i q_i(y_i | y^{i-1}, x^i) over trajectory codes."""
    al = policy.alphabets
    t = policy.kernels[0][0]                       # (x_hist(0), sy0)
    for i in range(1, al.n_stages):
        xh, yh = al.x_hist_size(i - 1), al.y_hist_size(i - 1)
        sx, sy = al.x_sizes[i], al.y_sizes[i]
        q = policy.kernels[i].reshape(yh, xh, sx, sy)
        t = np.einsum('ab,bacd->acbd', t, q).reshape(xh * sx, yh * sy)
    return t


def reference_output_marginal(joint: JointLaw) -> MarginalProcess:
    """Conditional marginals nu_i(y_i | y^{i-1}) of the joint's y-trajectory law."""
    al = joint.alphabets
    py = joint.table.sum(axis=0)
    tables, masses = [], []
    for i in range(al.n_stages - 1, -1, -1):
        sy = al.y_sizes[i]
        blocks = py.reshape(al.y_hist_size(i - 1), sy)
        parent = blocks.sum(axis=1)
        rows = np.full_like(blocks, 1.0 / sy)
        reach = parent > 0
        rows[reach] = blocks[reach] / parent[reach, None]
        tables.append(rows)
        masses.append(parent)
        py = parent
    tables.reverse()
    masses.reverse()
    return MarginalProcess(al, tables, prefix_mass=masses)


def reference_chain_vector(nu: MarginalProcess) -> np.ndarray:
    """prod_i nu_i(y_i | y^{i-1}) as a dense vector over y-trajectory codes."""
    v = nu.tables[0][0]
    for i in range(1, nu.alphabets.n_stages):
        v = (v[:, None] * nu.tables[i]).reshape(-1)
    return v


def reference_directed_information(mu: np.ndarray, policy: CausalPolicy) -> float:
    """Directed information as the sum of joint * log(Q / prod_i nu_i) over
    the joint's support."""
    al = policy.alphabets
    q = reference_causal_channel_table(policy)
    mu = np.asarray(mu, dtype=float)
    joint = JointLaw(al, mu[:, None] * q)
    nu = reference_output_marginal(joint)
    chain = reference_chain_vector(nu)
    log_chain = np.log(chain, out=np.full_like(chain, -np.inf), where=chain > 0)
    j = joint.table
    mask = j > 0
    log_q = np.log(q, out=np.full_like(q, -np.inf), where=q > 0)
    val = float(np.sum(j[mask] * (log_q[mask] - np.broadcast_to(log_chain, j.shape)[mask])))
    return max(val, 0.0)


def reference_expected_distortion(mu: np.ndarray, policy: CausalPolicy, spec) -> float:
    """Expected total distortion under mu tensor Q."""
    joint = JointLaw(policy.alphabets, np.asarray(mu, dtype=float)[:, None]
                     * reference_causal_channel_table(policy))
    return float(np.sum(joint.table * spec.total_table()))


def reference_lagrangian_value(source, spec, policy, s) -> float:
    mu = full_joint_source(source)
    return (reference_directed_information(mu, policy)
            - s * reference_expected_distortion(mu, policy, spec))


def reference_lagrangian_values(mu: np.ndarray, d: np.ndarray, kernels, s: float) -> np.ndarray:
    """The Lagrangian of P stacked policies by its own batched sums, which
    summed in another order than one policy evaluated alone."""
    q = kernels[0][:, 0].copy()                    # (P, x_hist(0), sy0), overwritten below
    for k in kernels[1:]:                          # as measures._channels
        p, yh, xh, sy = k.shape
        q = np.einsum('pab,pbacd->pacbd', q, k.reshape(p, yh, q.shape[1], -1, sy))
        q = q.reshape(p, xh, yh * sy)
    joint = mu[:, None] * q
    dist = np.einsum('pxy,xy->p', joint, d)
    # output marginals from the last stage down, then their chain product, as
    # reference_output_marginal and reference_chain_vector
    tables, mass = [], joint.sum(axis=1)
    for k in kernels[::-1]:
        sy = k.shape[-1]
        blocks = mass.reshape(len(mass), -1, sy)
        mass = blocks.sum(axis=2)
        tables.append(np.divide(blocks, mass[..., None], out=np.full_like(blocks, 1.0 / sy),
                                where=mass[..., None] > 0))
    chain = tables.pop()[:, 0]
    while tables:
        chain = (chain[:, :, None] * tables.pop()).reshape(len(chain), -1)
    # sum of joint * (log Q - log chain) over the joint's support, in place in q
    live = joint > 0
    with np.errstate(divide="ignore"):
        log_chain = np.log(chain)
    np.log(q, out=q, where=live)
    np.subtract(q, log_chain[:, None, :], out=q, where=live)
    info = np.einsum('pxy,pxy->p', joint, q)       # q is finite, joint 0 off the support
    return np.maximum(info, 0.0) - s * dist



# ---------------------------------------------------------------------------
# the four causality residuals as first written, each variant built its own
# way: the reference the grouped-marginal form must match bit for bit
# ---------------------------------------------------------------------------

def _reference_ci_residual(t: np.ndarray) -> float:
    """Max |P(a,b|c) - P(a|c)P(b|c)| over cells of a (C, A, B) table,
    restricted to conditioning events with mass > COND_EPS."""
    pc = t.sum(axis=(1, 2))
    keep = pc > COND_EPS
    if not keep.any():
        return 0.0
    t = t[keep]
    pc = pc[keep]
    pab_c = t / pc[:, None, None]
    pa_c = t.sum(axis=2) / pc[:, None]
    pb_c = t.sum(axis=1) / pc[:, None]
    res = np.abs(pab_c - pa_c[:, :, None] * pb_c[:, None, :])
    return float(res.max())


def _reference_grouped(joint: JointLaw, x_up_to: int, y_up_to: int) -> np.ndarray:
    """Marginal P(x^{x_up_to}, y^{y_up_to}) as a 2-D (x-prefix, y-prefix) array.

    ``x_up_to``/``y_up_to`` are stage indices; -1 drops the block entirely.
    """
    al = joint.alphabets
    xh = al.x_hist_size(x_up_to)
    yh = al.y_hist_size(y_up_to)
    t = joint.table.reshape(xh, al.x_trajectories() // xh,
                            yh, al.y_trajectories() // yh)
    return t.sum(axis=(1, 3))


def reference_markov_chain_check(joint: JointLaw, variant: int) -> float:
    """``measures.markov_chain_check`` with variant 1 as a parent-index product
    loop, variant 2 as an einsum and variants 3 and 4 as prefix reshapes."""
    al = joint.alphabets
    n = al.n_stages
    if variant not in (1, 2, 3, 4):
        raise InvalidArgumentError("variant must be 1, 2, 3 or 4")

    if variant == 1:
        return _reference_factorization_residual(joint)

    worst = 0.0
    tensor = joint.tensor()
    for i in range(n - 1):
        if variant == 2:
            # tensor axes: x_0..x_{n-1} = 0..n-1, y_0..y_{n-1} = n..2n-1
            t = tensor.sum(axis=tuple(range(n + i + 1, 2 * n)))
            xh = al.x_hist_size(i)
            yh = al.y_hist_size(i - 1)
            sy = al.y_sizes[i]
            xf = al.x_trajectories() // xh
            flat = t.reshape(xh, xf, yh, sy)   # (x^i, x future, y^{i-1}, y_i)
            cab = np.einsum('cbda->cdab', flat).reshape(xh * yh, sy, xf)
            worst = max(worst, _reference_ci_residual(cab))
        else:
            if variant == 3:
                m = _reference_grouped(joint, i + 1, i)      # (x^{i+1}, y^i)
                xh = al.x_hist_size(i)
                sx = al.x_sizes[i + 1]
                t = m.reshape(xh, sx, al.y_hist_size(i))
            else:
                m = _reference_grouped(joint, n - 1, i)      # (x^{n-1}, y^i)
                xh = al.x_hist_size(i)
                sx = al.x_trajectories() // xh
                t = m.reshape(xh, sx, al.y_hist_size(i))
            cab = np.swapaxes(t, 1, 2)             # (c=x^i, a=y^i, b=x future)
            worst = max(worst, _reference_ci_residual(cab))
    return worst


def _reference_factorization_residual(joint: JointLaw) -> float:
    """Sup-norm gap between P(y^n | x^n) and the causal product of its own
    stagewise conditionals, over x^n with mass > COND_EPS."""
    al = joint.alphabets
    n = al.n_stages
    mu = joint.table.sum(axis=1)

    # causal factors from prefix marginals, accumulated into a product table
    qhat = np.ones((1, 1))
    defined = np.ones((1, 1), dtype=bool)
    for i in range(n):
        num = _reference_grouped(joint, i, i)                # (x^i, y^i)
        den = _reference_grouped(joint, i, i - 1)            # (x^i, y^{i-1})
        sy = al.y_sizes[i]
        blocks = num.reshape(num.shape[0], -1, sy)
        ok = den > COND_EPS
        factor = np.zeros_like(blocks)
        factor[ok] = blocks[ok] / den[ok][:, None]
        # expand running product to stage-i prefix shapes
        parent_x = np.arange(al.x_hist_size(i)) // al.x_sizes[i] if i else np.zeros(al.x_hist_size(0), dtype=int)
        qhat = (qhat[parent_x][:, :, None] * factor)
        defined = np.broadcast_to(defined[parent_x][:, :, None] & ok[:, :, None],
                                  qhat.shape)
        qhat = qhat.reshape(al.x_hist_size(i), al.y_hist_size(i))
        defined = defined.reshape(al.x_hist_size(i), al.y_hist_size(i))

    cond = np.zeros_like(joint.table)
    keep = mu > COND_EPS
    cond[keep] = joint.table[keep] / mu[keep, None]
    res = np.abs(cond - qhat)
    res[~keep] = 0.0
    res[~defined] = 0.0
    return float(res.max())

def reference_log_normalize(a: np.ndarray, axis: int):
    """Max-shift log-sum-exp of ``a`` along ``axis`` (kept) and the weights
    exp(a - log-sum-exp); an all -inf slice gives -inf and zero weights, with
    no nan and no warning."""
    m = a.max(axis=axis, keepdims=True)
    dead = m == -np.inf
    m[dead] = 0.0
    p = a - m
    np.exp(p, out=p)
    z = p.sum(axis=axis, keepdims=True)     # >= 1 on every live slice
    z[dead] = 1.0
    p /= z
    logz = np.log(z)
    logz += m
    logz[dead] = -np.inf
    return logz, p


def reference_masked_log(p: np.ndarray) -> np.ndarray:
    """log p, with -inf at the zero entries and no warning."""
    return np.log(p, out=np.full(p.shape, -np.inf), where=p > 0)


def reference_ba_tilt(s_rho: np.ndarray, nu: np.ndarray):
    """One Blahut-Arimoto tilt: log Z and the rows nu exp(s rho) / Z."""
    return reference_log_normalize(s_rho + reference_masked_log(nu), axis=1)


# ---------------------------------------------------------------------------
# the passes and the Anderson loop before one sweep plan held nu as one flat
# vector and every pass wrote into buffers built once: the references whose
# solves the current ones must match bit for bit
# ---------------------------------------------------------------------------

class ReferencePasses(_Passes):
    """``solver._Passes`` with the tilt, the least rule, both passes and the
    D_max start as they were, each pass building fresh tables per stage."""

    def tilt(self, i, g, nu):
        """Kernel q_i ~ nu_i exp(s rho_i - g_i) and its log normalizer
        log Z_i(window_i, y^{i-1}), from one exponent and one max shift,
        normalized in place."""
        sy, _, _, yp = self.shapes[i]
        with np.errstate(divide="ignore"):
            log_nu = np.log(nu.T)[:, None, None, :]
        e = np.subtract(self.s_rho[i] + log_nu, self._y_major(g, i), order="C").reshape(sy, -1, yp)
        m = e.max(axis=0)
        if m.min() == -np.inf:
            xh, yh = np.nonzero(np.isneginf(m))
            raise DegenerateMarginalError(
                i, int(yh[0]), f"tilted normalizer vanished for x-history code {int(xh[0])}"
                f" (and every x-history sharing its last {self.k[i]} of {i + 1} symbols)")
        e -= m
        np.exp(e, out=e)
        z = e.sum(axis=0)
        e /= z
        logz = np.log(z)
        logz += m
        return e, logz

    def least(self, i, g, pw=None):
        """The s -> -inf limit of :meth:`tilt`: the one-hot kernel on the least
        rho_i + g_i (ties to the lowest y_i) and minus that least for log Z_i;
        averaged first over ``pw`` = P(window_i), the least over x-blind kernels."""
        sy, _, _, yp = self.shapes[i]
        e = (self.rho[i] + self._y_major(g, i)).reshape(sy, -1, yp)
        if pw is not None:
            e = np.broadcast_to(np.einsum('awc,w->ac', e, pw[:, 0])[:, None], e.shape)
        return (e.argmin(axis=0) == np.arange(sy)[:, None, None]).astype(float), -e.min(axis=0)

    def backward(self, laws, rule=None):
        """g tables, log normalizers and kernels, from the last stage down, by
        the stage ``rule`` (default :meth:`tilt`) given each stage's ``laws``."""
        n, rule = self.al.n_stages, rule or self.tilt
        g, logz, q = [None] * n, [None] * n, [None] * n
        g[n - 1] = np.zeros((self.win[n - 1], self.al.y_hist_size(n - 1)))
        for i in range(n - 1, -1, -1):
            q[i], logz[i] = rule(i, g[i], None if laws is None else laws[i])
            if i > 0:
                _, xp, sx, yp = self.shapes[i]
                g[i - 1] = -np.einsum('abx,bxc->abc', self.rows[i],
                                      logz[i].reshape(xp, sx, yp)).reshape(-1, yp)
        return g, logz, q

    def forward(self, q, distortion=False, fill=None):
        """Output marginals nu'_i and prefix masses P(y^{i-1}) induced by the
        kernels ``q``, from the weights P(window_i, y^{i-1}) carried stage to
        stage, with ``fill``'s rows (or uniform ones) where P(y^{i-1}) = 0;
        with ``distortion`` also the total distortion and the directed
        information sum_i E[log q_i / nu'_i] of the kernels (else None).  The
        latter is exact on windowed states, as q_i reads x^i only through its
        window, and sums only where P(y_i, window_i, y^{i-1}) > 0."""
        tables, masses = [], []
        dist = info = 0.0 if distortion else None
        w = self.rows[0]                              # P(x^0, y^{-1})
        for i, (sy, xp, sx, yp) in enumerate(self.shapes):
            joint = q[i] * w                          # P(y_i, window_i, y^{i-1})
            py = joint.sum(axis=1).T                  # P(y^{i-1}, y_i)
            mass = py.sum(axis=1)
            out = np.full((yp, sy), 1.0 / sy) if fill is None else fill[i].copy()
            tables.append(np.divide(py, mass[:, None], out=out, where=mass[:, None] > 0))
            masses.append(mass)
            if distortion:
                dist += float(np.sum(joint.reshape(sy, xp, sx, yp) * self.rho[i]))
                pos = joint > 0
                nu_new = np.broadcast_to(tables[-1].T[:, None, :], joint.shape)[pos]
                info += float(joint[pos] @ (np.log(q[i][pos]) - np.log(nu_new)))
            if i + 1 < len(self.shapes):
                # P(window_{i+1}, y^i), written with y_i innermost as its code
                # requires; a full window's oldest symbol (axis a) is summed out
                # by one matmul batched over the rest of the window (axis b)
                rows = self.rows[i + 1]
                drop, xn, _ = rows.shape
                jd = joint.reshape(sy, drop, xn, yp).transpose(2, 1, 3, 0).reshape(xn, drop, -1)
                w = (rows.transpose(1, 2, 0) @ jd).reshape(-1, yp * sy)
        return tables, masses, dist, info

    def zero_rate(self):
        """D_max, the least total distortion of a policy that ignores x, and
        the one-hot kernels of its trajectory: :meth:`least` given P(window_i)."""
        laws = [self.rows[0]]
        for rows in self.rows[1:]:
            drop, xn, _ = rows.shape
            laws.append(np.einsum('ab,abx->bx', laws[-1].reshape(drop, xn), rows).reshape(-1, 1))
        _, logz, q = self.backward(laws, self.least)
        return -float(logz[0][0, 0]), q


def reference_accelerated_alternation(backward, forward, tables, tol, max_sweeps):
    """Sweep ``backward`` then ``forward`` on output marginal ``tables`` (2-D,
    one distribution per row) until the sup-norm residual |nu' - nu| <= ``tol``.

    ``backward(nu)`` returns (J(nu), state), J = -E[log Z_0] the objective
    that the plain map nu <- nu' never raises; ``forward(state)`` returns
    (nu', aux).  Each sweep takes a type-II Anderson step (Walker & Ni, SIAM
    J. Numer. Anal. 49, 2011) on nu as one flat vector: nu <- nu' - (dX + dF) g,
    dX, dF the last AA_DEPTH differences of nu and of f = nu' - nu, and
    (dF'dF + 1e-10 tr(dF'dF) I) g = dF'f, shrunk toward nu' to keep each entry
    above half of min(nu, nu') (the map never revives a zero), rows renormalized.
    A step that raises J beyond rounding is replaced by nu', at one more
    backward pass, and clears the history.  Returns the last (nu', aux), the
    forward-pass count, the residual and whether it met ``tol``.
    """
    x = np.concatenate([t.ravel() for t in tables])
    ends = np.cumsum([t.size for t in tables]).tolist()
    widths = np.concatenate([np.full(len(t), t.shape[1]) for t in tables])    # row lengths
    starts = np.cumsum(widths) - widths
    dx, df = np.empty((AA_DEPTH, x.size)), np.empty((AA_DEPTH, x.size))   # rings
    kept, f_last = -1, 0.0                  # differences held (the first sweep's is void)
    objective, state = backward(tables)
    for sweep in range(1, max_sweeps + 1):              # max_sweeps >= 1
        new, aux = forward(state)
        y = np.concatenate([t.ravel() for t in new])
        f = y - x
        residual = float(np.abs(f).max())
        if residual <= tol:
            return new, aux, sweep, residual, True
        np.subtract(f, f_last, out=df[kept % AA_DEPTH])
        kept += 1
        f_last, m = f, min(kept, AA_DEPTH)
        gram = df[:m] @ df[:m].T
        if (trace := np.trace(gram)) > 0:               # 0 with no history
            gram.flat[::m + 1] += 1e-10 * trace
            step = y - np.linalg.solve(gram, df[:m] @ f) @ (dx[:m] + df[:m])
            floor = 0.5 * np.minimum(x, y)
            if (low := step < floor).any():
                step = y + ((y - floor)[low] / (y - step)[low]).min() * (step - y)
            step /= np.add.reduceat(step, starts).repeat(widths)        # rows sum to 1
            step_objective, step_state = backward(
                [step[b - t.size:b].reshape(t.shape) for b, t in zip(ends, new)])
            if step_objective <= objective + 8 * _EPS * abs(objective):    # J to rounding
                np.subtract(step, x, out=dx[kept % AA_DEPTH])
                x, objective, state = step, step_objective, step_state
                continue
            kept = 0
        np.subtract(y, x, out=dx[kept % AA_DEPTH])
        x, (objective, state) = y, backward(new)
    return new, aux, max_sweeps, residual, False


def reference_solve(source, spec, s, fp_tol=1e-9, max_sweeps=10_000) -> SolveResult:
    """``fixed_point_solve`` as it was, on :class:`ReferencePasses` and
    :func:`reference_accelerated_alternation`."""
    al = source.alphabets
    s = float(s) + 0.0                                 # -0.0 -> 0.0
    passes = ReferencePasses(source, spec, s)
    tables = ([k[:, 0].T for k in passes.zero_rate()[1]] if s == 0.0
              else uniform_marginal(al).tables)

    def backward(nu_tables):                          # J(nu) = -E[log Z_0(X_0)]
        _, logz, q = passes.backward(nu_tables)
        return -float(source.kernels[0][0] @ logz[0][:, 0]), (q, nu_tables)

    tables, masses, sweeps, residual, converged = reference_accelerated_alternation(
        backward, lambda state: passes.forward(state[0], fill=state[1])[:2], tables,
        fp_tol, max_sweeps)
    nu = MarginalProcess(al, tables, prefix_mass=masses)
    g_tabs, logz, q = passes.backward(tables)
    dist, info = passes.forward(q, distortion=True)[2:]
    why = "in the reference solve" if converged else None
    rate = _closed_form_rate(source, s, dist, logz[0], info, why)
    return SolveResult(s=s, policy=passes.policy(q), nu=nu, g=g_tabs,
                       rate_nats=rate, distortion_total=dist,
                       distortion_per_symbol=dist / al.n_stages, sweeps_used=sweeps,
                       converged=converged, residual=residual)
