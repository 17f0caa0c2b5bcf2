"""Independent brute-force reference computations used across the test suite.

Everything here walks trajectories with plain Python loops and scalar
arithmetic so it shares no code path with the vectorized package internals.
"""
import itertools
import math

import numpy as np

from causalrd.model import CausalPolicy, SourceModel, StageAlphabets


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
