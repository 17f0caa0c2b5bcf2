"""Joint, marginal and product laws induced by a source and a causal policy,
plus the information functionals defined on them.

All information quantities are returned in nats.  The conventions throughout:
``0 * log 0 = 0``, cells with zero joint mass contribute nothing, and
conditioning events with probability below ``COND_EPS`` are excluded from
conditional-independence residuals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .model import (CausalPolicy, DistortionSpec, SourceModel, StageAlphabets,
                    _check_alphabets, full_joint_source)

COND_EPS = 1e-12
MASS_TOL = 1e-10


# ---------------------------------------------------------------------------
# Laws
# ---------------------------------------------------------------------------

@dataclass
class JointLaw:
    """Dense joint law over trajectory pairs, indexed (x-code, y-code)."""
    alphabets: StageAlphabets
    table: np.ndarray

    def __post_init__(self):
        want = (self.alphabets.x_trajectories(), self.alphabets.y_trajectories())
        if self.table.shape != want:
            raise InvalidArgumentError(
                f"joint table shape {self.table.shape}, expected {want}")
        _check_joints(self.table[None])

    def tensor(self) -> np.ndarray:
        """View reshaped to one axis per stage variable (x stages then y stages)."""
        al = self.alphabets
        return self.table.reshape(*al.x_sizes, *al.y_sizes)


class MarginalProcess:
    """Output conditional marginals nu_i(y_i | y^{i-1}).

    ``tables[i]`` has shape ``(y_hist_size(i-1), y_sizes[i])``; rows for
    unreachable histories are uniform by convention, where a solve's ``nu``
    keeps its iterate's rows.  When built from a joint law, ``prefix_mass[i]``
    holds P(y^{i-1}) so callers can tell reachable rows apart.
    """

    def __init__(self, alphabets: StageAlphabets, tables, prefix_mass=None):
        self.alphabets = alphabets
        n = alphabets.n_stages
        if len(tables) != n:
            raise InvalidArgumentError(f"need {n} marginal tables, got {len(tables)}")
        ts = []
        for i, t in enumerate(tables):
            t = np.asarray(t, dtype=float)
            want = (alphabets.y_hist_size(i - 1), alphabets.y_sizes[i])
            if t.shape != want:
                raise InvalidArgumentError(
                    f"marginal table {i} has shape {t.shape}, expected {want}")
            ts.append(t)
        self.tables = ts
        self.prefix_mass = prefix_mass

    @classmethod
    def uniform(cls, alphabets: StageAlphabets):
        ts = [np.full((alphabets.y_hist_size(i - 1), alphabets.y_sizes[i]),
                      1.0 / alphabets.y_sizes[i])
              for i in range(alphabets.n_stages)]
        return cls(alphabets, ts)


def _check_joints(tables: np.ndarray) -> None:
    """The sign and mass checks of :class:`JointLaw`, on stacked (P, x, y) tables."""
    if (tables < -COND_EPS).any():
        raise InvalidArgumentError("joint table has negative entries")
    mass = tables.sum(axis=(1, 2))
    if (off := np.abs(mass - 1.0) > MASS_TOL).any():
        raise InvalidArgumentError(
            f"joint table mass {mass[off][0]:.12g} is not 1 within {MASS_TOL}")


# ---------------------------------------------------------------------------
# Construction.  The private functions take P stacked policies: ``kernels[i]``
# has shape (P, y_hist_size(i-1), x_hist_size(i), y_sizes[i]), and one policy
# is a stack of one.  Every step but the sums is elementwise, and each sum runs
# over one policy's entries in the order it would alone: same bits at any P.
# ---------------------------------------------------------------------------

def _channels(kernels) -> np.ndarray:
    """Q(y^n | x^n) = prod_i q_i(y_i | y^{i-1}, x^i), shape (P, |X^n|, |Y^n|)."""
    q = kernels[0][:, 0]                           # (P, x_hist(0), sy0)
    for k in kernels[1:]:
        p, yh, xh, sy = k.shape
        q = np.einsum('pab,pbacd->pacbd', q, k.reshape(p, yh, q.shape[1], -1, sy))
        q = q.reshape(p, xh, yh * sy)
    return q


def _marginals(py: np.ndarray, y_sizes):
    """Conditionals nu_i(y_i | y^{i-1}) and prefix masses P(y^{i-1}) of stacked
    y-trajectory laws ``py`` (P, |Y^n|), stage 0 first; a row is its block's
    proportions, or uniform where the prefix has no mass."""
    tables, masses = [], []
    for sy in reversed(y_sizes):
        blocks = py.reshape(len(py), -1, sy)
        py = blocks.sum(axis=2)
        tables.append(np.divide(blocks, py[..., None], out=np.full_like(blocks, 1.0 / sy),
                                where=py[..., None] > 0))
        masses.append(py)
    return tables[::-1], masses[::-1]


def _evaluate(mu: np.ndarray, kernels):
    """The joint laws mu tensor Q, shape (P, |X^n|, |Y^n|), checked as
    :class:`JointLaw` checks one, and each policy's directed information."""
    q = _channels(kernels)
    joint = mu[:, None] * q
    _check_joints(joint)
    tables, _ = _marginals(joint.sum(axis=1), [k.shape[-1] for k in kernels])
    chain = tables[0][:, 0]                        # prod_i nu_i(y_i | y^{i-1})
    for t in tables[1:]:
        chain = (chain[:, :, None] * t).reshape(len(chain), -1)
    log_chain = np.log(chain, out=np.full_like(chain, -np.inf), where=chain > 0)
    live = joint > 0
    v = np.log(q, out=np.zeros_like(q), where=live)
    np.subtract(v, log_chain[:, None, :], out=v, where=live)
    v *= joint                                     # 0 off the support
    return joint, np.array([max(float(vp[lp].sum()), 0.0) for vp, lp in zip(v, live)])


def causal_channel_table(policy: CausalPolicy) -> np.ndarray:
    """Dense Q(y^n | x^n) = prod_i q_i(y_i | y^{i-1}, x^i) over trajectory codes."""
    return _channels([k[None] for k in policy.kernels])[0]


def joint_law(mu: np.ndarray, policy: CausalPolicy) -> JointLaw:
    """Joint law mu tensor Q over trajectory pairs.

    ``mu`` is the dense source trajectory law (see
    :func:`causalrd.model.full_joint_source`).
    """
    al = policy.alphabets
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (al.x_trajectories(),):
        raise InvalidArgumentError(
            f"source law has shape {mu.shape}, expected ({al.x_trajectories()},)")
    return JointLaw(al, mu[:, None] * causal_channel_table(policy))


def output_marginal(joint: JointLaw) -> MarginalProcess:
    """Conditional marginals nu_i(y_i | y^{i-1}) of the joint's y-trajectory law.

    Rows are computed as within-block proportions so every reachable row sums
    to 1 exactly; unreachable rows are uniform.
    """
    al = joint.alphabets
    tables, masses = _marginals(joint.table.sum(axis=0)[None], al.y_sizes)
    return MarginalProcess(al, [t[0] for t in tables], prefix_mass=[m[0] for m in masses])


# ---------------------------------------------------------------------------
# Information functionals
# ---------------------------------------------------------------------------

def directed_information(mu: np.ndarray, policy: CausalPolicy) -> float:
    """Directed information from the source block to the reproduction block.

    Computed as sum over trajectory pairs of
    joint * log(Q(y^n|x^n) / prod_i nu_i(y_i|y^{i-1})) with the output
    marginals induced by (mu, policy); equals the relative entropy between
    the joint law and the product of the source law with the output process.
    """
    return float(_evaluate(np.asarray(mu, dtype=float), [k[None] for k in policy.kernels])[1][0])


def expected_distortion(mu: np.ndarray, policy: CausalPolicy, spec: DistortionSpec) -> float:
    """Expected additive distortion under mu tensor Q, summed over the stages;
    the per-symbol value is this total / n_stages."""
    return float(np.sum(joint_law(mu, policy).table * spec.total_table()))


def lagrangian_value(source: SourceModel, spec: DistortionSpec,
                     policy: CausalPolicy, s: float) -> float:
    """I(X -> Y) - s * total distortion, evaluated through the measures."""
    _check_alphabets(source, policy=policy)
    return float(lagrangian_values(full_joint_source(source), spec.total_table(),
                                   [k[None] for k in policy.kernels], s)[0])


def lagrangian_values(mu: np.ndarray, d: np.ndarray, kernels, s: float) -> np.ndarray:
    """:func:`lagrangian_value` of P policies at once, from the dense source
    law ``mu`` and total distortion table ``d`` (:meth:`DistortionSpec.total_table`).

    ``kernels[i]`` stacks stage i of every policy, shape (P, y_hist_size(i-1),
    x_hist_size(i), y_sizes[i]).  Each value is bit for bit that of the
    policy evaluated alone."""
    joint, info = _evaluate(mu, kernels)
    return info - s * (joint * d).reshape(len(joint), -1).sum(axis=1)


# ---------------------------------------------------------------------------
# Markov-chain (conditional-independence) checks
# ---------------------------------------------------------------------------

def _ci_residual(t: np.ndarray) -> float:
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


def _marginal(t: np.ndarray, cond, a, b) -> np.ndarray:
    """The joint tensor ``t`` (:meth:`JointLaw.tensor`) summed onto three groups
    of its axes, as a (C, A, B) table (an empty group has size 1): a view of the
    sum where numpy can make one, as a copy could reorder :func:`_ci_residual`'s sums."""
    keep = (*cond, *a, *b)
    # tuples and sizes from lists: each tuple(<generator>) is resized, and
    # resized tuples pile up on CPython's tuple free lists, up to 1 MB of peak RSS
    m = t.sum(axis=tuple([ax for ax in range(t.ndim) if ax not in keep]))
    kept = sorted(keep)                            # the axes of m
    return m.transpose([kept.index(ax) for ax in keep]).reshape(
        [math.prod([t.shape[ax] for ax in group]) for group in (cond, a, b)])


def markov_chain_check(joint: JointLaw, variant: int) -> float:
    """Max conditional-independence residual for one of the four equivalent
    causality statements of the joint law.

    variant 1: the full conditional P(y^n | x^n) matches the causal
               factorization prod_i P(y_i | x^i, y^{i-1}) (sup residual).
    variant 2: per stage i, Y_i independent of (X_{i+1..n}) given (X^i, Y^{i-1}).
    variant 3: per stage i, Y^i independent of X_{i+1} given X^i.
    variant 4: per stage i, Y^i independent of (X_{i+1..n}) given X^i.

    Returns the max residual over stages and cells; a small value (<= 1e-10
    for exact causal joints) certifies the Markov chain.
    """
    if isinstance(variant, (bool, np.bool_)) or variant not in (1, 2, 3, 4):
        raise InvalidArgumentError("variant must be 1, 2, 3 or 4")
    if variant == 1:
        return _factorization_residual(joint)
    n, t = joint.alphabets.n_stages, joint.tensor()   # t: axes x_0..x_{n-1}, then y_0..y_{n-1}
    worst = 0.0
    for i in range(n - 1):
        xs, ys, later = tuple(range(i + 1)), tuple(range(n, n + i + 1)), tuple(range(i + 1, n))
        groups = {2: (xs + ys[:-1], ys[-1:], later),   # (x^i y^{i-1}, y_i, x_{i+1..})
                  3: (xs, ys, later[:1]),              # (x^i, y^i, x_{i+1})
                  4: (xs, ys, later)}[variant]         # (x^i, y^i, x_{i+1..})
        worst = max(worst, _ci_residual(_marginal(t, *groups)))
    return worst


def _factorization_residual(joint: JointLaw) -> float:
    """Sup-norm gap between P(y^n | x^n) and the causal product of its own
    stagewise conditionals, over x^n with mass > COND_EPS."""
    al, t = joint.alphabets, joint.tensor()
    n = al.n_stages
    factors, defined = [], []
    for i in range(n):
        given = (*range(n, n + i), *range(i + 1))  # (y^{i-1}, x^i), a kernel's rows
        shape = (1, al.y_hist_size(i - 1), al.x_hist_size(i), -1)
        num = _marginal(t, given, (n + i,), ()).reshape(shape)
        den = _marginal(t, given, (), ()).reshape(shape)
        ok = den > COND_EPS
        factors.append(np.divide(num, den, out=np.zeros_like(num), where=ok))
        defined.append(np.broadcast_to(ok, num.shape).astype(float))
    qhat = _channels(factors)[0]                   # prod_i P(y_i | x^i, y^{i-1})

    mu = joint.table.sum(axis=1)
    cond = np.zeros_like(joint.table)
    keep = mu > COND_EPS
    cond[keep] = joint.table[keep] / mu[keep, None]
    res = np.abs(cond - qhat)
    res[~keep] = 0.0
    res[_channels(defined)[0] == 0.0] = 0.0
    return float(res.max())
