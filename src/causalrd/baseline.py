"""Classical (noncausal) rate-distortion references via Blahut-Arimoto.

``blahut_arimoto`` at a causal solve's own multiplier is the block-level
dominance check (the classical J = R - s D never exceeds the causal one) and
the single-stage equivalence check for the causal solver, with which it shares
the accelerated alternation loop and the multiplier search;
``classical_block_rdf`` is the classical rate at a distortion target.
Everything is parametric in the multiplier ``s <= 0`` (slope of the
rate-distortion curve, rates in nats).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .model import DistortionSpec, _check_multiplier

S_MAGNITUDE_CAP = 1e6
BLOCK_DIST_TOL = 1e-9       # classical_block_rdf: distortion search tolerance
BA_TOL = 1e-12              # blahut_arimoto: sup-norm change of the marginal at its stop
BA_MAX_ITERS = 500_000      # blahut_arimoto: iterations before it reports no convergence
AA_DEPTH = 5                # differences an Anderson step of a marginal combines
ENDPOINT_SLACK = 1e-12      # a distortion target this close to an endpoint is that endpoint
_EPS = np.finfo(float).eps


def _accelerated_alternation(backward, forward, x, widths, tol, max_sweeps):
    """Sweep ``backward`` then ``forward`` on output marginal ``x`` (one flat
    vector, rows of ``widths``) until the sup-norm residual |nu' - nu| <= ``tol``.

    ``backward(nu)`` returns (J(nu), state), J = -E[log Z_0] the objective
    that the plain map nu <- nu' never raises; ``forward(state)`` returns
    (nu', aux), nu' a fresh flat vector.  Each sweep takes a type-II Anderson
    step (Walker & Ni, SIAM J. Numer. Anal. 49, 2011): nu <- nu' - (dX + dF) g,
    dX, dF the last AA_DEPTH differences of nu and of f = nu' - nu, and
    (dF'dF + 1e-10 tr(dF'dF) I) g = dF'f, shrunk toward nu' to keep each entry
    above half of min(nu, nu') (the map never revives a zero), rows renormalized.
    A step that raises J beyond rounding is replaced by nu', at one more
    backward pass, and clears the history.  Returns the last (nu', aux), the
    forward-pass count, the residual and whether it met ``tol``.
    """
    starts = np.cumsum(widths) - widths
    dx, df = np.empty((AA_DEPTH, x.size)), np.empty((AA_DEPTH, x.size))   # rings
    kept, f_last = -1, 0.0                  # differences held (the first sweep's is void)
    objective, state = backward(x)
    for sweep in range(1, max_sweeps + 1):              # max_sweeps >= 1
        y, aux = forward(state)
        f = y - x
        residual = float(np.abs(f).max())
        if residual <= tol:
            return y, aux, sweep, residual, True
        np.subtract(f, f_last, out=df[kept % AA_DEPTH])
        kept += 1
        f_last, m = f, min(kept, AA_DEPTH)
        gram = df[:m] @ df[:m].T
        if (trace := gram.trace()) > 0:                 # 0 with no history
            gram.ravel()[::m + 1] += 1e-10 * trace
            step = y - np.linalg.solve(gram, df[:m] @ f) @ (dx[:m] + df[:m])
            floor = 0.5 * np.minimum(x, y)
            if (low := step < floor).any():
                step = y + ((y - floor)[low] / (y - step)[low]).min() * (step - y)
            step /= np.add.reduceat(step, starts).repeat(widths)        # rows sum to 1
            step_objective, step_state = backward(step)
            if step_objective <= objective + 8 * _EPS * abs(objective):    # J to rounding
                np.subtract(step, x, out=dx[kept % AA_DEPTH])
                x, objective, state = step, step_objective, step_state
                continue
            kept = 0
        np.subtract(y, x, out=dx[kept % AA_DEPTH])
        x, (objective, state) = y, backward(y)
    return y, aux, max_sweeps, residual, False


def _rate_aware_step(near, far, target):
    """The multiplier at ``target`` on the quadratic s(D) through probes
    ``near`` and ``far``, (s, D, R) each, whose integral between their
    distortions is the rate difference (dR/dD = s along the curve), and the
    secant point of the two, which it equals when s(D) is linear:
    s1 + B t + 3 (2A - B)(t - t^2), with t = (target - D1) / h, h = D2 - D1,
    A = (R2 - R1) / h - s1 and B = s2 - s1."""
    (s1, d1, r1), (s2, d2, r2) = near[:3], far[:3]
    h = d2 - d1
    t, b = (target - d1) / h, s2 - s1
    return s1 + b * t + 3.0 * (2.0 * ((r2 - r1) / h - s1) - b) * (t - t * t), s1 + b * t


def search_multiplier(probe, measure, target, tol):
    """Probe the multiplier for a distortion within ``tol`` of ``target``.

    ``probe(s, start)`` returns a point with a ``converged`` flag, ``start``
    the converged probe nearest s (the earlier one on a tie; None before the
    first); ``measure(point)`` returns a converged probe's (distortion, rate),
    in units where dR/dD = s.  D(s) is nondecreasing in s.  Doubles s from -1
    until a probe's distortion is at most ``target``; the probe before it, or
    s = 0, closes the bracket.  Each step then fits the quadratic s(D) to the
    probe closest to the target and the closest one of another distortion,
    matching both multipliers and the rate between them
    (:func:`_rate_aware_step`), and probes it at the target; when that point
    is not strictly inside the bracket it takes the two probes' secant point,
    and when neither is, the midpoint.  A fitted step also gives way to the
    midpoint when the bracket did not halve over the last two steps, unless it
    moves less than half as far as the last step did (Brent's test, Algorithms
    for Minimization without Derivatives, 1973, ch. 4).  Stops at the first
    probe within ``tol`` of the target and returns the closest probe; no s is
    probed twice.  Returns the first probe that did not converge, and returns
    the last probe, unnarrowed, when the next doubling would pass
    |s| = S_MAGNITUDE_CAP.
    """
    lo, hi, seen = -1.0, 0.0, []            # seen: (s, D, R, point) of converged probes, in order

    def look(s):
        start = min(seen, key=lambda p: abs(p[0] - s), default=None)
        point = probe(s, start and start[3])
        if point.converged:
            seen.append((s, *measure(point), point))
        return point

    point = look(lo)
    while point.converged and seen[-1][1] > target:
        if -2.0 * lo > S_MAGNITUDE_CAP:
            return point
        hi, lo = lo, 2.0 * lo
        point = look(lo)
    widths = (math.inf, math.inf)
    for _ in range(200):
        if not point.converged:
            return point
        near = sorted(seen, key=lambda p: abs(p[1] - target))       # a tie keeps the earlier
        if abs(near[0][1] - target) <= tol:
            break
        s = 0.5 * (lo + hi)
        far = next((p for p in near if p[1] != near[0][1]), None)
        if far is not None:
            fit = next((x for x in _rate_aware_step(near[0], far, target) if lo < x < hi), None)
            if fit is not None and (hi - lo <= 0.5 * widths[0] or
                                    abs(fit - seen[-1][0]) <= 0.5 * abs(seen[-1][0] - seen[-2][0])):
                s = fit
        if not lo < s < hi:                 # the bracket is two adjacent floats
            break
        widths = (widths[1], hi - lo)
        point = look(s)
        if point.converged:
            lo, hi = (lo, s) if seen[-1][1] >= target else (s, hi)
    return min(seen, key=lambda p: abs(p[1] - target))[3]


@dataclass
class BaPoint:
    """One parametric point of a Blahut-Arimoto sweep."""
    s: float
    rate_nats: float
    distortion: float
    iterations: int
    converged: bool


def _zero_rate_distortion(px: np.ndarray, rho: np.ndarray) -> float:
    """Expected distortion of the best source-blind reproduction symbol."""
    return float((px @ rho).min())


def _ba_tilt(s_rho: np.ndarray, nu: np.ndarray):
    """log Z(x) and the rows q(y|x) = nu(y) exp(s rho(x,y)) / Z(x), by one max
    shift, in place; a row always has a finite entry, as nu sums to 1."""
    with np.errstate(divide="ignore"):
        a = s_rho + np.log(nu)
    m = a.max(axis=1, keepdims=True)
    a -= m
    np.exp(a, out=a)
    z = a.sum(axis=1, keepdims=True)
    a /= z
    return np.log(z) + m, a


def blahut_arimoto(px, rho, s: float) -> BaPoint:
    """Parametric Blahut-Arimoto point at multiplier ``s``.

    Alternates the tilted conditional q(y|x) ~ nu(y) exp(s rho(x,y)), one
    log-sum-exp per step, with the output marginal nu = px @ q, until nu is
    stable to BA_TOL in sup norm, by the Anderson steps of :func:`_accelerated_alternation`
    (shrunk to stay above half of min(nu, nu'), kept only where J = -E[log Z]
    does not rise); the iteration count is that of forward steps.  At
    ``s = 0`` the zero-tilt family is degenerate and the distortion-minimizing
    source-blind reproduction (rate 0) is returned.
    """
    px = np.asarray(px, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if px.ndim != 1 or rho.ndim != 2 or rho.shape[0] != px.shape[0]:
        raise InvalidArgumentError("px and rho have inconsistent shapes")
    if (px < 0).any() or not abs(px.sum() - 1.0) <= 1e-10:     # a nan sum too
        raise InvalidArgumentError("px is not a probability vector")
    if not np.isfinite(rho).all() or (rho < 0).any():
        raise InvalidArgumentError("rho must be finite and nonnegative")
    _check_multiplier(s)

    if s == 0.0:
        return BaPoint(0.0, 0.0, _zero_rate_distortion(px, rho), 1, True)

    ny = rho.shape[1]
    s_rho = s * rho

    def backward(nu):
        ln_z, q = _ba_tilt(s_rho, nu)
        return -float(px @ ln_z[:, 0]), q

    nu, _, it, _, converged = _accelerated_alternation(
        backward, lambda q: (px @ q, None), np.full(ny, 1.0 / ny), np.array([ny]),
        BA_TOL, BA_MAX_ITERS)
    ln_z, q = _ba_tilt(s_rho, nu)
    dist = float(np.sum(px[:, None] * q * rho))
    rate = s * dist - float(px @ ln_z[:, 0])
    return BaPoint(s, max(rate, 0.0), dist, it, converged)


def classical_block_rdf(mu, spec: DistortionSpec, d_target: float) -> float:
    """Classical block rate (total nats) at per-symbol distortion ``d_target``.

    Runs Blahut-Arimoto on the trajectory super-alphabets with the
    stage-summed distortion, searching the multiplier by
    :func:`search_multiplier` on each run's total distortion and rate until
    the achieved distortion is within 1e-9 of the target, then evaluates the
    supporting line at the exact target (second-order accurate on the convex
    curve).  When the search stops at the multiplier cap short of the target,
    the line is a lower bound on the rate; when it stops at a run that did not
    converge, the line is that run's.

    Returns 0 for targets at or above the zero-rate distortion and ``inf``
    for targets below the minimum achievable distortion.
    """
    mu = np.asarray(mu, dtype=float)
    al = spec.alphabets
    n = al.n_stages
    if mu.shape != (al.x_trajectories(),):
        raise InvalidArgumentError("mu does not match the trajectory alphabet")
    if (mu < 0).any() or not abs(mu.sum() - 1.0) <= 1e-10:     # a nan sum too
        raise InvalidArgumentError("mu is not a probability vector")
    if not d_target >= 0:                             # also refuses nan
        raise InvalidArgumentError("d_target must be >= 0")
    dmat = spec.total_table()
    target_total = d_target * n

    dmax_total = _zero_rate_distortion(mu, dmat)
    if target_total >= dmax_total - ENDPOINT_SLACK:
        return 0.0
    dmin_total = float(mu @ dmat.min(axis=1))
    if target_total < dmin_total - ENDPOINT_SLACK:
        return math.inf

    best = search_multiplier(lambda s, _: blahut_arimoto(mu, dmat, s),
                             lambda p: (p.distortion, p.rate_nats), target_total, BLOCK_DIST_TOL)
    # supporting line through the solved point, evaluated at the target
    rate = best.rate_nats + best.s * (target_total - best.distortion)
    return max(rate, 0.0)
