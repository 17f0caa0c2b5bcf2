"""Classical (noncausal) rate-distortion references via Blahut-Arimoto.

Used as the block-level dominance oracle and as the single-stage equivalence
check for the causal solver, with which it shares the max-shift log-sum-exp
and the multiplier search.  Everything is parametric in the multiplier
``s <= 0`` (slope of the rate-distortion curve, rates in nats).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .model import DistortionSpec

S_MAGNITUDE_CAP = 1e6
BLOCK_DIST_TOL = 1e-9       # classical_block_rdf: distortion search tolerance
BLOCK_BA_TOL = 1e-12        # classical_block_rdf: Blahut-Arimoto tolerance
BA_MAX_ITERS = 500_000      # blahut_arimoto: iterations before it reports no convergence


def log_normalize(a: np.ndarray, axis: int):
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


def masked_log(p: np.ndarray) -> np.ndarray:
    """log p, with -inf at the zero entries and no warning."""
    return np.log(p, out=np.full(p.shape, -np.inf), where=p > 0)


def search_multiplier(probe, distortion, target, tol, failed=lambda point: False):
    """Probe the multiplier for a distortion within ``tol`` of ``target``.

    Doubles s from -1 until a probe's distortion is at most ``target``, then
    bisects [s, 0] and returns the closest probe.  Returns the first probe
    ``failed`` flags, and returns the last probe, unbisected, when the next
    doubling would pass |s| = S_MAGNITUDE_CAP.
    """
    lo, hi = -1.0, 0.0
    best = probe(lo)
    while distortion(best) > target and not failed(best):
        if -2.0 * lo > S_MAGNITUDE_CAP:
            return best
        lo *= 2.0
        best = probe(lo)
    for _ in range(200):
        if failed(best) or abs(distortion(best) - target) <= tol:
            break
        mid = 0.5 * (lo + hi)
        point = probe(mid)
        if failed(point):
            return point
        if distortion(point) >= target:
            hi = mid
        else:
            lo = mid
        if abs(distortion(point) - target) < abs(distortion(best) - target):
            best = point
    return best


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


def blahut_arimoto(px, rho, s: float, tol: float = 1e-11) -> BaPoint:
    """Parametric Blahut-Arimoto point at multiplier ``s``.

    Alternates the tilted conditional q(y|x) ~ nu(y) exp(s rho(x,y)), one
    log-sum-exp per step, with the output marginal nu = px @ q, a plain
    vector, until nu is stable in sup norm.  At ``s = 0`` the zero-tilt
    family is degenerate and the distortion-minimizing source-blind
    reproduction (rate 0) is returned.
    """
    px = np.asarray(px, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if px.ndim != 1 or rho.shape[0] != px.shape[0]:
        raise InvalidArgumentError("px and rho have inconsistent shapes")
    if (px < 0).any() or abs(px.sum() - 1.0) > 1e-10:
        raise InvalidArgumentError("px is not a probability vector")
    if not np.isfinite(rho).all() or (rho < 0).any():
        raise InvalidArgumentError("rho must be finite and nonnegative")
    if s > 0:
        raise InvalidArgumentError("multiplier s must be <= 0")

    if s == 0.0:
        return BaPoint(0.0, 0.0, _zero_rate_distortion(px, rho), 1, True)

    ny = rho.shape[1]
    s_rho = s * rho
    nu = np.full(ny, 1.0 / ny)
    converged = False
    it = 0
    for it in range(1, BA_MAX_ITERS + 1):
        nu_new = px @ log_normalize(s_rho + masked_log(nu), axis=1)[1]
        delta = float(np.max(np.abs(nu_new - nu)))
        nu = nu_new
        if delta <= tol:
            converged = True
            break

    ln_z, q = log_normalize(s_rho + masked_log(nu), axis=1)
    dist = float(np.sum(px[:, None] * q * rho))
    rate = s * dist - float(px @ ln_z[:, 0])
    return BaPoint(s, max(rate, 0.0), dist, it, converged)


def classical_block_rdf(mu, spec: DistortionSpec, d_target: float) -> float:
    """Classical block rate (total nats) at per-symbol distortion ``d_target``.

    Runs Blahut-Arimoto on the trajectory super-alphabets with the
    stage-summed distortion, searching the multiplier until the achieved
    distortion brackets the target, then evaluates the supporting line at the
    exact target (second-order accurate on the convex curve).  When the search
    stops at the multiplier cap short of the target, the line is a lower
    bound on the rate.

    Returns 0 for targets at or above the zero-rate distortion and ``inf``
    for targets below the minimum achievable distortion.
    """
    mu = np.asarray(mu, dtype=float)
    al = spec.alphabets
    n = al.n_stages
    if mu.shape != (al.x_trajectories(),):
        raise InvalidArgumentError("mu does not match the trajectory alphabet")
    if d_target < 0:
        raise InvalidArgumentError("d_target must be >= 0")
    dmat = spec.total_table()      # budget-guarded
    target_total = d_target * n

    dmax_total = _zero_rate_distortion(mu, dmat)
    if target_total >= dmax_total - 1e-12:
        return 0.0
    dmin_total = float(mu @ dmat.min(axis=1))
    if target_total < dmin_total - 1e-12:
        return math.inf

    best = search_multiplier(lambda s: blahut_arimoto(mu, dmat, s, tol=BLOCK_BA_TOL),
                             lambda p: p.distortion, target_total, BLOCK_DIST_TOL)
    # supporting line through the solved point, evaluated at the target
    rate = best.rate_nats + best.s * (target_total - best.distortion)
    return max(rate, 0.0)
