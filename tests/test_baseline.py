import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import causalrd
from causalrd import baseline, solver
from causalrd.baseline import (
    S_MAGNITUDE_CAP,
    BaPoint,
    blahut_arimoto,
    classical_block_rdf,
    log_normalize,
)
from causalrd.errors import InvalidArgumentError
from causalrd.model import (
    DistortionSpec,
    binary_symmetric_markov,
    full_joint_source,
    hamming_distortion,
    iid_source,
)
from causalrd.solver import (
    SolveResult,
    SolverConfig,
    fixed_point_solve,
    solve_for_target_distortion,
)

from helpers import binary_entropy, random_alphabets, random_source

LN2 = math.log(2.0)
HAMMING2 = 1.0 - np.eye(2)


def test_ba_zero_tilt():
    p = blahut_arimoto([0.9, 0.1], HAMMING2, 0.0)
    assert p.rate_nats == 0.0
    assert abs(p.distortion - 0.1) < 1e-15     # best source-blind symbol


def test_ba_classical_binary_point():
    d = 0.1
    s = math.log(d / (1 - d))
    p = blahut_arimoto([0.5, 0.5], HAMMING2, s, tol=1e-13)
    assert p.converged
    assert abs(p.distortion - d) < 1e-12
    assert abs(p.rate_nats - (LN2 - binary_entropy(d))) < 1e-9


def test_ba_lossless_limit_quaternary():
    rho = 1.0 - np.eye(4)
    p = blahut_arimoto(np.full(4, 0.25), rho, -30.0, tol=1e-14)
    assert abs(p.rate_nats - math.log(4)) < 1e-9
    assert p.distortion < 1e-12


def test_ba_sweep_monotone_convex():
    svals = -np.geomspace(0.3, 5.0, 14)
    pts = [blahut_arimoto([0.3, 0.7], HAMMING2, float(s), tol=1e-13) for s in svals]
    pts.sort(key=lambda p: p.distortion)
    for a, b in zip(pts, pts[1:]):
        assert b.rate_nats <= a.rate_nats + 1e-9
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        t = (b.distortion - a.distortion) / (c.distortion - a.distortion)
        chord = (1 - t) * a.rate_nats + t * c.rate_nats
        assert b.rate_nats <= chord + 1e-9


def test_log_normalize_matches_direct_sums_and_handles_dead_slices():
    rng = np.random.default_rng(3)
    a = rng.normal(scale=50.0, size=(4, 5, 3))
    a[1, 2, :] = -np.inf                          # a dead slice along axis 2
    a[0, 0, 1] = -np.inf                          # one dead entry in a live slice
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logz, p = log_normalize(a, axis=2)
    assert logz.shape == (4, 5, 1)
    assert logz[1, 2, 0] == -np.inf and np.all(p[1, 2] == 0.0)
    assert not np.isnan(logz).any() and not np.isnan(p).any()
    live = np.ones((4, 5), dtype=bool)
    live[1, 2] = False
    rows = a[live]
    m = rows.max(axis=1, keepdims=True)
    want = m + np.log(np.exp(rows - m).sum(axis=1, keepdims=True))
    assert np.max(np.abs(logz[live] - want)) < 1e-12
    assert np.max(np.abs(p[live] - np.exp(rows - want))) < 1e-13
    assert np.max(np.abs(p[live].sum(axis=1) - 1.0)) < 1e-15


def test_import_leaves_scipy_special_unloaded():
    src_dir = Path(causalrd.__file__).resolve().parents[1]
    code = "import sys, causalrd; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src_dir, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_ba_input_validation():
    with pytest.raises(InvalidArgumentError):
        blahut_arimoto([0.7, 0.7], HAMMING2, -1.0)
    with pytest.raises(InvalidArgumentError):
        blahut_arimoto([0.5, 0.5], HAMMING2, 1.0)
    with pytest.raises(InvalidArgumentError):
        blahut_arimoto([0.5, 0.5], -HAMMING2, -1.0)


def test_single_stage_solver_agrees_with_ba():
    rng = np.random.default_rng(41)
    for _ in range(8):
        al = random_alphabets(rng, 1, max_size=4)
        src = random_source(rng, al)
        rho = rng.uniform(0, 2, size=(al.x_sizes[0], al.y_sizes[0]))
        spec = DistortionSpec.single_letter(al, rho) if al.x_sizes[0] == al.x_sizes[0] else None
        spec = DistortionSpec.stage_tables(al, [rho])
        s = float(rng.uniform(-4.0, -0.2))
        r = fixed_point_solve(src, spec, SolverConfig(s=s, fp_tol=1e-12, max_sweeps=200000))
        ba = blahut_arimoto(src.kernels[0][0], rho, s, tol=1e-12)
        assert abs(r.distortion_per_symbol - ba.distortion) < 1e-8
        assert abs(r.rate_nats - ba.rate_nats) < 1e-8


def test_block_rdf_additive_for_iid():
    one = classical_block_rdf(full_joint_source(iid_source([0.5, 0.5], 1)),
                              hamming_distortion(iid_source([0.5, 0.5], 1).alphabets),
                              0.1)
    src = iid_source([0.5, 0.5], 3)
    block = classical_block_rdf(full_joint_source(src),
                                hamming_distortion(src.alphabets), 0.1)
    assert abs(block - 3 * one) < 1e-6
    assert abs(block - 3 * (LN2 - binary_entropy(0.1))) < 1e-6


def test_block_rdf_dmax_and_infeasible():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    mu = full_joint_source(src)
    assert classical_block_rdf(mu, spec, 0.5) == 0.0
    assert classical_block_rdf(mu, spec, 0.9) == 0.0
    skew = DistortionSpec.single_letter(src.alphabets, [[1.0, 2.0], [3.0, 1.0]])
    assert math.isinf(classical_block_rdf(mu, skew, 0.5))


def test_block_rdf_never_exceeds_causal_rate():
    # the causal feasible set is contained in the unconstrained one
    src = binary_symmetric_markov(0.3, 3)
    spec = hamming_distortion(src.alphabets)
    mu = full_joint_source(src)
    for d in (0.08, 0.15, 0.25):
        causal = solve_for_target_distortion(src, spec, d)
        block = classical_block_rdf(mu, spec, causal.distortion_per_symbol)
        assert causal.rate_nats >= block - 1e-9


# A target at the distortion floor that no multiplier below the cap reaches:
# the per-letter floor is 0.6 * 0.2 + 0.4 * 0.3 = 0.24, with an optimal
# reproduction for x = 0 only 2e-6 cheaper than the other one.
FLOOR_PX = [0.6, 0.4]
FLOOR_RHO = [[0.2, 0.200002], [0.5, 0.3]]


def _fake_solve(probes, d_per_symbol):
    """A fixed_point_solve stand-in that records s and returns ``d_per_symbol``
    for every s < 0 (0.5, the zero-rate distortion, at s = 0)."""
    def fake(source, spec, config):
        probes.append(config.s)
        d = 0.5 if config.s == 0.0 else d_per_symbol
        return SolveResult(s=config.s, policy=None, nu=None, g=None, rate_nats=1.0,
                           distortion_total=2 * d, distortion_per_symbol=d,
                           sweeps_used=1, converged=True, residual=0.0)
    return fake


def test_target_search_stops_at_the_multiplier_cap(monkeypatch):
    probes = []
    monkeypatch.setattr(solver, "fixed_point_solve", _fake_solve(probes, 0.2))
    src = iid_source([0.5, 0.5], 2)
    res = solve_for_target_distortion(src, hamming_distortion(src.alphabets), 0.1)
    assert len(probes) <= 21
    assert max(abs(s) for s in probes) <= S_MAGNITUDE_CAP
    assert res.s == probes[-1] and res.distortion_per_symbol == 0.2


def test_block_rdf_search_stops_at_the_multiplier_cap(monkeypatch):
    probes = []

    def fake(px, rho, s, tol=1e-11):
        probes.append(s)
        return BaPoint(s, 1.0, 0.4, 1, True)       # total distortion, above 0.2

    monkeypatch.setattr(baseline, "blahut_arimoto", fake)
    src = iid_source([0.5, 0.5], 2)
    rate = classical_block_rdf(full_joint_source(src), hamming_distortion(src.alphabets), 0.1)
    assert len(probes) <= 21
    assert max(abs(s) for s in probes) <= S_MAGNITUDE_CAP
    # supporting line of the last probe at the target
    assert rate == 1.0 + probes[-1] * (0.2 - 0.4)


def test_block_rdf_at_the_floor_is_a_finite_lower_bound():
    src = iid_source(FLOOR_PX, 2)
    spec = DistortionSpec.single_letter(src.alphabets, FLOOR_RHO)
    entropy = -sum(p * math.log(p) for p in FLOOR_PX)
    rate = classical_block_rdf(full_joint_source(src), spec, 0.24)
    assert math.isfinite(rate) and 0.0 < rate <= 2 * entropy


def test_target_search_at_the_floor_probes_at_most_21_times(monkeypatch):
    probes = []

    def counted(source, spec, config):
        probes.append(config.s)
        return fixed_point_solve(source, spec, config)

    monkeypatch.setattr(solver, "fixed_point_solve", counted)
    src = iid_source(FLOOR_PX, 2)
    spec = DistortionSpec.single_letter(src.alphabets, FLOOR_RHO)
    res = solve_for_target_distortion(src, spec, 0.24, dist_tol=1e-9)
    assert res.converged and res.feasible
    assert len(probes) <= 21
    assert max(abs(s) for s in probes) <= S_MAGNITUDE_CAP


def test_target_search_at_the_floor_reports_the_missed_target():
    # with dist_tol 1e-9 the search stops at s = -524288, 4.3e-7 above the
    # target; with the default 1e-6 that miss is within tolerance
    src = iid_source(FLOOR_PX, 2)
    spec = DistortionSpec.single_letter(src.alphabets, FLOOR_RHO)
    res = solve_for_target_distortion(src, spec, 0.24, dist_tol=1e-9)
    assert res.s == -524288.0 and res.converged and res.feasible
    assert 1e-7 < res.distortion_per_symbol - 0.24 < 1e-6
    assert res.target_met is False
    assert solve_for_target_distortion(src, spec, 0.24).target_met is True
