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
    _accelerated_alternation,
    blahut_arimoto,
    classical_block_rdf,
    search_multiplier,
)
from causalrd.errors import InvalidArgumentError
from causalrd.model import (
    DistortionSpec,
    StageAlphabets,
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

from helpers import (SyntheticProbe, binary_entropy, random_alphabets, random_source,
                     reference_ba_tilt)

LN2 = math.log(2.0)
HAMMING2 = 1.0 - np.eye(2)


def test_ba_zero_tilt():
    p = blahut_arimoto([0.9, 0.1], HAMMING2, 0.0)
    assert p.rate_nats == 0.0
    assert abs(p.distortion - 0.1) < 1e-15     # best source-blind symbol


def test_ba_classical_binary_point(monkeypatch):
    monkeypatch.setattr(baseline, "BA_TOL", 1e-13)
    d = 0.1
    s = math.log(d / (1 - d))
    p = blahut_arimoto([0.5, 0.5], HAMMING2, s)
    assert p.converged
    assert abs(p.distortion - d) < 1e-12
    assert abs(p.rate_nats - (LN2 - binary_entropy(d))) < 1e-9


def test_ba_lossless_limit_quaternary(monkeypatch):
    monkeypatch.setattr(baseline, "BA_TOL", 1e-14)
    rho = 1.0 - np.eye(4)
    p = blahut_arimoto(np.full(4, 0.25), rho, -30.0)
    assert abs(p.rate_nats - math.log(4)) < 1e-9
    assert p.distortion < 1e-12


def test_ba_sweep_monotone_convex(monkeypatch):
    monkeypatch.setattr(baseline, "BA_TOL", 1e-13)
    svals = -np.geomspace(0.3, 5.0, 14)
    pts = [blahut_arimoto([0.3, 0.7], HAMMING2, float(s)) for s in svals]
    pts.sort(key=lambda p: p.distortion)
    for a, b in zip(pts, pts[1:]):
        assert b.rate_nats <= a.rate_nats + 1e-9
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        t = (b.distortion - a.distortion) / (c.distortion - a.distortion)
        chord = (1 - t) * a.rate_nats + t * c.rate_nats
        assert b.rate_nats <= chord + 1e-9


def test_ba_markov_block_takes_at_most_150_iterations():
    # the plain map took 2,237 iterations on this block at s = -1, the
    # over-relaxed one 1,150
    src = binary_symmetric_markov(0.3, 4)
    spec = hamming_distortion(src.alphabets)
    p = blahut_arimoto(full_joint_source(src), spec.total_table(), -1.0)
    assert p.converged and p.iterations <= 150


def test_accelerated_alternation_solves_an_oscillating_map_in_5_sweeps():
    # p <- 0.3 - 0.5 (p - 0.3) overshoots its fixed point each sweep; the
    # plain map takes 41 sweeps to 1e-12, a residual-ratio over-relaxation 73
    def backward(nu):
        return (nu[0] - 0.3) ** 2, nu[0]

    def forward(p):
        q = 0.3 - 0.5 * (p - 0.3)
        return np.array([q, 1.0 - q]), None

    nu, _, sweeps, residual, converged = _accelerated_alternation(
        backward, forward, np.array([0.9, 0.1]), np.array([2]), 1e-12, 200)
    assert converged and residual <= 1e-12 and abs(nu[0] - 0.3) <= 1e-12
    assert sweeps <= 5


def test_accelerated_alternation_falls_back_on_a_step_that_raises_j():
    # on this full-history source (perfbench's generator, seed 32) some
    # Anderson steps raise J = -E[log Z_0], which the plain map nu <- nu'
    # never raises; each such sweep backs off to nu' at the cost of one more
    # backward pass, and the loop still converges
    al = StageAlphabets(5, [2] * 5, [2] * 5)
    src = random_source(np.random.default_rng(32), al)
    passes = solver._Passes(src, hamming_distortion(al), -2.0)
    events = []                         # ("b", J, nu) per backward, ("f", nu') per forward

    def backward(nu):
        _, logz, q = passes.backward(nu)
        events.append(("b", -float(src.kernels[0][0] @ logz[0][:, 0]), nu.copy()))
        return events[-1][1], (q, nu)

    def forward(state):
        new, masses = passes.forward(state[0], fill=state[1])[:2]
        events.append(("f", new))
        return new, masses

    _, _, sweeps, residual, converged = _accelerated_alternation(
        backward, forward, 1.0 / passes.widths.repeat(passes.widths), passes.widths,
        1e-9, 10_000)
    assert converged and residual <= 1e-9
    forwards = [k for k, e in enumerate(events) if e[0] == "f"]
    assert len(forwards) == sweeps and forwards[0] == 1 and forwards[-1] == len(events) - 1
    objective, rejected, ulps = events[0][1], 0, 8 * np.finfo(float).eps
    for k, nxt in zip(forwards, forwards[1:]):
        backs = events[k + 1:nxt]                   # the backward passes of one sweep
        if len(backs) == 2:                         # a step that raised J, then nu'
            assert backs[0][1] > objective + ulps * abs(objective)
            assert np.array_equal(backs[1][2], events[k][1])
            rejected += 1
        else:
            assert len(backs) == 1 and backs[0][1] <= objective + ulps * abs(objective)
        objective = backs[-1][1]
    assert rejected > 0


def _ba_problem(rng):
    """px (of 2 or more entries, a zero one time in three), rho and s of a
    random BA problem."""
    px = rng.dirichlet(np.ones(int(rng.integers(1, 7))))
    if len(px) > 1 and rng.random() < 1 / 3:
        px[0] = 0.0
        px /= px.sum()
    return px, rng.uniform(0.0, 3.0, size=(len(px), int(rng.integers(1, 7)))), \
        -float(rng.choice([0.3, 1.0, 2.0, 5.0, 20.0]))


def test_ba_tilt_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    for _ in range(200):
        px, rho, s = _ba_problem(rng)
        nu = rng.dirichlet(np.ones(rho.shape[1]))
        if rho.shape[1] > 1 and rng.random() < 0.5:
            nu[rng.integers(rho.shape[1])] = 0.0       # log nu = -inf there
            nu /= nu.sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = baseline._ba_tilt(s * rho, nu)
        want = reference_ba_tilt(s * rho, nu)
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_ba_points_match_the_reference_tilt(monkeypatch):
    rng = np.random.default_rng(4)
    problems = [_ba_problem(rng) for _ in range(100)]
    points = [blahut_arimoto(*p) for p in problems]
    monkeypatch.setattr(baseline, "_ba_tilt", reference_ba_tilt)
    assert [repr(blahut_arimoto(*p)) for p in problems] == [repr(p) for p in points]


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
    with pytest.raises(InvalidArgumentError, match="shapes"):
        blahut_arimoto([0.5, 0.5], np.array([0.0, 1.0]), -1.0)     # 1-D rho
    with pytest.raises(InvalidArgumentError, match="shapes"):
        blahut_arimoto([0.5, 0.5], HAMMING2[:, :, None], -1.0)     # 3-D rho


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
        ba = blahut_arimoto(src.kernels[0][0], rho, s)
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


def _counted(calls, f):
    """``f``, recording each call's third argument (the config or s) in ``calls``."""
    def wrapper(*args, **kwargs):
        calls.append(args[2])
        return f(*args, **kwargs)
    return wrapper


def test_target_search_probes_no_multiplier_twice(monkeypatch):
    # the doubling stage hands its last probe above the target (s = -1) to
    # the bracket, so the narrowing does not solve it again
    probes = []
    monkeypatch.setattr(solver, "fixed_point_solve", _counted(probes, fixed_point_solve))
    src = binary_symmetric_markov(0.3, 4)
    assert solve_for_target_distortion(src, hamming_distortion(src.alphabets), 0.2).target_met
    s_values = [config.s for config in probes]
    assert len(set(s_values)) == len(s_values), s_values


def test_cli_verify_searches_solve_at_most_5_and_7_times(monkeypatch):
    # the problem of the CLI's verify benchmark: Markov flip 0.3, n = 4, D = 0.2;
    # bisection took 18 solves and 31 Blahut-Arimoto runs, Illinois false
    # position 7 and 9; with cold starts its probes took 95 sweeps, with each
    # probe started from the nearest solved one 61
    solves, runs, sweeps = [], [], []

    def solve(*args, **kwargs):
        result = fixed_point_solve(*args, **kwargs)
        sweeps.append(result.sweeps_used)
        return result

    monkeypatch.setattr(solver, "fixed_point_solve", _counted(solves, solve))
    monkeypatch.setattr(baseline, "blahut_arimoto", _counted(runs, blahut_arimoto))
    src = binary_symmetric_markov(0.3, 4)
    spec = hamming_distortion(src.alphabets)
    res = solve_for_target_distortion(src, spec, 0.2)
    assert res.target_met and len(solves) <= 5 and sum(sweeps) <= 64, sweeps
    block = classical_block_rdf(full_joint_source(src), spec, res.distortion_per_symbol)
    assert 0.0 < block <= res.rate_nats and len(runs) <= 7


def test_one_rate_aware_step_lands_on_the_root_of_a_quadratic_curve():
    # s(D) = D^2 + 3D - 4 on [0, 1], so D(s) = (sqrt(25 + 4s) - 3) / 2 and
    # R(D) = int_D^1 -s(t) dt; the doubling probes s = -1, -2, -4 (D = 0), and
    # the step from the two probes closest to the target solves s(D) exactly
    def s_of(d):
        return d * d + 3.0 * d - 4.0

    def probe(s, start):
        probes.append(s)
        starts.append(start and start.s)
        d = (math.sqrt(25.0 + 4.0 * s) - 3.0) / 2.0
        return SyntheticProbe(s, d, 4.0 * (1.0 - d) - 1.5 * (1.0 - d * d) - (1.0 - d ** 3) / 3.0)

    probes, starts = [], []
    d = search_multiplier(probe, lambda p: (p.distortion, p.rate), 0.3, 1e-12).distortion
    assert probes[:3] == [-1.0, -2.0, -4.0] and len(probes) == 4
    assert probes[3] == pytest.approx(s_of(0.3), abs=1e-14) and abs(d - 0.3) <= 1e-12
    assert starts == [None, -1.0, -2.0, -4.0]         # the converged probe nearest each s


def test_the_search_starts_each_probe_from_its_nearest_converged_probe():
    # s(D) = D - 3, R = (3 - D)^2 / 2: s = -1 and -2 give D = 2 and 1, and the
    # step lands on s = -1.5 (D = 1.5), one apart from both; the tie goes to
    # the earlier probe.  A probe that did not converge is no start and ends
    # the search, which returns it.
    def run(failing):
        def probe(s, start):
            calls.append((s, start and start.s))
            return SyntheticProbe(s, s + 3.0, (s * s) / 2.0, s not in failing)
        calls = []
        return search_multiplier(probe, lambda p: (p.distortion, p.rate), 1.5, 1e-12), calls

    best, calls = run(failing=())
    assert calls == [(-1.0, None), (-2.0, -1.0), (-1.5, -1.0)] and best.s == -1.5
    best, calls = run(failing=(-1.5,))
    assert calls == [(-1.0, None), (-2.0, -1.0), (-1.5, -1.0)] and not best.converged
    best, calls = run(failing=(-1.0,))
    assert calls == [(-1.0, None)] and not best.converged


# A target at the distortion floor that no multiplier below the cap reaches:
# the per-letter floor is 0.6 * 0.2 + 0.4 * 0.3 = 0.24, with an optimal
# reproduction for x = 0 only 2e-6 cheaper than the other one.
FLOOR_PX = [0.6, 0.4]
FLOOR_RHO = [[0.2, 0.200002], [0.5, 0.3]]


def _fake_solve(probes, d_per_symbol):
    """A fixed_point_solve stand-in that records s and returns ``d_per_symbol``
    for every s < 0 (0.5, the zero-rate distortion, at s = 0)."""
    def fake(source, spec, config, start=None):
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

    def fake(px, rho, s):
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

    def counted(source, spec, config, start=None):
        probes.append(config.s)
        return fixed_point_solve(source, spec, config, start=start)

    monkeypatch.setattr(solver, "fixed_point_solve", counted)
    src = iid_source(FLOOR_PX, 2)
    spec = DistortionSpec.single_letter(src.alphabets, FLOOR_RHO)
    monkeypatch.setattr(solver, "TARGET_DIST_TOL", 1e-9)
    res = solve_for_target_distortion(src, spec, 0.24)
    assert res.converged and res.feasible
    assert len(probes) <= 21
    assert max(abs(s) for s in probes) <= S_MAGNITUDE_CAP


def test_target_search_at_the_floor_reports_the_missed_target(monkeypatch):
    # with TARGET_DIST_TOL at 1e-9 the search stops at s = -524288, 4.3e-7
    # above the target; at its value of 1e-6 that miss is within tolerance
    src = iid_source(FLOOR_PX, 2)
    spec = DistortionSpec.single_letter(src.alphabets, FLOOR_RHO)
    assert solve_for_target_distortion(src, spec, 0.24).target_met is True
    monkeypatch.setattr(solver, "TARGET_DIST_TOL", 1e-9)
    res = solve_for_target_distortion(src, spec, 0.24)
    assert res.s == -524288.0 and res.converged and res.feasible
    assert 1e-7 < res.distortion_per_symbol - 0.24 < 1e-6
    assert res.target_met is False


def test_ba_and_block_rdf_refuse_a_nan_source_law():
    # a nan px used to run all 500,000 Blahut-Arimoto iterations and return nan
    with pytest.raises(InvalidArgumentError, match="px"):
        blahut_arimoto([math.nan, 0.5], HAMMING2, -1.0)
    src = binary_symmetric_markov(0.3, 2)
    mu = full_joint_source(src)
    with pytest.raises(InvalidArgumentError, match="mu does not match"):
        classical_block_rdf(mu[:3], hamming_distortion(src.alphabets), 0.1)
    mu[1] = math.nan
    with pytest.raises(InvalidArgumentError, match="mu"):
        classical_block_rdf(mu, hamming_distortion(src.alphabets), 0.1)


def test_block_rdf_refuses_a_nan_target():
    # n = 2: a nan target used to run 201 Blahut-Arimoto solves and return nan
    src = binary_symmetric_markov(0.3, 2)
    with pytest.raises(InvalidArgumentError, match="d_target"):
        classical_block_rdf(full_joint_source(src), hamming_distortion(src.alphabets), math.nan)
