"""Property tests: invariants checked on randomly drawn problems."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from causalrd import solver
from causalrd.baseline import (S_MAGNITUDE_CAP, blahut_arimoto, classical_block_rdf,
                               search_multiplier)
from causalrd.measures import (MarginalProcess, directed_information, joint_law,
                               markov_chain_check)
from causalrd.model import (DistortionSpec, SourceModel, StageAlphabets, full_joint_source,
                            hamming_distortion, iid_source)
from causalrd.solver import (SolverConfig, _Passes, backward_g, distortion_range,
                             fixed_point_solve, tilted_policy, trace_curve,
                             verify_stationarity)

from helpers import (SyntheticProbe, code_of, enum_causal_floor, enum_trajectory_costs,
                     exhaustive_directed_info, reference_stationarity, uniform_marginal)

# rho entries: a few repeated values (ties) mixed with arbitrary ones
RHO_ENTRY = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                      st.floats(0.0, 2.0, allow_nan=False))


@st.composite
def single_stage_problems(draw):
    """(px, rho, s): px may have zero entries, rho in [0, 2], s in [-8, -0.25]."""
    nx = draw(st.integers(1, 4))
    ny = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 4), min_size=nx, max_size=nx)
                   .filter(lambda w: sum(w) > 0))
    px = np.asarray(weights, dtype=float) / sum(weights)
    rho = np.asarray(draw(st.lists(RHO_ENTRY, min_size=nx * ny, max_size=nx * ny)),
                     dtype=float).reshape(nx, ny)
    s = draw(st.floats(-8.0, -0.25))
    return px, rho, s


# some draws need ~37,000 iterations, hence no deadline and few examples
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(single_stage_problems())
def test_blahut_arimoto_matches_the_one_stage_causal_solve(problem):
    px, rho, s = problem
    ba = blahut_arimoto(px, rho, s)
    src = iid_source(px, 1, y_size=rho.shape[1])
    spec = DistortionSpec.stage_tables(src.alphabets, [rho])
    r = fixed_point_solve(src, spec, SolverConfig(s=s, fp_tol=1e-12, max_sweeps=200_000))
    assert ba.converged and r.converged
    assert abs(r.rate_nats - ba.rate_nats) <= 1e-9
    assert abs(r.distortion_per_symbol - ba.distortion) <= 1e-9


def _row(nx):
    """A probability row over ``nx`` symbols, zero entries allowed."""
    return (st.lists(st.integers(0, 4), min_size=nx, max_size=nx)
            .filter(lambda w: sum(w) > 0)
            .map(lambda w: np.asarray(w, dtype=float) / sum(w)))


@st.composite
def causal_problems(draw):
    """(source, single-letter spec, s): n and |X|, |Y| in 1..3, memory
    "full", 0 or 1, rho in [0, 2] with ties, s in [-6, -0.25]."""
    n = draw(st.integers(1, 3))
    nx = draw(st.integers(1, 3))
    ny = draw(st.integers(1, 3))
    memory = draw(st.sampled_from(["full", 0, 1]))
    al = StageAlphabets(n, [nx] * n, [ny] * n)
    window = [i if memory == "full" else min(memory, i) for i in range(n)]
    kernels = [np.array(draw(st.lists(_row(nx), min_size=nx ** w, max_size=nx ** w)))
               for w in window]
    rho = np.asarray(draw(st.lists(RHO_ENTRY, min_size=nx * ny, max_size=nx * ny)),
                     dtype=float).reshape(nx, ny)
    src = SourceModel(al, kernels, memory=memory)
    return src, DistortionSpec.single_letter(al, rho), draw(st.floats(-6.0, -0.25))


def _problem(kernels, rho, s):
    """(memory-1 source, single-letter spec, s), |X| and |Y| read off ``rho``."""
    rho = np.asarray(rho, dtype=float)
    n = len(kernels)
    al = StageAlphabets(n, [rho.shape[0]] * n, [rho.shape[1]] * n)
    src = SourceModel(al, [np.asarray(k, dtype=float) for k in kernels], memory=1)
    return src, DistortionSpec.single_letter(al, rho), s


# edge cases every solver property test runs: |Y| = 1; deterministic source
# rows; and s = -5e5, where the kernel entries of the dominated y = 2
# underflow to 0, so nu has zeros, through the sweeps that x = 0's tie
# between y = 0 and y = 1 takes
ONE_OUTPUT = _problem([[[0.3, 0.7]], [[0.4, 0.6], [0.9, 0.1]]], [[0.5], [1.0]], -1.0)
DETERMINISTIC_ROWS = _problem([[[0.4, 0.6]], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
                              [[0.0, 1.0], [1.0, 0.0]], -2.0)
UNDERFLOW = _problem([[[0.7, 0.3]], [[0.7, 0.3], [0.3, 0.7]]], [[0.0, 0.0, 2.0], [1.0, 0.0, 2.0]],
                     -5e5)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(causal_problems())
@example(ONE_OUTPUT)
@example(DETERMINISTIC_ROWS)
@example(UNDERFLOW)
def test_solved_rate_is_the_directed_information_of_a_causal_policy(problem):
    src, spec, s = problem
    r = fixed_point_solve(src, spec, SolverConfig(s=s, fp_tol=1e-12))
    assume(r.converged)
    mu = full_joint_source(src)
    joint = joint_law(mu, r.policy)
    assert abs(r.rate_nats - directed_information(mu, r.policy)) <= 1e-8
    if src.alphabets.n_stages <= 2:
        assert abs(r.rate_nats - exhaustive_directed_info(joint)) <= 1e-8
    # the classical block rate is a lower bound, within the CLI's dominance tolerance
    assert classical_block_rdf(mu, spec, r.distortion_per_symbol) <= r.rate_nats + 1e-9
    assert max(markov_chain_check(joint, v) for v in (1, 2, 3, 4)) <= 1e-10


# the checks read converged points only; a point that loses output support
# converges slowly (ROADMAP item 2), so the sweep cap keeps the test short
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(causal_problems(), st.lists(st.floats(-6.0, -0.25), min_size=3, max_size=5,
                                   unique=True))
@example(ONE_OUTPUT, [-0.5, -1.0, -2.0])
@example(DETERMINISTIC_ROWS, [-0.5, -1.0, -2.0])
@example(UNDERFLOW, [-5e5, -4.0, -1.0])
def test_traced_curve_is_monotone_and_convex(problem, s_values):
    src, spec, _ = problem
    curve = trace_curve(src, spec, s_values, fp_tol=1e-12, max_sweeps=2000)
    assume(sum(p.converged for p in curve.points) >= 3)
    assert curve.monotone_ok, curve.monotone_worst
    assert curve.convex_ok, curve.convex_worst


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(causal_problems(), st.integers(0, 2 ** 32 - 1))
def test_tilted_policy_ignores_an_x_history_shift_of_g(problem, seed):
    # the normalizer of each (x-history, y-history) row absorbs the shift
    src, spec, s = problem
    al = src.alphabets
    rng = np.random.default_rng(seed)
    nu = MarginalProcess(al, [rng.dirichlet(np.ones(al.y_sizes[i]), size=al.y_hist_size(i - 1))
                              for i in range(al.n_stages)])
    g = backward_g(src, spec, nu, s)
    shifted = [t + rng.normal(scale=5.0, size=(t.shape[0], 1)) for t in g]
    for a, b in zip(tilted_policy(src, spec, nu, g, s).kernels,
                    tilted_policy(src, spec, nu, shifted, s).kernels):
        assert np.max(np.abs(a - b)) <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(causal_problems(), st.integers(0, 2 ** 32 - 1))
@example(ONE_OUTPUT, 0)
@example(DETERMINISTIC_ROWS, 0)
@example(UNDERFLOW, 0)
def test_batched_stationarity_matches_the_per_probe_reference(problem, seed):
    src, spec, s = problem
    r = fixed_point_solve(src, spec, SolverConfig(s=s, fp_tol=1e-12))
    assume(r.converged)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "STATIONARITY_PROBES", 20)
        dec = verify_stationarity(src, spec, r, seed=seed)
    assert dec == reference_stationarity(src, spec, r, 20, seed=seed)


def _plain_sweeps(src, spec, s, fp_tol):
    """The plain fixed-point loop nu <- nu' that the accelerated sweeps
    replaced, kept as the reference: (block rate, total distortion, sweeps,
    converged), the rate read off stage 0 as the solver reads it."""
    passes = _Passes(src, spec, s)
    tables = uniform_marginal(src.alphabets).tables
    converged = False
    for sweeps in range(1, 10_001):
        nxt, masses = passes.forward(passes.backward(tables)[2])[:2]
        nxt = passes.tables(nxt)
        # sup-norm change over the rows of positive prefix mass
        residual = max((float(np.abs(new - old)[m > 0].max())
                        for new, old, m in zip(nxt, tables, masses) if (m > 0).any()),
                       default=0.0)
        tables = nxt
        if residual <= fp_tol:
            converged = True
            break
    _, logz, q = passes.backward(tables)
    dist = passes.forward(q, distortion=True)[2]
    return s * dist - float(src.kernels[0][0] @ logz[0][:, 0]), dist, sweeps, converged


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(causal_problems())
@example(ONE_OUTPUT)
@example(DETERMINISTIC_ROWS)
@example(UNDERFLOW)
def test_over_relaxed_sweeps_agree_with_the_plain_map(problem):
    # wherever the plain map converges within the default 10,000 sweeps, the
    # accelerated one does too; near-ties of rho can keep the plain one from
    # converging
    src, spec, s = problem
    rate, dist, _, converged = _plain_sweeps(src, spec, s, 1e-12)
    assume(converged)
    r = fixed_point_solve(src, spec, SolverConfig(s=s, fp_tol=1e-12))
    assert r.converged
    assert abs(r.rate_nats - rate) <= 1e-8
    assert abs(r.distortion_total - dist) <= 1e-8


def test_accelerated_sweeps_take_at_most_a_quarter_of_the_plain_count():
    # a random binary full-history source at n = 5, whose plain map contracts
    # at about 0.99 per sweep; the accelerated count is deterministic, so a
    # bound on it catches a lost speed-up that wall time is too noisy to show
    rng = np.random.default_rng(0)
    al = StageAlphabets(5, [2] * 5, [2] * 5)
    src = SourceModel(al, [rng.dirichlet(np.ones(2), size=al.x_hist_size(i - 1))
                           for i in range(5)])
    spec = hamming_distortion(al)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0))
    rate, dist, plain, converged = _plain_sweeps(src, spec, -2.0, 1e-9)
    assert r.converged and converged
    assert r.sweeps_used <= plain / 4, (r.sweeps_used, plain)
    assert abs(r.rate_nats - rate) <= 1e-6 and abs(r.distortion_total - dist) <= 1e-6


def _bisection_search(probe, measure, target, tol):
    """The multiplier search that false position replaced, kept as the
    reference: double s from -1, then bisect [s, 0]."""
    lo, hi = -1.0, 0.0
    best = probe(lo, None)
    while measure(best)[0] > target:
        if -2.0 * lo > S_MAGNITUDE_CAP:
            return best
        lo *= 2.0
        best = probe(lo, None)
    for _ in range(200):
        if abs(measure(best)[0] - target) <= tol:
            break
        mid = 0.5 * (lo + hi)
        point = probe(mid, None)
        if measure(point)[0] >= target:
            hi = mid
        else:
            lo = mid
        if abs(measure(point)[0] - target) < abs(measure(best)[0] - target):
            best = point
    return best


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _hill_integral(u, power):
    """int_0^u dv / (1 + v^power) for u >= 0, by 20-point Gauss-Legendre on
    unit panels of x = log v from min(log u, 0) - 40: the integrand
    e^x / (1 + e^(power x)) is analytic within pi / power >= pi / 4 of the
    real axis, so each panel is exact to rounding, and the cut tail is
    below e^-40 of the integral."""
    if u == 0.0:
        return 0.0
    top = math.log(u)
    edges = np.append(np.arange(min(top, 0.0) - 40.0, top, 1.0), top)
    a, b = edges[:-1, None], edges[1:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * GL_NODES
    return float(np.sum(0.5 * (b - a) * GL_WEIGHTS * np.exp(x) / (1.0 + np.exp(power * x))))


@st.composite
def distortion_curves(draw):
    """(kind, D, R, target, tol): D(s) nondecreasing on s < 0 and smooth, with
    flat steps, with a jump across the target, or with a kink: a jump whose
    lower or upper edge is the target.  R(s) = s D(s) + int_s^0 D(t) dt is
    the rate that makes dR/dD = s, in closed form but for the smooth part's
    integral, a quadrature exact to rounding."""
    scale = 10.0 ** draw(st.floats(-2.0, 4.0))
    power = draw(st.floats(0.5, 4.0))
    top = draw(st.floats(0.1, 10.0))

    def smooth(s):
        return top / (1.0 + (-s / scale) ** power)

    def smooth_integral(s):                     # int_s^0 smooth(t) dt
        return top * scale * _hill_integral(-s / scale, power)

    kind = draw(st.sampled_from(["smooth", "steps", "jump", "kink"]))
    target = draw(st.floats(0.0, top))
    if kind == "smooth":
        curve, integral = smooth, smooth_integral
    elif kind == "steps":
        levels = draw(st.integers(2, 50))
        # smooth(t) >= k top / levels from t_k on
        rises = [-scale * (levels / k - 1.0) ** (1.0 / power) for k in range(1, levels)]

        def curve(s):
            return math.floor(smooth(s) / top * levels) * top / levels

        def integral(s):
            return -top / levels * sum(max(s, t) for t in rises)
    else:
        at = -(10.0 ** draw(st.floats(-3.0, 6.0)))
        gap = draw(st.floats(0.2, 10.0))
        edge = draw(st.floats(0.01, 0.99)) if kind == "jump" else draw(st.sampled_from([0, 1]))
        target = smooth(at) + edge * gap

        def curve(s):
            return smooth(s) + (gap if s > at else 0.0)

        def integral(s):
            return smooth_integral(s) - gap * max(s, at)
    return (kind, curve, lambda s: s * curve(s) + integral(s), target,
            draw(st.sampled_from([1e-9, 1e-6, 1e-3])))


def test_hill_integral_matches_closed_forms():
    # power 1: log(1 + u); power 2: atan(u); power 4 up to u = 1e8: the
    # whole integral (pi / 4) / sin(pi / 4) less a tail of 3e-25
    for u in [1e-13, 0.3, 1.0, 7.0, 1e8]:
        assert _hill_integral(u, 1.0) == pytest.approx(math.log1p(u), rel=1e-13)
        assert _hill_integral(u, 2.0) == pytest.approx(math.atan(u), rel=1e-13)
    assert _hill_integral(1e8, 4.0) == pytest.approx(math.pi / 4 / math.sin(math.pi / 4),
                                                     rel=1e-13)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(distortion_curves())
def test_false_position_search_beats_bisection_on_synthetic_curves(problem):
    kind, curve, rate, target, tol = problem

    def run(search, rate):
        probes = []

        def probe(s, start):
            probes.append(s)
            return SyntheticProbe(s, curve(s), rate(s))
        return search(probe, lambda p: (p.distortion, p.rate), target, tol), probes

    best, probes = run(search_multiplier, rate)
    ref, ref_probes = run(_bisection_search, lambda s: math.nan)     # reads no rate
    d, d_ref = best.distortion, ref.distortion
    assert all(-S_MAGNITUDE_CAP <= s < 0.0 for s in probes)
    assert len(set(probes)) == len(probes)
    if abs(d_ref - target) <= tol:
        assert abs(d - target) <= tol
    # at a kink the within-tol set ends at the jump, where the far side's
    # distortion stays a whole gap away; the safeguard then halves the
    # bracket at least every third probe, against bisection's every probe
    assert len(probes) <= (3 if kind == "kink" else 2) * len(ref_probes) + 1


@st.composite
def endpoint_problems(draw):
    """(source, spec): n in 1..4, |X|, |Y| in 1..3; a single-letter rho with
    ties over a source of memory 0, 1, 2 or "full", or integer stage tables
    over whole prefixes, with per-stage alphabet sizes."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([0, 1, 2, "full", "tables"]))
    if kind == "tables":
        al = StageAlphabets(n, draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
                            draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        memory = "full"
    else:
        nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        al = StageAlphabets(n, [nx] * n, [ny] * n)
        memory = kind
    window = [i if memory == "full" else min(memory, i) for i in range(n)]
    rows = [math.prod(al.x_sizes[i - w: i]) for i, w in enumerate(window)]
    kernels = [np.array(draw(st.lists(_row(al.x_sizes[i]), min_size=r, max_size=r)))
               for i, r in enumerate(rows)]
    src = SourceModel(al, kernels, memory=memory)
    if kind == "tables":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return src, DistortionSpec.stage_tables(al, [
            rng.integers(0, 3, (al.x_hist_size(i), al.y_hist_size(i))).astype(float)
            for i in range(n)])
    rho = draw(st.lists(RHO_ENTRY, min_size=nx * ny, max_size=nx * ny))
    return src, DistortionSpec.single_letter(al, np.reshape(rho, (nx, ny)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(endpoint_problems())
@example(DETERMINISTIC_ROWS[:2])
@example(UNDERFLOW[:2])
def test_both_distortion_endpoints_match_plain_loops(problem):
    src, spec = problem
    al = src.alphabets
    n = al.n_stages
    costs = enum_trajectory_costs(src, spec)
    d_max = min(costs.values())
    floor, d_max_per_symbol = distortion_range(src, spec)
    assert abs(floor * n - enum_causal_floor(src, spec)) <= 1e-12
    assert abs(d_max_per_symbol * n - d_max) <= 1e-12
    r = fixed_point_solve(src, spec, SolverConfig(s=0.0))
    assert r.converged and abs(r.rate_nats) <= 1e-12
    assert abs(r.distortion_total - d_max) <= 1e-12
    ys = []                                 # the one trajectory the s = 0 policy emits
    for i, k in enumerate(r.policy.kernels):
        rows = k[code_of(ys, al.y_sizes)]
        ys.append(int(np.argmax(rows[0])))
        assert np.allclose(rows[:, ys[-1]], 1.0)
    assert abs(costs[tuple(ys)] - d_max) <= 1e-12
