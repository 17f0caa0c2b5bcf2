import math

import numpy as np
import pytest

from causalrd.baseline import blahut_arimoto
from causalrd.errors import (
    DegenerateMarginalError,
    InternalConsistencyError,
    InvalidArgumentError,
)
from causalrd.measures import (
    MarginalProcess,
    directed_information,
    expected_distortion,
    joint_law,
    markov_chain_check,
    output_marginal,
)
from causalrd.model import (
    CausalPolicy,
    DistortionSpec,
    SourceModel,
    StageAlphabets,
    binary_symmetric_markov,
    full_joint_source,
    hamming_distortion,
    iid_source,
)
from causalrd import solver as solver_module
from causalrd.solver import (
    SolveResult,
    SolverConfig,
    backward_g,
    d_max_policy,
    fixed_point_solve,
    marginal_update,
    min_achievable_distortion,
    rate_limit_estimate,
    rdf_value,
    solve_for_target_distortion,
    tilted_policy,
    trace_curve,
    verify_stationarity,
)

from helpers import (
    binary_entropy,
    bsc_policy,
    random_alphabets,
    random_policy,
    random_source,
)

LN2 = math.log(2.0)


def uniform_nu(alphabets):
    return MarginalProcess.uniform(alphabets)


# ---------------------------------------------------------------------------
# backward recursion
# ---------------------------------------------------------------------------

def test_backward_g_terminal_zero():
    src = binary_symmetric_markov(0.3, 3)
    spec = hamming_distortion(src.alphabets)
    g = backward_g(src, spec, uniform_nu(src.alphabets), -1.5)
    assert np.array_equal(g[2], np.zeros_like(g[2]))


def test_backward_g_zero_multiplier():
    src = binary_symmetric_markov(0.2, 3)
    spec = hamming_distortion(src.alphabets)
    g = backward_g(src, spec, uniform_nu(src.alphabets), 0.0)
    for t in g:
        assert np.max(np.abs(t)) < 1e-14


def test_backward_g_hand_value_per_remaining_stage():
    # fair IID binary, Hamming, uniform nu, s = -1: each remaining stage
    # contributes -log((e^{-1} + 1) / 2) to a constant g table.
    unit = -math.log((math.exp(-1.0) + 1.0) / 2.0)
    for n_stages in (2, 3):
        src = iid_source([0.5, 0.5], n_stages)
        spec = hamming_distortion(src.alphabets)
        g = backward_g(src, spec, uniform_nu(src.alphabets), -1.0)
        for i, t in enumerate(g):
            remaining = n_stages - 1 - i
            assert np.max(np.abs(t - remaining * unit)) < 1e-12


def test_backward_g_degenerate_marginal():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    tables = [np.array([[0.5, 0.5]]), np.array([[0.0, 0.0], [0.5, 0.5]])]
    bad = MarginalProcess(src.alphabets, tables)
    with pytest.raises(DegenerateMarginalError):
        backward_g(src, spec, bad, -1.0)


# ---------------------------------------------------------------------------
# tilted kernels
# ---------------------------------------------------------------------------

def test_tilted_policy_zero_multiplier_returns_marginal():
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    nu = marginal_update(src, bsc_policy(src.alphabets, 0.2))
    g = backward_g(src, spec, nu, 0.0)
    pol = tilted_policy(src, spec, nu, g, 0.0)
    for i, k in enumerate(pol.kernels):
        want = np.broadcast_to(nu.tables[i][:, None, :], k.shape)
        assert np.max(np.abs(k - want)) < 1e-14


def test_tilted_policy_single_stage_is_ba_update():
    src = iid_source([0.3, 0.7], 1)
    spec = hamming_distortion(src.alphabets)
    nu = MarginalProcess(src.alphabets, [np.array([[0.4, 0.6]])])
    g = backward_g(src, spec, nu, -2.0)
    pol = tilted_policy(src, spec, nu, g, -2.0)
    rho = 1.0 - np.eye(2)
    for x in range(2):
        w = np.exp(-2.0 * rho[x]) * np.array([0.4, 0.6])
        assert np.max(np.abs(pol.kernels[0][0, x] - w / w.sum())) < 1e-14


def test_tilted_policy_shift_invariance():
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    nu = uniform_nu(src.alphabets)
    g = backward_g(src, spec, nu, -1.5)
    pol = tilted_policy(src, spec, nu, g, -1.5)
    rng = np.random.default_rng(5)
    shifted = [t + rng.normal(size=(t.shape[0], 1)) for t in g]
    pol2 = tilted_policy(src, spec, nu, shifted, -1.5)
    for a, b in zip(pol.kernels, pol2.kernels):
        assert np.max(np.abs(a - b)) < 1e-12


# ---------------------------------------------------------------------------
# marginal update
# ---------------------------------------------------------------------------

def test_marginal_update_identity_and_constant():
    src = iid_source([0.5, 0.5], 2)
    nu = marginal_update(src, CausalPolicy.identity(src.alphabets))
    for t in nu.tables:
        assert np.max(np.abs(t - 0.5)) < 1e-14
    nu = marginal_update(src, CausalPolicy.constant(src.alphabets, [1, 1]))
    assert np.allclose(nu.tables[0][0], [0.0, 1.0])
    assert np.allclose(nu.tables[1][1], [0.0, 1.0])


def test_marginal_update_matches_enumeration():
    from helpers import enum_joint_table
    src = binary_symmetric_markov(0.3, 2)
    pol = bsc_policy(src.alphabets, 0.15)
    nu = marginal_update(src, pol)
    ref = enum_joint_table(src, pol)
    py = ref.sum(axis=0)
    p1 = py.reshape(2, 2).sum(axis=1)
    assert np.max(np.abs(nu.tables[0][0] - p1)) < 1e-12
    cond = py.reshape(2, 2) / p1[:, None]
    assert np.max(np.abs(nu.tables[1] - cond)) < 1e-12


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def test_fixed_point_zero_multiplier_endpoint():
    src = iid_source([0.5, 0.5], 3)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=0.0))
    assert r.converged and r.sweeps_used == 1 and r.residual == 0.0
    assert r.rate_nats == 0.0
    assert not any(t.any() for t in r.g)
    assert abs(r.distortion_per_symbol - 0.5) < 1e-12
    # q* ignores x
    for k in r.policy.kernels:
        assert np.max(np.ptp(k, axis=1)) < 1e-15


def test_fixed_point_single_stage_matches_ba():
    src = iid_source([0.5, 0.5], 1)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-12))
    ba = blahut_arimoto([0.5, 0.5], 1.0 - np.eye(2), -2.0, tol=1e-12)
    assert abs(r.distortion_per_symbol - ba.distortion) < 1e-8
    assert abs(r.rate_nats - ba.rate_nats) < 1e-8


def test_fixed_point_iid_decouples_across_stages():
    one = fixed_point_solve(iid_source([0.5, 0.5], 1),
                            hamming_distortion(iid_source([0.5, 0.5], 1).alphabets),
                            SolverConfig(s=-2.0, fp_tol=1e-12))
    src = iid_source([0.5, 0.5], 3)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-12))
    assert abs(r.rate_nats / 3 - one.rate_nats) < 1e-8
    assert abs(r.distortion_per_symbol - one.distortion_per_symbol) < 1e-8
    single = one.policy.kernels[0][0]
    for i, k in enumerate(r.policy.kernels):
        flat = k.reshape(-1, k.shape[-1])
        x_last = np.tile(np.arange(k.shape[1]) % 2, k.shape[0])
        assert np.max(np.abs(flat - single[x_last])) < 1e-8


def test_fixed_point_g_constant_for_iid():
    src = iid_source([0.5, 0.5], 3)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-1.5, fp_tol=1e-12))
    for t in r.g:
        assert np.ptp(t) < 1e-9


def test_fixed_point_consistency_invariants():
    src = binary_symmetric_markov(0.3, 3)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-10))
    assert r.converged
    mu = full_joint_source(src)
    # nu is the marginal its own policy induces
    again = marginal_update(src, r.policy)
    assert r.nu.sup_distance(again, reachable=[m > 0 for m in again.prefix_mass]) < 1e-8
    # closed form equals directed information
    assert abs(r.rate_nats - directed_information(mu, r.policy)) < 1e-8
    # the optimizer is causal: all four Markov-chain variants hold
    j = joint_law(mu, r.policy)
    for variant in (1, 2, 3, 4):
        assert markov_chain_check(j, variant) < 1e-10


def test_unconverged_solve_skips_the_dense_check(monkeypatch):
    # the dense directed-information check can only raise on a converged solve
    calls = []

    def counted(*args):
        calls.append(1)
        return directed_information(*args)

    monkeypatch.setattr(solver_module, "directed_information", counted)
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-14, max_sweeps=3))
    assert not r.converged and calls == []
    assert fixed_point_solve(src, spec, SolverConfig(s=-2.0)).converged and calls == [1]
    # the s = 0 endpoint is a converged solve like any other
    assert fixed_point_solve(src, spec, SolverConfig(s=0.0)).converged and calls == [1, 1]


def test_fixed_point_nonconvergence_reported_not_raised():
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-14, max_sweeps=3))
    assert not r.converged
    assert r.sweeps_used == 3
    assert r.residual > 1e-14


def test_fixed_point_zero_mass_nu_init_names_stage_and_row():
    src = binary_symmetric_markov(0.3, 3)
    spec = hamming_distortion(src.alphabets)
    tables = [t.copy() for t in uniform_nu(src.alphabets).tables]
    tables[2][3] = 0.0                              # y-history code 3 at stage 2
    cfg = SolverConfig(s=-2.0, nu_init=MarginalProcess(src.alphabets, tables))
    with pytest.raises(DegenerateMarginalError, match="stage 2, y-history code 3") as err:
        fixed_point_solve(src, spec, cfg)
    assert (err.value.stage, err.value.y_history) == (2, 3)
    # the memory-1 solve's tables read one symbol of x^2: the message says so
    assert "x-history code 0 (and every x-history sharing its last 1 of 3 symbols)" \
        in str(err.value)


@pytest.mark.parametrize("alphabets", [
    StageAlphabets(2, [2, 2], [2, 2]),
    StageAlphabets(3, [2] * 3, [3] * 3),
], ids=["shorter-horizon", "other-y-size"])
def test_fixed_point_rejects_nu_init_over_other_alphabets(alphabets):
    src = binary_symmetric_markov(0.3, 3)
    spec = hamming_distortion(src.alphabets)
    cfg = SolverConfig(s=-2.0, nu_init=MarginalProcess.uniform(alphabets))
    with pytest.raises(InvalidArgumentError, match="nu_init"):
        fixed_point_solve(src, spec, cfg)


# ---------------------------------------------------------------------------
# fused passes against the dense laws of the measures
# ---------------------------------------------------------------------------

def _random_fused_case(rng, mode, memory):
    """Source with ``memory`` ("full" or an int) and a ``mode`` distortion;
    |X| != |Y| always, and stage tables also vary the sizes by stage."""
    n = int(rng.integers(1, 4))
    if mode == "single_letter":
        sx, sy = (2, 3) if rng.random() < 0.5 else (3, 2)
        al = StageAlphabets(n, [sx] * n, [sy] * n)
        spec = DistortionSpec.single_letter(al, rng.uniform(0, 2, size=(sx, sy)))
    else:
        al = random_alphabets(rng, n)
        while al.x_sizes == al.y_sizes or len(set(al.x_sizes + al.y_sizes)) == 1:
            al = random_alphabets(rng, n)
        spec = DistortionSpec.stage_tables(
            al, [rng.uniform(0, 2, size=(al.x_hist_size(i), al.y_hist_size(i)))
                 for i in range(n)])
    if memory == "full":
        return random_source(rng, al), spec
    ks = [rng.dirichlet(np.ones(al.x_sizes[i]),
                        size=math.prod(al.x_sizes[i - min(memory, i):i]))
          for i in range(n)]
    return SourceModel(al, ks, memory=memory), spec


def _assert_marginals_match(src, policy, tol=1e-12):
    """Prefix masses P(y^{i-1}) and the laws P(y^i) = mass * nu agree.  The
    rows themselves are compared where both masses are 0 (uniform by
    convention): a mass near the underflow threshold can be 1e-300 in the
    forward recursion and 0 in the dense sum over whole trajectories."""
    fused = marginal_update(src, policy)
    dense = output_marginal(joint_law(full_joint_source(src), policy))
    for a, b, ma, mb in zip(fused.tables, dense.tables, fused.prefix_mass, dense.prefix_mass):
        assert np.max(np.abs(ma - mb)) < tol
        assert np.max(np.abs(ma[:, None] * a - mb[:, None] * b)) < tol
        dead = (ma == 0) & (mb == 0)
        assert np.array_equal(a[dead], b[dead])


@pytest.mark.parametrize("mode", ["single_letter", "stage_tables"])
@pytest.mark.parametrize("memory", ["full", 1, 2])
def test_fused_passes_match_dense_measures(mode, memory):
    rng = np.random.default_rng([17, len(mode), 0 if memory == "full" else memory])
    for _ in range(3):
        src, spec = _random_fused_case(rng, mode, memory)
        al = src.alphabets
        mu = full_joint_source(src)
        _assert_marginals_match(src, random_policy(rng, al))
        # a deterministic policy leaves y-histories unreachable (uniform rows)
        _assert_marginals_match(src, CausalPolicy.constant(
            al, [int(rng.integers(c)) for c in al.y_sizes]))
        # at a fixed point the closed form exceeds the directed information
        # by sum_i KL(nu'_i || nu_i), nu' the induced marginal: second order
        # in the residual, but divided by the smallest nu entries
        for s in (-0.5, -2.0, -6.0):
            r = fixed_point_solve(src, spec, SolverConfig(s=s, fp_tol=1e-13))
            assert r.converged
            _assert_marginals_match(src, r.policy)
            assert abs(r.distortion_total
                       - expected_distortion(mu, r.policy, spec).total) < 1e-12
            assert abs(r.rate_nats - directed_information(mu, r.policy)) < 1e-12
            assert abs(rdf_value(src, spec, r.policy, r.nu, r.g, s) - r.rate_nats) < 1e-12


@pytest.mark.parametrize("mode", ["single_letter", "stage_tables"])
@pytest.mark.parametrize("memory", ["full", 1, 2])
def test_rate_bracket_telescopes_to_stage_zero(mode, memory):
    # sum_i E[g_i + log Z_i] on the dense laws of the tilted policy equals
    # E[log Z_0(X_0)] at any nu, not only at a fixed point
    rng = np.random.default_rng([31, len(mode), 0 if memory == "full" else memory])
    for _ in range(3):
        src, spec = _random_fused_case(rng, mode, memory)
        al = src.alphabets
        nu = [rng.dirichlet(np.ones(al.y_sizes[i]), size=al.y_hist_size(i - 1))
              for i in range(al.n_stages)]
        passes = solver_module._Passes(src, spec, float(rng.uniform(-6, -0.5)))
        g, logz, q = passes.backward(nu)
        joint = joint_law(full_joint_source(src), passes.policy(q)).table
        bracket = 0.0
        for i in range(al.n_stages):
            xh, yh = al.x_hist_size(i), al.y_hist_size(i)
            pxy = joint.reshape(xh, -1, yh, joint.shape[1] // yh).sum(axis=(1, 3))
            bracket += np.sum(pxy * passes._full(g[i], i, 0))
            bracket += np.sum(pxy.reshape(xh, -1, al.y_sizes[i]).sum(axis=2)
                              * passes._full(logz[i], i, 0))
        assert abs(bracket - src.kernels[0][0] @ logz[0][:, 0]) <= 1e-12


# ---------------------------------------------------------------------------
# passes over the source's memory window against the full-history passes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sx, sy, n, memory, mode", [
    (2, 2, 8, 1, "single_letter"),
    (3, 3, 5, 2, "single_letter"),
    (2, 3, 4, 0, "single_letter"),
    (2, 2, 3, 5, "single_letter"),     # memory past the horizon: never full
    (2, 2, 4, 1, "stage_tables"),      # rho over whole prefixes: full path
], ids=["binary-m1", "ternary-m2", "m0-x2-y3", "m5-n3", "m1-stage-tables"])
def test_windowed_passes_match_the_full_history_passes(sx, sy, n, memory, mode):
    rng = np.random.default_rng([23, sx, sy, n, memory, len(mode)])
    al = StageAlphabets(n, [sx] * n, [sy] * n)
    src = SourceModel(al, [rng.dirichlet(np.ones(sx), size=sx ** min(memory, i))
                           for i in range(n)], memory=memory)
    full = SourceModel(al, [src.kernels[0]] + [src.stage_rows(i) for i in range(1, n)])
    if mode == "single_letter":
        spec = DistortionSpec.single_letter(al, rng.uniform(0, 2, size=(sx, sy)))
        window = [min(i + 1, max(memory, 1)) for i in range(n)]
    else:
        spec = DistortionSpec.stage_tables(
            al, [rng.uniform(0, 2, size=(al.x_hist_size(i), al.y_hist_size(i)))
                 for i in range(n)])
        window = [i + 1 for i in range(n)]
    nu = MarginalProcess(al, [rng.dirichlet(np.ones(sy), size=sy ** i) for i in range(n)])
    s = -5.0

    # one pass at a fixed nu
    g_w, g_f = (backward_g(x, spec, nu, s) for x in (src, full))
    for a, b in zip(g_w, g_f):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12
    tilt_w, tilt_f = tilted_policy(src, spec, nu, g_w, s), tilted_policy(full, spec, nu, g_f, s)
    for a, b in zip(tilt_w.kernels, tilt_f.kernels):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12
    outs = []
    for source in (src, full):
        passes = solver_module._Passes(source, spec, s)
        g, logz, q = passes.backward(nu.tables)
        outs.append((passes.policy(q), passes.forward(q, distortion=True), logz[0]))
        if source is src:
            assert [k.shape for k in q] == [(sy, sx ** window[i], sy ** i) for i in range(n)]
    (pol_w, (nu_w, mass_w, d_w), lz_w), (pol_f, (nu_f, mass_f, d_f), lz_f) = outs
    for a, b in zip(pol_w.kernels + nu_w + mass_w, pol_f.kernels + nu_f + mass_f):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12
    assert abs(d_w - d_f) <= 1e-12 and np.max(np.abs(lz_w - lz_f)) <= 1e-12

    # whole solves
    rw, rf = (fixed_point_solve(x, spec, SolverConfig(s=s, fp_tol=1e-12)) for x in (src, full))
    assert rw.converged and rf.converged
    assert abs(rw.rate_nats - rf.rate_nats) <= 1e-9
    assert abs(rw.distortion_total - rf.distortion_total) <= 1e-9
    assert abs(rw.sweeps_used - rf.sweeps_used) <= 1
    for a, b in zip(rw.g + rw.policy.kernels, rf.g + rf.policy.kernels):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-9


# ---------------------------------------------------------------------------
# closed-form rate
# ---------------------------------------------------------------------------

def test_rdf_value_zero_multiplier():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=0.0))
    assert rdf_value(src, spec, r.policy, r.nu, r.g, 0.0) == 0.0


def test_rdf_value_classical_binary_point():
    # s chosen so the tilted fixed point sits exactly at D = 0.1
    d = 0.1
    s = math.log(d / (1 - d))
    src = iid_source([0.5, 0.5], 1)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=s, fp_tol=1e-13))
    assert abs(r.distortion_per_symbol - d) < 1e-10
    assert abs(r.rate_nats - (LN2 - binary_entropy(d))) < 1e-9


def test_rdf_value_equals_directed_information_random():
    rng = np.random.default_rng(13)
    for _ in range(5):
        al = random_alphabets(rng, 2)
        src = random_source(rng, al)
        rho = rng.uniform(0, 2, size=(al.x_hist_size(1), al.y_hist_size(1)))
        spec = DistortionSpec.stage_tables(
            al, [rng.uniform(0, 2, size=(al.x_hist_size(0), al.y_hist_size(0))), rho])
        r = fixed_point_solve(src, spec, SolverConfig(s=float(rng.uniform(-3, -0.3)),
                                                      fp_tol=1e-11))
        assert r.converged
        mu = full_joint_source(src)
        assert abs(r.rate_nats - directed_information(mu, r.policy)) < 1e-8


def test_rdf_value_detects_broken_fixed_point():
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-11))
    skew = MarginalProcess(src.alphabets,
                           [np.array([[0.9, 0.1]]),
                            np.array([[0.9, 0.1], [0.9, 0.1]])])
    with pytest.raises(InternalConsistencyError):
        rdf_value(src, spec, r.policy, skew, r.g, -2.0)


# ---------------------------------------------------------------------------
# target-distortion solves
# ---------------------------------------------------------------------------

def test_target_distortion_dmax_case():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    r = solve_for_target_distortion(src, spec, 0.5)
    assert r.s == 0.0 and r.rate_nats == 0.0
    r = solve_for_target_distortion(src, spec, 0.75)
    assert r.rate_nats == 0.0


def test_target_distortion_matches_classical_binary():
    src = iid_source([0.5, 0.5], 3)
    spec = hamming_distortion(src.alphabets)
    r = solve_for_target_distortion(src, spec, 0.1)
    assert abs(r.distortion_per_symbol - 0.1) <= 1e-6
    assert abs(r.rate_nats / 3 - (LN2 - binary_entropy(0.1))) < 1e-5


def test_target_distortion_zero_approaches_entropy():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    r = solve_for_target_distortion(src, spec, 0.0)
    assert r.feasible
    assert r.distortion_per_symbol <= 1e-6
    assert abs(r.rate_nats / 2 - LN2) < 1e-4


def test_target_distortion_infeasible_sentinel():
    al = StageAlphabets(2, [2, 2], [2, 2])
    src = iid_source([0.5, 0.5], 2)
    spec = DistortionSpec.single_letter(al, [[1.0, 2.0], [3.0, 1.0]])
    r = solve_for_target_distortion(src, spec, 0.5)   # floor is 1.0
    assert not r.feasible
    assert math.isinf(r.rate_nats)
    assert abs(min_achievable_distortion(src, spec) - 1.0) < 1e-12


def test_target_distortion_propagates_nonconvergence():
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    r = solve_for_target_distortion(src, spec, 0.1, fp_tol=1e-14, max_sweeps=2)
    assert not r.converged
    assert r.s is not None and r.s < 0


def test_d_max_policy_asymmetric():
    src = iid_source([0.9, 0.1], 1)
    spec = hamming_distortion(src.alphabets)
    dmax, pol = d_max_policy(src, spec)
    assert abs(dmax - 0.1) < 1e-12
    assert np.allclose(pol.kernels[0][0, :, 0], 1.0)   # always emit symbol 0


# ---------------------------------------------------------------------------
# curve tracing
# ---------------------------------------------------------------------------

def test_trace_curve_single_zero_point():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    curve = trace_curve(src, spec, [0.0])
    assert len(curve.points) == 1
    p = curve.points[0]
    assert p.rate_total_nats == 0.0 and abs(p.distortion_per_symbol - 0.5) < 1e-12


def test_trace_curve_overlays_classical_binary():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    s_values = -np.geomspace(0.4, 4.0, 12)
    curve = trace_curve(src, spec, s_values, fp_tol=1e-11)
    assert curve.monotone_ok and curve.convex_ok
    for p in curve.points:
        assert p.converged
        want = LN2 - binary_entropy(p.distortion_per_symbol)
        assert abs(p.rate_per_symbol_nats - want) < 1e-5


def test_trace_curve_multiplier_monotonicity():
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    s_values = [-0.5, -1.0, -2.0, -4.0]
    curve = trace_curve(src, spec, s_values, fp_tol=1e-11)
    by_s = sorted(curve.points, key=lambda p: p.s)      # most negative first
    for a, b in zip(by_s, by_s[1:]):
        assert a.distortion_per_symbol <= b.distortion_per_symbol + 1e-12
        assert a.rate_total_nats >= b.rate_total_nats - 1e-9


def test_trace_curve_records_a_failed_point_and_checks_the_rest(monkeypatch):
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    good = trace_curve(src, spec, [-0.5, -2.0, -4.0, -8.0])
    real = solver_module.fixed_point_solve

    def failing_at_minus_one(source, spec, config):
        if config.s == -1.0:
            raise InternalConsistencyError("injected")
        return real(source, spec, config)

    monkeypatch.setattr(solver_module, "fixed_point_solve", failing_at_minus_one)
    # the failed point sits between two solved ones in the multiplier order
    curve = trace_curve(src, spec, [-0.5, -1.0, -2.0, -4.0, -8.0])
    failed = [k for k, p in enumerate(curve.points) if p.error]
    assert len(failed) == 1
    p = curve.points[failed[0]]
    assert p.s == -1.0 and "injected" in p.error
    assert math.isnan(p.distortion_per_symbol) and math.isnan(p.rate_total_nats)
    assert not p.converged and p.sweeps == 0
    assert curve.results[failed[0]] is None
    rest = [(q, r) for k, (q, r) in enumerate(zip(curve.points, curve.results))
            if k != failed[0]]
    assert [q for q, _ in rest] == good.points
    assert all(r.converged and r.s == q.s for q, r in rest)
    for key in ("monotone_ok", "monotone_worst", "convex_ok", "convex_worst",
                "slope_worst_rel_err"):
        assert getattr(curve, key) == getattr(good, key)


@pytest.mark.parametrize("settings", [
    dict(s=0.5), dict(s=math.nan), dict(s=-math.inf), dict(s=-1.0, fp_tol=0.0),
    dict(s=-1.0, fp_tol=math.nan), dict(s=-1.0, max_sweeps=0),
], ids=["s-positive", "s-nan", "s-inf", "fp_tol-0", "fp_tol-nan", "max_sweeps-0"])
def test_solver_config_rejects_out_of_range_settings(settings):
    with pytest.raises(InvalidArgumentError):
        SolverConfig(**settings)


def test_trace_curve_empty_rejected():
    src = iid_source([0.5, 0.5], 1)
    spec = hamming_distortion(src.alphabets)
    with pytest.raises(InvalidArgumentError):
        trace_curve(src, spec, [])
    with pytest.raises(InvalidArgumentError):       # a bad setting is not a failed point
        trace_curve(src, spec, [-1.0], fp_tol=0.0)


# ---------------------------------------------------------------------------
# horizon sweeps
# ---------------------------------------------------------------------------

def test_rate_limit_estimate_iid_constant():
    rho = 1.0 - np.eye(2)
    rates = rate_limit_estimate(lambda h: iid_source([0.5, 0.5], h), rho,
                                0.1, [1, 2, 3])
    assert max(rates) - min(rates) < 1e-6


def test_rate_limit_estimate_single_horizon():
    rho = 1.0 - np.eye(2)
    rates = rate_limit_estimate(lambda h: binary_symmetric_markov(0.3, h), rho,
                                0.1, [2])
    src = binary_symmetric_markov(0.3, 2)
    spec = DistortionSpec.single_letter(src.alphabets, rho)
    ref = solve_for_target_distortion(src, spec, 0.1)
    assert abs(rates[0] - ref.rate_nats / 2) < 1e-12


def test_rate_limit_estimate_requires_ascending():
    rho = 1.0 - np.eye(2)
    with pytest.raises(InvalidArgumentError):
        rate_limit_estimate(lambda h: iid_source([0.5, 0.5], h), rho, 0.1, [3, 1])


def test_rate_limit_estimate_counts_horizons_before_any_solve():
    rho = 1.0 - np.eye(2)
    seen = []

    def family(h):
        seen.append(h)
        return iid_source([0.5, 0.5], h)

    for bad in ([1.7, 2.2], [True], [1, 2.5]):
        with pytest.raises(InvalidArgumentError, match="horizons"):
            rate_limit_estimate(family, rho, 0.1, bad)
    assert seen == []
    assert (rate_limit_estimate(family, rho, 0.1, [1.0, np.int64(2)])
            == rate_limit_estimate(family, rho, 0.1, [1, 2]))
    assert seen == [1, 2, 1, 2] and all(type(h) is int for h in seen)


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------

def test_verify_stationarity_zero_perturbations():
    src = iid_source([0.5, 0.5], 1)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-12))
    assert verify_stationarity(src, spec, r, n_perturbations=0) == 0.0


def test_verify_stationarity_converged_optimum():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-3.0, fp_tol=1e-12))
    dec = verify_stationarity(src, spec, r, n_perturbations=100, seed=1)
    assert dec <= 1e-8


def test_verify_stationarity_corrupted_negative_control():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-3.0, fp_tol=1e-12))
    ks = [k.copy() for k in r.policy.kernels]
    ks[0][0, 0, :] = 0.5                              # one row to uniform
    bad = SolveResult(s=r.s, policy=CausalPolicy(src.alphabets, ks, validate=False),
                      nu=r.nu, g=r.g, rate_nats=0.0, distortion_total=0.0,
                      distortion_per_symbol=0.0, sweeps_used=0, converged=True,
                      residual=0.0)
    dec = verify_stationarity(src, spec, bad, n_perturbations=100, seed=1)
    assert dec > 1e-4
