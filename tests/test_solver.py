import math
import re

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
    lagrangian_value,
    markov_chain_check,
    output_marginal,
)
from causalrd.model import (
    CausalPolicy,
    DistortionSpec,
    SourceModel,
    StageAlphabets,
    _expand_window,
    binary_symmetric_markov,
    full_joint_source,
    hamming_distortion,
    iid_source,
)
from causalrd import solver as solver_module
from causalrd.oracle import GridSpec, brute_force_lagrangian_min
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
    constant_policy,
    identity_policy,
    random_alphabets,
    random_policy,
    random_source,
    reference_stationarity,
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
    nu = marginal_update(src, identity_policy(src.alphabets))
    for t in nu.tables:
        assert np.max(np.abs(t - 0.5)) < 1e-14
    nu = marginal_update(src, constant_policy(src.alphabets, [1, 1]))
    assert np.allclose(nu.tables[0][0], [0.0, 1.0])
    assert np.allclose(nu.tables[1][1], [0.0, 1.0])


def _mixed_window_policy(rng, alphabets):
    """Random kernels over a random suffix window of x^i at each stage."""
    x = alphabets.x_sizes
    ks = []
    for i in range(alphabets.n_stages):
        j = int(rng.integers(0, i + 2))
        ks.append(rng.dirichlet(np.ones(alphabets.y_sizes[i]),
                                size=(alphabets.y_hist_size(i - 1), math.prod(x[i + 1 - j: i + 1]))))
    return CausalPolicy(alphabets, ks)


def test_windowed_marginal_update_matches_the_expanded_policy():
    # the forward pass over policy.tables against the same policy over full
    # x-histories, on memory-1 and memory-2 sources; a mixed-window policy
    # may read more of x^i at a later stage than at an earlier one
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        sources = [binary_symmetric_markov(0.3, n)]
        al = StageAlphabets(n, [2] * n, [2] * n)
        sources.append(SourceModel(al, [rng.dirichlet(np.ones(2), size=2 ** min(i, 2))
                                        for i in range(n)], memory=2))
        for src in sources:
            spec = hamming_distortion(src.alphabets)
            solved = fixed_point_solve(src, spec, SolverConfig(s=-2.0)).policy
            for pol in (solved, identity_policy(al), constant_policy(al, [1] * n),
                        _mixed_window_policy(rng, al)):
                windowed = marginal_update(src, pol)
                expanded = marginal_update(src, CausalPolicy(al, pol.kernels, validate=False))
                for a, b in zip(windowed.tables + windowed.prefix_mass,
                                expanded.tables + expanded.prefix_mass):
                    assert np.max(np.abs(a - b)) <= 1e-12


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


def test_zero_multiplier_g_is_exactly_zero_on_every_row():
    # a row of zero prefix mass keeps the iterate's one-hot row, whose tilt
    # normalizes exactly; a 1/7 fill gave log Z = log(1/7) + log 7 = 4.4e-16
    src = iid_source([0.2, 0.5, 0.3], 3, y_size=7)
    rho = np.random.default_rng(7).uniform(0.0, 2.0, size=(3, 7))
    r = fixed_point_solve(src, DistortionSpec.single_letter(src.alphabets, rho),
                          SolverConfig(s=0.0))
    assert r.converged and r.sweeps_used == 1 and r.rate_nats == 0.0
    assert max(float(np.abs(t).max()) for t in r.g) == 0.0


def test_markov_long_takes_at_most_16_sweeps():
    # the relaxation stays near the plain step on a fast map: the plain map
    # took 6 + 10 sweeps at s = -6, -4
    src = binary_symmetric_markov(0.3, 10)
    spec = hamming_distortion(src.alphabets)
    results = [fixed_point_solve(src, spec, SolverConfig(s=s)) for s in (-6.0, -4.0)]
    assert all(r.converged for r in results)
    assert sum(r.sweeps_used for r in results) <= 16


def test_fixed_point_single_stage_matches_ba():
    src = iid_source([0.5, 0.5], 1)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-12))
    ba = blahut_arimoto([0.5, 0.5], 1.0 - np.eye(2), -2.0)
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
    for a, b, m in zip(r.nu.tables, again.tables, again.prefix_mass):
        assert np.abs(a - b)[m > 0].max(initial=0.0) < 1e-8
    # closed form equals directed information
    assert abs(r.rate_nats - directed_information(mu, r.policy)) < 1e-8
    # the optimizer is causal: all four Markov-chain variants hold
    j = joint_law(mu, r.policy)
    for variant in (1, 2, 3, 4):
        assert markov_chain_check(j, variant) < 1e-10


def _windowed_info(src, spec, s, nu_tables):
    """Directed information of the policy tilted at ``nu_tables``, as the
    final forward pass of a solve computes it."""
    passes = solver_module._Passes(src, spec, s)
    return passes.forward(passes.backward(nu_tables)[2], distortion=True)[3]


def test_unconverged_solve_skips_the_dense_check(monkeypatch):
    # no solve builds the dense laws, converged or not, at s = 0 or below:
    # the rate is checked against the directed information of the final
    # windowed forward pass, and only when the solve converged
    calls = []

    def counted(f):
        def wrapper(*args):
            calls.append(f.__name__)
            return f(*args)
        return wrapper

    monkeypatch.setattr(solver_module, "directed_information", counted(directed_information))
    monkeypatch.setattr(solver_module, "full_joint_source", counted(full_joint_source))
    src = binary_symmetric_markov(0.3, 4)
    spec = hamming_distortion(src.alphabets)
    assert fixed_point_solve(src, spec, SolverConfig(s=-2.0)).converged
    assert not fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-14,
                                                         max_sweeps=3)).converged
    assert fixed_point_solve(src, spec, SolverConfig(s=0.0)).converged
    # a stop at fp_tol 1e-2 leaves the rate 7e-5 above the directed
    # information: the windowed check still fires, with the gap of the dense
    # laws, while its unconverged twin stopped at the same sweep is returned
    # unchecked.  fp_tol only decides the stop, so the loose solve stops at
    # the first sweep whose twin's residual is within 1e-2.
    stop = next(k for k in range(1, 100) if fixed_point_solve(
        src, spec, SolverConfig(s=-1.0, fp_tol=1e-14, max_sweeps=k)).residual <= 1e-2)
    twin = fixed_point_solve(src, spec, SolverConfig(s=-1.0, fp_tol=1e-14, max_sweeps=stop))
    assert not twin.converged and twin.residual <= 1e-2
    with pytest.raises(InternalConsistencyError, match="directed information differ") as err:
        fixed_point_solve(src, spec, SolverConfig(s=-1.0, fp_tol=1e-2))
    assert fixed_point_solve(src, spec, SolverConfig(s=-1.0, fp_tol=1e-3)).converged
    assert calls == []
    gap = twin.rate_nats - directed_information(full_joint_source(src), twin.policy)
    assert gap > solver_module.RATE_CHECK_TOL and f"differ by {gap:.3e}" in str(err.value)
    # the message names the stopping rule, not a broken fixed point
    assert f"after {stop} sweeps at fp_tol 1.0e-02" in str(err.value)
    assert "try a tighter fp_tol first" in str(err.value)
    windowed_gap = twin.rate_nats - _windowed_info(src, spec, -1.0, twin.nu.tables)
    assert abs(windowed_gap - gap) <= 1e-12


def test_solves_build_no_dense_law(monkeypatch):
    # the dense laws of measures.py are the checking path, never the solve path
    def refuse(*args):
        raise AssertionError("a dense law was built on the solve path")

    monkeypatch.setattr(solver_module, "full_joint_source", refuse)
    monkeypatch.setattr(solver_module, "directed_information", refuse)
    markov = binary_symmetric_markov(0.3, 6)
    # a random binary full-history source, as perfbench's fullhist_source at n = 4
    fullhist = random_source(np.random.default_rng(0), StageAlphabets(4, [2] * 4, [2] * 4))
    for src in (markov, fullhist):
        spec = hamming_distortion(src.alphabets)
        assert fixed_point_solve(src, spec, SolverConfig(s=-2.0)).converged
        curve = trace_curve(src, spec, [0.0, -1.0, -4.0])
        assert all(p.error is None and p.converged for p in curve)
        r = solve_for_target_distortion(src, spec, 0.1)
        assert r.converged and r.target_met


def test_fixed_point_nonconvergence_reported_not_raised():
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-14, max_sweeps=3))
    assert not r.converged
    assert r.sweeps_used == 3
    assert r.residual > 1e-14


def test_fixed_point_zero_mass_nu_init_names_stage_and_row():
    # a marginal with an all-zero row leaves the tilt of that row no mass
    src = binary_symmetric_markov(0.3, 3)
    spec = hamming_distortion(src.alphabets)
    tables = [t.copy() for t in uniform_nu(src.alphabets).tables]
    tables[2][3] = 0.0                              # y-history code 3 at stage 2
    with pytest.raises(DegenerateMarginalError, match="stage 2, y-history code 3") as err:
        backward_g(src, spec, MarginalProcess(src.alphabets, tables), -2.0)
    assert (err.value.stage, err.value.y_history) == (2, 3)
    # the memory-1 source's tables read one symbol of x^2: the message says so
    assert "x-history code 0 (and every x-history sharing its last 1 of 3 symbols)" \
        in str(err.value)


def test_solved_tables_stay_on_the_source_window():
    # memory 1: each stage's kernel and g table read one symbol of x^i, so the
    # result holds 2 x-rows per stage where full histories take up to 1,024
    src = binary_symmetric_markov(0.3, 10)
    al = src.alphabets
    r = fixed_point_solve(src, hamming_distortion(al), SolverConfig(s=-4.0))
    assert sum(t.nbytes for t in r.policy.tables) < 2 ** 20
    assert sum(t.nbytes for t in r.g) < 2 ** 20
    assert [k.shape for k in r.policy.kernels] == [
        (al.y_hist_size(i - 1), al.x_hist_size(i), 2) for i in range(al.n_stages)]


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
    nu_rng = np.random.default_rng([19, len(mode), 0 if memory == "full" else memory])
    for _ in range(3):
        src, spec = _random_fused_case(rng, mode, memory)
        al = src.alphabets
        mu = full_joint_source(src)
        _assert_marginals_match(src, random_policy(rng, al))
        # a deterministic policy leaves y-histories unreachable (uniform rows)
        _assert_marginals_match(src, constant_policy(
            al, [int(rng.integers(c)) for c in al.y_sizes]))
        # at a fixed point the closed form exceeds the directed information
        # by sum_i KL(nu'_i || nu_i), nu' the induced marginal: second order
        # in the residual, but divided by the smallest nu entries
        for s in (-0.5, -2.0, -6.0):
            r = fixed_point_solve(src, spec, SolverConfig(s=s, fp_tol=1e-13))
            assert r.converged
            _assert_marginals_match(src, r.policy)
            assert abs(r.distortion_total
                       - expected_distortion(mu, r.policy, spec)) < 1e-12
            info = directed_information(mu, r.policy)
            assert abs(r.rate_nats - info) < 1e-12
            assert abs(_windowed_info(src, spec, s, r.nu.tables) - info) < 1e-12
            assert abs(rdf_value(src, spec, r.policy, r.nu, r.g, s) - r.rate_nats) < 1e-12
        # away from a fixed point too, where the closed form exceeds it
        nu = [nu_rng.dirichlet(np.ones(al.y_sizes[i]), size=al.y_hist_size(i - 1))
              for i in range(al.n_stages)]
        passes = solver_module._Passes(src, spec, -2.0)
        q = passes.backward(nu)[2]
        assert abs(passes.forward(q, distortion=True)[3]
                   - directed_information(mu, passes.policy(q))) < 1e-12


@pytest.mark.parametrize("case", ["one-output", "deterministic-row", "s-near-cap"])
def test_windowed_directed_information_edge_cases(case):
    # |Y| = 1 (zero rate), a source row with a zero entry, and s = -5e5, near
    # the 1e6 cap, where most kernel entries underflow to 0
    al = StageAlphabets(3, [2] * 3, [1 if case == "one-output" else 2] * 3)
    rows = [[1.0, 0.0], [0.2, 0.8]] if case == "deterministic-row" else [[0.7, 0.3], [0.3, 0.7]]
    src = SourceModel(al, [np.array([[0.5, 0.5]])] + [np.array(rows)] * 2, memory=1)
    spec = DistortionSpec.single_letter(al, np.array([[0.0, 1.0], [1.0, 0.0]])[:, :al.y_sizes[0]])
    s = -5e5 if case == "s-near-cap" else -2.0
    r = fixed_point_solve(src, spec, SolverConfig(s=s, fp_tol=1e-13))
    assert r.converged
    if case == "s-near-cap":
        assert any((k == 0).any() for k in r.policy.kernels)
    info = _windowed_info(src, spec, s, r.nu.tables)
    assert abs(info - directed_information(full_joint_source(src), r.policy)) <= 1e-12
    assert abs(r.rate_nats - info) <= 1e-12


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
            bracket += np.sum(pxy * _expand_window(g[i], xh))
            bracket += np.sum(pxy.reshape(xh, -1, al.y_sizes[i]).sum(axis=2)
                              * _expand_window(logz[i], xh))
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
    for i, (a, b) in enumerate(zip(g_w, g_f)):
        a = _expand_window(a, al.x_hist_size(i))
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
    (pol_w, (nu_w, mass_w, d_w, _), lz_w), (pol_f, (nu_f, mass_f, d_f, _), lz_f) = outs
    for a, b in zip(pol_w.kernels + [nu_w] + mass_w, pol_f.kernels + [nu_f] + mass_f):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12
    assert abs(d_w - d_f) <= 1e-12 and np.max(np.abs(lz_w - lz_f)) <= 1e-12

    # whole solves
    rw, rf = (fixed_point_solve(x, spec, SolverConfig(s=s, fp_tol=1e-12)) for x in (src, full))
    assert rw.converged and rf.converged
    assert abs(rw.rate_nats - rf.rate_nats) <= 1e-9
    assert abs(rw.distortion_total - rf.distortion_total) <= 1e-9
    assert abs(rw.sweeps_used - rf.sweeps_used) <= 1
    g_w = [_expand_window(t, al.x_hist_size(i)) for i, t in enumerate(rw.g)]
    for a, b in zip(g_w + rw.policy.kernels, rf.g + rf.policy.kernels):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-9


def test_near_tie_converges_instead_of_drifting():
    # rho differs by 1e-9 between the two outputs, so the plain map moves nu
    # toward y = 0 by a factor of about 1 - 1e-9 per sweep and its residual
    # stalls near 2.5e-10; the Anderson step extrapolates the drift
    src = iid_source([1.0], 1, y_size=2)
    spec = DistortionSpec.single_letter(src.alphabets, np.array([[0.0, 1e-9]]))
    r = fixed_point_solve(src, spec, SolverConfig(s=-1.0, fp_tol=1e-12, max_sweeps=100_000))
    assert r.converged and r.sweeps_used <= 50
    assert r.rate_nats <= 1e-15 and r.distortion_total <= 1e-11


@pytest.mark.parametrize("seed", [32, 279])
def test_slow_full_history_sources_converge_within_3000_sweeps(seed):
    # perfbench's full-history generator; the over-relaxed loop took 7,234 and
    # 6,487 sweeps on these two, the plain map more than 10,000
    al = StageAlphabets(5, [2] * 5, [2] * 5)
    src = random_source(np.random.default_rng(seed), al)
    r = fixed_point_solve(src, hamming_distortion(al), SolverConfig(s=-2.0))
    assert r.converged and r.sweeps_used <= 3000, r.sweeps_used


@pytest.mark.parametrize("seed, sweeps", [(31, 3388), (138, 3648)])
def test_full_history_sweeps_at_s_minus_half_do_not_grow(seed, sweeps):
    # a count guard on a known regression: at s = -0.5 these sources took
    # 1,553 and 1,834 sweeps under over-relaxation, and the J safeguard
    # rejects many Anderson steps there; the bound is today's count, so a fix
    # shows as a lower count and a further loss fails
    al = StageAlphabets(5, [2] * 5, [2] * 5)
    src = random_source(np.random.default_rng(seed), al)
    r = fixed_point_solve(src, hamming_distortion(al), SolverConfig(s=-0.5))
    assert r.converged and r.sweeps_used <= sweeps, r.sweeps_used


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


def test_target_solve_is_its_own_point_and_its_supporting_line_meets_the_target():
    # demo 01's fair IID source at n = 3: the returned rate is the policy's own,
    # at a distortion within TARGET_DIST_TOL of the target; the line of slope s
    # through that point gives the rate at the exact target
    src = iid_source([0.5, 0.5], 3)
    spec = hamming_distortion(src.alphabets)
    r = solve_for_target_distortion(src, spec, 0.05)
    exact = LN2 - binary_entropy(0.05)
    assert abs(r.rate_nats / 3 + r.s * (0.05 - r.distortion_per_symbol) - exact) <= 1e-9
    assert abs(r.rate_nats / 3 - exact) <= abs(r.s) * solver_module.TARGET_DIST_TOL


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
    with pytest.raises(InvalidArgumentError, match="result carries no policy"):
        verify_stationarity(src, spec, r)


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


@pytest.mark.parametrize("settings", [
    dict(max_sweeps=2.5), dict(max_sweeps=True), dict(fp_tol=True),
], ids=["max_sweeps-fraction", "max_sweeps-bool", "fp_tol-bool"])
def test_solver_config_rejects_settings_of_the_wrong_kind(settings):
    with pytest.raises(InvalidArgumentError):
        SolverConfig(s=-1.0, **settings)


def _multiplier_entries():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    nu = uniform_nu(src.alphabets)
    g = backward_g(src, spec, nu, -1.0)
    pol = tilted_policy(src, spec, nu, g, -1.0)
    return {
        "SolverConfig": lambda s: SolverConfig(s=s),
        "backward_g": lambda s: backward_g(src, spec, nu, s),
        "tilted_policy": lambda s: tilted_policy(src, spec, nu, g, s),
        "rdf_value": lambda s: rdf_value(src, spec, pol, nu, g, s),
        "blahut_arimoto": lambda s: blahut_arimoto([0.5, 0.5], 1.0 - np.eye(2), s),
        "brute_force_lagrangian_min":
            lambda s: brute_force_lagrangian_min(src, spec, s, GridSpec(resolution=0.5)),
    }


@pytest.mark.parametrize("entry", ["SolverConfig", "backward_g", "tilted_policy", "rdf_value",
                                   "blahut_arimoto", "brute_force_lagrangian_min"])
@pytest.mark.parametrize("s", [math.nan, -math.inf, 1.0], ids=["nan", "-inf", "+1"])
def test_every_multiplier_entry_refuses_a_nonfinite_or_positive_s(entry, s):
    with pytest.raises(InvalidArgumentError, match="multiplier s must be a finite number <= 0"):
        _multiplier_entries()[entry](s)


def _mismatched_calls():
    """Calls that take an input built for another horizon than their source,
    each with the start of its refusal: binary symmetric Markov (flip 0.3)
    under Hamming distortion at n = 2 and n = 3, each solved at s = -2."""
    (src2, spec2, r2), (src3, spec3, r3) = (
        (src, spec, fixed_point_solve(src, spec, SolverConfig(s=-2.0)))
        for src in (binary_symmetric_markov(0.3, 2), binary_symmetric_markov(0.3, 3))
        for spec in [hamming_distortion(src.alphabets)])
    n2, n3 = "x sizes [2, 2] and y sizes [2, 2]", "x sizes [2, 2, 2] and y sizes [2, 2, 2]"
    return {
        "marginal_update": (lambda: marginal_update(src2, r3.policy),
                            f"policy is built on {n3}, the source on {n2}"),
        "rdf_value": (lambda: rdf_value(src3, spec3, r3.policy, r3.nu, r2.g, -2.0),
                      "g has 2 tables, the source 3 stages"),
        "backward_g": (lambda: backward_g(src3, spec3, r2.nu, -2.0),
                       f"nu is built on {n2}, the source on {n3}"),
        "tilted_policy": (lambda: tilted_policy(src3, spec3, r2.nu, r3.g, -2.0),
                          f"nu is built on {n2}, the source on {n3}"),
        "verify_stationarity": (lambda: verify_stationarity(src3, spec3, r2),
                                f"result is built on {n2}, the source on {n3}"),
        "lagrangian_value": (lambda: lagrangian_value(src2, spec2, r3.policy, -2.0),
                             f"policy is built on {n3}, the source on {n2}"),
    }


@pytest.mark.parametrize("entry", ["marginal_update", "rdf_value", "backward_g", "tilted_policy",
                                   "verify_stationarity", "lagrangian_value"])
def test_inputs_built_on_other_alphabets_than_the_source_are_refused(entry):
    call, message = _mismatched_calls()[entry]
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        call()


SPEC_ENTRIES = {
    "fixed_point_solve": lambda src, spec: fixed_point_solve(src, spec, SolverConfig(s=-2.0)),
    "solve_for_target_distortion": lambda src, spec: solve_for_target_distortion(src, spec, 0.1),
    "trace_curve": lambda src, spec: trace_curve(src, spec, [-1.0, -2.0]),
    "d_max_policy": d_max_policy,
    "min_achievable_distortion": min_achievable_distortion,
}


@pytest.mark.parametrize("entry", list(SPEC_ENTRIES))
@pytest.mark.parametrize("y_size, n_stages", [(3, 3), (2, 2)], ids=["3-letter-Y", "2-stage"])
def test_a_spec_built_on_other_alphabets_than_the_source_is_refused(entry, y_size, n_stages):
    # a 3-letter Y used to raise numpy's ValueError, and a 2-stage Hamming
    # spec on a 3-stage source used to be taken silently
    src = binary_symmetric_markov(0.3, 3)
    spec = DistortionSpec.single_letter(StageAlphabets(n_stages, [2] * n_stages, [y_size] * n_stages),
                                        1.0 - np.eye(2, y_size))
    on = (f"x sizes {[2] * n_stages} and y sizes {[y_size] * n_stages}",
          "x sizes [2, 2, 2] and y sizes [2, 2, 2]")
    with pytest.raises(InvalidArgumentError, match=re.escape(f"spec is built on {on[0]}, "
                                                             f"the source on {on[1]}")):
        SPEC_ENTRIES[entry](src, spec)


def test_infeasible_target_still_checks_the_settings():
    src = iid_source([0.5, 0.5], 2)
    spec = DistortionSpec.single_letter(src.alphabets, [[1.0, 2.0], [3.0, 1.0]])
    assert not solve_for_target_distortion(src, spec, 0.5).feasible     # floor is 1.0
    with pytest.raises(InvalidArgumentError, match="fp_tol"):
        solve_for_target_distortion(src, spec, 0.5, fp_tol=0.0)


def test_solver_config_takes_an_integral_float_count_as_an_int():
    src = binary_symmetric_markov(0.3, 2)
    config = SolverConfig(s=-1.0, fp_tol=1e-14, max_sweeps=3.0)
    r = fixed_point_solve(src, hamming_distortion(src.alphabets), config)
    assert type(config.max_sweeps) is int and r.sweeps_used == 3 and not r.converged


def test_target_solve_refuses_a_nan_target():
    src = binary_symmetric_markov(0.3, 3)
    with pytest.raises(InvalidArgumentError, match="d_target"):
        solve_for_target_distortion(src, hamming_distortion(src.alphabets), math.nan)


def _count_endpoint_work(monkeypatch):
    """Counters of s = 0 solves and of dense stage-table builds."""
    calls = {"s0": 0, "stage_table": 0}
    solve, stage_table = solver_module.fixed_point_solve, DistortionSpec.stage_table

    def counted_solve(source, spec, config, start=None):
        calls["s0"] += config.s == 0.0
        return solve(source, spec, config, start=start)

    def counted_stage_table(self, stage):
        calls["stage_table"] += 1
        return stage_table(self, stage)

    monkeypatch.setattr(solver_module, "fixed_point_solve", counted_solve)
    monkeypatch.setattr(DistortionSpec, "stage_table", counted_stage_table)
    return calls


def test_target_search_runs_no_zero_rate_solve_and_no_dense_stage_table(monkeypatch):
    calls = _count_endpoint_work(monkeypatch)
    src = binary_symmetric_markov(0.3, 4)
    r = solve_for_target_distortion(src, hamming_distortion(src.alphabets), 0.2)
    assert r.target_met and r.s < 0
    assert calls == {"s0": 0, "stage_table": 0}


@pytest.mark.parametrize("above", [0.0, 0.1])
def test_target_at_or_above_d_max_runs_one_zero_rate_solve(monkeypatch, above):
    calls = _count_endpoint_work(monkeypatch)
    src = binary_symmetric_markov(0.3, 4)
    spec = hamming_distortion(src.alphabets)
    d_max = d_max_policy(src, spec)[0]
    r = solve_for_target_distortion(src, spec, d_max + above)
    assert r.s == 0.0 and r.rate_nats == 0.0 and r.target_met
    assert r.distortion_per_symbol == pytest.approx(d_max, abs=1e-12)
    assert calls == {"s0": 1, "stage_table": 0}


# ---------------------------------------------------------------------------
# warm starts
# ---------------------------------------------------------------------------

def _warm_start_problems():
    """cli_verify's Markov n = 4 problem between its search's last probes, and
    full-history source 106 (perfbench's generator) from s = -1 to s = -2."""
    markov = binary_symmetric_markov(0.3, 4)
    fullhist = random_source(np.random.default_rng(106), StageAlphabets(5, [2] * 5, [2] * 5))
    return [(markov, -1.237486, -1.227773), (fullhist, -2.0, -1.0)]


def _assert_same_point(warm, cold):
    assert warm.converged and cold.converged
    assert abs(warm.rate_nats - cold.rate_nats) <= 1e-8
    assert abs(warm.distortion_total - cold.distortion_total) <= 1e-8


@pytest.mark.parametrize("case", [0, 1])
def test_warm_solve_matches_the_cold_solve(case):
    src, s, s_start = _warm_start_problems()[case]
    spec = hamming_distortion(src.alphabets)
    start = fixed_point_solve(src, spec, SolverConfig(s=s_start))
    cold = fixed_point_solve(src, spec, SolverConfig(s=s))
    warm = fixed_point_solve(src, spec, SolverConfig(s=s), start=start)
    _assert_same_point(warm, cold)
    assert warm.sweeps_used < cold.sweeps_used


@pytest.mark.parametrize("case", [0, 1])
def test_warm_start_with_exact_zeros_reaches_the_cold_point(case):
    # the s = 0 endpoint's rows are one-hot; the uniform share revives them
    src, s, _ = _warm_start_problems()[case]
    spec = hamming_distortion(src.alphabets)
    start = fixed_point_solve(src, spec, SolverConfig(s=0.0))
    assert (np.concatenate(start.nu.tables, axis=None) == 0.0).any()
    warm = fixed_point_solve(src, spec, SolverConfig(s=s), start=start)
    _assert_same_point(warm, fixed_point_solve(src, spec, SolverConfig(s=s)))


def test_warm_start_on_other_alphabets_or_unconverged_is_refused():
    src = iid_source([0.5, 0.5], 2)
    spec = DistortionSpec.single_letter(src.alphabets, [[1.0, 2.0], [3.0, 1.0]])
    other = binary_symmetric_markov(0.3, 3)
    elsewhere = fixed_point_solve(other, hamming_distortion(other.alphabets),
                                  SolverConfig(s=-1.0))
    unconverged = fixed_point_solve(src, spec, SolverConfig(s=-1.0, max_sweeps=1))
    infeasible = solve_for_target_distortion(src, spec, 0.5)    # floor is 1.0
    assert elsewhere.converged and not unconverged.converged and not infeasible.feasible
    for start in (elsewhere, unconverged, infeasible):
        with pytest.raises(InvalidArgumentError, match="start"):
            fixed_point_solve(src, spec, SolverConfig(s=-2.0), start=start)


def test_a_start_changes_nothing_at_zero_multiplier():
    src = binary_symmetric_markov(0.3, 4)
    spec = hamming_distortion(src.alphabets)
    start = fixed_point_solve(src, spec, SolverConfig(s=-1.0))
    cold = fixed_point_solve(src, spec, SolverConfig(s=0.0))
    warm = fixed_point_solve(src, spec, SolverConfig(s=0.0), start=start)
    assert (warm.rate_nats, warm.distortion_total, warm.sweeps_used, warm.residual) == \
        (cold.rate_nats, cold.distortion_total, cold.sweeps_used, cold.residual)
    for a, b in zip(warm.nu.tables, cold.nu.tables):
        assert np.array_equal(a, b)


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

def test_verify_stationarity_refuses_a_negative_seed():
    src = iid_source([0.5, 0.5], 1)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0))
    with pytest.raises(InvalidArgumentError, match="seed"):
        verify_stationarity(src, spec, r, seed=-1)


@pytest.mark.parametrize("seed", [-1.5, True], ids=["fraction", "bool"])
def test_verify_stationarity_refuses_a_seed_that_is_not_an_integer(seed):
    src = iid_source([0.5, 0.5], 1)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0))
    with pytest.raises(InvalidArgumentError, match="seed"):
        verify_stationarity(src, spec, r, seed=seed)


def test_verify_stationarity_converged_optimum():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-3.0, fp_tol=1e-12))
    dec = verify_stationarity(src, spec, r, seed=1)
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
    dec = verify_stationarity(src, spec, bad, seed=1)
    assert dec > 1e-4


def _cli_verify_solve():
    # the problem of perfbench's cli_verify: Markov flip 0.3, n = 4, D = 0.2
    src = binary_symmetric_markov(0.3, 4)
    spec = hamming_distortion(src.alphabets)
    return src, spec, solve_for_target_distortion(src, spec, 0.2)


@pytest.mark.parametrize("one_probe_per_block", [False, True])
def test_batched_stationarity_matches_the_per_probe_reference(monkeypatch, one_probe_per_block):
    if one_probe_per_block:
        monkeypatch.setattr(solver_module, "STATIONARITY_BLOCK_ENTRIES", 1)
    src, spec, r = _cli_verify_solve()
    dec = verify_stationarity(src, spec, r, seed=1)
    assert dec == reference_stationarity(src, spec, r, 100, seed=1)
    assert dec <= 1e-8


def test_batched_stationarity_draws_mixed_row_lengths_in_probe_order(monkeypatch):
    # y sizes 2, 3, 2: each probe's rows come from three draws, not one; 7
    # probes in blocks of 3 leave a last block of 1
    rng = np.random.default_rng(3)
    al = StageAlphabets(3, [2, 3, 2], [2, 3, 2])
    src = random_source(rng, al)
    spec = DistortionSpec.stage_tables(al, [rng.uniform(0.0, 2.0, size=(al.x_hist_size(i),
                                                                         al.y_hist_size(i)))
                                            for i in range(3)])
    r = fixed_point_solve(src, spec, SolverConfig(s=-1.5, fp_tol=1e-12))
    monkeypatch.setattr(solver_module, "STATIONARITY_BLOCK_ENTRIES",
                        3 * al.x_trajectories() * al.y_trajectories())
    monkeypatch.setattr(solver_module, "STATIONARITY_PROBES", 7)
    dec = verify_stationarity(src, spec, r, seed=4)
    assert dec == reference_stationarity(src, spec, r, 7, seed=4)
