import math

import numpy as np
import pytest

from causalrd.errors import InvalidArgumentError
from causalrd.measures import (
    COND_EPS,
    JointLaw,
    causal_channel_table,
    directed_information,
    expected_distortion,
    joint_law,
    lagrangian_value,
    lagrangian_values,
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

from helpers import (
    binary_entropy,
    bsc_policy,
    code_of,
    constant_policy,
    enum_expected_distortion,
    enum_joint_table,
    identity_policy,
    mix_policies,
    mutual_information,
    policy_from_marginals,
    random_alphabets,
    random_policy,
    random_source,
    reference_causal_channel_table,
    reference_directed_information,
    reference_expected_distortion,
    reference_lagrangian_value,
    reference_lagrangian_values,
    reference_markov_chain_check,
    reference_output_marginal,
    trajectories,
    uniform_policy,
)

LN2 = math.log(2.0)


def test_joint_law_identity_channel():
    src = iid_source([0.5, 0.5], 1)
    pol = identity_policy(src.alphabets)
    j = joint_law(full_joint_source(src), pol)
    assert np.allclose(j.table, np.diag([0.5, 0.5]))


def test_joint_law_uniform_policy_is_product():
    src = binary_symmetric_markov(0.2, 2)
    mu = full_joint_source(src)
    j = joint_law(mu, uniform_policy(src.alphabets))
    assert np.max(np.abs(j.table - mu[:, None] / 4.0)) < 1e-15


def test_joint_law_matches_brute_force_enumeration():
    src = binary_symmetric_markov(0.3, 2)
    pol = bsc_policy(src.alphabets, 0.1)
    j = joint_law(full_joint_source(src), pol)
    ref = enum_joint_table(src, pol)
    assert np.max(np.abs(j.table - ref)) < 1e-14
    assert abs(j.table.sum() - 1.0) < 1e-10


def test_joint_law_shape_mismatch():
    src = iid_source([0.5, 0.5], 2)
    with pytest.raises(InvalidArgumentError):
        joint_law(np.full(3, 1 / 3), uniform_policy(src.alphabets))


def test_output_marginal_identity_uniform():
    src = iid_source([0.5, 0.5], 2)
    j = joint_law(full_joint_source(src), identity_policy(src.alphabets))
    nu = output_marginal(j)
    for t in nu.tables:
        assert np.allclose(t, 0.5, atol=1e-14)


def test_output_marginal_constant_policy():
    src = iid_source([0.5, 0.5], 2)
    j = joint_law(full_joint_source(src), constant_policy(src.alphabets, [0, 0]))
    nu = output_marginal(j)
    assert np.allclose(nu.tables[0][0], [1.0, 0.0])
    assert np.allclose(nu.tables[1][0], [1.0, 0.0])   # reachable history (0,)
    assert np.allclose(nu.tables[1][1], [0.5, 0.5])   # unreachable -> uniform


def test_output_marginal_rows_normalized():
    rng = np.random.default_rng(3)
    for _ in range(10):
        al = random_alphabets(rng, 3)
        j = joint_law(full_joint_source(random_source(rng, al)), random_policy(rng, al))
        nu = output_marginal(j)
        for t in nu.tables:
            assert np.max(np.abs(t.sum(axis=1) - 1.0)) < 1e-12


def test_output_marginal_chain_reproduces_y_marginal():
    rng = np.random.default_rng(11)
    for _ in range(10):
        al = random_alphabets(rng, 3)
        j = joint_law(full_joint_source(random_source(rng, al)), random_policy(rng, al))
        nu = output_marginal(j)
        py = j.table.sum(axis=0)
        for ys in trajectories(al.y_sizes):
            chain = math.prod(nu.tables[i][code_of(ys[:i], al.y_sizes[:i]), ys[i]]
                              for i in range(al.n_stages))
            assert abs(chain - py[code_of(ys, al.y_sizes)]) < 1e-12


def test_directed_information_ignoring_x_is_zero():
    src = binary_symmetric_markov(0.3, 3)
    mu = full_joint_source(src)
    nu = output_marginal(joint_law(mu, uniform_policy(src.alphabets)))
    pol = policy_from_marginals(nu)
    assert directed_information(mu, pol) == 0.0


def test_directed_information_identity_channel():
    src = iid_source([0.5, 0.5], 2)
    di = directed_information(full_joint_source(src), identity_policy(src.alphabets))
    assert abs(di - 2 * LN2) < 1e-12


def test_directed_information_bsc_hand_value():
    src = iid_source([0.5, 0.5], 1)
    di = directed_information(full_joint_source(src), bsc_policy(src.alphabets, 0.1))
    assert abs(di - (LN2 - binary_entropy(0.1))) < 1e-12


def test_mutual_information_product_zero():
    al = StageAlphabets(1, [2], [2])
    j = JointLaw(al, np.outer([0.3, 0.7], [0.4, 0.6]))
    assert mutual_information(j) == 0.0


def test_mutual_information_identity():
    src = iid_source([0.5, 0.5], 2)
    j = joint_law(full_joint_source(src), identity_policy(src.alphabets))
    assert abs(mutual_information(j) - 2 * LN2) < 1e-12


def test_mutual_equals_directed_for_causal_policies():
    rng = np.random.default_rng(19)
    for _ in range(20):
        al = random_alphabets(rng, int(rng.integers(1, 4)))
        mu = full_joint_source(random_source(rng, al))
        pol = random_policy(rng, al)
        mi = mutual_information(joint_law(mu, pol))
        di = directed_information(mu, pol)
        assert abs(mi - di) < 1e-10


def test_expected_distortion_identity_zero():
    src = iid_source([0.5, 0.5], 3)
    spec = hamming_distortion(src.alphabets)
    d = expected_distortion(full_joint_source(src), identity_policy(src.alphabets), spec)
    assert d == 0.0


def test_expected_distortion_constant_policy():
    src = iid_source([0.5, 0.5], 3)
    spec = hamming_distortion(src.alphabets)
    d = expected_distortion(full_joint_source(src), constant_policy(src.alphabets, [0, 0, 0]), spec)
    assert abs(d / 3 - 0.5) < 1e-12


def test_expected_distortion_bsc():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    d = expected_distortion(full_joint_source(src), bsc_policy(src.alphabets, 0.1), spec)
    assert abs(d / 2 - 0.1) < 1e-12
    ref = enum_expected_distortion(src, bsc_policy(src.alphabets, 0.1),
                                   lambda x, y: float(x != y))
    assert abs(d - ref) < 1e-12


def test_expected_distortion_linear_in_mixture():
    rng = np.random.default_rng(23)
    src = binary_symmetric_markov(0.3, 2)
    mu = full_joint_source(src)
    spec = hamming_distortion(src.alphabets)
    for lam in (0.0, 0.25, 0.5, 0.9, 1.0):
        a = random_policy(rng, src.alphabets)
        b = random_policy(rng, src.alphabets)
        mixed = mix_policies(a, b, lam)
        da = expected_distortion(mu, a, spec)
        db = expected_distortion(mu, b, spec)
        dm = expected_distortion(mu, mixed, spec)
        assert abs(dm - (lam * da + (1 - lam) * db)) < 1e-12


def test_directed_information_convex_in_policy():
    rng = np.random.default_rng(29)
    for _ in range(15):
        al = random_alphabets(rng, 2)
        mu = full_joint_source(random_source(rng, al))
        a = random_policy(rng, al)
        b = random_policy(rng, al)
        lam = float(rng.uniform())
        lhs = directed_information(mu, mix_policies(a, b, lam))
        rhs = lam * directed_information(mu, a) + (1 - lam) * directed_information(mu, b)
        assert lhs <= rhs + 1e-10


def test_directed_information_nonnegative():
    rng = np.random.default_rng(31)
    for _ in range(20):
        al = random_alphabets(rng, 2)
        mu = full_joint_source(random_source(rng, al))
        assert directed_information(mu, random_policy(rng, al)) >= 0.0


@pytest.mark.parametrize("n_stages", [1, 3])
def test_lagrangian_values_match_one_policy_at_a_time(n_stages):
    # a stack of random policies, one with a zero row entry and one that
    # ignores x, under stage tables; the inputs stay unchanged
    rng = np.random.default_rng(n_stages)
    al = random_alphabets(rng, n_stages)
    src = random_source(rng, al)
    spec = DistortionSpec.stage_tables(al, [rng.uniform(0.0, 2.0, size=(al.x_hist_size(i),
                                                                         al.y_hist_size(i)))
                                            for i in range(n_stages)])
    policies = [random_policy(rng, al) for _ in range(3)] + [uniform_policy(al)]
    policies[0].kernels[0][0, 0] = np.eye(al.y_sizes[0])[0]
    stacks = [np.stack([p.kernels[i] for p in policies]) for i in range(n_stages)]
    before = [k.copy() for k in stacks]
    values = lagrangian_values(full_joint_source(src), spec.total_table(), stacks, -1.7)
    for v, p in zip(values, policies):
        assert v == lagrangian_value(src, spec, p, -1.7)
    assert all(np.array_equal(a, b) for a, b in zip(stacks, before))


def _random_problem(rng):
    """A source, stage-table distortion and policy with per-stage sizes 1 to
    3.  The policy's rows may be one-hot, which leaves y-histories
    unreachable, or the same for every x."""
    n = int(rng.integers(1, 4))
    al = StageAlphabets(n, [int(rng.integers(1, 4)) for _ in range(n)],
                        [int(rng.integers(1, 4)) for _ in range(n)])
    src = SourceModel(al, [rng.dirichlet(np.ones(al.x_sizes[i]), size=al.x_hist_size(i - 1))
                           for i in range(n)])
    spec = DistortionSpec.stage_tables(al, [rng.uniform(0.0, 2.0, size=(al.x_hist_size(i),
                                                                         al.y_hist_size(i)))
                                            for i in range(n)])
    ks = []
    for i in range(n):
        sy = al.y_sizes[i]
        k = rng.dirichlet(np.ones(sy), size=(al.y_hist_size(i - 1), al.x_hist_size(i)))
        if rng.random() < 0.3:
            k = np.eye(sy)[rng.integers(sy, size=k.shape[:2])]
        if rng.random() < 0.3:
            k[:] = k[:, :1]
        ks.append(k)
    return src, spec, CausalPolicy(al, ks)


def test_one_policy_measures_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(20)
    unreachable = 0
    for _ in range(200):
        src, spec, pol = _random_problem(rng)
        mu = full_joint_source(src)
        s = -float(rng.uniform(0.1, 5.0))
        assert repr(directed_information(mu, pol)) == repr(reference_directed_information(mu, pol))
        assert (repr(expected_distortion(mu, pol, spec))
                == repr(reference_expected_distortion(mu, pol, spec)))
        assert (repr(lagrangian_value(src, spec, pol, s))
                == repr(reference_lagrangian_value(src, spec, pol, s)))
        q, ref_q = causal_channel_table(pol), reference_causal_channel_table(pol)
        assert q.shape == ref_q.shape and q.tobytes() == ref_q.tobytes()
        joint = joint_law(mu, pol)
        nu, ref = output_marginal(joint), reference_output_marginal(joint)
        for a, b in zip(nu.tables + nu.prefix_mass, ref.tables + ref.prefix_mass):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        unreachable += sum(int((m == 0).sum()) for m in nu.prefix_mass)
    assert unreachable > 0


def test_lagrangian_values_move_only_by_the_order_of_the_sums():
    # the stacked form before it shared the one-policy evaluator summed in
    # another order, so it agrees to rounding, not bit for bit
    rng = np.random.default_rng(21)
    for _ in range(50):
        src, spec, pol = _random_problem(rng)
        stacks = [np.stack([k, 0.5 * (k + 1.0 / k.shape[-1])]) for k in pol.kernels]
        args = (full_joint_source(src), spec.total_table(), stacks, -2.5)
        assert np.max(np.abs(lagrangian_values(*args) - reference_lagrangian_values(*args))) <= 1e-12


def test_markov_chain_check_causal_joints():
    rng = np.random.default_rng(37)
    for _ in range(10):
        al = random_alphabets(rng, 3)
        j = joint_law(full_joint_source(random_source(rng, al)), random_policy(rng, al))
        for variant in (1, 2, 3, 4):
            assert markov_chain_check(j, variant) < 1e-10


def test_markov_chain_check_anticipative_counterexample():
    # y_0 := x_1 cannot come from a causal policy
    al = StageAlphabets(2, [2, 2], [2, 2])
    table = np.zeros((4, 4))
    for x0 in range(2):
        for x1 in range(2):
            y0, y1 = x1, 0
            table[x0 * 2 + x1, y0 * 2 + y1] = 0.25
    j = JointLaw(al, table)
    assert markov_chain_check(j, 3) > 0.01
    for variant in (1, 2, 4):
        assert markov_chain_check(j, variant) > 0.01


def test_markov_chain_check_identity_joint():
    src = iid_source([0.5, 0.5], 2)
    j = joint_law(full_joint_source(src), identity_policy(src.alphabets))
    for variant in (1, 2, 3, 4):
        assert markov_chain_check(j, variant) <= 1e-15


@pytest.mark.parametrize("table, message", [
    (np.full((2, 3), 1.0 / 6.0), r"joint table shape \(2, 3\)"),
    ([[0.5, -0.1], [0.3, 0.3]], "negative entries"),
    (np.full((2, 2), 0.5), "mass 2 is not 1"),
], ids=["shape", "negative", "mass"])
def test_joint_law_refuses_a_wrong_shape_a_negative_entry_or_mass_off_one(table, message):
    with pytest.raises(InvalidArgumentError, match=message):
        JointLaw(StageAlphabets(1, [2], [2]), np.asarray(table))


def test_markov_chain_check_bad_variant():
    src = iid_source([0.5, 0.5], 1)
    j = joint_law(full_joint_source(src), identity_policy(src.alphabets))
    for variant in (5, 0, True, np.True_):         # True == 1, but a bool is no variant
        with pytest.raises(InvalidArgumentError):
            markov_chain_check(j, variant)


def _residual_test_joint(rng, kind, n):
    """A seeded joint of ``kind``: the law of a random source and policy, a
    dense random table, or a sparse one whose first source symbol and first
    output symbol each leave one value with zero mass ("zero") or with mass
    below COND_EPS ("tiny"), so that conditioning events of every variant
    fall under the threshold."""
    al = random_alphabets(rng, n, max_size=4)
    if kind == "causal":
        return joint_law(full_joint_source(random_source(rng, al)), random_policy(rng, al))
    while True:                    # until mass is left outside the scaled blocks
        t = rng.random((al.x_trajectories(), al.y_trajectories()))
        if kind != "dense":
            t[rng.random(t.shape) < 0.4] = 0.0
            scale = 0.0 if kind == "zero" else 1e-14
            grid = t.reshape(*al.x_sizes, *al.y_sizes)
            grid[int(rng.integers(al.x_sizes[0]))] *= scale
            grid[(slice(None),) * n + (int(rng.integers(al.y_sizes[0])),)] *= scale
        if t.sum() > 1e-6:
            return JointLaw(al, t / t.sum())


def test_markov_chain_check_equals_the_reference_on_seeded_joints():
    # the grouped marginals sum the tensor over the axes the reference's prefix
    # reshapes and einsum sum, and lay the (C, A, B) tables out in memory as
    # they do, so every residual is the same float
    rng = np.random.default_rng(2026)
    kinds = ("causal", "dense", "zero", "tiny")
    for k in range(320):
        n, kind = 1 + k % 3, kinds[k // 3 % 4]
        j = _residual_test_joint(rng, kind, n)
        if kind in ("zero", "tiny"):
            px0 = j.tensor().sum(axis=tuple(range(1, 2 * n)))
            assert px0.min() < COND_EPS
        for variant in (1, 2, 3, 4):
            value = markov_chain_check(j, variant)
            assert value == reference_markov_chain_check(j, variant), (k, kind, variant)
            if n == 1 and variant > 1:
                assert value == 0.0
