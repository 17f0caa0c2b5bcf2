import numpy as np
import pytest

from causalrd.errors import InvalidArgumentError, ResourceBudgetError
from causalrd.measures import MarginalProcess
from causalrd.model import (
    CausalPolicy,
    DistortionSpec,
    SourceModel,
    StageAlphabets,
    binary_symmetric_markov,
    encode_history,
    full_joint_source,
    hamming_distortion,
    iid_source,
    markov_source,
)

from helpers import (
    code_of,
    constant_policy,
    identity_policy,
    policy_from_marginals,
    trajectories,
    uniform_policy,
)


def test_encode_history_examples():
    assert encode_history([], [2, 2]) == 0
    assert encode_history([1, 0], [2, 2]) == 2
    assert encode_history([1, 2], [2, 3]) == 5


def test_encode_history_out_of_range():
    with pytest.raises(InvalidArgumentError):
        encode_history([2], [2])
    with pytest.raises(InvalidArgumentError):
        encode_history([0, 3], [2, 3])


def test_encode_decode_roundtrip_exhaustive():
    sizes = [2, 3, 2]
    codes = []
    for prefix in trajectories(sizes):
        code = encode_history(list(prefix), sizes)
        assert code == code_of(prefix, sizes)
        codes.append(code)
    # every code is the code of exactly one prefix
    assert sorted(codes) == list(range(2 * 3 * 2))


def test_horizon_validation():
    with pytest.raises(InvalidArgumentError):
        StageAlphabets(0, [], [])
    with pytest.raises(InvalidArgumentError, match="need 2 per-stage sizes"):
        StageAlphabets(2, [2], [2, 2])
    with pytest.raises(ResourceBudgetError):       # 100 * 101 * 100 * 100 > 10**8
        StageAlphabets(2, [100, 101], [100, 100])
    with pytest.raises(ResourceBudgetError):       # 4**10_000 entries, never formed
        StageAlphabets(10_000, [2] * 10_000, [2] * 10_000)


@pytest.mark.parametrize("n_stages, x_sizes, y_sizes", [
    (2, [2.5, 2], [2, 2]),
    (2, [2, 2], [2, True]),
    (True, [2], [2]),
    (2.5, [2, 2], [2, 2]),
    (2, [2, float("nan")], [2, 2]),
], ids=["x-fraction", "y-bool", "n-bool", "n-fraction", "x-nan"])
def test_stage_alphabets_reject_non_integral_counts(n_stages, x_sizes, y_sizes):
    with pytest.raises(InvalidArgumentError):
        StageAlphabets(n_stages, x_sizes, y_sizes)


def test_budget_refuses_a_long_horizon_before_reading_its_later_stages(monkeypatch):
    from causalrd import model
    counted = []

    def counting(v, what):
        counted.append(what)
        return real_count(v, what)

    real_count = model._count
    monkeypatch.setattr(model, "_count", counting)
    # 4**13 < 1e8 < 4**14: the 14th stage passes the budget
    with pytest.raises(ResourceBudgetError):
        iid_source([0.5, 0.5], 10**6)
    # iid_source counts n_stages itself before it builds the size lists
    assert counted == (["n_stages"] * 2
                       + ["x_sizes entry", "y_sizes entry"] * 14)


def test_stage_alphabets_accept_integral_floats():
    al = StageAlphabets(2.0, [2.0, np.int64(3)], [np.float64(2), 2])
    assert (al.n_stages, al.x_sizes, al.y_sizes) == (2, [2, 3], [2, 2])
    assert all(type(c) is int for c in [al.n_stages, *al.x_sizes, *al.y_sizes])


@pytest.mark.parametrize("factory", [
    lambda n, **kw: iid_source([0.5, 0.5], n, **kw),
    lambda n, **kw: markov_source([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], n, **kw),
], ids=["iid", "markov"])
def test_source_factories_count_stages_and_sizes(factory):
    src = factory(2.0, y_size=np.float64(3))
    want = factory(2, y_size=3)
    assert (src.alphabets.n_stages, src.alphabets.y_sizes) == (2, [3, 3])
    assert src.alphabets == want.alphabets
    for bad in (dict(n=2.5), dict(n=True), dict(n=2, y_size=2.5), dict(n=2, y_size=True)):
        with pytest.raises(InvalidArgumentError):
            factory(**bad)


def test_validate_source_clean():
    # a row that sums to 1 exactly is stored as given
    src = iid_source([0.25, 0.75], 3)
    assert all(np.array_equal(k, [[0.25, 0.75]]) for k in src.kernels)


def test_validate_source_reports_bad_row():
    al = StageAlphabets(1, [2], [2])
    with pytest.raises(InvalidArgumentError) as err:
        SourceModel(al, [np.array([[0.5, 0.4]])])
    assert str(err.value) == ("invalid source kernels: source row at stage 0, history code 0: "
                              "sums to 0.9 (deficit 0.1)")
    with pytest.raises(InvalidArgumentError, match="history code 0: has negative entry -0.25$"):
        SourceModel(al, [np.array([[1.25, -0.25]])])


@pytest.mark.parametrize("build, message", [
    (lambda al: SourceModel(al, [[[0.5, 0.5]]]), "need 2 kernels, got 1"),
    (lambda al: SourceModel(al, [[[0.5, 0.5]]] * 2), r"kernel 1 has shape \(1, 2\)"),
    (lambda al: CausalPolicy(al, [np.full((1, 1, 2), 0.5)]), "need 2 kernels, got 1"),
    (lambda al: markov_source([0.5, 0.5], [[1.0, 0.0]], 2), "transition must be square"),
    (lambda al: MarginalProcess(al, [np.full((1, 2), 0.5)]), "need 2 marginal tables"),
    (lambda al: MarginalProcess(al, [np.full((1, 2), 0.5)] * 2), "marginal table 1 has shape"),
], ids=["source-count", "source-shape", "policy-count", "markov-not-square",
        "marginal-count", "marginal-shape"])
def test_constructors_refuse_a_wrong_table_count_or_shape(build, message):
    with pytest.raises(InvalidArgumentError, match=message):
        build(StageAlphabets(2, [2, 2], [2, 2]))


def test_validate_source_tolerance_boundary():
    al = StageAlphabets(1, [2], [2])
    src = SourceModel(al, [np.array([[1.0 + 1e-15, 0.0]])])
    assert src.kernels[0][0, 0] == 1.0


def test_a_nan_row_is_refused_and_reported():
    # nan fails every comparison, so the row checks are written to pass only
    # a finite sum within tolerance
    al = StageAlphabets(1, [2], [2])
    with pytest.raises(InvalidArgumentError, match="stage 0, history code 0: sums to nan"):
        SourceModel(al, [[[np.nan, 1.0]]])
    with pytest.raises(InvalidArgumentError, match="stage 0, history code 1: sums to nan"):
        CausalPolicy(al, [[[[0.5, 0.5], [1.0, np.nan]]]])


def test_full_joint_source_iid():
    mu = full_joint_source(iid_source([0.5, 0.5], 2))
    assert np.allclose(mu, 0.25, atol=1e-15)
    assert abs(mu.sum() - 1.0) < 1e-10


def test_full_joint_source_deterministic():
    al = StageAlphabets(2, [2, 2], [2, 2])
    src = SourceModel(al, [np.array([[0.0, 1.0]]),
                           np.array([[1.0, 0.0], [1.0, 0.0]])])
    mu = full_joint_source(src)
    # trajectory (1, 0) has code 2
    want = np.zeros(4)
    want[2] = 1.0
    assert np.array_equal(mu, want)


def test_full_joint_source_markov_hand_product():
    src = binary_symmetric_markov(0.3, 2)
    mu = full_joint_source(src)
    # P(x0=0, x1=1) = 0.5 * 0.3
    assert abs(mu[1] - 0.15) < 1e-15
    assert abs(mu.sum() - 1.0) < 1e-12


def test_full_joint_source_stage0_marginal():
    src = markov_source([0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], 3)
    mu = full_joint_source(src)
    m0 = mu.reshape(2, -1).sum(axis=1)
    assert np.max(np.abs(m0 - np.array([0.3, 0.7]))) < 1e-12


def test_memory_window_expansion():
    src = binary_symmetric_markov(0.25, 3)
    rows = src.stage_rows(2)        # expanded to x^1 histories
    assert rows.shape == (4, 2)
    # rows depend on the last symbol only
    assert np.allclose(rows[1], [0.25, 0.75])   # x^1 = (0, 1)
    assert np.allclose(rows[2], [0.75, 0.25])   # x^1 = (1, 0)


@pytest.mark.parametrize("memory", [1.5, True, -1, "abc"])
def test_memory_must_be_full_or_a_nonnegative_int(memory):
    al = StageAlphabets(2, [2, 2], [2, 2])
    with pytest.raises(InvalidArgumentError, match="memory"):
        SourceModel(al, [[[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]], memory=memory)


def test_distortion_lookup_hamming():
    al = StageAlphabets(2, [2, 2], [2, 2])
    spec = hamming_distortion(al)
    assert spec.stage_table(0)[0, 0] == 0.0
    assert spec.stage_table(0)[0, 1] == 1.0
    # stage 1, x^1=(1,0) -> code 2, y^1=(0,0) -> code 0: last symbols equal
    assert spec.stage_table(1)[2, 0] == 0.0
    assert spec.stage_table(1).shape == (4, 4)


def test_distortion_stage_tables_direct_read():
    al = StageAlphabets(2, [2, 2], [2, 2])
    t0 = np.zeros((2, 2))
    t1 = np.zeros((4, 4))
    for xc in range(4):
        for yc in range(4):
            t1[xc, yc] = abs(xc // 2 - yc % 2)      # |x_0 - y_1|
    spec = DistortionSpec.stage_tables(al, [t0, t1])
    assert spec.stage_table(1)[2, 0] == 1.0  # x^1=(1,0), y^1=(0,0)
    assert spec.stage_table(1)[0, 1] == 1.0  # x^1=(0,0), y^1=(0,1)


@pytest.mark.parametrize("mode", ["single_letter", "stage_tables"])
@pytest.mark.parametrize("stage", [-1, 2, 5])
def test_stage_table_refuses_a_stage_outside_the_horizon(mode, stage):
    # a negative stage would otherwise read another stage's table, and a
    # single-letter table would expand past the horizon
    al = StageAlphabets(2, [2, 2], [2, 2])
    spec = (hamming_distortion(al) if mode == "single_letter"
            else DistortionSpec.stage_tables(al, [np.zeros((2, 2)), np.zeros((4, 4))]))
    with pytest.raises(IndexError, match=f"stage {stage} is outside the horizon of 2 stages"):
        spec.stage_table(stage)


def test_single_letter_expansion_matches_per_letter_sum():
    rng = np.random.default_rng(7)
    al = StageAlphabets(3, [2, 2, 2], [2, 2, 2])
    rho = rng.uniform(0.0, 2.0, size=(2, 2))
    spec = DistortionSpec.single_letter(al, rho)
    total = spec.total_table()
    for _ in range(50):
        xs = rng.integers(0, 2, size=3)
        ys = rng.integers(0, 2, size=3)
        xc = int(xs[0]) * 4 + int(xs[1]) * 2 + int(xs[2])
        yc = int(ys[0]) * 4 + int(ys[1]) * 2 + int(ys[2])
        direct = sum(rho[x, y] for x, y in zip(xs, ys))
        assert abs(total[xc, yc] - direct) < 1e-12


def test_distortion_rejects_negative_and_nonfinite():
    al = StageAlphabets(1, [2], [2])
    with pytest.raises(InvalidArgumentError):
        DistortionSpec.single_letter(al, [[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(InvalidArgumentError):
        DistortionSpec.single_letter(al, [[0.0, np.inf], [1.0, 0.0]])
    hamming = np.array([[0.0, 1.0], [1.0, 0.0]])
    for build, message in [
            (lambda: DistortionSpec(al, rho=hamming, tables=[hamming]), "exactly one"),
            (lambda: DistortionSpec(al), "exactly one"),
            (lambda: DistortionSpec.single_letter(al, [0.0, 1.0]), "must be 2-D"),
            (lambda: DistortionSpec.single_letter(StageAlphabets(2, [2, 3], [2, 2]), hamming),
             "equal per-stage alphabet sizes"),
            (lambda: DistortionSpec.stage_tables(al, [hamming] * 2), "need 1 stage tables"),
            (lambda: DistortionSpec.stage_tables(al, [np.zeros((2, 3))]),
             r"stage table 0 has shape \(2, 3\)")]:
        with pytest.raises(InvalidArgumentError, match=message):
            build()


def test_total_table_budget_guard():
    # the constructor's budget on |X^n| * |Y^n| also bounds the total table
    al = StageAlphabets(2, [2, 2], [2, 2])
    spec = hamming_distortion(al)
    assert spec.total_table().shape == (4, 4)
    assert StageAlphabets(2, [100, 100], [100, 100]).x_trajectories() == 10**4   # 10**8 fits
    with pytest.raises(ResourceBudgetError):
        StageAlphabets(3, [100, 100, 2], [100, 100, 1])


def test_renormalization_on_ingestion():
    al = StageAlphabets(1, [2], [2])
    src = SourceModel(al, [np.array([[0.5 + 4e-13, 0.5]])])
    assert abs(src.kernels[0].sum() - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# policy kernels over suffix windows of x^i
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x_sizes, stage, windows", [
    ([2, 2, 2], 2, [1, 2, 4, 8]),
    ([2, 3, 2], 2, [1, 2, 6, 12]),
    ([2, 3], 1, [1, 3, 6]),
])
def test_policy_accepts_every_suffix_window_and_expands_by_modulo(x_sizes, stage, windows):
    n = len(x_sizes)
    al = StageAlphabets(n, x_sizes, [2] * n)
    rng = np.random.default_rng(stage)
    xh, yh = al.x_hist_size(stage), al.y_hist_size(stage - 1)
    for w in windows:
        ks = [np.full((al.y_hist_size(i - 1), 1, 2), 0.5) for i in range(n)]
        ks[stage] = rng.dirichlet(np.ones(2), size=(yh, w))
        pol = CausalPolicy(al, ks)
        assert pol.tables[stage].shape == (yh, w, 2)
        full = pol.kernels[stage]
        assert full.shape == (yh, xh, 2)
        for h in range(xh):
            assert np.array_equal(full[:, h], pol.tables[stage][:, h % w])


@pytest.mark.parametrize("x_sizes, stage, width", [
    ([2, 2, 2], 2, 3),          # not a power of the binary alphabet
    ([2, 3, 2], 2, 3),          # the size of x_1, which is not a suffix of x^2
    ([2, 3], 1, 2),             # the size of x_0, a prefix
    ([2, 2], 1, 8),             # longer than x^1
])
def test_policy_refuses_a_width_that_is_no_suffix_window(x_sizes, stage, width):
    n = len(x_sizes)
    al = StageAlphabets(n, x_sizes, [2] * n)
    ks = [np.full((al.y_hist_size(i - 1), 1, 2), 0.5) for i in range(n)]
    ks[stage] = np.full((al.y_hist_size(stage - 1), width, 2), 0.5)
    with pytest.raises(InvalidArgumentError, match=f"policy kernel {stage}"):
        CausalPolicy(al, ks)


def test_policy_factories_read_back_their_full_history_kernels():
    al = StageAlphabets(2, [2, 2], [3, 3])
    third = 1.0 / 3.0
    e0, e1, e2 = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]
    nu = MarginalProcess(al, [np.array([[0.2, 0.3, 0.5]]),
                              np.array([[0.1, 0.1, 0.8], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])])
    want = {
        "identity": ([[e0, e1]], [[e0, e1, e0, e1]] * 3),
        "constant": ([[e2, e2]], [[e1, e1, e1, e1]] * 3),
        "uniform": ([[[third] * 3] * 2], [[[third] * 3] * 4] * 3),
        "marginals": ([[[0.2, 0.3, 0.5]] * 2],
                      [[[0.1, 0.1, 0.8]] * 4, [[0.5, 0.5, 0.0]] * 4, [[0.25, 0.25, 0.5]] * 4]),
    }
    got = {"identity": identity_policy(al),
           "constant": constant_policy(al, [2, 1]),
           "uniform": uniform_policy(al),
           "marginals": policy_from_marginals(nu)}
    for name, pol in got.items():
        for k, w in zip(pol.kernels, want[name]):
            assert np.array_equal(k, np.array(w)), name
        assert sum(t.size for t in pol.tables) < sum(k.size for k in pol.kernels)
