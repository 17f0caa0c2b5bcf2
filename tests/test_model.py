import numpy as np
import pytest

from causalrd.errors import InvalidArgumentError, ResourceBudgetError
from causalrd.model import (
    DistortionSpec,
    SourceModel,
    StageAlphabets,
    binary_symmetric_markov,
    decode_history,
    distortion_lookup,
    encode_history,
    full_joint_source,
    hamming_distortion,
    iid_source,
    markov_source,
    validate_source,
)

from helpers import trajectories


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
    for prefix in trajectories(sizes):
        code = encode_history(list(prefix), sizes)
        assert decode_history(code, sizes) == list(prefix)
    # every code decodes back too
    for code in range(2 * 3 * 2):
        assert encode_history(decode_history(code, sizes), sizes) == code


def test_horizon_validation():
    with pytest.raises(InvalidArgumentError):
        StageAlphabets(0, [], [])
    with pytest.raises(ResourceBudgetError):
        StageAlphabets(2, [2, 2], [2, 2], entry_budget=10)
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
    assert counted == (["n_stages"] * 2 + ["entry_budget"]
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
    src = iid_source([0.5, 0.5], 3)
    assert validate_source(src) == []


def test_validate_source_reports_bad_row():
    al = StageAlphabets(1, [2], [2])
    src = SourceModel(al, [np.array([[0.5, 0.4]])], validate=False)
    report = validate_source(src)
    assert len(report) == 1
    v = report[0]
    assert v.stage == 0 and v.history == 0
    assert abs(v.deficit - 0.1) < 1e-12
    with pytest.raises(InvalidArgumentError):
        SourceModel(al, [np.array([[0.5, 0.4]])])


def test_validate_source_tolerance_boundary():
    al = StageAlphabets(1, [2], [2])
    src = SourceModel(al, [np.array([[1.0 + 1e-15, 0.0]])], validate=False)
    assert validate_source(src) == []


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
    assert distortion_lookup(spec, 0, 0, 0) == 0.0
    assert distortion_lookup(spec, 0, 0, 1) == 1.0
    # stage 1, x^1=(1,0) -> code 2, y^1=(0,0) -> code 0: last symbols equal
    assert distortion_lookup(spec, 1, 2, 0) == 0.0
    with pytest.raises(InvalidArgumentError):
        distortion_lookup(spec, 2, 0, 0)
    with pytest.raises(InvalidArgumentError):
        distortion_lookup(spec, 1, 4, 0)


def test_distortion_stage_tables_direct_read():
    al = StageAlphabets(2, [2, 2], [2, 2])
    t0 = np.zeros((2, 2))
    t1 = np.zeros((4, 4))
    for xc in range(4):
        for yc in range(4):
            t1[xc, yc] = abs(xc // 2 - yc % 2)      # |x_0 - y_1|
    spec = DistortionSpec.stage_tables(al, [t0, t1])
    assert distortion_lookup(spec, 1, 2, 0) == 1.0  # x^1=(1,0), y^1=(0,0)
    assert distortion_lookup(spec, 1, 0, 1) == 1.0  # x^1=(0,0), y^1=(0,1)


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


def test_total_table_budget_guard():
    al = StageAlphabets(2, [2, 2], [2, 2], entry_budget=20)
    spec = hamming_distortion(al)
    assert spec.total_table().shape == (4, 4)
    with pytest.raises(ResourceBudgetError):
        StageAlphabets(3, [2, 2, 2], [2, 2, 2], entry_budget=20)


def test_renormalization_on_ingestion():
    al = StageAlphabets(1, [2], [2])
    src = SourceModel(al, [np.array([[0.5 + 4e-13, 0.5]])])
    assert abs(src.kernels[0].sum() - 1.0) < 1e-15
