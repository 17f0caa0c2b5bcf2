import itertools
import math

import numpy as np
import pytest

from causalrd import baseline, oracle
from causalrd.baseline import blahut_arimoto
from causalrd.errors import InternalConsistencyError, InvalidArgumentError, ResourceBudgetError
from causalrd.measures import JointLaw, directed_information, joint_law, lagrangian_value
from causalrd.model import (
    DistortionSpec,
    SourceModel,
    StageAlphabets,
    binary_symmetric_markov,
    full_joint_source,
    hamming_distortion,
    iid_source,
)
from causalrd.oracle import GridSpec, brute_force_lagrangian_min, simplex_grid
from causalrd.solver import SolverConfig, fixed_point_solve

from helpers import (
    exhaustive_directed_info,
    identity_policy,
    random_alphabets,
    random_policy,
    random_source,
    reference_branch_minima,
    reference_plogp,
)

LN2 = math.log(2.0)


def test_simplex_grid_contents():
    g = simplex_grid(2, 0.5)
    assert np.allclose(g, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    g = simplex_grid(3, 0.5)
    assert g.shape == (6, 3)
    assert np.allclose(g.sum(axis=1), 1.0)
    # halving the step keeps the coarse points
    fine = simplex_grid(2, 0.25)
    for row in simplex_grid(2, 0.5):
        assert any(np.allclose(row, f) for f in fine)


@pytest.mark.parametrize("k, resolution", [(1, 0.5), (2, 0.02), (3, 0.02), (2, 1 / 3),
                                           (3, 0.1), (4, 0.1), (4, 1 / 3), (4, 0.5)])
def test_simplex_grid_rows_are_the_lexicographic_compositions_divided_one_by_one(k, resolution):
    n = round(1 / resolution)
    rows = [c for c in itertools.product(range(n + 1), repeat=k) if sum(c) == n]
    want = np.array([np.array(c, dtype=float) / n for c in rows])
    got = simplex_grid(k, resolution)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k, resolution", [(0, 0.5), (-1, 0.5), (2, 0.0), (2, math.nan), (2, 2.0)])
def test_simplex_grid_refuses_an_empty_simplex_and_a_step_off_its_range(k, resolution):
    with pytest.raises(InvalidArgumentError):
        simplex_grid(k, resolution)


@pytest.mark.parametrize("resolution", [0.7, 0.0, math.nan])
def test_grid_spec_refuses_a_resolution_off_its_range(resolution):
    with pytest.raises(InvalidArgumentError, match="resolution"):
        GridSpec(resolution=resolution)


def test_exhaustive_directed_info_product_joint():
    al = StageAlphabets(1, [2], [2])
    j = JointLaw(al, np.outer([0.3, 0.7], [0.4, 0.6]))
    assert abs(exhaustive_directed_info(j)) < 1e-15


def test_exhaustive_directed_info_identity():
    src = iid_source([0.5, 0.5], 2)
    j = joint_law(full_joint_source(src), identity_policy(src.alphabets))
    assert abs(exhaustive_directed_info(j) - 2 * LN2) < 1e-12


def test_exhaustive_directed_info_dual_path_random():
    rng = np.random.default_rng(43)
    for _ in range(100):
        al = random_alphabets(rng, int(rng.integers(1, 3)))
        mu = full_joint_source(random_source(rng, al))
        pol = random_policy(rng, al)
        di = directed_information(mu, pol)
        j = joint_law(mu, pol)
        assert abs(exhaustive_directed_info(j) - di) < 1e-10


def test_brute_force_zero_multiplier():
    src = iid_source([0.5, 0.5], 1)
    spec = hamming_distortion(src.alphabets)
    val, pol = brute_force_lagrangian_min(src, spec, 0.0, GridSpec(resolution=0.1))
    assert val <= 1e-12
    assert np.ptp(pol.kernels[0][0], axis=0).max() < 1e-12    # ignores x


def test_brute_force_single_stage_near_ba(monkeypatch):
    monkeypatch.setattr(baseline, "BA_TOL", 1e-13)
    src = iid_source([0.5, 0.5], 1)
    spec = hamming_distortion(src.alphabets)
    val, _ = brute_force_lagrangian_min(src, spec, -2.0, GridSpec(resolution=0.01))
    ba = blahut_arimoto([0.5, 0.5], 1.0 - np.eye(2), -2.0)
    ba_lagrangian = ba.rate_nats + 2.0 * ba.distortion
    assert val >= ba_lagrangian - 1e-9
    assert val <= ba_lagrangian + 1e-3


def test_brute_force_two_stage_brackets_solver():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-11))
    solver_lagrangian = r.rate_nats + 2.0 * r.distortion_total
    val, _ = brute_force_lagrangian_min(src, spec, -2.0, GridSpec(resolution=0.02))
    assert val >= solver_lagrangian - 1e-9
    assert val <= solver_lagrangian + 5e-3
    # the 0.01 grid contains the 0.02 grid, so its minimum is no larger
    val2, _ = brute_force_lagrangian_min(src, spec, -2.0, GridSpec(resolution=0.01))
    assert val2 <= val + 1e-12


def test_brute_force_deterministic():
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    va, pa = brute_force_lagrangian_min(src, spec, -1.0, GridSpec(resolution=0.05))
    vb, pb = brute_force_lagrangian_min(src, spec, -1.0, GridSpec(resolution=0.05))
    assert va == vb
    for a, b in zip(pa.kernels, pb.kernels):
        assert np.array_equal(a, b)


def test_brute_force_budget_guards(monkeypatch):
    # each guard raises before any grid is built or stage-0 candidate enumerated
    def refuse(*args):
        raise AssertionError("grid built or candidates enumerated before the budget check")

    monkeypatch.setattr(oracle, "simplex_grid", refuse)
    monkeypatch.setattr(oracle, "_stage0_values", refuse)
    for n_stages, x_size, resolution, match in [
        (3, 2, 0.02, "n_stages <= 2"),
        (2, 5, 0.02, "stage-0 enumeration"),      # 51**5 candidates of 5 rows of 2
        (2, 3, 0.02, "two-stage search"),         # 51**3 candidates * 2 * 9 rows * 50 steps
        (1, 2, 5e-6, "stage-0 enumeration"),      # 200001**2 candidates of 2 rows of 2
    ]:
        src = iid_source(np.full(x_size, 1.0 / x_size), n_stages, y_size=2)
        spec = hamming_distortion(src.alphabets)
        with pytest.raises(ResourceBudgetError, match=match):
            brute_force_lagrangian_min(src, spec, -1.0, GridSpec(resolution=resolution))


def _grid_lagrangians(source, spec, s, grid):
    """I(X -> Y) - s * total distortion of every two-stage binary policy with
    rows on ``grid``, from the dense joint law p(y0, y1, x0, x1), flat per
    policy.  What no stage-0 pair changes (mu q1, the stage-1 logs and the
    distortion) is built once: with log q = log q0 + log q1 wherever p > 0,
    a pair's sum of p (log q - s rho) is two contractions of its joint law."""
    mu = source.kernels[0][0][:, None] * source.kernels[1]          # (x0, x1)
    rho = (spec.stage_table(0)[:, None, :, None]
           + spec.stage_table(1).reshape(2, 2, 2, 2))              # (x0, x1, y0, y1)
    g = len(grid)
    q1 = grid[np.array(list(itertools.product(range(g), repeat=8))).reshape(-1, 2, 2, 2)]
    q1 = q1.transpose(0, 1, 4, 2, 3).reshape(-1, 16)    # (policy, y0 y1 x0 x1) from (y0, x^1, y1)
    mu_q1 = q1 * np.tile(mu.ravel(), 4)
    weight = (np.log(q1, out=np.zeros_like(q1), where=q1 > 0)
              - s * rho.transpose(2, 3, 0, 1).ravel())
    log_grid = np.log(grid, out=np.zeros_like(grid), where=grid > 0)

    def by_y0_x0(t):                          # a (x0, y0) table over the flat (y0, y1, x0, x1)
        return np.broadcast_to(t.T[:, None, :, None], (2, 2, 2, 2)).ravel()

    out = []
    for a0, a1 in itertools.product(range(g), repeat=2):
        p = mu_q1 * by_y0_x0(grid[[a0, a1]])                        # p(y0, y1, x0, x1)
        py = p.reshape(-1, 4, 4).sum(axis=2)                         # p(y0, y1)
        log_py = np.log(py, out=np.zeros_like(py), where=py > 0)
        out.append(np.einsum('pk,pk->p', p, weight) + p @ by_y0_x0(log_grid[[a0, a1]])
                   - (py * log_py).sum(axis=1))
    return np.concatenate(out)


def test_brute_force_two_stage_equals_literal_enumeration():
    # every one of the 4^10 grid policies at resolution 1/3, on random
    # full-history sources and stage-table distortions (one with ties)
    rng = np.random.default_rng(8)
    al = StageAlphabets(2, [2, 2], [2, 2])
    grid = simplex_grid(2, 1.0 / 3.0)
    for trial in range(4):
        src = SourceModel(al, [rng.dirichlet(np.ones(2))[None, :],
                               rng.dirichlet(np.ones(2), size=2)])
        tables = [rng.uniform(0.0, 2.0, size=(2, 2)), rng.uniform(0.0, 2.0, size=(4, 4))]
        if trial == 0:
            tables = [np.round(t) for t in tables]
        spec = DistortionSpec.stage_tables(al, tables)
        s = float(rng.uniform(-4.0, -0.2))
        val, pol = brute_force_lagrangian_min(src, spec, s, GridSpec(resolution=1.0 / 3.0))
        assert abs(val - _grid_lagrangians(src, spec, s, grid).min()) < 1e-12
        for k in pol.kernels:
            assert all((grid == row).all(axis=1).any() for row in k.reshape(-1, 2))


def test_brute_force_finds_the_fine_grid_minimum_on_the_fair_iid_source():
    # a per-row descent stopped at 5.94e-5 above the infimum here; the exact
    # 0.01 grid minimum is 5.6948e-6 above it
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-1.0, fp_tol=1e-11))
    val, _ = brute_force_lagrangian_min(src, spec, -1.0, GridSpec(resolution=0.01))
    assert abs(val - (r.rate_nats + r.distortion_total) - 5.6948e-6) < 1e-9


def test_brute_force_two_stage_needs_binary_second_output():
    src = iid_source([0.5, 0.5], 2, y_size=3)
    spec = DistortionSpec.single_letter(src.alphabets, np.ones((2, 3)))
    with pytest.raises(InvalidArgumentError, match=r"\|Y_1\| = 3"):
        brute_force_lagrangian_min(src, spec, -1.0, GridSpec(resolution=0.5))


def test_brute_force_raises_when_the_measured_value_drifts(monkeypatch):
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    monkeypatch.setattr(oracle, "lagrangian_value",
                        lambda *args: lagrangian_value(*args) + 1e-6)
    with pytest.raises(InternalConsistencyError, match="drifted"):
        brute_force_lagrangian_min(src, spec, -1.0, GridSpec(resolution=0.1))


@pytest.mark.parametrize("resolution", [1.0 / 3.0, 0.02, 0.01], ids=["1/3", "0.02", "0.01"])
def test_branch_minima_is_bit_identical_to_the_reduce_form(resolution):
    # random row weights with zero rows and unreachable branches, on convex
    # costs and on costs rounded so that breakpoints and values tie
    rng = np.random.default_rng(19)
    grid = simplex_grid(2, resolution)
    npts = len(grid)
    for trial in range(6):
        ny, nrows = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        n_cand = int(rng.integers(1, 3 * npts))           # a partial last chunk too
        w = rng.dirichlet(np.ones(nrows), size=(ny, n_cand))
        w[rng.random((ny, n_cand, nrows)) < 0.3] = 0.0     # zero-weight rows
        w[rng.random((ny, n_cand)) < 0.2] = 0.0            # unreachable branches
        rho = rng.uniform(0.0, 2.0, size=(ny, nrows, 2))
        s = float(rng.uniform(-4.0, -0.2))
        cost = reference_plogp(grid).sum(axis=1) - s * np.einsum('yrv,jv->yrj', rho, grid)
        if trial % 2:
            cost = np.round(cost, 1)
        vals, picks = oracle._branch_minima(w, cost, grid)
        ref_vals, ref_picks = reference_branch_minima(w, cost, grid)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(picks, ref_picks)


def test_brute_force_is_bit_identical_to_the_reduce_form(monkeypatch):
    # the six criterion-3 configurations at 0.02: values and policy tables
    # equal to those of the masked-log, length-2-reduce kernel
    cases = [(src, s) for src in (iid_source([0.5, 0.5], 2), binary_symmetric_markov(0.3, 2))
             for s in (-1.0, -2.0, -4.0)]
    grid = GridSpec(resolution=0.02)

    def solve_all():
        return [brute_force_lagrangian_min(src, hamming_distortion(src.alphabets), s, grid)
                for src, s in cases]

    new = solve_all()
    monkeypatch.setattr(oracle, "_plogp", reference_plogp)
    monkeypatch.setattr(oracle, "_branch_minima", reference_branch_minima)
    for (val, pol), (ref_val, ref_pol) in zip(new, solve_all()):
        assert val == ref_val
        for a, b in zip(pol.tables, ref_pol.tables):
            assert np.array_equal(a, b)
