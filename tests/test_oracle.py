import math

import numpy as np
import pytest

from causalrd.baseline import blahut_arimoto
from causalrd.errors import InvalidArgumentError, ResourceBudgetError
from causalrd.measures import JointLaw, directed_information, joint_law
from causalrd.model import (
    CausalPolicy,
    StageAlphabets,
    binary_symmetric_markov,
    full_joint_source,
    hamming_distortion,
    iid_source,
)
from causalrd.oracle import (
    GridSpec,
    brute_force_lagrangian_min,
    exhaustive_directed_info,
    simplex_grid,
)
from causalrd.solver import SolverConfig, fixed_point_solve

from helpers import random_alphabets, random_policy, random_source

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


def test_exhaustive_directed_info_product_joint():
    al = StageAlphabets(1, [2], [2])
    j = JointLaw(al, np.outer([0.3, 0.7], [0.4, 0.6]))
    assert abs(exhaustive_directed_info(j)) < 1e-15


def test_exhaustive_directed_info_identity():
    src = iid_source([0.5, 0.5], 2)
    j = joint_law(full_joint_source(src), CausalPolicy.identity(src.alphabets))
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


def test_brute_force_single_stage_near_ba():
    src = iid_source([0.5, 0.5], 1)
    spec = hamming_distortion(src.alphabets)
    val, _ = brute_force_lagrangian_min(src, spec, -2.0, GridSpec(resolution=0.01))
    ba = blahut_arimoto([0.5, 0.5], 1.0 - np.eye(2), -2.0, tol=1e-13)
    ba_lagrangian = ba.rate_nats + 2.0 * ba.distortion
    assert val >= ba_lagrangian - 1e-9
    assert val <= ba_lagrangian + 1e-3


def test_brute_force_two_stage_brackets_solver():
    src = iid_source([0.5, 0.5], 2)
    spec = hamming_distortion(src.alphabets)
    r = fixed_point_solve(src, spec, SolverConfig(s=-2.0, fp_tol=1e-11))
    solver_lagrangian = r.rate_nats + 2.0 * r.distortion_total
    val, pol = brute_force_lagrangian_min(src, spec, -2.0, GridSpec(resolution=0.02))
    assert val >= solver_lagrangian - 1e-9
    assert val <= solver_lagrangian + 5e-3
    # refinement with the coarse argmin injected never increases the value
    val2, _ = brute_force_lagrangian_min(src, spec, -2.0, GridSpec(resolution=0.01),
                                         seed_policy=pol)
    assert val2 <= val + 1e-12


def test_brute_force_deterministic():
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    va, pa = brute_force_lagrangian_min(src, spec, -1.0, GridSpec(resolution=0.05))
    vb, pb = brute_force_lagrangian_min(src, spec, -1.0, GridSpec(resolution=0.05))
    assert va == vb
    for a, b in zip(pa.kernels, pb.kernels):
        assert np.array_equal(a, b)


def test_brute_force_budget_guards():
    src = iid_source([0.5, 0.5], 3)
    spec = hamming_distortion(src.alphabets)
    with pytest.raises(ResourceBudgetError):
        brute_force_lagrangian_min(src, spec, -1.0, GridSpec())
    src2 = iid_source([0.5, 0.5], 2)
    spec2 = hamming_distortion(src2.alphabets)
    with pytest.raises(ResourceBudgetError):
        brute_force_lagrangian_min(src2, spec2, -1.0,
                                   GridSpec(resolution=0.02, max_cells=100))


def test_brute_force_rejects_off_grid_seed():
    # the 0.05 argmin has rows such as [0.95, 0.05], which are not multiples
    # of 1/50; seeding a 0.02 search with it used to return off-grid rows
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    _, coarse = brute_force_lagrangian_min(src, spec, -2.0, GridSpec(resolution=0.05))
    with pytest.raises(InvalidArgumentError, match="off the 0.02 grid"):
        brute_force_lagrangian_min(src, spec, -2.0, GridSpec(resolution=0.02),
                                   seed_policy=coarse)


def test_brute_force_rejects_seed_with_other_alphabets():
    src = binary_symmetric_markov(0.3, 2)
    spec = hamming_distortion(src.alphabets)
    other = CausalPolicy.uniform(iid_source([0.5, 0.5], 2, y_size=4).alphabets)
    with pytest.raises(InvalidArgumentError, match="alphabets"):
        brute_force_lagrangian_min(src, spec, -2.0, GridSpec(resolution=0.02),
                                   seed_policy=other)
