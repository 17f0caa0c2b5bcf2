"""The sweep plan of a solve: results bit for bit those of the passes and the
Anderson loop that built fresh tables per stage, no memory shared between
results, and the same refusal of a marginal row that leaves a tilt no mass."""
import numpy as np
import pytest

from causalrd.errors import DegenerateMarginalError
from causalrd.measures import MarginalProcess
from causalrd.model import (DistortionSpec, SourceModel, StageAlphabets, binary_symmetric_markov,
                            hamming_distortion)
from causalrd.solver import (SolverConfig, backward_g, fixed_point_solve, marginal_update,
                             tilted_policy)

from helpers import random_source, reference_solve, uniform_marginal

POOL = StageAlphabets(5, [2] * 5, [2] * 5)     # perfbench's full-history pool, by rng seed


def _pool(seed):
    src = random_source(np.random.default_rng(seed), POOL)
    return src, hamming_distortion(POOL)


def _markov(n):
    src = binary_symmetric_markov(0.3, n)
    return src, hamming_distortion(src.alphabets)


def _three_symbol_stage_tables():
    rng = np.random.default_rng(5)
    al = StageAlphabets(3, [3] * 3, [3] * 3)
    spec = DistortionSpec.stage_tables(
        al, [rng.uniform(0, 2, size=(al.x_hist_size(i), al.y_hist_size(i))) for i in range(3)])
    return random_source(rng, al), spec


def _memory_two():
    rng = np.random.default_rng(6)
    al = StageAlphabets(4, [3] * 4, [2] * 4)
    src = SourceModel(al, [rng.dirichlet(np.ones(3), size=3 ** min(2, i)) for i in range(4)],
                      memory=2)
    return src, DistortionSpec.single_letter(al, rng.uniform(0, 2, size=(3, 2)))


CASES = [(lambda: _pool(38), -0.5), (lambda: _pool(140), -2.0), (lambda: _pool(114), -8.0),
         (lambda: _markov(4), 0.0), (lambda: _markov(4), -4.0),
         (lambda: _markov(10), 0.0), (lambda: _markov(10), -4.0),
         (_three_symbol_stage_tables, -1.5), (_memory_two, -3.0)]


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make, s", CASES, ids=[
    "pool38-s0.5", "pool140-s2", "pool114-s8", "markov4-s0", "markov4-s4", "markov10-s0",
    "markov10-s4", "three-symbol-stage-tables", "memory-2"])
def test_solves_match_the_reference_passes_bit_for_bit(make, s):
    src, spec = make()
    got = fixed_point_solve(src, spec, SolverConfig(s=s))
    want = reference_solve(src, spec, s)
    assert got.converged and want.converged
    assert (got.sweeps_used, got.rate_nats, got.distortion_total, got.residual) == \
        (want.sweeps_used, want.rate_nats, want.distortion_total, want.residual)
    for a, b in zip(got.nu.tables + got.nu.prefix_mass + got.g + got.policy.tables,
                    want.nu.tables + want.nu.prefix_mass + want.g + want.policy.tables):
        assert _same(a, b)


def _arrays(r):
    return r.nu.tables + r.nu.prefix_mass + r.g + r.policy.tables


def test_results_share_no_memory_and_keep_their_values():
    src, spec = _markov(5)
    cfg = SolverConfig(s=-2.0)
    first = fixed_point_solve(src, spec, cfg)
    kept = [a.copy() for a in _arrays(first)]
    second = fixed_point_solve(src, spec, cfg)
    g = backward_g(src, spec, first.nu, -2.0)
    pol = tilted_policy(src, spec, first.nu, g, -2.0)
    nu = marginal_update(src, first.policy)
    assert all(_same(a, b) for a, b in zip(_arrays(first), kept))
    assert all(_same(a, b) for a, b in zip(_arrays(second), kept))
    others = _arrays(second) + g + pol.tables + nu.tables + nu.prefix_mass
    assert not any(np.shares_memory(a, b) for a in _arrays(first) for b in others)


def test_tilted_policy_zero_mass_row_names_stage_and_row():
    # as backward_g in test_fixed_point_zero_mass_nu_init_names_stage_and_row
    src, spec = _markov(3)
    al = src.alphabets
    g = backward_g(src, spec, uniform_marginal(al), -2.0)
    tables = [t.copy() for t in uniform_marginal(al).tables]
    tables[2][3] = 0.0                              # y-history code 3 at stage 2
    with pytest.raises(DegenerateMarginalError, match="stage 2, y-history code 3") as err:
        tilted_policy(src, spec, MarginalProcess(al, tables), g, -2.0)
    assert (err.value.stage, err.value.y_history) == (2, 3)
    assert "x-history code 0 (and every x-history sharing its last 1 of 3 symbols)" \
        in str(err.value)
